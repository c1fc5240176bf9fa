"""Benchmark of ybx: one seeded workload, single process, closed loop.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Runs the program from the source tree beside this directory (src/ybx).
Set-up is timed in fresh interpreters; then whole passes over the
workload's fixed task list run until the next one would end after
--seconds (at least two passes).  Every output is checked afterwards,
outside the timed region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 passes
alternate untraced and traced, and the metrics are the per-layer ones.
"""

import argparse
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# a median over one pass is a single reading of a drifting CPU
MIN_PASSES = 2
# set-up samples before the first pass and after each pass: spread over the
# run, a drift of CPU speed during it moves their median less
SETUP_FIRST, SETUP_PER_PASS = 3, 2

# a fresh interpreter importing ybx and parsing the workload's solution files
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import ybx
from ybx import cli
for path in sys.argv[2:]:
    with open(path) as fh:
        cli.parse_solution(fh.read())
"""


@dataclass
class Pass:
    times: list         # seconds per task
    outputs: list       # ((start, end) in the store, None) or (None, error)

    @property
    def wall(self):
        return sum(self.times)


def run_pass(tasks, store):
    """Time each task alone.  Each result is pickled to the file `store` as
    soon as its timer stops, so no task runs with earlier results alive for
    the collector to traverse, and the resident set holds no result but the
    current task's, whatever the task order and the number of passes."""
    times, outputs = [], []
    for task in tasks:
        t0 = perf_counter()
        try:
            out = task.call()
        except Exception as exc:   # a task that raises is a failed operation
            times.append(perf_counter() - t0)
            outputs.append((None, repr(exc)))
            continue
        times.append(perf_counter() - t0)
        start = store.tell()
        pickle.dump(out, store)
        outputs.append(((start, store.tell()), None))
        del out
    return Pass(times, outputs)


def time_setup(cmd, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(cmd, check=True)
        times.append(perf_counter() - t0)
    return times


def verify(tasks, passes, store):
    """(failed, wrong): operations that raised, exited wrongly or returned
    a wrong answer, and those of them whose output failed its check."""
    failed = wrong = 0
    for i, task in enumerate(tasks):
        checked = {}                     # pickled output -> verdict
        for p in passes:
            span, error = p.outputs[i]
            if error is not None:
                failed += 1
                print(f"FAILED {task.label}: {error}", file=sys.stderr)
                continue
            store.seek(span[0])
            blob = store.read(span[1] - span[0])
            if blob not in checked:
                try:
                    task.check(pickle.loads(blob))
                    checked[blob] = None
                except Exception as err:    # a malformed output is wrong too
                    checked[blob] = repr(err)
            verdict = checked[blob]
            if verdict is not None:
                failed += 1
                wrong += 1
                print(f"WRONG {task.label}: {verdict}", file=sys.stderr)
    return failed, wrong


def hd_median(values):
    """Harrell-Davis estimate of the median: the mean of the order
    statistics weighted by the Beta((n+1)/2, (n+1)/2) mass of each 1/n
    slice.  Where values are sparse near the middle, the plain median jumps
    from one value to the next as noise reorders them; this does not."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)
    steps = 64                       # midpoint rule within each slice
    weights = []
    for i in range(n):
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(t * (1 - t)) - log_beta)
                           for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes, setup_s, rss_mb):
    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "task_p50_ms": hd_median(t for p in passes for t in p.times) * 1e3,
        "task_max_s": statistics.median(max(p.times) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer(untraced, traced):
    """Counts from the first traced pass, times as medians over them."""
    first = traced[0][1]
    out = dict(first)
    for key in first:
        if key.endswith("_s"):
            out[key] = statistics.median(summary[key] for _, summary in traced)
    out["trace.overhead_s"] = (statistics.median(p.wall for p, _ in traced)
                               - statistics.median(p.wall for p in untraced))
    for _, summary in traced[1:]:
        moved = [k for k in first if not k.endswith("_s") and summary[k] != first[k]]
        if moved:
            print(f"note: counts differ between traced passes: {moved}",
                  file=sys.stderr)
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ybx" / "__init__.py").is_file():
        print(f"error: no ybx source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import ybx
    if Path(ybx.__file__).resolve().parent != SRC / "ybx":
        print(f"error: imported ybx from {ybx.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import spans
    import workloads

    with (tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as work,
          open(Path(work) / "outputs.pickle", "w+b") as store):
        wl = workloads.build(args.workload, args.seed, work)
        setup_cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *wl.files]
        setup_times = []
        if not args.trace:
            subprocess.run(setup_cmd, check=True)   # writes bytecode caches
            setup_times = time_setup(setup_cmd, SETUP_FIRST)
        untraced, traced = [], []
        start = perf_counter()
        while True:
            untraced.append(run_pass(wl.tasks, store))
            last = untraced[-1].wall
            if not args.trace:
                setup_times += time_setup(setup_cmd, SETUP_PER_PASS)
            else:
                tracer = spans.Tracer()
                with spans.traced(tracer):
                    p = run_pass(wl.tasks, store)
                traced.append((p, tracer.summary()))
                if len(traced) == 1:
                    OUT.mkdir(exist_ok=True)
                    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
                last += p.wall
            if (len(untraced) >= MIN_PASSES
                    and perf_counter() - start + last > args.seconds):
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = untraced + [p for p, _ in traced]
        failed, wrong = verify(wl.tasks, passes, store)

    if args.trace:
        values = per_layer(untraced, traced)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(untraced, statistics.median(setup_times), rss_mb)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(wl.tasks)} tasks",
          file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": len(wl.tasks) * len(passes),
              "failed": failed, "metrics": metrics}
    text = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        text + "\n")
    print(text)


if __name__ == "__main__":
    main()
