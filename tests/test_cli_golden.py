"""Exact stdout and exit code of the CLI on the cycle3/mixed3/rid2 fixtures.

Key:value text reports (no --json), the linear and graph flag
combinations, tournament basepoints, a masked enumeration and -o FILE,
and one report from a fresh interpreter.
Long outputs are stored as the sha256 of their stdout.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from ybx import cli
from test_cli import CYCLE3_TEXT, RID2_TEXT, mixed3_text, run, run_error

GOLDEN = [
    ("check {cycle3}", 0,
     "braided: True\nidempotent: True\ninvolutive: False\n"
     "left_2_cancellative: True\nleft_nondegenerate: True\n"
     "right_nondegenerate: False\n"),
    ("orbits {mixed3}", 0,
     "fixed_points: [['(1,1)'], ['(3,1)'], ['(2,1)']]\norbit_count: 3\n"
     "orbits: [['(1,1)', '(2,2)', '(3,3)'], ['(1,2)', '(2,3)', '(3,1)'], "
     "['(1,3)', '(2,1)', '(3,2)']]\n"),
    ("relations {cycle3}", 0,
     "relations: ['x2.x1 - x1.x1', 'x2.x2 - x1.x2', 'x2.x3 - x1.x3', "
     "'x3.x1 - x1.x1', 'x3.x2 - x1.x2', 'x3.x3 - x1.x3']\n"),
    ("groebner {mixed3}", 0,
     "binomial: True\ncomplete: True\nmax_degree: 6\n"
     "rules: ['2 1 -> x1.x3', '2 2 -> x1.x1', '2 3 -> x1.x2', "
     "'3 1 -> x1.x2', '3 2 -> x1.x3', '3 3 -> x1.x1']\n"),
    ("hilbert {cycle3}", 0, "coefficients: [1, 3, 3, 3, 3, 3]\nexact: True\n"),
    ("dims {mixed3}", 0, "gk: Polynomial(1)\ngldim: Infinite\npbw: True\n"),
    ("tournament {rid2}", 0, "matches: True\nrelabeling: [1, 2]\n"),
    ("tournament {mixed3}", 1, "matches: False\n"),
    ("veronese {mixed3}", 0,
     "d: 2\nlabels: ['x1.x1', 'x1.x2', 'x1.x3']\nsize: 3\n"
     "table: ['r(1,1) = (1,1)', 'r(1,2) = (2,1)', 'r(1,3) = (3,1)', "
     "'r(2,1) = (2,1)', 'r(2,2) = (3,1)', 'r(2,3) = (1,1)', "
     "'r(3,1) = (3,1)', 'r(3,2) = (1,1)', 'r(3,3) = (2,1)']\n"),
    ("prolong {mixed3}", 0, "distinct: 2\nequal_to_r: [1, 3]\nperiod: 2\n"),
    ("segre {rid2} {rid2}", 0,
     "dims_ok: True\nok: True\nrelation_space_ok: True\nrelations_vanish: True\n"),
    ("linear {cycle3}", 0, "braid: True\nidempotent: True\nybe: True\n"),
    ("linear {rid2} --frt --bmat --transpose --ybe", 0,
     "bmat: ['u^1_2.u^2_1', 'u^1_2.u^2_2', 'u^2_1.u^1_1', 'u^2_1.u^1_2']\n"
     "braid: True\n"
     "frt: ['t^2_1.t^1_1', 't^1_1.t^1_2 - t^1_2.t^1_2 + t^2_1.t^1_2', "
     "'t^2_2.t^1_2', '- t^1_1.t^1_1 + t^1_2.t^1_1 + t^2_2.t^1_1', "
     "'t^1_1.t^2_1', 't^1_2.t^2_2', '- t^1_1.t^2_2 - t^2_1.t^2_2 + t^2_2.t^2_2', "
     "'t^1_2.t^2_1 - t^2_1.t^2_1 + t^2_2.t^2_1']\n"
     "idempotent: True\n"
     "transpose: ['y2.y1', '-1*y1.y2', '-1*y2.y1', 'y1.y2']\n"
     "ybe: True\n"),
    ("linear {cycle3} --frt --bmat --transpose --ybe", 0,
     "sha256:426741e5a9bf7919dec5a6133d7c3f5751306f8c303281c9c6fa0aaf26b19f99"),
    ("calculus", 0, "annihilator: True\nconnected: True\nrho_ok: True\n"),
    ("graph {cycle3} --dot", 0,
     'digraph G {\n  "x1";\n  "x2";\n  "x3";\n'
     '  "x1" -> "x1";\n  "x1" -> "x2";\n  "x1" -> "x3";\n}\n'),
    ("graph {mixed3} --gw --dot", 0,
     'digraph G {\n  "x1";\n  "x2";\n  "x3";\n'
     '  "x2" -> "x1";\n  "x2" -> "x2";\n  "x2" -> "x3";\n'
     '  "x3" -> "x1";\n  "x3" -> "x2";\n  "x3" -> "x3";\n}\n'),
    ("graph {mixed3} --orbit", 0,
     "edges: ['(1,1) -> (1,1)', '(1,2) -> (3,1)', '(1,3) -> (2,1)', "
     "'(2,1) -> (2,1)', '(2,2) -> (1,1)', '(2,3) -> (3,1)', "
     "'(3,1) -> (3,1)', '(3,2) -> (2,1)', '(3,3) -> (1,1)']\nvertices: 9\n"),
    ("enumerate -n 2 --mask braided", 0,
     "sha256:fcc93c4f5368154bc60319abe10777726595b802ffa25d3b25fbb9f932e94bcb"),
]


@pytest.fixture
def fixtures(tmp_path):
    paths = {}
    for name, text in [("cycle3", CYCLE3_TEXT), ("rid2", RID2_TEXT),
                       ("mixed3", mixed3_text())]:
        path = tmp_path / f"{name}.ybx"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _digest(text):
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,want", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_stdout(capsys, fixtures, argv, code, want):
    got_code, out = run(capsys, *argv.format(**fixtures).split())
    assert got_code == code
    assert (_digest(out) if want.startswith("sha256:") else out) == want


# a fresh interpreter runs the record definitions and the imports in the
# order a ybx command does, which in-process tests see only once
COLD_START = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from ybx import cli; cli.main(sys.argv[2:])")


def test_cold_interpreter_prints_the_golden_report(fixtures):
    argv, code, want = next(g for g in GOLDEN if g[0] == "dims {mixed3}")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-I", "-c", COLD_START, str(src),
                           *argv.format(**fixtures).split()], capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, want.encode(), b"")


def test_tournament_basepoint_without_self_arrow(capsys, fixtures):
    code, err = run_error(capsys, "tournament", fixtures["mixed3"],
                          "--basepoint", "2")
    assert code == 2
    assert err == "error: basepoint must carry a self-arrow\n"


@pytest.mark.parametrize("argv", [
    "check {rid2} -o {out}",
    "check {rid2} --json -o {out}",
    "graph {cycle3} --dot -o {out}",
    "linear {rid2} --frt --transpose -o {out}",
])
def test_output_file_matches_stdout(capsys, fixtures, tmp_path, argv):
    dest = tmp_path / "report.txt"
    words = argv.format(out=dest, **fixtures).split()
    code, out = run(capsys, *words)
    assert code == 0 and out == ""
    to_file = dest.read_text()
    code, out = run(capsys, *words[:-2])
    assert code == 0 and out == to_file
