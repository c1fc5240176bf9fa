"""The four workloads: seeded inputs, the timed call of each task, and
the check of its output against bench/oracle.py.

A task is one CLI invocation or one library call.  `call` is what the
benchmark times; `check` runs afterwards and raises oracle.WrongAnswer.
Calls look ybx functions up as module attributes at call time, so the
traced run sees every call through its wrappers.
"""

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import comb
from pathlib import Path
from typing import Callable

from ybx import cli, linr, ncgb, quadset

import oracle as o
from oracle import expect


@dataclass
class Task:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    tasks: list = field(default_factory=list)
    files: list = field(default_factory=list)   # parsed again at set-up


@dataclass(frozen=True)
class Solution:
    n: int
    table: tuple
    path: str
    f: tuple = None          # set for permutation solutions r_f


# ----------------------------------------------------------- helpers

def run_cli(argv):
    """ybx.cli.main in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue()


def cli_task(label, argv, want_code, check):
    def verify(result):
        code, text = result
        expect(code == want_code, f"exit code {code}, want {want_code}")
        check(json.loads(text))
    return Task(label, lambda: run_cli(argv + ["--json"]), verify)


def write_solution(work, name, n, table, f=None):
    path = Path(work) / f"{name}.ybx"
    lines = ["ybx v1", f"size {n}"]
    if f is not None:
        lines.append("permutation " + " ".join(str(x + 1) for x in f))
    else:
        lines += [f"map {i + 1} {j + 1} {k + 1} {l + 1}"
                  for (i, j), (k, l) in zip(product(range(n), repeat=2), table)]
    path.write_text("\n".join(lines) + "\n")
    return Solution(n, tuple(table), str(path), None if f is None else tuple(f))


def random_cycle_type(rng, cycles):
    """A permutation with the given cycle lengths on randomly chosen points."""
    points = list(range(sum(cycles)))
    rng.shuffle(points)
    f = [None] * len(points)
    start = 0
    for length in cycles:
        cyc = points[start:start + length]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            f[a] = b
        start += length
    return f


def pair_str(p):
    return f"({p[0] + 1},{p[1] + 1})"


def word_str(w):
    return ".".join(f"x{x + 1}" for x in w)


def parse_word(text):
    return tuple(int(x[1:]) - 1 for x in text.split("."))


def braided_left_action_tables():
    """The braided ones among the 216 idempotent left-nondegenerate tables
    on 3 points (one per triple of left actions)."""
    return [t for t in o.left_action_tables(3) if o.properties(3, t)["braided"]]


# ---------------------------------------------------- pipeline checks

def check_report(sol):
    want = o.properties(sol.n, sol.table)

    def check(out):
        expect(out == want, f"properties {out} != {want}")
    return check


def check_orbits(sol):
    orbs = o.orbits(sol.n, sol.table)
    want = sorted(sorted(pair_str(p) for p in orb) for orb in orbs)
    fixed = sorted(sorted(pair_str(p) for p in orb
                          if sol.table[p[0] * sol.n + p[1]] == p)
                   for orb in orbs)

    def check(out):
        expect(out["orbit_count"] == len(orbs), "orbit count")
        expect(sorted(out["orbits"]) == want, "orbit members")
        expect(sorted(out["fixed_points"]) == fixed, "fixed points")
    return check


def check_relations(sol):
    n = sol.n
    want = sorted((word_str(u), word_str(v))
                  for u, v in o.canonical_relations(n, sol.table))

    def check(out):
        got = sorted(tuple(r.split(" - ")) for r in out["relations"])
        expect(len(got) == n * n - n, f"{len(got)} relations, want n^2 - n")
        expect(got == want, "relations are not u - min(orbit of u)")
    return check


def check_groebner(sol):
    want = sorted(o.canonical_relations(sol.n, sol.table))

    def check(out):
        expect(out["complete"] is True and out["binomial"] is True,
               "basis not complete and binomial")
        got = []
        for rule in out["rules"]:
            lead, rhs = rule.split(" -> ")
            lead = tuple(int(x) - 1 for x in lead.split())
            expect(len(lead) == 2, f"lead {lead} has length {len(lead)}")
            got.append((lead, parse_word(rhs)))
        expect(sorted(got) == want, "rules differ from the relations")
    return check


def check_hilbert(sol, max_deg):
    want = [1] + [sol.n] * (max_deg - 1)

    def check(out):
        expect(out == {"coefficients": want, "exact": True},
               f"Hilbert prefix {out['coefficients']}, want {want}")
    return check


def check_dims(out):
    want = {"gk": "Polynomial(1)", "gldim": "Infinite", "pbw": True}
    expect(out == want, f"dims {out} != {want}")


def tournament_matches(n):
    # the normal graph has n arrows; a tournament with one loop has
    # n(n-1)/2 + 1
    return n * (n - 1) // 2 + 1 == n


def check_tournament(sol):
    def check(out):
        expect(out["matches"] is tournament_matches(sol.n), "tournament verdict")
    return check


def check_graph_gw(sol):
    # the obstruction graph holds the arrows x -> y with xy not normal
    want = sorted(f"x{u[0] + 1} -> x{u[1] + 1}"
                  for u, _ in o.canonical_relations(sol.n, sol.table))

    def check(out):
        expect(out["vertices"] == sol.n, "vertex count")
        expect(sorted(out["edges"]) == want, "obstruction arrows")
    return check


TABLE_ENTRY = re.compile(r"r\((\d+),(\d+)\) = \((\d+),(\d+)\)")


def check_veronese(sol, d):
    n = sol.n
    leads = {u for u, _ in o.canonical_relations(n, sol.table)}
    *_, words = o.normal_word_levels(leads, n, d)
    labels = [word_str(w) for w in words]
    want = o.perm_table(o.perm_power(sol.f, d)) if sol.f else None

    def check(out):
        expect(out["d"] == d and out["size"] == n, "level or size")
        expect(out["labels"] == labels, "labels are not the normal words")
        table = [None] * (n * n)
        for entry in out["table"]:
            i, j, k, l = (int(x) - 1 for x in TABLE_ENTRY.fullmatch(entry).groups())
            table[i * n + j] = (k, l)
        if want is not None:
            expect(tuple(table) == want, f"level {d} table is not r_(f^{d})")
        else:
            rep = o.properties(n, tuple(table))
            expect(rep["braided"] and rep["idempotent"]
                   and rep["left_nondegenerate"],
                   "Veronese solution is not left-nondegenerate idempotent braided")
    return check


def check_prolong(sol, max_d):
    order = o.perm_order(sol.f)
    want = {"period": order if order < max_d else None,
            "distinct": min(order, max_d),
            "equal_to_r": [d for d in range(1, max_d + 1) if (d - 1) % order == 0]}

    def check(out):
        expect(out == want, f"prolongation {out} != {want}")
    return check


def check_koszul_nichols(sol):
    pre = o.preimages(sol.n, sol.table)
    koszul = [" + ".join(f"y{a + 1}.y{b + 1}" for a, b in ps)
              for ps in pre.values()]
    nichols = [f"theta{a + 1}.theta{b + 1} = 0" for a, b in pre]

    def check(out):
        expect(out == {"koszul": koszul, "nichols": nichols},
               "Koszul dual or Nichols relations")
    return check


def check_segre(out):
    expect(out == {"relations_vanish": True, "dims_ok": True,
                   "relation_space_ok": True, "ok": True}, f"segre {out}")


def check_calculus(symmetric):
    def check(out):
        expect(out["rho_ok"] is True, "rho conditions fail")
        if symmetric:
            expect(out["annihilator"] is True and out["connected"] is True,
                   "symmetric calculus not annihilating or not connected")
    return check


# ------------------------------------------------------------ pipeline

PIPELINE_CYCLE_TYPES = [(3,), (2, 1), (1, 1, 1), (4,), (2, 2), (3, 1),
                        (5,), (6,), (7,), (8,)]


def solution_tasks(sol, max_deg=6):
    path, n, deg = sol.path, sol.n, ["--max-deg", str(max_deg)]
    name = Path(path).stem
    tasks = [
        cli_task(f"check {name}", ["check", path] + deg,
                 0 if o.properties(n, sol.table)["braided"] else 1,
                 check_report(sol)),
        cli_task(f"orbits {name}", ["orbits", path] + deg, 0, check_orbits(sol)),
        cli_task(f"relations {name}", ["relations", path] + deg, 0,
                 check_relations(sol)),
        cli_task(f"groebner {name}", ["groebner", path] + deg, 0,
                 check_groebner(sol)),
        cli_task(f"hilbert {name}", ["hilbert", path] + deg, 0,
                 check_hilbert(sol, max_deg)),
        cli_task(f"dims {name}", ["dims", path] + deg, 0, check_dims),
        cli_task(f"tournament {name}", ["tournament", path] + deg,
                 0 if tournament_matches(n) else 1, check_tournament(sol)),
        cli_task(f"graph-gw {name}", ["graph", path, "--gw"] + deg, 0,
                 check_graph_gw(sol)),
        cli_task(f"linear-kn {name}", ["linear", path, "--koszul", "--nichols"],
                 0, check_koszul_nichols(sol)),
    ]
    for d in (2, 3):
        tasks.append(cli_task(f"veronese-{d} {name}",
                              ["veronese", path, "-d", str(d)], 0,
                              check_veronese(sol, d)))
    if sol.f is not None:
        order = o.perm_order(sol.f)
        max_d = order + 1 if order <= 5 else 4
        tasks.append(cli_task(f"prolong {name}",
                              ["prolong", path, "--max-d", str(max_d)], 0,
                              check_prolong(sol, max_d)))
    return tasks


def random_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def pipeline(rng, work):
    wl = Workload()
    perms = []
    for cycles in PIPELINE_CYCLE_TYPES:
        f = random_cycle_type(rng, cycles)
        name = "perm" + "".join(str(c) for c in cycles)
        perms.append(write_solution(work, name, len(f), o.perm_table(f), f))
    braided = braided_left_action_tables()
    picks = rng.sample(braided, 6)
    lat = [write_solution(work, f"lat{k}", 3, t) for k, t in enumerate(picks)]
    g2 = [random_cycle_type(rng, c) for c in ((2,), (1, 1))]
    s2 = [write_solution(work, f"perm2-{k}", 2, o.perm_table(g), g)
          for k, g in enumerate(g2)]
    b = rng.sample(braided, 2)
    h = random_cycle_type(rng, (3,))
    prods = [
        write_solution(work, "prod2x3", 6,
                       o.product_table(2, s2[0].table, 3, b[0])),
        write_solution(work, "prod3x3", 9,
                       o.product_table(3, b[1], 3, o.perm_table(h))),
    ]
    for sol in perms + lat + prods:
        # normal words of length d number n^d, so larger n gets a lower bound
        wl.tasks += solution_tasks(sol, 5 if sol.n >= 7 else 6)
    # the largest single command: normal words of the 8-cycle to degree 6
    cyc8 = perms[-1]
    wl.tasks.append(cli_task("hilbert-7 perm8", ["hilbert", cyc8.path,
                                                 "--max-deg", "7"],
                             0, check_hilbert(cyc8, 7)))
    for a, b_ in ((s2[0], s2[1]), (s2[0], lat[0]), (s2[1], perms[0])):
        wl.tasks.append(cli_task(f"segre {Path(a.path).stem} {Path(b_.path).stem}",
                                 ["segre", a.path, b_.path], 0, check_segre))
    points = [("1", "0", "1", "0")] + [
        tuple(str(random_fraction(rng)) for _ in range(4)) for _ in range(3)]
    for k, p in enumerate(points):
        wl.tasks.append(cli_task(f"calculus {','.join(p)}",
                                 ["calculus", "--params=" + ",".join(p)], 0,
                                 check_calculus(k == 0)))
    wl.files = [s.path for s in perms + lat + s2 + prods]
    return wl


# ---------------------------------------------------------- completion

def check_reduced_binomial(gb):
    """No lead contains another, and every right side is one normal word
    with coefficient 1, of the lead's length and below it in deg-lex."""
    leads = [lead for lead, _ in gb.rules]
    expect(len(set(leads)) == len(leads), "repeated lead")
    lead_set = set(leads)
    for lead in leads:
        inner = {lead[i:j] for i in range(len(lead))
                 for j in range(i + 1, len(lead) + 1)} - {lead}
        expect(not inner & lead_set, f"lead {lead} contains another lead")
    for lead, rhs in gb.rules:
        expect(len(rhs) == 1 and rhs[0][1] == 1, f"rule {lead} not binomial")
        word = rhs[0][0]
        expect(len(word) == len(lead) and word < lead, f"rule {lead} not ordered")
        factors = {word[i:j] for i in range(len(word))
                   for j in range(i + 1, len(word) + 1)}
        expect(not factors & lead_set, f"right side of {lead} is not normal")


def completion_task(label, relations, n, degree, want_counts):
    """want_counts() gives the normal-word count of each degree 0..top."""
    polys = [{u: Fraction(1), v: Fraction(-1)} for u, v in relations]

    def verify(gb):
        check_reduced_binomial(gb)
        want = want_counts()
        got = o.normal_word_counts([lead for lead, _ in gb.rules], n, len(want) - 1)
        expect(got == want, f"normal words {got}, want {want}")
    return Task(label, lambda: ncgb.complete(polys, degree, alphabet=n), verify)


def involutive_nondegenerate_3():
    """The five involutive, left- and right-nondegenerate braided solutions
    on 3 points, each as its least relabelling."""
    classes = {o.canonical(3, o.involutive_table(s))
               for s in product(list(permutations(range(3))), repeat=3)}
    return sorted(t for t in classes if o.properties(3, t)["braided"]
                  and o.properties(3, t)["right_nondegenerate"])


def random_binomials(rng, n=4, k=5):
    words = list(product(range(n), repeat=2))
    chosen = set()
    while len(chosen) < k:
        chosen.add(frozenset(rng.sample(words, 2)))
    return sorted(tuple(sorted(pair, reverse=True)) for pair in chosen)


PRODUCT_DEGREE = 4
# the product of the last solution with itself is left out: it completes
# to degree 3 in about 2 s and to degree 4 in about a minute
TOO_SLOW = {(4, 4)}
# The cost of completing a random binomial set spans two orders of
# magnitude (0.01 s to 12 s at degree 9), so the deep sets come from fixed
# instance seeds and --seed only draws shallow ones; otherwise wall_s
# would measure the draw rather than the program.
FIXED_BINOMIAL_SEEDS = range(3)
FIXED_DEGREE = 9
SEEDED_SETS = 4
SEEDED_DEGREE = 5
CONGRUENCE_CHECK_DEGREE = 8


def completion(rng, work):
    wl = Workload()
    sols = involutive_nondegenerate_3()
    for k, t in enumerate(sols):
        wl.files.append(write_solution(work, f"invol{k}", 3, t).path)
    for i, j in combinations_with_replacement(range(len(sols)), 2):
        rels = o.canonical_relations(9, o.product_table(3, sols[i], 3, sols[j]))
        # quadratic relations whose leads leave the right degree-3 count are
        # already a Groebner basis (PBW): nothing to complete
        pbw = (o.normal_word_counts([u for u, _ in rels], 9, 3)
               == o.polynomial_ring_dims(9, 3))
        if pbw or (i, j) in TOO_SLOW:
            continue
        wl.tasks.append(completion_task(
            f"complete invol{i}x{j} D={PRODUCT_DEGREE}", rels, 9, PRODUCT_DEGREE,
            lambda: o.polynomial_ring_dims(9, PRODUCT_DEGREE)))
    sets = [(f"fixed{s}", random_binomials(random.Random(s)), FIXED_DEGREE)
            for s in FIXED_BINOMIAL_SEEDS]
    sets += [(f"seeded{k}", random_binomials(rng), SEEDED_DEGREE)
             for k in range(SEEDED_SETS)]
    for name, rels, degree in sets:
        top = min(degree, CONGRUENCE_CHECK_DEGREE)
        wl.tasks.append(completion_task(
            f"complete {name} D={degree}", rels, 4, degree,
            lambda rels=rels, top=top: o.congruence_class_counts(rels, 4, top)))
    return wl


# -------------------------------------------------------------- linear

TRANSPOSE_TERM = re.compile(r"(?:(-?\d+)\*)?y(\d+)\.y(\d+)")


def check_linear_default(sol):
    rep = o.properties(sol.n, sol.table)
    want = {"braid": rep["braided"], "ybe": rep["braided"],
            "idempotent": rep["idempotent"]}

    def check(out):
        expect(out == want, f"linear {out} != {want}")
    return check


def check_transpose(sol):
    n = sol.n
    pre = o.preimages(n, sol.table)
    want = []
    for i, j in product(range(n), repeat=2):
        p = {q: 1 for q in pre.get((i, j), [])}
        p[(i, j)] = p.get((i, j), 0) - 1
        p = {q: c for q, c in p.items() if c}
        if p:
            want.append(p)
    lonely = sum(1 for img, ps in pre.items() if ps == [img])
    expect(len(want) == n * n - lonely, "transpose count")

    def check(out):
        got = []
        for rel in out["transpose"]:
            p = {}
            for term in rel.split(" + "):
                c, a, b = TRANSPOSE_TERM.fullmatch(term).groups()
                p[(int(a) - 1, int(b) - 1)] = int(c) if c else 1
            got.append(p)
        expect(len(got) == n * n - lonely,
               f"{len(got)} transpose relations, want {n * n - lonely}")
        expect(got == want, "transpose relations")
    return check


def check_frt_bmat(kind, n):
    want = comb(n * n, 2) if kind == "flip" else 0

    def check(out):
        expect(len(out["frt"]) == want and len(out["bmat"]) == want,
               f"{len(out['frt'])} FRT, {len(out['bmat'])} braided-matrix "
               f"relations, want {want}")
    return check


def check_true(out):
    expect(out is True, f"returned {out!r}")


def check_koszul_rows(sol):
    # image(Psi^T) over the dual basis: vectors constant on every preimage
    blocks = list(o.preimages(sol.n, sol.table).values())

    def check(mat):
        expect(mat.rows == len(blocks), f"rank {mat.rows}, want |im r| = {len(blocks)}")
        for row in mat.data:
            expect(any(row), "zero row")
            for block in blocks:
                vals = {row[a * sol.n + b] for a, b in block}
                expect(len(vals) == 1, "row not constant on a preimage")
    return check


def check_splus_rows(sol):
    # image(id - Psi) for idempotent r: vectors summing to 0 on every preimage
    blocks = list(o.preimages(sol.n, sol.table).values())
    want = sol.n ** 2 - len(blocks)

    def check(mat):
        expect(mat.rows == want, f"rank {mat.rows}, want n^2 - |im r| = {want}")
        for row in mat.data:
            expect(any(row), "zero row")
            for block in blocks:
                expect(sum(row[a * sol.n + b] for a, b in block) == 0,
                       "row does not sum to 0 on a preimage")
    return check


def random_table(rng, n):
    """A seeded table that is neither braided nor idempotent."""
    while True:
        t = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n * n))
        rep = o.properties(n, t)
        if not rep["braided"] and not rep["idempotent"]:
            return t


def linear(rng, work):
    wl = Workload()
    perms, others = [], []
    for n in range(3, 7):
        f = list(range(n))
        rng.shuffle(f)
        perms.append(write_solution(work, f"perm{n}", n, o.perm_table(f), f))
    for n in range(3, 6):
        others.append(write_solution(work, f"rand{n}", n, random_table(rng, n)))
    for sol in perms + others:
        name = Path(sol.path).stem
        wl.tasks.append(cli_task(f"linear {name}", ["linear", sol.path], 0,
                                 check_linear_default(sol)))
        wl.tasks.append(cli_task(f"linear-transpose {name}",
                                 ["linear", sol.path, "--transpose"], 0,
                                 check_transpose(sol)))
    named = []
    for kind in ("flip", "identity"):
        sol = write_solution(work, f"{kind}4", 4, o.named_table(kind, 4))
        named.append(sol)
        wl.tasks.append(cli_task(f"linear-frt-bmat {kind}4",
                                 ["linear", sol.path, "--frt", "--bmat"], 0,
                                 check_frt_bmat(kind, 4)))
    for n, m in product((3, 4), (3, 4)):
        f = list(range(n))
        rng.shuffle(f)
        psi, _ = linr.linearize(quadset.QuadraticSet(n, o.perm_table(f)))
        wl.tasks.append(Task(f"nichols_quadratic_check n={n} m={m}",
                             lambda psi=psi, m=m:
                             linr.nichols_quadratic_check(psi, m),
                             check_true))
    lat = [write_solution(work, f"lat{k}", 3, t)
           for k, t in enumerate(rng.sample(o.left_action_tables(3), 2))]
    for sol in perms + lat:
        _, rmat = linr.linearize(quadset.QuadraticSet(sol.n, sol.table))
        name = Path(sol.path).stem
        wl.tasks.append(Task(f"koszul_dual_relations {name}",
                             lambda rmat=rmat: linr.koszul_dual_relations(rmat),
                             check_koszul_rows(sol)))
        wl.tasks.append(Task(f"splus_relations {name}",
                             lambda rmat=rmat: linr.splus_relations(rmat),
                             check_splus_rows(sol)))
    wl.files = [s.path for s in perms + others + named]
    return wl


# ----------------------------------------------------------- enumerate

ENUMERATE_MASKS_3 = [
    ("involutive",),
    ("left_nondegenerate", "right_nondegenerate"),
    ("idempotent", "left_nondegenerate"),
    ("braided", "involutive"),
    ("braided", "idempotent", "left_nondegenerate"),
]


def expected_count_3(mask):
    if set(mask) == {"left_nondegenerate", "right_nondegenerate"}:
        return o.count_nondegenerate(3)
    if "involutive" in mask:
        return o.enumeration_count(3, mask, o.involutive_tables(3))
    # idempotent left-nondegenerate tables are fixed by their left actions
    return o.enumeration_count(3, mask, o.left_action_tables(3))


def enumerate_task(n, mask, want):
    def verify(sols):
        o.check_enumeration(n, mask, [s.r_table for s in sols], want())
    label = f"enumerate n={n} {','.join(mask) or '(none)'}"
    return Task(label, lambda: quadset.enumerate_solutions(n, list(mask)), verify)


def enumerate_(rng, work):
    """Inputs are (n, mask) alone, and all 64 masks run at n = 2: a seeded
    subset made task_p50_ms a function of the draw.  The seed only orders
    the tasks."""
    wl = Workload()
    for mask in ENUMERATE_MASKS_3:
        wl.tasks.append(enumerate_task(3, mask,
                                       lambda mask=mask: expected_count_3(mask)))
    tables_2 = [tuple(divmod(q, 2) for q in c)
                for c in product(range(4), repeat=4)]
    for k in range(len(o.PROPERTY_NAMES) + 1):
        for mask in combinations(o.PROPERTY_NAMES, k):
            wl.tasks.append(enumerate_task(
                2, mask, lambda mask=mask: o.enumeration_count(2, mask, tables_2)))
    return wl


BUILDERS = {"pipeline": pipeline, "completion": completion,
            "linear": linear, "enumerate": enumerate_}


def build(name, seed, work):
    """The workload's tasks in a seeded order.  Interleaving keeps tasks of
    one kind, such as the millisecond n = 2 enumerations, from all falling
    in one fraction of a second of a pass, where one slow moment of the
    CPU would move every one of them and so the median."""
    rng = random.Random(f"{name}:{seed}")
    wl = BUILDERS[name](rng, work)
    rng.shuffle(wl.tasks)
    return wl
