"""Each independent check accepts ybx's real answer and rejects a wrong one.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from ybx import linr, ncgb, quadset  # noqa: E402

import oracle as o  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402
from oracle import WrongAnswer  # noqa: E402


def cli_json(argv):
    code, text = w.run_cli(argv + ["--json"])
    return json.loads(text)


def rejects(check, out):
    with pytest.raises(WrongAnswer):
        check(out)


@pytest.fixture
def perm(tmp_path):
    f = [1, 2, 0]
    return w.write_solution(tmp_path, "perm3", 3, o.perm_table(f), f)


@pytest.fixture
def lat(tmp_path):
    # a braided table whose left actions are not all equal
    table = next(t for t in w.braided_left_action_tables()
                 if len({t[0], t[3], t[6]}) > 1)
    return w.write_solution(tmp_path, "lat", 3, table)


# ------------------------------------------------------------ pipeline

def test_report(perm):
    out = cli_json(["check", perm.path])
    w.check_report(perm)(out)
    rejects(w.check_report(perm), {**out, "idempotent": not out["idempotent"]})


def test_orbits(lat):
    out = cli_json(["orbits", lat.path])
    w.check_orbits(lat)(out)
    moved = json.loads(json.dumps(out))
    moved["orbits"][1].append(moved["orbits"][0].pop())
    rejects(w.check_orbits(lat), moved)
    rejects(w.check_orbits(lat), {**out, "orbit_count": out["orbit_count"] + 1})


def test_relations(lat):
    out = cli_json(["relations", lat.path])
    w.check_relations(lat)(out)
    rels = out["relations"]
    rejects(w.check_relations(lat), {"relations": rels[1:]})
    u, v = rels[0].split(" - ")
    rejects(w.check_relations(lat), {"relations": [f"{v} - {u}"] + rels[1:]})


def test_groebner(lat):
    out = cli_json(["groebner", lat.path])
    w.check_groebner(lat)(out)
    rules = out["rules"]
    rejects(w.check_groebner(lat), {**out, "complete": False})
    rejects(w.check_groebner(lat), {**out, "rules": rules[1:]})
    rejects(w.check_groebner(lat), {**out, "rules": ["1 2 3 -> x1.x1.x1"] + rules})
    lead, rhs = rules[0].split(" -> ")
    wrong = "x2.x2" if rhs != "x2.x2" else "x1.x1"
    rejects(w.check_groebner(lat), {**out, "rules": [f"{lead} -> {wrong}"] + rules[1:]})


def test_hilbert(perm):
    out = cli_json(["hilbert", perm.path, "--max-deg", "5"])
    w.check_hilbert(perm, 5)(out)
    coeffs = list(out["coefficients"])
    coeffs[3] += 1
    rejects(w.check_hilbert(perm, 5), {**out, "coefficients": coeffs})
    rejects(w.check_hilbert(perm, 5), {**out, "exact": False})


def test_dims(lat):
    out = cli_json(["dims", lat.path])
    w.check_dims(out)
    rejects(w.check_dims, {**out, "gldim": "Finite(2)"})
    rejects(w.check_dims, {**out, "gk": "Polynomial(2)"})


def test_tournament_and_exit_code(perm):
    task = w.cli_task("t", ["tournament", perm.path], 1, w.check_tournament(perm))
    task.check(task.call())
    rejects(w.check_tournament(perm), {"matches": True})
    wrong_code = w.cli_task("t", ["tournament", perm.path], 0,
                            w.check_tournament(perm))
    rejects(wrong_code.check, wrong_code.call())


def test_graph_gw(lat):
    out = cli_json(["graph", lat.path, "--gw"])
    w.check_graph_gw(lat)(out)
    rejects(w.check_graph_gw(lat), {**out, "edges": out["edges"][1:]})


def swap_first_entries(out):
    """One table entry takes another's image."""
    table = list(out["table"])
    head, _, _ = table[0].partition(" = ")
    table[0] = head + " = " + table[1].partition(" = ")[2]
    return {**out, "table": table}


def test_veronese_permutation(perm):
    for d in (2, 3):
        out = cli_json(["veronese", perm.path, "-d", str(d)])
        w.check_veronese(perm, d)(out)
        rejects(w.check_veronese(perm, d), swap_first_entries(out))
        rejects(w.check_veronese(perm, d), {**out, "labels": out["labels"][::-1]})


def test_veronese_general(lat):
    out = cli_json(["veronese", lat.path, "-d", "2"])
    w.check_veronese(lat, 2)(out)
    rejects(w.check_veronese(lat, 2), swap_first_entries(out))


def test_prolong(perm):
    out = cli_json(["prolong", perm.path, "--max-d", "4"])
    w.check_prolong(perm, 4)(out)
    rejects(w.check_prolong(perm, 4), {**out, "period": out["period"] + 1})
    rejects(w.check_prolong(perm, 4), {**out, "distinct": out["distinct"] - 1})


def test_koszul_nichols(lat):
    out = cli_json(["linear", lat.path, "--koszul", "--nichols"])
    w.check_koszul_nichols(lat)(out)
    rejects(w.check_koszul_nichols(lat), {**out, "nichols": out["nichols"][1:]})


def test_segre(perm, lat):
    out = cli_json(["segre", perm.path, lat.path])
    w.check_segre(out)
    rejects(w.check_segre, {**out, "dims_ok": False})


def test_calculus():
    out = cli_json(["calculus", "--params=1,0,1,0"])
    w.check_calculus(True)(out)
    rejects(w.check_calculus(True), {**out, "connected": False})
    w.check_calculus(False)({**out, "connected": False})
    rejects(w.check_calculus(False), {**out, "rho_ok": False})


# ---------------------------------------------------------- completion

def test_congruence_counts():
    # x2 x1 = x1 x2 makes the commutative polynomial ring in two letters
    assert o.congruence_class_counts([((1, 0), (0, 1))], 2, 5) == \
        o.polynomial_ring_dims(2, 5) == [1, 2, 3, 4, 5, 6]
    assert o.congruence_class_counts([], 3, 3) == [1, 3, 9, 27]


def drop_rule(gb):
    return replace(gb, rules=gb.rules[1:])


def test_completion_random_binomials():
    rels = w.random_binomials(random.Random(0))
    task = w.completion_task("c", rels, 4, 6,
                             lambda: o.congruence_class_counts(rels, 4, 6))
    gb = task.call()
    task.check(gb)
    rejects(task.check, drop_rule(gb))


def test_completion_involutive_product():
    sols = w.involutive_nondegenerate_3()
    assert len(sols) == 5
    rels = o.canonical_relations(9, o.product_table(3, sols[0], 3, sols[1]))
    task = w.completion_task("c", rels, 9, 4, lambda: o.polynomial_ring_dims(9, 4))
    gb = task.call()
    task.check(gb)
    rejects(task.check, drop_rule(gb))


def test_reduced_basis():
    rels = w.random_binomials(random.Random(0))
    gb = ncgb.complete([{u: Fraction(1), v: Fraction(-1)} for u, v in rels],
                       6, alphabet=4)
    w.check_reduced_binomial(gb)
    lead, rhs = gb.rules[0]
    longer = (lead + (0,), ((rhs[0][0] + (0,), Fraction(1)),))
    rejects(w.check_reduced_binomial, replace(gb, rules=gb.rules + (longer,)))
    # a right side that is itself a lead is not normal
    other = gb.rules[1][0]
    if other < lead:
        bad = (lead, ((other, Fraction(1)),))
        rejects(w.check_reduced_binomial, replace(gb, rules=(bad,) + gb.rules[1:]))
    two_terms = (lead, rhs + ((rhs[0][0], Fraction(2)),))
    rejects(w.check_reduced_binomial, replace(gb, rules=(two_terms,) + gb.rules[1:]))


# -------------------------------------------------------------- linear

def test_linear_default(perm, tmp_path):
    out = cli_json(["linear", perm.path])
    w.check_linear_default(perm)(out)
    rejects(w.check_linear_default(perm), {**out, "braid": False})
    rand = w.write_solution(tmp_path, "rand3", 3, w.random_table(random.Random(1), 3))
    out = cli_json(["linear", rand.path])
    w.check_linear_default(rand)(out)
    rejects(w.check_linear_default(rand), {**out, "idempotent": True})


def test_transpose(tmp_path):
    sol = w.write_solution(tmp_path, "rand3", 3, w.random_table(random.Random(2), 3))
    out = cli_json(["linear", sol.path, "--transpose"])
    w.check_transpose(sol)(out)
    rels = out["transpose"]
    rejects(w.check_transpose(sol), {"transpose": rels[1:]})
    bumped = rels[0].replace("-1*", "-2*") if "-1*" in rels[0] else "2*" + rels[0]
    rejects(w.check_transpose(sol), {"transpose": [bumped] + rels[1:]})


def test_frt_bmat(tmp_path):
    for kind in ("flip", "identity"):
        sol = w.write_solution(tmp_path, kind, 3, o.named_table(kind, 3))
        out = cli_json(["linear", sol.path, "--frt", "--bmat"])
        w.check_frt_bmat(kind, 3)(out)
        rejects(w.check_frt_bmat(kind, 3),
                {**out, "frt": out["frt"] + ["t^1_1.t^1_1"]})


def test_nichols_and_rank_checks(perm, lat):
    psi, _ = linr.linearize(quadset.QuadraticSet(3, perm.table))
    w.check_true(linr.nichols_quadratic_check(psi, 3))
    rejects(w.check_true, False)
    for sol in (perm, lat):
        _, rmat = linr.linearize(quadset.QuadraticSet(3, sol.table))
        for fn, check in ((linr.koszul_dual_relations, w.check_koszul_rows(sol)),
                          (linr.splus_relations, w.check_splus_rows(sol))):
            mat = fn(rmat)
            check(mat)
            rejects(check, linr.RationalMatrix(mat.data[1:], cols=mat.cols))
            bent = [row[:] for row in mat.data]
            bent[0][0] += 1
            rejects(check, linr.RationalMatrix(bent, cols=mat.cols))


# ----------------------------------------------------------- enumerate

def test_burnside_counts():
    assert len(o.all_involutions(9)) == 2620
    assert o.burnside(3, o.involutive_tables(3), o.table_fixed(3)) == 478
    assert o.count_nondegenerate(3) == 7860
    assert o.burnside(3, o.left_action_tables(3), o.table_fixed(3)) == 44


def test_check_enumeration():
    mask = ("idempotent", "left_nondegenerate")
    tables = [s.r_table for s in quadset.enumerate_solutions(3, list(mask))]
    o.check_enumeration(3, mask, tables, 44)
    rejects(lambda t: o.check_enumeration(3, mask, t, 44), tables[1:])
    twin = o.relabel(3, tables[1], (1, 2, 0))
    rejects(lambda t: o.check_enumeration(3, mask, t, 44), [twin] + tables[1:])
    broken = list(tables[0])
    broken[1] = broken[0]        # left action of x_1 no longer a bijection
    rejects(lambda t: o.check_enumeration(3, mask, t, 44),
            [tuple(broken)] + tables[1:])


def test_enumeration_n2_brute_force():
    tables = [tuple(divmod(q, 2) for q in c)
              for c in product(range(4), repeat=4)]
    for mask in (("braided",), ("involutive", "braided"), ()):
        task = w.enumerate_task(2, mask,
                                lambda mask=mask: o.enumeration_count(2, mask, tables))
        sols = task.call()
        task.check(sols)
        rejects(task.check, sols[:-1])


# ----------------------------------------------------------------- run

def test_verify_counts_every_kind_of_failure(tmp_path):
    def boom():
        raise ValueError("boom")

    def must_be_one(out):
        o.expect(out == 1, "not one")

    tasks = [w.Task("ok", lambda: 1, must_be_one),
             w.Task("wrong", lambda: 2, must_be_one),
             w.Task("raises", boom, must_be_one)]
    with tmp_path.joinpath("store").open("w+b") as store:
        passes = [run.run_pass(tasks, store) for _ in range(3)]
        assert run.verify(tasks, passes, store) == (6, 3)


def test_hd_median():
    assert run.hd_median([5.0]) == 5.0
    assert abs(run.hd_median([1, 2, 3, 4, 5]) - 3) < 1e-9
    assert abs(run.hd_median([1, 100]) - 50.5) < 1e-9
    # one value moving past its neighbour moves the estimate a little,
    # where the plain median of an even count jumps with it
    assert abs(run.hd_median([1, 2, 9, 10]) - run.hd_median([1, 3, 9, 10])) < 0.5
