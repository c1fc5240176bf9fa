"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
[PASS]/[FAIL] line so the outcome is visible in any pytest run.
"""

import random
import sys
from fractions import Fraction
from itertools import permutations, product

from ybx import (braidmon, cli, diffcalc, growth, linr, ncgb, orbits,
                 quadset, verseg)
from ybx.errors import PreconditionViolated

import linr_oracle
from conftest import MIXED3_TABLE, mixed3_solution

F1 = Fraction(1)


def _criterion(num, desc, body):
    try:
        body()
    except BaseException:
        sys.__stdout__.write(f"[FAIL] criterion {num}: {desc}\n")
        raise
    sys.__stdout__.write(f"[PASS] criterion {num}: {desc}\n")


def solution_gb(qs, max_degree=6):
    rels = orbits.canonical_relations(qs).to_polynomials()
    return ncgb.complete(rels, max_degree, alphabet=qs.n)


def test_criterion_1_cycle_example_end_to_end():
    def body():
        qs = cli.parse_solution("ybx v1\nsize 3\npermutation 2 3 1\n")
        rep = quadset.check_properties(qs)
        assert rep.braided and rep.idempotent and rep.left_nondegenerate
        rels = orbits.canonical_relations(qs)
        assert rels.relations == (
            ((1, 0), (0, 0)), ((1, 1), (0, 1)), ((1, 2), (0, 2)),
            ((2, 0), (0, 0)), ((2, 1), (0, 1)), ((2, 2), (0, 2)))
        assert ncgb.is_pbw(rels.to_polynomials())
        gb = solution_gb(qs)
        assert gb.complete
        for d in range(1, 5):
            assert ncgb.normal_words(gb, d) == \
                [(0,) * (d - 1) + (p,) for p in range(3)]
        assert ncgb.hilbert_series(gb, 4) == \
            ncgb.HilbertPrefix((1, 3, 3, 3, 3), True)
        gw = growth.obstruction_graph(ncgb.normal_words(gb, 2), 3)
        assert growth.global_dimension(gw) == growth.GlDim.infinite()

    _criterion(1, "three-cycle permutation solution end-to-end", body)


def test_criterion_2_mixed_example_end_to_end():
    def body():
        qs = mixed3_solution()
        rels = orbits.canonical_relations(qs)
        assert rels.relations == (
            ((1, 0), (0, 2)), ((1, 1), (0, 0)), ((1, 2), (0, 1)),
            ((2, 0), (0, 1)), ((2, 1), (0, 2)), ((2, 2), (0, 0)))
        gb = solution_gb(qs)
        assert gb.complete
        # completion adds no rule: twelve degree-3 overlaps all resolve
        leads = [u for u, _ in rels.relations]
        overlaps = sum(1 for a in leads for b in leads if a[-1] == b[0])
        assert overlaps == 12
        assert sorted(lead for lead, _ in gb.rules) == sorted(leads)
        assert ncgb.left_cancellative_check(gb, 3) is True
        # level-2 solution matches the expected table, with the cyclic
        # left action on the second generator
        vs = braidmon.veronese_solution(qs, 2)
        level2 = {
            (0, 0): (0, 0), (1, 2): (0, 0), (2, 1): (0, 0),
            (1, 0): (1, 0), (0, 1): (1, 0), (2, 2): (1, 0),
            (2, 0): (2, 0), (0, 2): (2, 0), (1, 1): (2, 0)}
        assert vs.base == quadset.QuadraticSet(3, [level2[i, j]
                                                   for i in range(3) for j in range(3)])
        assert tuple(vs.base.r(1, j)[0] for j in range(3)) == (1, 2, 0)
        # prolongations alternate between r and the level-2 solution
        data = braidmon.prolongation_sequence(qs, 4)
        assert [s.base == qs for s in data.solutions] == \
            [True, False, True, False]
        assert data.period == 2

    _criterion(2, "mixed three-point solution end-to-end", body)


def test_criterion_3_permutation_family():
    def body():
        for n in range(1, 5):
            for f in permutations(range(n)):
                qs = quadset.make_permutation_solution(list(f))
                rels = orbits.canonical_relations(qs)
                assert set(rels.relations) == {
                    ((i, j), (0, j))
                    for i in range(1, n) for j in range(n)}
                assert len(rels.relations) == n * (n - 1)
                gb = solution_gb(qs)
                for d in range(2, 5):
                    for prefix in product(range(n), repeat=d - 1):
                        for q in range(n):
                            assert ncgb.normal_form_word(
                                prefix + (q,), gb) == (0,) * (d - 1) + (q,)
                wa = braidmon.WordActions(qs, max_degree=6)
                for d in (2, 3):
                    fd = list(range(n))
                    for _ in range(d):
                        fd = [f[i] for i in fd]
                    assert braidmon.veronese_solution(qs, d, wa).base == \
                        quadset.make_permutation_solution(fd)
                order = 1
                g = list(f)
                while g != list(range(n)):
                    g = [f[i] for i in g]
                    order += 1
                assert braidmon.prolongation_sequence(qs, 5).period == order

    _criterion(3, "permutation family relations, normal forms, levels,"
                  " periods (n <= 4)", body)


def test_criterion_4_monomial_growth_suite():
    def body():
        pairs = [(i, j) for i in range(3) for j in range(3)]
        for bits in range(1 << 9):
            normal = frozenset(p for k, p in enumerate(pairs)
                               if bits >> k & 1)
            rels = [{w: F1} for w in pairs if w not in normal]
            gb = ncgb.complete(rels, 3, alphabet=3)
            assert gb.complete
            # (a) normal words are counted by paths in the normal graph
            adj = [[1 if (i, j) in normal else 0 for j in range(3)]
                   for i in range(3)]
            vec = [1, 1, 1]
            counts = [1, 3]
            for _ in range(2, 7):
                vec = [sum(vec[i] * adj[i][j] for i in range(3))
                       for j in range(3)]
                counts.append(sum(vec))
            for d in range(7):
                assert len(ncgb.normal_words(gb, d)) == counts[d]
            # (b) subexponential growth below n forces infinite gldim
            gn = growth.normal_graph(normal, 3)
            gw = growth.obstruction_graph(normal, 3)
            gk = growth.gk_dimension(gn)
            if gk.kind == "Polynomial" and gk.degree < 3:
                assert growth.global_dimension(gw) == growth.GlDim.infinite()
                witness = orbits.gldiminf_witness(gb)
                assert witness != "NotApplicable"
                if len(witness) == 1:
                    assert (witness[0], witness[0]) in gw.edges
                else:
                    x, z = witness
                    assert (x, z) in gw.edges and (z, x) in gw.edges
            # (c) three-way equivalence at every admissible basepoint
            for base in range(3):
                try:
                    res = growth.tournament_structure(gn, base)
                except PreconditionViolated:
                    continue
                shape_ok = (gk == growth.GrowthClass.polynomial(1)
                            and len(gn.edges) == 4)
                assert res["matches"] == shape_ok
                if res["matches"]:
                    sigma = res["relabeling"]
                    want = {(sigma[i], sigma[j])
                            for i in range(3) for j in range(i + 1, 3)}
                    want.add((base, base))
                    assert gn.edges == frozenset(want)

    _criterion(4, "all 512 monomial algebras on three generators", body)


def test_criterion_5_dimension_bounds():
    def body():
        for n in (2, 3):
            for qs in quadset.enumerate_solutions(
                    n, ["idempotent", "left_nondegenerate"]):
                gb = solution_gb(qs)
                assert len(ncgb.normal_words(gb, 2)) >= n
            for qs in quadset.enumerate_solutions(
                    n, ["braided", "idempotent", "left_nondegenerate"]):
                gb = solution_gb(qs)
                for d in range(2, 6):
                    assert len(ncgb.normal_words(gb, d)) == n

    _criterion(5, "degree-two lower bound and braided dimension collapse",
               body)


def test_criterion_6_veronese_and_segre():
    def body():
        cycle3 = quadset.make_permutation_solution([1, 2, 0])
        mixed3 = mixed3_solution()
        rid2 = quadset.make_permutation_solution([0, 1])
        for qs in (cycle3, mixed3):
            for d in (1, 2, 3):
                assert verseg.veronese_isomorphism_check(qs, d)
        for n in (2, 3):
            for f in permutations(range(n)):
                qs = quadset.make_permutation_solution(list(f))
                for d in (2, 3):
                    assert verseg.veronese_isomorphism_check(qs, d)
        for a, b in [(mixed3, mixed3), (rid2, rid2)]:
            result = verseg.segre_morphism_check(a, b, 3)
            assert result["relations_vanish"] and result["dims_ok"]
            assert result["relation_space_ok"] and result["ok"]

    _criterion(6, "Veronese isomorphisms and Segre morphism checks", body)


def test_criterion_7_linear_suite():
    def body():
        cycle3 = quadset.make_permutation_solution([1, 2, 0])
        mixed3 = mixed3_solution()
        rid2 = quadset.make_permutation_solution([0, 1])
        # matrix-level checks agree with set-level flags
        cases = quadset.enumerate_solutions(2, [])
        cases += quadset.enumerate_solutions(
            3, ["idempotent", "left_nondegenerate"])
        rng = random.Random(2024)
        for _ in range(40):
            cases.append(quadset.QuadraticSet(
                3, [(rng.randrange(3), rng.randrange(3)) for _ in range(9)]))
        for qs in cases:
            rep = quadset.check_properties(qs)
            psi, rmat = linr.linearize(qs)
            assert linr.check_braid(psi) == rep.braided
            assert linr.check_matrix_ybe(rmat) == rep.braided
            assert linr.check_idempotent(psi) == rep.idempotent
        for qs in (cycle3, mixed3, rid2):
            psi, rmat = linr.linearize(qs)
            # Koszul complementarity and degree-two degeneracy
            kd = linr.koszul_dual_relations(rmat)
            kernel = psi.nullspace_basis()
            dim = qs.n * qs.n
            assert kd.rank() + len(kernel) == dim
            for row in kd.data:
                for v in kernel:
                    assert sum(row[i] * v[i] for i in range(dim)) == 0
            assert linr.sminus_degenerate_check(psi)
            # Nichols quadraticity
            for m in (3, 4):
                assert linr.nichols_quadratic_check(psi, m)
        # printed relation lists
        _, rmat = linr.linearize(cycle3)
        monos = {next(iter(p)) for p in linr.transpose_yb_relations(rmat)
                 if len(p) == 1}
        f = [1, 2, 0]
        assert monos == {(i, j) for i in range(3) for j in range(3)
                         if i != f[j]}
        _, rmat = linr.linearize(mixed3)
        positives = [{k: v for k, v in p.items() if v > 0}
                     for p in linr.transpose_yb_relations(rmat)]
        for want in ({(1, 1): F1, (2, 2): F1},
                     {(0, 2): F1, (2, 1): F1},
                     {(0, 1): F1, (1, 2): F1}):
            assert want in positives
        assert linr.koszul_dual_polynomials(cycle3) == \
            [{(a, i): F1 for a in range(3)} for i in (2, 0, 1)]
        assert linr.koszul_dual_polynomials(mixed3) == [
            {(0, 0): F1, (1, 1): F1, (2, 2): F1},
            {(1, 0): F1, (0, 2): F1, (2, 1): F1},
            {(2, 0): F1, (0, 1): F1, (1, 2): F1}]
        assert linr.nichols_monomials(cycle3) == [(0, 2), (1, 0), (2, 1)]
        assert linr.nichols_monomials(mixed3) == [(0, 0), (1, 0), (2, 0)]

        def as_set(rels):
            return {tuple(sorted(p.items())) for p in rels}

        # FRT and braided-matrix relations for permutation solutions
        for f in ([0, 1], [1, 0], [1, 2, 0]):
            n = len(f)
            _, rmat = linr.linearize(quadset.make_permutation_solution(f))
            frt = []
            for i, j, k, l in product(range(n), repeat=4):
                p = {((k, f[l]), (i, l)): F1}
                if f[i] == k:
                    for a in range(n):
                        key = ((a, j), (i, l))
                        p[key] = p.get(key, Fraction(0)) - F1
                p = {key: c for key, c in p.items() if c}
                if p:
                    frt.append(p)
            assert as_set(linr.frt_relations(rmat)) == \
                as_set(linr_oracle.sparse_dedupe(frt))
            bm = []
            for i, k, l in product(range(n), repeat=3):
                p = {((k, i), (i, l)): F1}
                if k == i:
                    for c in range(n):
                        key = ((k, c), (c, l))
                        p[key] = p.get(key, Fraction(0)) - F1
                p = {key: c for key, c in p.items() if c}
                if p:
                    bm.append(p)
            assert as_set(linr.braided_matrix_relations(rmat)) == \
                as_set(linr_oracle.sparse_dedupe(bm))
        # the two-point identity solution in closed form
        _, rmat = linr.linearize(rid2)
        assert len(linr.frt_relations(rmat)) == 8
        assert as_set(linr.braided_matrix_relations(rmat)) == as_set(
            [{((i, 1 - i), (1 - i, j)): F1}
             for i in range(2) for j in range(2)])

    _criterion(7, "matrix checks, Koszul duality, Nichols, FRT and"
                  " braided-matrix relations", body)


def test_criterion_8_differential_calculus():
    def body():
        gb, rho, relations = diffcalc.calcsym()
        assert diffcalc.check_rho_map(gb, rho, relations, 5) == {"ok": True}
        rng = random.Random(2026)
        for _ in range(20):
            params = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(4)]
            fgb, frho, frels = diffcalc.make_rho_family(*params)
            assert diffcalc.check_rho_map(fgb, frho, frels, 4) == {"ok": True}
        # the four bimodule rules
        x, y = {(0,): F1}, {(1,): F1}
        assert rho.rho[0] == [[x, x], [{(0,): Fraction(2), (1,): -F1}, x]]
        assert rho.rho[1] == [[y, {(1,): Fraction(2), (0,): -F1}], [y, y]]
        # iterated right multiplication in closed form
        for m in range(2, 6):
            xm = (0,) * m
            ym = next(iter(ncgb.normal_form({(1,) * m: F1}, gb)))
            c = Fraction(2) ** (m - 2)
            expect = [ncgb.normal_form({xm: 3 * c, ym: -c}, gb), {xm: 2 * c}]
            for basis in ([{(): F1}, {}], [{}, {(): F1}]):
                assert diffcalc.right_multiply(basis, xm, rho, gb) == expect
        # printed partial derivatives, both per the Leibniz rule
        assert diffcalc.differential((0, 0), rho, gb) == \
            [{(0,): Fraction(2)}, {(0,): F1}]
        y3 = ncgb.normal_form({(1, 1, 1): F1}, gb)
        assert diffcalc.differential(y3, rho, gb)[0] == {(0, 1): Fraction(3)}
        assert diffcalc.annihilator_check(rho, gb, 5)
        assert diffcalc.connectedness_check(rho, gb, 5)
        for n in (2, 3):
            qs = quadset.make_permutation_solution(list(range(n)))
            rels = orbits.canonical_relations(qs).to_polynomials()
            assert diffcalc.no_degree_lowering_derivations(rels, n)
        rid2 = quadset.make_permutation_solution([0, 1])
        _, rmat = linr.linearize(rid2)
        out = diffcalc.nichols_exterior(rmat)
        assert out["theta_relations"] == [(0, 0), (1, 1)]
        for i in range(2):
            for j in range(2):
                assert out["wedge_rules"][(i, j)] == {(j, j): F1}
                assert out["mixed_rules"][(i, j)] == {(j, j): -F1}
        assert linr.subspace_equal(out["dtheta_relations"],
                                   linr.splus_relations(rmat))

    _criterion(8, "differential calculus family, symmetric point, and"
                  " exterior structure", body)
