"""The paper's claims, checked on every class the enumeration finds.

For each braided, idempotent, left-nondegenerate set up to relabeling at
n = 2, 3, 4: its canonical relations are already the Groebner basis
(R = G), the d-Veronese presentation is that of the d-Veronese solution,
the prolongation r^(d) is again of the class, and dim A_2 keeps its
bounds.  For each ordered pair of these sets at n = 2, 3 the Segre
morphism data hold and the Cartesian product is again of the class.  For
each involutive nondegenerate braided set, A(k, X, r) has the Hilbert
series of the polynomial ring (Gateva-Ivanova and Van den Bergh).  Every
class of both kinds at n = 2, 3 satisfies the braided-monoid axioms.
Linearised, each paper-class set at n <= 4 has a quadratic Nichols
algebra with the theta relations of r, a Koszul dual complementary to
ker Psi and a degenerate S_-(R); Nichols quadraticity also holds at
tensor power 4 on 8-point products.  Each paper-class algebra is PBW, so
Koszul, and its Hilbert series and its Koszul dual's satisfy
H_A(t) H_{A!}(-t) = 1 (Priddy).
All permutation-idempotent algebras r_f of one size are isomorphic, so
their Hilbert prefixes agree whatever the cycle type of f.  ybx dims reads
growth off the normal-word automaton of a complete basis and global
dimension off the obstruction graph of a PBW one, and says nothing else.
"""

import json
from collections import Counter
from functools import cache
from math import comb

import pytest

from ybx import braidmon, cli, diffcalc, growth, linr, ncgb, orbits, quadset, verseg

PAPER_CLASS = ("braided", "idempotent", "left_nondegenerate")
INVOLUTIVE = ("braided", "involutive", "left_nondegenerate", "right_nondegenerate")


@cache
def paper_class(n):
    return quadset.enumerate_solutions(n, PAPER_CLASS)


@pytest.mark.parametrize("n, count", [(2, 3), (3, 5), (4, 14)])
def test_paper_class_theorems(n, count):
    classes = paper_class(n)
    assert len(classes) == count
    for qs in classes:
        relations = orbits.canonical_relations(qs).relations
        gb = orbits.canonical_basis(qs, 3)
        assert gb.complete
        assert gb.rules == tuple((u, ((v, 1),)) for u, v in relations)
        for d in (2, 3):
            assert verseg.veronese_isomorphism_check(qs, d) is True
            prolonged = quadset.check_properties(braidmon.veronese_solution(qs, d).base)
            assert all(getattr(prolonged, name) for name in PAPER_CLASS)
        orbits.dimA2_bounds_check(qs)


def test_linearised_claims_on_every_paper_class_set():
    classes = [qs for n in (2, 3, 4) for qs in paper_class(n)]
    assert len(classes) == 22
    for qs in classes:
        psi, rmat = linr.linearize(qs)
        for m in (3, 4):
            assert linr.nichols_quadratic_check(psi, m), (qs, m)
        kernel = psi.nullspace_basis()
        assert linr.koszul_dual_relations(rmat).rank() + len(kernel) == qs.n ** 2
        assert linr.sminus_degenerate_check(psi)
        theta = diffcalc.nichols_exterior(rmat)["theta_relations"]
        assert theta == linr.nichols_monomials(qs), qs


def test_koszul_identity_on_every_paper_class_set():
    # a PBW algebra is Koszul (Priddy, Trans. AMS 152, 1970), so
    # H_A(t) H_{A!}(-t) = 1; H_A counts the normal words of the canonical
    # basis, H_{A!} those of the completed dual relations read off r, which
    # share no code; dim A!_2 = n^2 - rank of the row-path dual relations
    classes = [qs for n in (2, 3, 4) for qs in paper_class(n)]
    assert len(classes) == 22
    for qs in classes:
        a = ncgb.hilbert_series(orbits.canonical_basis(qs, 6), 6)
        b = ncgb.hilbert_series(
            ncgb.complete(linr.koszul_dual_polynomials(qs), 6, alphabet=qs.n), 6)
        assert a.exact and b.exact, qs
        a, b = a.coefficients, b.coefficients
        assert [sum(a[i] * (-1) ** (d - i) * b[d - i] for i in range(d + 1))
                for d in range(7)] == [1] + [0] * 6, qs
        _, rmat = linr.linearize(qs)
        assert b[2] == qs.n ** 2 - linr.koszul_dual_relations(rmat).rank(), qs


@pytest.mark.parametrize("first", [0, 1])
def test_nichols_quadratic_on_eight_point_products(first):
    # 2 x 4 points: V^(x)4 has the 4,096 dimensions of the tensor bound
    two, four = paper_class(2)[first], paper_class(4)[-1 - first]
    psi, _ = linr.linearize(quadset.cartesian_product(two, four))
    assert linr.nichols_quadratic_check(psi, 4)


def test_segre_pairs_of_the_paper_class():
    classes = [qs for n in (2, 3) for qs in quadset.enumerate_solutions(n, PAPER_CLASS)]
    assert len(classes) == 8
    for a in classes:
        for b in classes:
            assert verseg.segre_morphism_check(a, b, 3)["ok"], (a, b)
            product = quadset.check_properties(quadset.cartesian_product(a, b))
            assert all(getattr(product, name) for name in PAPER_CLASS), (a, b)


@pytest.mark.parametrize("mask, count", [(PAPER_CLASS, 8), (INVOLUTIVE, 7)])
def test_braided_monoid_axioms_on_every_class(mask, count):
    classes = [qs for n in (2, 3) for qs in quadset.enumerate_solutions(n, mask)]
    assert len(classes) == count
    for qs in classes:
        assert braidmon.check_braided_monoid_axioms(
            braidmon.WordActions(qs, max_degree=6), 3)


@pytest.mark.parametrize("n, count", [(2, 2), (3, 5), (4, 23)])
def test_involutive_classes_have_polynomial_ring_growth(n, count):
    classes = quadset.enumerate_solutions(n, INVOLUTIVE)
    assert len(classes) == count
    want = ncgb.HilbertPrefix(tuple(comb(n + d - 1, d) for d in range(6)), True)
    for qs in classes:
        assert ncgb.hilbert_series(orbits.canonical_basis(qs, 5), 5) == want


def cycle_types(n, largest=None):
    """The partitions of n, largest part first."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in cycle_types(n - k, k):
            yield (k, *rest)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_permutation_algebras_of_one_size_share_hilbert_prefixes(n):
    prefixes = set()
    for cycles in cycle_types(n):
        f, start = [], 0
        for k in cycles:
            f += [start + (i + 1) % k for i in range(k)]
            start += k
        qs = quadset.make_permutation_solution(f)
        prefixes.add(ncgb.hilbert_series(orbits.canonical_basis(qs, 6), 6))
    assert len(prefixes) == 1


def shown(verdict):
    """A GrowthClass or GlDim as ybx dims prints it."""
    kind, value = verdict
    return kind if value is None else f"{kind}({value})"


def test_dims_print_only_what_the_basis_decides(capsys, tmp_path):
    """Ufnarovski's criterion on the automaton of a complete basis agrees with
    the quadratic graph, the oracle, wherever the basis is PBW.  An involutive
    nondegenerate braided set on N points, or a product of two of them, has GK
    dimension N (Gateva-Ivanova and Van den Bergh), which dims prints wherever
    the basis is complete.  A truncated basis decides no growth, and a basis
    that is not PBW no global dimension."""
    involutive = {n: quadset.enumerate_solutions(n, INVOLUTIVE) for n in (2, 3, 4)}
    small, paper = involutive[2] + involutive[3], paper_class(2) + paper_class(3)
    cases = [(qs, n) for n in (2, 3, 4) for qs in involutive[n]]
    cases += [(quadset.cartesian_product(a, b), a.n * b.n) for a in small for b in small]
    cases += [(qs, None) for qs in paper + paper_class(4)]
    cases += [(quadset.make_permutation_solution([(i + 1) % n for i in range(n)]), None)
              for n in (5, 6, 7, 8)]
    cases += [(quadset.cartesian_product(a, b), None) for a in paper for b in paper]
    path, kinds = tmp_path / "set.ybx", Counter()
    for qs, size in cases:
        gb = orbits.canonical_basis(qs, 6)
        path.write_text(cli.render_solution(qs))
        with pytest.raises(SystemExit) as exc:
            cli.main(["dims", str(path), "--json", "--max-deg", "6"])
        out = capsys.readouterr()
        report = json.loads(out.out)
        if gb.pbw:
            kinds["pbw"] += 1
            gn, gw = orbits.basis_graphs(gb)
            want = {"gk": shown(growth.gk_dimension(gn)),
                    "gldim": shown(growth.global_dimension(gw)), "pbw": True}
        elif gb.complete:
            kinds["complete"] += 1
            want = {"gk": f"Polynomial({size})", "gldim": "Undecided", "pbw": False}
        else:
            kinds["truncated"] += 1
            want = {"gk": "Undecided", "gldim": "Undecided", "pbw": False}
        assert (exc.value.code, report) == (0, want), qs
        assert out.err == ("" if gb.complete else cli.TRUNCATED + "\n"), qs
    assert kinds == {"pbw": 8 + 9 + 22 + 4 + 64, "complete": 17 + 24, "truncated": 5 + 16}
