from fractions import Fraction
from itertools import permutations

import pytest

import linr_oracle
from ybx import braidmon, linr, ncgb, orbits, quadset, verseg
from ybx.errors import InsufficientDegree, NotIdempotent


def test_veronese_presentation_of_mixed3(mixed3):
    rels = orbits.canonical_relations(mixed3).to_polynomials()
    pres = verseg.veronese_presentation(rels, 2, alphabet=3)
    assert pres.generators == ((0, 0), (0, 1), (0, 2))
    assert len(pres.relations) == 6
    # each relation is a difference of two products of the generators
    for rel in pres.relations:
        coeffs = sorted(c for _, c in rel)
        assert coeffs == [Fraction(-1), Fraction(1)]
    # v2 v1 rewrites to v1 v2 in the level-2 algebra
    assert (((1, 0), Fraction(1)), ((0, 1), Fraction(-1))) in \
        {tuple(sorted(rel, key=lambda t: t[1])) for rel in pres.relations} or \
        any(dict(rel) == {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
            for rel in pres.relations)


def test_veronese_presentation_degree_guard(mixed3):
    rels = orbits.canonical_relations(mixed3).to_polynomials()
    with pytest.raises(InsufficientDegree):
        verseg.veronese_presentation(rels, 3, max_degree=4, alphabet=3)


def test_veronese_presentation_lists_only_its_generators(monkeypatch, mixed3):
    # a product u v of generators is normal when it is its own normal
    # form, so no word of degree 2d is listed
    degrees = []
    words = ncgb.normal_words
    monkeypatch.setattr(verseg, "normal_words",
                        lambda gb, d: degrees.append(d) or words(gb, d))
    rels = orbits.canonical_relations(mixed3).to_polynomials()
    for d in (2, 3):
        verseg.veronese_presentation(rels, d, alphabet=3)
    assert degrees == [2, 3]


def test_veronese_isomorphism(mixed3, cycle3):
    for qs in (mixed3, cycle3):
        for d in (1, 2, 3):
            assert verseg.veronese_isomorphism_check(qs, d)
    for n in (2, 3):
        for f in permutations(range(n)):
            qs = quadset.make_permutation_solution(list(f))
            for d in (2, 3):
                assert verseg.veronese_isomorphism_check(qs, d)


def test_veronese_isomorphism_requires_structure():
    flip = quadset.make_named("flip", 2)
    with pytest.raises(NotIdempotent):
        verseg.veronese_isomorphism_check(flip, 2)


def test_veronese_isomorphism_checks_its_base_once(monkeypatch, cycle3):
    calls = []
    check = quadset.require_properties
    for module in (verseg, braidmon):
        monkeypatch.setattr(module, "require_properties",
                            lambda qs, *args: calls.append(qs) or check(qs, *args))
    assert verseg.veronese_isomorphism_check(cycle3, 2)
    assert calls == [cycle3]


def test_segre_presentation_shape(rid2, mixed3):
    pres = verseg.segre_presentation(rid2, rid2)
    assert len(pres.generators) == 4
    assert len(pres.relations) == 12   # (nm - 1) * nm
    pres2 = verseg.segre_presentation(mixed3, rid2)
    assert len(pres2.generators) == 6
    assert len(pres2.relations) == 30
    # every relation rewrites some product to a product led by z_11
    for rel in pres.relations + pres2.relations:
        dst = next(k for k, c in rel if c == Fraction(-1))
        assert dst[0] == 0


def id_minus_psi_rows(qs):
    """The row space of id - Psi, reduced by the dense oracle and carried into linr."""
    one = linr_oracle.RationalMatrix.identity(qs.n ** 2)
    rows = one.sub(linr_oracle.linearize(qs)).row_space_basis()
    return linr.RationalMatrix(rows.data, cols=rows.cols)


def test_segre_morphism_checks(rid2, mixed3, cycle3):
    lat = quadset.enumerate_solutions(3, ["braided", "idempotent", "left_nondegenerate"])
    pairs = [(rid2, rid2), (mixed3, mixed3), (mixed3, rid2), (rid2, cycle3),
             (cycle3, mixed3)] + [(qs, cycle3) for qs in lat] + [(rid2, lat[-1])]
    for a, b in pairs:
        result = verseg.segre_morphism_check(a, b, 3)
        assert result["relations_vanish"]
        assert result["dims_ok"]
        assert result["relation_space_ok"]
        assert result["ok"]
        # the sparse sigma_23 rows span what the dense vectors span, given
        # the row spaces of id - Psi that the dense oracle reads
        rel_a, rel_b = map(id_minus_psi_rows, (a, b))
        assert verseg._mixed_relations(rel_a, rel_b, a.n, b.n).row_space_basis().data \
            == linr_oracle.segre_mixed_relations(a, b).data


def test_segre_computes_each_factor_once(monkeypatch, mixed3):
    # (a) is the orbit test of idempotent_structure, so only the product
    # is completed: one basis, and the orbits of each factor and the product
    calls = []
    for module, name in ((ncgb, "complete"), (orbits, "r_orbits")):
        func = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, func=func, name=name, **k:
                            calls.append(name) or func(*a, **k))
    assert verseg.segre_morphism_check(mixed3, mixed3, 4)["ok"]
    assert sorted(calls) == ["complete"] + ["r_orbits"] * 3


def test_segre_presentation_matches_product_relations(rid2):
    # the presented relations coincide with the canonical relations of the
    # product solution, read over the product generators
    pres = verseg.segre_presentation(rid2, rid2)
    prod = quadset.cartesian_product(rid2, rid2)
    want = set(orbits.canonical_relations(prod).relations)
    got = set()
    for rel in pres.relations:
        d = dict(rel)
        u = next(k for k, c in d.items() if c == Fraction(1))
        v = next(k for k, c in d.items() if c == Fraction(-1))
        got.add((u, v))
    # same rewriting closure: both identify each pair with its orbit head
    for u, v in got:
        assert prod.r(*u) == prod.r(*v) or (u, v) in want
    assert want <= got
