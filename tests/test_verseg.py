import random
import sys
import time
from fractions import Fraction
from itertools import permutations

import pytest

import linr_oracle
from ybx import braidmon, elim, ncgb, orbits, quadset, verseg
from ybx.errors import InsufficientDegree, NotIdempotent, SizeTooLarge


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
    monkeypatch.setattr(braidmon, "normal_words",
                        lambda gb, d: degrees.append(d) or words(gb, d))
    rels = orbits.canonical_relations(mixed3).to_polynomials()
    for d in (2, 3):
        verseg.veronese_presentation(rels, d, alphabet=3)
    assert degrees == [2, 3]


def test_veronese_presentation_past_max_size_is_refused_at_once():
    # the free algebra on 4 letters has 4^5 = 1,024 normal words of length 5;
    # listing them would normal-form about 10^6 products.  The refusal counts
    # them without listing any, as the level-5 Veronese solution's does
    start = time.perf_counter()
    with pytest.raises(SizeTooLarge, match="^the level-5 Veronese presentation has "
                                           "1024 generators, more than 256$"):
        verseg.veronese_presentation([], 5, alphabet=4)
    assert time.perf_counter() - start < 1
    # at 4^4 = 256 words the level is listed
    assert len(verseg.veronese_presentation([], 4, alphabet=4).generators) == 256


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


def random_set(rng, n):
    pairs = [divmod(p, n) for p in range(n * n)]
    return quadset.QuadraticSet(n, [rng.choice(pairs) for _ in pairs])


def test_orbit_partitions_decide_what_the_ranks_decide():
    # (c) by orbit partitions against the dense oracle's exact ranks: the
    # rows of id - Psi on the product and the sigma_23 rows of the factors,
    # on any tables, since the partition argument needs no property of r
    rng = random.Random(32)
    seen = set()
    for _ in range(40):
        a, b = (random_set(rng, rng.randint(1, 3)) for _ in range(2))
        prod = quadset.cartesian_product(a, b)
        rel = linr_oracle.RationalMatrix.identity(prod.n ** 2).sub(linr_oracle.linearize(prod))
        want = linr_oracle.subspace_equal(rel, linr_oracle.segre_mixed_relations(a, b))
        assert verseg._same_orbit_partition(a, b, orbits.r_orbits(prod)) == want, (a, b)
        seen.add(want)
    assert seen == {True, False}


def test_segre_morphism_check_eliminates_nothing(monkeypatch):
    # (b) completes word differences and (c) compares partitions, so no row
    # is reduced, here on a product of 36 points
    def refused(rows):
        raise AssertionError("the Segre check eliminated")
    monkeypatch.setattr(elim, "rref", refused)
    cycle6 = quadset.make_permutation_solution([1, 2, 3, 4, 5, 0])
    assert verseg.segre_morphism_check(cycle6, cycle6, 4)["ok"]


def test_segre_computes_each_factor_once(monkeypatch, mixed3):
    # (a) is the image test of idempotent_structure and (c) compares orbit
    # partitions, so only the product is completed: one basis.  r_orbits runs
    # on each factor for (c), and once on the product for both its canonical
    # relations and (c); every name bound to either function is counted
    calls = []
    for func in (ncgb.complete, orbits.r_orbits):
        def counted(*a, func=func, **k):
            calls.append(func.__name__)
            return func(*a, **k)
        for module in [m for key, m in sys.modules.items() if key.startswith("ybx.")]:
            for name in [name for name, value in vars(module).items() if value is func]:
                monkeypatch.setattr(module, name, counted)
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
