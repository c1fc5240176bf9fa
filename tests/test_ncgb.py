import dataclasses
import gc
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ybx import diffcalc, ncgb, orbits, quadset, verseg
from ybx.errors import (InsufficientDegree, InvalidArgument, NonHomogeneousInput,
                        NonQuadraticInput, NotBinomial)
from conftest import mixed3_solution
import ncgb_oracle


def word_classes_oracle(pairs, n, length):
    """Equivalence classes of length-`length` words under rewriting any
    occurrence of u <-> v, by plain closure (independent of the rewriting
    machinery under test)."""
    words = list(product(range(n), repeat=length))
    adj = {w: set() for w in words}
    subst = [(u, v) for u, v in pairs] + [(v, u) for u, v in pairs]
    for w in words:
        for u, v in subst:
            k = len(u)
            for pos in range(length - k + 1):
                if w[pos:pos + k] == u:
                    adj[w].add(w[:pos] + v + w[pos + k:])
    classes = []
    seen = set()
    for w in words:
        if w in seen:
            continue
        comp = set()
        todo = [w]
        while todo:
            x = todo.pop()
            if x in comp:
                continue
            comp.add(x)
            todo.extend(adj[x] - comp)
        seen |= comp
        classes.append(comp)
    return classes


def code(word, n):
    """ybx.ncgb's integer code of a word in base n, from its definition."""
    return n ** len(word) + sum(x * n ** (len(word) - 1 - i) for i, x in enumerate(word))


def solution_gb(qs, max_degree=6):
    rels = orbits.canonical_relations(qs).to_polynomials()
    return ncgb.complete(rels, max_degree, alphabet=qs.n)


@pytest.mark.parametrize("qs_maker", [
    lambda: quadset.make_permutation_solution([1, 2, 0]),
    mixed3_solution,
    lambda: quadset.make_permutation_solution([0, 1]),
])
def test_normal_form_is_class_minimum(qs_maker):
    qs = qs_maker()
    pairs = orbits.canonical_relations(qs).relations
    gb = solution_gb(qs)
    assert gb.complete and gb.binomial
    for length in (2, 3, 4):
        for comp in word_classes_oracle(pairs, qs.n, length):
            least = min(comp, key=ncgb_oracle.deglex_key)
            for w in comp:
                assert ncgb.normal_form_word(w, gb) == least


def test_completion_is_input_order_independent():
    qs = mixed3_solution()
    rels = orbits.canonical_relations(qs).to_polynomials()
    reference = ncgb.complete(rels, 6, alphabet=3)
    rng = random.Random(5)
    for _ in range(5):
        shuffled = rels[:]
        rng.shuffle(shuffled)
        assert ncgb.complete(shuffled, 6, alphabet=3).rules == reference.rules


def test_commutative_relations_give_binomial_counts():
    # x_j x_i -> x_i x_j for i < j; dim of degree d is C(n+d-1, d)
    for n in (2, 3):
        rels = [{(j, i): Fraction(1), (i, j): Fraction(-1)}
                for i in range(n) for j in range(i + 1, n)]
        assert ncgb.is_pbw(rels)
        gb = ncgb.complete(rels, 6, alphabet=n)
        assert gb.complete
        for d in range(5):
            assert len(ncgb.normal_words(gb, d)) == math.comb(n + d - 1, d)


def test_free_algebra_counts():
    gb = ncgb.complete([], 4, alphabet=2)
    assert gb.complete and not gb.rules
    assert ncgb.hilbert_series(gb, 3).coefficients == (1, 2, 4, 8)


def test_cycle3_basis_and_hilbert(cycle3):
    gb = solution_gb(cycle3)
    assert gb.complete
    assert all(len(lead) == 2 for lead, _ in gb.rules)
    for d in range(1, 5):
        expected = [(0,) * (d - 1) + (p,) for p in range(3)]
        assert ncgb.normal_words(gb, d) == expected
    assert ncgb.hilbert_series(gb, 4) == ncgb.HilbertPrefix((1, 3, 3, 3, 3), True)


def test_incomplete_basis_is_flagged():
    # x1 x1 -> x1 x0 keeps overlapping itself and spawns rules forever
    rels = [{(1, 1): Fraction(1), (1, 0): Fraction(-1)}]
    gb = ncgb.complete(rels, 3, alphabet=2)
    assert not gb.complete
    # counts strictly below the bound are still reliable
    assert ncgb.hilbert_series(gb, 2) == ncgb.HilbertPrefix((1, 2, 3), True)
    with pytest.raises(InsufficientDegree):
        ncgb.normal_words(gb, 4)
    # raising the bound adds the missing rules up to the new bound
    deeper = ncgb.complete(rels, 6, alphabet=2)
    assert set(gb.rules) <= set(deeper.rules)
    # every lead through the bound is already final
    assert ncgb.normal_words(gb, 3) == ncgb.normal_words(deeper, 3)


def test_truncated_hilbert_series_is_not_exact():
    rels = [{(1, 1): Fraction(1), (1, 0): Fraction(-1)}]
    gb = ncgb.complete(rels, 3, alphabet=2)
    deeper = ncgb.complete(rels, 8, alphabet=2)
    hp = ncgb.hilbert_series(gb, 5)
    assert not hp.exact
    # leads missing past the bound leave too many normal words
    true = ncgb.hilbert_series(deeper, 5)
    assert true.exact and hp.coefficients[:3] == true.coefficients[:3]
    assert all(a >= b for a, b in zip(hp.coefficients, true.coefficients))
    assert hp.coefficients != true.coefficients


# the fifth involutive nondegenerate braided solution on 3 points
INVOLUTIVE3_5 = ((1, 2), (2, 2), (0, 2), (1, 0), (2, 0), (0, 0), (1, 1), (2, 1), (0, 1))


def test_product_of_involutive_solutions_completes_to_polynomial_ring_dims():
    qs = quadset.QuadraticSet(3, INVOLUTIVE3_5)
    rep = quadset.check_properties(qs)
    assert rep.involutive and rep.braided and rep.left_nondegenerate \
        and rep.right_nondegenerate
    rels = orbits.canonical_relations(
        quadset.cartesian_product(qs, qs)).to_polynomials()
    gb = ncgb.complete(rels, 4, alphabet=9)
    assert len(gb.rules) == 345 and gb.binomial
    # the polynomial ring on 9 generators: C(8 + d, d) = 1, 9, 45, 165
    assert ncgb.hilbert_series(gb, 3) == ncgb.HilbertPrefix((1, 9, 45, 165), True)
    got = ncgb.complete(rels, 3, alphabet=9)
    want = ncgb_oracle.complete(rels, 3, alphabet=9)
    assert len(got.rules) == 126
    assert (got.rules, got.complete, got.binomial) == \
        (want.rules, want.complete, want.binomial)


def test_input_validation():
    with pytest.raises(NonHomogeneousInput):
        ncgb.complete([{(0, 0): Fraction(1), (0,): Fraction(1)}], 3)
    with pytest.raises(NonQuadraticInput):
        ncgb.is_pbw([{(0, 0, 0): Fraction(1)}])
    with pytest.raises(ValueError):
        ncgb.complete([], 2)
    non_binomial = ncgb.complete(
        [{(1, 0): Fraction(1), (0, 1): Fraction(-1), (0, 0): Fraction(1)}],
        3, alphabet=2)
    with pytest.raises(NotBinomial):
        ncgb.normal_form_word((1, 0), non_binomial)
    scaled = ncgb.complete([{(0, 1): 1, (1, 0): -2}], 3, alphabet=2)
    with pytest.raises(NotBinomial):
        ncgb.normal_form_word((0, 1), scaled)


def test_normal_form_is_linear_and_stable(mixed3):
    gb = solution_gb(mixed3)
    p = {(2, 2, 1): Fraction(3), (1, 0, 2): Fraction(-2)}
    nf = ncgb.normal_form(p, gb)
    assert ncgb.normal_form(nf, gb) == nf
    doubled = ncgb.normal_form({w: 2 * c for w, c in p.items()}, gb)
    assert doubled == {w: 2 * c for w, c in nf.items()}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=0, max_size=3),
       st.lists(st.integers(0, 2), min_size=0, max_size=3),
       st.lists(st.integers(0, 2), min_size=0, max_size=2))
def test_monoid_product_is_associative(u, v, w):
    gb = solution_gb(mixed3_solution(), max_degree=9)
    u, v, w = tuple(u), tuple(v), tuple(w)
    left = ncgb.monoid_multiply(ncgb.monoid_multiply(u, v, gb), w, gb)
    right = ncgb.monoid_multiply(u, ncgb.monoid_multiply(v, w, gb), gb)
    assert left == right


def test_left_cancellative(mixed3, cycle3):
    assert ncgb.left_cancellative_check(solution_gb(mixed3), 3) is True
    assert ncgb.left_cancellative_check(solution_gb(cycle3), 3) is True
    # x0 x1 = x0 x0 identifies x0 * x1 with x0 * x0
    gb = ncgb.complete([{(0, 1): Fraction(1), (0, 0): Fraction(-1)}],
                       4, alphabet=2)
    result = ncgb.left_cancellative_check(gb, 2)
    assert result != True  # noqa: E712  (returns a counterexample triple)
    x, u, v = result
    assert u != v
    assert ncgb.monoid_multiply((x,), u, gb) == ncgb.monoid_multiply((x,), v, gb)


def test_free_algebra_counts_without_listing_words():
    # 4^12 words cannot be listed in the time the suite allows, so this
    # passes only if the series is counted
    gb = ncgb.complete([], 13, alphabet=4)
    hp = ncgb.hilbert_series(gb, 12)
    assert hp == ncgb.HilbertPrefix(tuple(4 ** d for d in range(13)), True)


COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3),
          Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def relation_sets(draw):
    """Homogeneous relations on 2-4 generators, degrees 2-4 mixed in one
    set and possibly above the bound, with non-unit coefficients, repeated
    leading words, duplicate relations, sums that reduce to zero and zero
    relations."""
    n = draw(st.integers(2, 4))
    max_degree = draw(st.integers(3, 5))
    rels = []
    for _ in range(draw(st.integers(1, 6))):
        extra = draw(st.sampled_from(["new", "new", "new", "copy", "sum", "zero"]))
        live = [p for p in rels if any(p.values())]
        if extra == "copy" and live:
            c = draw(st.sampled_from(COEFFS))
            rels.append({w: c * a for w, a in draw(st.sampled_from(live)).items()})
        elif extra == "sum" and len(live) > 1:
            p, q = draw(st.lists(st.sampled_from(live), min_size=2, max_size=2))
            if len(next(iter(p))) == len(next(iter(q))):
                rels.append(ncgb.poly_add(p, q))
        elif extra == "zero":
            rels.append({(0, 0): Fraction(0)})
        else:
            degree = draw(st.integers(2, 4))
            words = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * degree),
                                  min_size=1, max_size=3, unique=True))
            rels.append({w: draw(st.sampled_from(COEFFS)) for w in words})
    return n, rels, max_degree


@settings(max_examples=150, deadline=None)
@given(relation_sets())
def test_engine_matches_brute_force_oracle(case):
    n, rels, max_degree = case
    want = ncgb_oracle.complete(rels, max_degree, alphabet=n)
    got = ncgb.complete(rels, max_degree, alphabet=n)
    highest = max((len(w) for p in rels for w, c in p.items() if c), default=0)
    if highest <= max_degree:
        assert (got.rules, got.complete, got.binomial) == \
            (want.rules, want.complete, want.binomial)
    else:
        # Above the bound overlaps stay unresolved, so the reduced rules there
        # are not unique: the oracle's depend on the order it met them.  Below
        # the bound they are unique, and both rule sets generate the ideal of
        # the input, which completion through the highest degree decides.
        def low(gb):
            return [rule for rule in gb.rules if len(rule[0]) <= max_degree]
        assert low(got) == low(want)
        full = ncgb.complete(rels, highest, alphabet=n).rules
        for gb in (got, want):
            polys = [{lead: ncgb.ONE, **{w: -c for w, c in rhs}}
                     for lead, rhs in gb.rules]
            assert ncgb.complete(polys, highest, alphabet=n).rules == full
    for d in range(max_degree):
        assert ncgb.normal_words(got, d) == ncgb_oracle.normal_words(want, d)
    top = max_degree + 1 if want.complete else max_degree - 1
    assert ncgb.hilbert_series(got, top) == ncgb_oracle.hilbert_series(want, top)
    p = {w: c for w, c in zip(product(range(n), repeat=max_degree), COEFFS)}
    rules = [(lead, dict(rhs)) for lead, rhs in want.rules]
    assert ncgb.normal_form(p, got) == ncgb_oracle._normal_form_dict(p, rules)


@st.composite
def bounded_sets(draw):
    """Homogeneous relations on 2-3 generators of degrees 2-4, and a degree
    bound 3-5."""
    n = draw(st.integers(2, 3))
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(2, 4))
        words = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * degree),
                              min_size=1, max_size=3, unique=True))
        rels.append({w: draw(st.sampled_from(COEFFS)) for w in words})
    return n, rels, draw(st.integers(3, 5))


@settings(max_examples=150, deadline=None)
@given(bounded_sets())
def test_truncated_basis_is_exact_through_its_bound(case):
    # completion runs one degree at a time, so every lead through the bound
    # is final: a deeper basis lists the same words and counts there
    n, rels, bound = case
    gb = ncgb.complete(rels, bound, alphabet=n)
    deeper = ncgb.complete(rels, bound + 3, alphabet=n)
    assert ncgb.normal_words(gb, bound) == ncgb.normal_words(deeper, bound)
    hp = ncgb.hilbert_series(gb, bound)
    assert hp.exact and hp == ncgb.hilbert_series(deeper, bound)
    if not gb.complete:
        assert not ncgb.hilbert_series(gb, bound + 1).exact
        with pytest.raises(InsufficientDegree):
            ncgb.normal_words(gb, bound + 1)


@st.composite
def difference_sets(draw):
    """Pure-difference relations u - v on 2-4 generators, drawn three ways:
    with int coefficients +-1, with Fraction ones, and as the canonical
    relations of a random r-table."""
    n = draw(st.integers(2, 4))
    way = draw(st.sampled_from(["int", "fraction", "table"]))
    if way == "table":
        pairs = list(product(range(n), repeat=2))
        table = draw(st.lists(st.sampled_from(pairs), min_size=n * n, max_size=n * n))
        qs = quadset.QuadraticSet(n, table)
        return n, orbits.canonical_relations(qs).to_polynomials()
    one = 1 if way == "int" else Fraction(1)
    rels = []
    for _ in range(draw(st.integers(1, 6))):
        degree = draw(st.integers(2, 3))
        u, v = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * degree),
                             min_size=2, max_size=2, unique=True))
        rels.append({u: one, v: -one})
    return n, rels


@settings(max_examples=100, deadline=None)
@given(difference_sets(), st.integers(3, 4))
def test_difference_relations_keep_fraction_results(case, max_degree):
    # an int coefficient equals its Fraction, so only repr sees one leak out
    n, rels = case
    want = ncgb_oracle.complete(rels, max_degree, alphabet=n)
    got = ncgb.complete(rels, max_degree, alphabet=n)
    assert repr(got) == repr(want)
    rules = [(lead, dict(rhs)) for lead, rhs in want.rules]
    for d in range(max_degree):
        assert repr(ncgb.normal_words(got, d)) == repr(ncgb_oracle.normal_words(want, d))
    words = list(product(range(n), repeat=max_degree))
    p = {w: c for w, c in zip(words[::-1], COEFFS)}
    assert repr(ncgb.normal_form(p, got)) == \
        repr(ncgb_oracle._normal_form_dict(p, rules))
    for w in words[:8]:
        assert repr(ncgb.normal_form(w, got)) == \
            repr(ncgb_oracle._normal_form_dict({w: ncgb.ONE}, rules))


def test_binomial_completion_makes_fractions_only_for_its_result(monkeypatch):
    # the 8-cycle's relations have coefficients +-1: completion runs on ints
    # and makes at most one Fraction per right-hand-side term, in
    # _freeze_rules; canonical_basis hands it ints and makes none at all
    cycle8 = quadset.make_permutation_solution(list(range(1, 8)) + [0])
    rels = orbits.canonical_relations(cycle8).to_polynomials()
    calls = []

    def counting(make):
        def wrapper(*args, **kwargs):
            calls.append(None)
            return make(*args, **kwargs)
        return wrapper

    def count_fractions(build):
        calls.clear()
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting(Fraction.__new__)))
        if hasattr(Fraction, "_from_coprime_ints"):   # arithmetic results since 3.12
            monkeypatch.setattr(Fraction, "_from_coprime_ints",
                                classmethod(counting(Fraction._from_coprime_ints.__func__)))
        gb = build()
        monkeypatch.undo()
        return gb, len(calls)
    gb, made = count_fractions(lambda: ncgb.complete(rels, 6, alphabet=8))
    assert made <= sum(len(rhs) for _, rhs in gb.rules)
    assert gb.complete and gb.binomial and len(gb.rules) == 56
    basis, made = count_fractions(lambda: orbits.canonical_basis(cycle8, 6))
    assert made == 0 and repr(basis) == repr(gb)
    assert all(type(c) is Fraction for _, rhs in basis.rules for _, c in rhs)


def test_completion_work_does_not_grow_with_the_bound(monkeypatch):
    # the 8-cycle's relations are its Groebner basis: degree 2 and the
    # overlaps of degree 3 run a word step each, no other degree runs, and
    # the call builds one lead index, which it grows
    cycle8 = quadset.make_permutation_solution(list(range(1, 8)) + [0])
    built, steps = [], []

    class CountingIndex(ncgb.LeadIndex):
        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)
    word_step = ncgb._word_step

    def counting_step(polys, overlaps, index):
        # the step's degree is the length of an input word, or of the first
        # overlap word u v[k:], whose code is u q + v % q
        if polys:
            word = next(iter(polys[0]))
        else:
            u, _, v, _, q = overlaps[0]
            word = u * q + v % q
        steps.append(index.length(word))
        return word_step(polys, overlaps, index)
    monkeypatch.setattr(ncgb, "LeadIndex", CountingIndex)
    monkeypatch.setattr(ncgb, "_word_step", counting_step)
    bases = {}
    for bound in (6, 600):
        built.clear()
        steps.clear()
        bases[bound] = orbits.canonical_basis(cycle8, bound)
        assert steps == [2, 3] and len(built) == 1
    monkeypatch.undo()
    assert bases[6].rules == bases[600].rules
    assert bases[6].complete and bases[600].complete
    # an overlap longer than the bound still leaves the basis truncated:
    # x2x2 - x2x1 overlaps itself at every degree, and so does an input
    # above the bound whose lead is x2x2x2x2; one whose lead overlaps
    # nothing leaves it complete
    assert not ncgb.complete([{(1, 1): 1, (1, 0): -1}], 3, alphabet=2).complete
    assert not ncgb.complete([{(1, 1, 1, 1): 1, (0, 0, 0, 0): -1}], 3).complete
    assert ncgb.complete([{(0, 1, 1, 1): 1, (0, 0, 0, 0): -1}], 3).complete


SCALES = [1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3)]


@st.composite
def word_difference_sets(draw):
    """Relations c(u - v) on 2-4 generators, of degrees 2 and 3 mixed and
    now and then one above the bound, with scales c of +-1, +-2 and +-1/3,
    and a bound 3-6."""
    n = draw(st.integers(2, 4))
    bound = draw(st.integers(3, 6))
    rels = []
    for _ in range(draw(st.integers(1, 6))):
        degree = draw(st.sampled_from([2, 2, 3, 3, bound + 1]))
        u, v = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * degree),
                             min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from(SCALES))
        rels.append({u: c, v: -c})
    return n, rels, bound


@settings(max_examples=150, deadline=None)
@given(word_difference_sets())
# x1x1 - x1x0 spawns a rule at every degree, so its basis is truncated
@example((2, [{(1, 1): 1, (1, 0): -1}], 3))
@example((2, [{(0, 1): 2, (1, 0): -2},
              {(1, 1, 1, 1): Fraction(1, 3), (0, 1, 0, 0): Fraction(-1, 3)}], 3))
def test_word_differences_complete_as_on_rows(case):
    n, rels, bound = case
    got = ncgb.complete(rels, bound, alphabet=n)
    want = ncgb_oracle.complete_by_rows(rels, bound, alphabet=n)
    assert repr(got) == repr(want)
    # the oracle lists words only where its older bound rule allows
    for d in range(bound + 1 if want.complete else bound):
        assert repr(ncgb.normal_words(got, d)) == repr(ncgb_oracle.normal_words(want, d))


@settings(max_examples=150, deadline=None)
@given(relation_sets())
def test_completion_matches_the_row_oracle(case):
    # three-term relations of mixed degree, some above the bound: the
    # overlap buckets must hand the rows the oracle's overlaps
    n, rels, max_degree = case
    assert repr(ncgb.complete(rels, max_degree, alphabet=n)) == \
        repr(ncgb_oracle.complete_by_rows(rels, max_degree, alphabet=n))


@st.composite
def deep_word_difference_sets(draw):
    """Relations c(u - v) on 2-4 generators, of degrees 2-4 mixed and now
    and then one or two above the bound, with scales c of +-1, +-2 and
    +-1/3, and a bound 3-9."""
    n = draw(st.integers(2, 4))
    bound = draw(st.integers(3, 9))
    rels = []
    for _ in range(draw(st.integers(1, 6))):
        degree = draw(st.sampled_from([2, 2, 3, 3, 4, bound + 1, bound + 2]))
        u, v = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * degree),
                             min_size=2, max_size=2, unique=True))
        c = draw(st.sampled_from(SCALES))
        rels.append({u: c, v: -c})
    return n, rels, bound


@settings(max_examples=150, deadline=None)
@given(deep_word_difference_sets())
@example((2, [{(1, 1): 1, (1, 0): -1}], 9))
@example((2, [{(0, 1): 1, (1, 0): -1},
              {(1, 1, 1, 1, 1, 1, 1, 1, 1, 1): 1,
               (0, 1, 0, 1, 0, 1, 0, 1, 0, 0): -1}], 9))
def test_word_completion_matches_the_word_oracle(case):
    # normal words grown from their prefixes give the rules that leftmost
    # rewriting with a lead index per degree gave, past the row oracle's
    # bound of 6 and for inputs above the bound
    n, rels, bound = case
    assert repr(ncgb.complete(rels, bound, alphabet=n)) == \
        repr(ncgb_oracle.complete_by_words(rels, bound, alphabet=n))


def involutive_products():
    """The 15 products of the five involutive nondegenerate braided
    solutions on 3 points, each with itself and each with another."""
    sols = quadset.enumerate_solutions(3, ["involutive", "braided", "left_nondegenerate",
                                           "right_nondegenerate"])
    assert len(sols) == 5
    return [quadset.cartesian_product(a, b)
            for i, a in enumerate(sols) for b in sols[i:]]


def test_involutive_products_match_the_word_oracle():
    # the completion workload's products at D = 4, and the one it leaves out
    for qs in involutive_products():
        rels = orbits.canonical_relations(qs).to_polynomials()
        assert repr(ncgb.complete(rels, 4, alphabet=9)) == \
            repr(ncgb_oracle.complete_by_words(rels, 4, alphabet=9))


def test_word_completion_needs_no_recursion_per_letter():
    # x1x1 - x1x0 makes a rule at every degree, so at bound 150 completion
    # grows words of up to 150 letters under a recursion limit of 120
    code = ("import sys\n"
            "from ybx import ncgb\n"
            "sys.setrecursionlimit(120)\n"
            "gb = ncgb.complete([{(1, 1): 1, (1, 0): -1}], 150)\n"
            "print(len(gb.rules), gb.complete)\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(ncgb.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["149", "False"]
    rels = [{(1, 1): 1, (1, 0): -1}]
    assert repr(ncgb.complete(rels, 40)) == repr(ncgb_oracle.complete_by_words(rels, 40))


def test_word_completion_memory_stays_small():
    # the same 149 rules: a word is one integer code, so the words the
    # completion keeps, prefixes included, cost one small int each
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        gb = ncgb.complete([{(1, 1): 1, (1, 0): -1}], 150)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(gb.rules) == 149 and not gb.complete
    assert peak < 4 * 2 ** 20, f"completion peaked at {peak / 2 ** 20:.1f} MiB"


def test_letters_outside_the_alphabet_are_refused(mixed3):
    # a code has no digit for a letter outside 0..n-1, so such a word is an
    # error, not a word of its own
    gb = solution_gb(mixed3)
    unary = ncgb.complete([], 3, alphabet=1)
    for basis, word in [(gb, (0, 3)), (gb, (3,)), (gb, (1, -1)), (gb, (-1,)),
                        (unary, (1,)), (unary, (0, 0, 1))]:
        with pytest.raises(InvalidArgument):
            ncgb.normal_form_word(word, basis)
        with pytest.raises(InvalidArgument):
            ncgb.normal_form(word, basis)
        with pytest.raises(InvalidArgument):
            ncgb.normal_form({(0,): 1, word: 2}, basis)
        with pytest.raises(InvalidArgument):
            ncgb.monoid_multiply((0,), word, basis)
    with pytest.raises(InvalidArgument):
        ncgb.complete([{(0, -1): 1, (0, 0): -1}], 3)
    # words inside it still work
    assert ncgb.normal_form_word((0, 0, 0), unary) == (0, 0, 0)
    assert ncgb.monoid_multiply((2,), (1, 0), gb) == ncgb.normal_form_word((2, 1, 0), gb)


def test_word_differences_never_reach_elimination(monkeypatch, mixed3, cycle3):
    class Eliminated(Exception):
        pass

    def refuse(rows):
        raise Eliminated
    monkeypatch.setattr(ncgb.elim, "rref", refuse)
    for qs in (mixed3, cycle3, quadset.make_permutation_solution(list(range(1, 8)) + [0])):
        assert orbits.canonical_basis(qs, 6).complete
    gb, _, _ = diffcalc.make_rho_family(1, 0, 1, 0)
    assert gb.binomial
    rels = orbits.canonical_relations(mixed3).to_polynomials()
    assert verseg.veronese_presentation(rels, 2, alphabet=3).generators
    assert ncgb.complete([{(0, 1): 2, (1, 0): -2},
                          {(0, 0, 1): Fraction(1, 3), (1, 0, 0): Fraction(-1, 3)}],
                         4).binomial
    assert ncgb.complete([], 4, alphabet=2).complete
    # unequal coefficients, a three-term relation and a monomial take the rows
    for rels in ([{(0, 1): 1, (1, 0): -2}],
                 [{(1, 0): 1, (0, 1): -1, (0, 0): 1}],
                 [{(0, 1): 1, (1, 0): -1}, {(1, 1): 1}]):
        with pytest.raises(Eliminated):
            ncgb.complete(rels, 3, alphabet=2)


@settings(max_examples=100, deadline=None)
@given(difference_sets(), st.integers(3, 5),
       st.lists(st.lists(st.integers(0, 3), max_size=6), min_size=1, max_size=8))
def test_normal_form_word_is_the_word_of_normal_form(case, bound, words):
    n, rels = case
    gb = ncgb.complete(rels, bound, alphabet=n)
    for w in words:
        w = tuple(x % n for x in w)
        (word, c), = ncgb.normal_form({w: 1}, gb).items()
        assert c == 1 and ncgb.normal_form_word(w, gb) == word


@settings(max_examples=100, deadline=None)
@given(difference_sets(), st.integers(3, 5),
       st.lists(st.lists(st.integers(0, 3), max_size=6), min_size=1, max_size=6))
def test_word_memo_keeps_normal_forms(case, bound, words):
    # one memo per basis serves every call: repeated words, and words
    # whose rewriting meets a word an earlier call has rewritten
    n, rels = case
    gb = ncgb.complete(rels, bound, alphabet=n)
    words = [tuple(x % n for x in w) for w in words]
    for w in words + [u + v for u in words for v in words] + words[::-1]:
        (word, c), = ncgb.normal_form({w: 1}, gb).items()
        assert ncgb.normal_form_word(w, gb) == word
    base = max(gb.alphabet_size, 2)
    memo = gb.index.memo
    for w in words:
        assert memo[code(w, base)] == code(ncgb.normal_form_word(w, gb), base)


@settings(max_examples=150, deadline=None)
@given(deep_word_difference_sets(),
       st.lists(st.lists(st.integers(0, 3), max_size=14), min_size=1, max_size=8))
# x1x1 - x1x0 leaves x1^k x0 - x1^(k+1) unresolved past the bound
@example((2, [{(1, 1): 1, (1, 0): -1}, {(0, 1, 1, 1): 1, (1, 0, 0, 1): -1}], 3),
         [[0, 1, 1, 1, 1, 1], [1] * 14, [0, 1] * 7])
def test_word_normal_forms_rewrite_leftmost_past_the_bound(case, words):
    # past the bound of a truncated basis a word may have several normal
    # words; growth from the prefix must give the one leftmost rewriting gives
    n, rels, bound = case
    assume(any(len(next(iter(p))) > bound for p in rels))
    gb = ncgb.complete(rels, bound, alphabet=n)
    assume(not gb.complete)
    rules = [(lead, dict(rhs)) for lead, rhs in gb.rules]
    for w in words:
        w = tuple(x % n for x in w)
        (word, c), = ncgb_oracle._normal_form_dict({w: 1}, rules).items()
        assert c == 1 and ncgb.normal_form_word(w, gb) == word


def test_word_memo_lives_on_its_basis(monkeypatch, mixed3):
    gb, twin = solution_gb(mixed3), solution_gb(mixed3)
    containers = {name: len(value) for name, value in vars(ncgb).items()
                  if isinstance(value, (dict, list, set))}
    word = (2, 1, 0, 2, 1, 1)
    first = ncgb.normal_form_word(word, gb)
    grown = []
    grow = ncgb._grow_normal_words
    monkeypatch.setattr(ncgb, "_grow_normal_words",
                        lambda words, index: grown.append(words) or grow(words, index))
    assert ncgb.normal_form_word(word, gb) == first and not grown
    assert ncgb.normal_form_word(word, twin) == first and grown == [[code(word, 3)]]
    monkeypatch.undo()
    # the memo is no field: repr, == and hash read the rules alone
    assert repr(gb) == repr(twin) and gb == twin and hash(gb) == hash(twin)
    # and no module-level cache keeps words or bases alive
    assert containers == {name: len(value) for name, value in vars(ncgb).items()
                          if isinstance(value, (dict, list, set))}
    ref = weakref.ref(gb)
    del gb
    gc.collect()
    assert ref() is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                min_size=1, max_size=6),
       st.lists(st.integers(0, 2), max_size=8))
def test_lead_lookup_matches_rule_scan(leads, word):
    # repeated leads are kept: completion input may repeat a leading word
    rules = [(tuple(lead), {(k,): Fraction(k + 1)}) for k, lead in enumerate(leads)]
    word = tuple(word)
    index = ncgb.LeadIndex(3, [(code(lead, 3), rhs) for lead, rhs in rules])
    after = {3 ** j: j for j in range(len(word) + 1)}

    def as_scan(hit):
        # the lead at index i, with q = 3^j for the j letters after it
        if hit is None:
            return None
        q, i = hit
        lead, rhs = rules[i]
        return len(word) - len(lead) - after[q], lead, rhs
    assert as_scan(index.find(code(word, 3))) == ncgb_oracle._reduce_once(word, rules)


def walk(index, word):
    """The automaton's states along word, ending at None where a lead ends."""
    states = [1]
    for x in word:
        if (state := index.step(states[-1], x)) is None:
            return states + [None]
        states.append(state)
    return states


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                min_size=1, max_size=6),
       st.integers(0, 6))
def test_steps_taken_before_a_rule_is_added_are_dropped(leads, split):
    # a state is the longest suffix read that is a proper prefix of a lead;
    # walking every word before the later rules come fills the steps memo,
    # which add must clear, as completion grows its index
    rules = [(code(lead, 3), {3: k + 1}) for k, lead in enumerate(leads)]
    grown = ncgb.LeadIndex(3, rules[:split])
    words = [w for d in range(5) for w in product(range(3), repeat=d)]
    for w in words:
        walk(grown, w)
    for rule in rules[split:]:
        grown.add(rule)
    fresh = ncgb.LeadIndex(3, rules)
    prefixes = {tuple(lead[:k]) for lead in leads for k in range(len(lead))}
    for w in words:
        want = [1]
        for i in range(1, len(w) + 1):
            if any(w[:i][-len(lead):] == tuple(lead) for lead in leads if len(lead) <= i):
                want.append(None)
                break
            want.append(code(next(w[j:i] for j in range(i + 1) if w[j:i] in prefixes), 3))
        assert walk(grown, w) == walk(fresh, w) == want, w


def test_verdicts_survive_optimized_mode():
    # python -O strips assert statements; word normal forms and Hilbert
    # series must not depend on them
    code = (
        "import json\n"
        "from ybx import ncgb, orbits\n"
        "from conftest import mixed3_solution\n"
        "qs = mixed3_solution()\n"
        "gb = ncgb.complete(orbits.canonical_relations(qs).to_polynomials(), 6,"
        " alphabet=3)\n"
        "words = [w for d in range(4) for w in ncgb.normal_words(gb, d)]\n"
        "print(json.dumps([[ncgb.normal_form_word(w + w, gb) for w in words],"
        " ncgb.hilbert_series(gb, 5).coefficients]))\n")
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(ncgb.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    gb = solution_gb(mixed3_solution())
    words = [w for d in range(4) for w in ncgb.normal_words(gb, d)]
    want = [[list(ncgb.normal_form_word(w + w, gb)) for w in words],
            list(ncgb.hilbert_series(gb, 5).coefficients)]
    assert json.loads(out) == want


def typed(p):
    """A polynomial with the type of each coefficient, which must agree too."""
    return {w: (c, type(c)) for w, c in p.items()}


def assert_same_readings(gb, twin, words, polys):
    """gb and twin, equal bases with their own indexes, give the same normal
    forms, word normal forms, normal words and Hilbert series."""
    for p in [{w: 1} for w in words] + polys:
        assert typed(ncgb.normal_form(p, gb)) == typed(ncgb.normal_form(p, twin))
    if gb.binomial:
        for w in words:
            assert ncgb.normal_form_word(w, gb) == ncgb.normal_form_word(w, twin)
    for d in range(gb.max_degree + 1):
        assert ncgb.normal_words(gb, d) == ncgb.normal_words(twin, d)
    assert ncgb.hilbert_series(gb, gb.max_degree + 2) == \
        ncgb.hilbert_series(twin, gb.max_degree + 2)


def check_handed_index(n, rels, bound, words):
    """complete's basis holds the index completion grew; against the index
    rebuilt from its rules it has the same rules, coefficient types, leads
    and prefixes and suffixes, and gives the same readings."""
    gb = ncgb.complete(rels, bound, alphabet=n)
    handed, rebuilt = vars(gb)["index"], ncgb.GroebnerBasis.index.func(gb)
    assert gb.index is handed and handed is not rebuilt
    assert len(handed.rules) == len(rebuilt.rules) == len(gb.rules)
    assert ({lead: typed(rhs) for lead, rhs in handed.rules}
            == {lead: typed(rhs) for lead, rhs in rebuilt.rules})
    assert ({k: set(table) for k, (_, table) in handed.tables.items()}
            == {k: set(table) for k, (_, table) in rebuilt.tables.items()})
    assert handed.starts.keys() == rebuilt.starts.keys()
    assert handed.ends.keys() == rebuilt.ends.keys()
    twin = dataclasses.replace(gb)
    assert "index" not in vars(twin)
    twin.__dict__["index"] = rebuilt
    words = [tuple(x % n for x in w) for w in words]
    words += [w for d in range(4) for w in product(range(n), repeat=d)]
    assert_same_readings(gb, twin, words, [p for p in rels if any(p.values())])
    return gb, words


# word path, complete; word path, truncated, with an input above the bound;
# rows (2 x1x0 - 4 x0x1 rewrites x1x0 to the integral Fraction 2 x0x1 in the
# echelon pass), complete; rows, truncated, with an input above the bound
HANDED_CASES = {
    "words complete": (3, [{(1, 0): 1, (0, 2): -1}, {(1, 1): 1, (0, 0): -1},
                           {(1, 2): 1, (0, 1): -1}, {(2, 0): 1, (0, 1): -1},
                           {(2, 1): 1, (0, 2): -1}, {(2, 2): 1, (0, 0): -1}], 6, True),
    "words truncated": (2, [{(1, 1): 1, (1, 0): -1},
                            {(1, 1, 1, 1): 1, (0, 0, 0, 0): -1}], 3, False),
    "rows complete": (2, [{(1, 0): 2, (0, 1): -4}], 4, True),
    "rows truncated": (2, [{(1, 1): 1, (1, 0): 1, (0, 0): -1},
                           {(1, 1, 1, 1): 3, (0, 1, 0, 1): 1}], 3, False),
}


@pytest.mark.parametrize("case", HANDED_CASES)
def test_complete_hands_its_index_to_the_basis(case):
    n, rels, bound, complete = HANDED_CASES[case]
    long_words = [[1] * 7, [0, 1] * 4, [1, 0, 1, 1, 0, 2, 1]]
    gb, words = check_handed_index(n, rels, bound, long_words)
    assert gb.complete is complete
    assert gb.binomial is case.startswith("words")
    # a basis built another way builds its index from its own rules
    (lead, _), smaller = gb.rules[0], dataclasses.replace(gb, rules=gb.rules[1:])
    assert "index" not in vars(smaller)
    assert len(smaller.index.rules) == len(gb.rules) - 1
    assert dict(smaller.index.rules) == dict(ncgb.GroebnerBasis.index.func(smaller).rules)
    assert ncgb.normal_form(lead, smaller) == {lead: 1}
    assert ncgb.normal_form(lead, gb) != {lead: 1}
    # a pickle carries the fields alone: the copy is equal and rebuilds its index
    copy = pickle.loads(pickle.dumps(gb))
    assert copy == gb and repr(copy) == repr(gb) and "index" not in vars(copy)
    assert_same_readings(gb, copy, words, rels)


@settings(max_examples=150, deadline=None)
@given(st.one_of(relation_sets(), deep_word_difference_sets()),
       st.lists(st.lists(st.integers(0, 3), max_size=11), max_size=4))
def test_handed_index_reads_as_the_rebuilt_one(case, words):
    check_handed_index(*case, words)
