import os
import subprocess
import sys
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidmon_oracle
from ybx import braidmon, ncgb, quadset
from ybx.errors import (CheckFailed, InsufficientDegree, InvalidArgument, NotBraided,
                        SizeTooLarge)

# the level-2 solution of the mixed3 set: left action of the second
# label is the 3-cycle, the third its inverse, right actions collapse
LEVEL2_TABLE = {
    (0, 0): (0, 0), (1, 2): (0, 0), (2, 1): (0, 0),
    (1, 0): (1, 0), (0, 1): (1, 0), (2, 2): (1, 0),
    (2, 0): (2, 0), (0, 2): (2, 0), (1, 1): (2, 0),
}


def test_word_actions_reduce_to_letter_actions(mixed3):
    wa = braidmon.WordActions(mixed3, max_degree=4)
    for a in range(3):
        for b in range(3):
            k, l = mixed3.r(a, b)
            assert braidmon.word_left_action((a,), (b,), wa) == (k,)
            assert braidmon.word_right_action((a,), (b,), wa) == (l,)
    # empty words act trivially
    assert braidmon.word_left_action((), (0, 1), wa) == (0, 1)
    assert braidmon.word_right_action((0, 1), (), wa) == (0, 1)


def assert_actions_match_oracle(wa, a, b):
    assert (braidmon.word_left_action(a, b, wa)
            == braidmon_oracle.word_left_action(a, b, wa)), (a, b)
    assert (braidmon.word_right_action(a, b, wa)
            == braidmon_oracle.word_right_action(a, b, wa)), (a, b)


@st.composite
def tables(draw, max_n=3):
    """Any r-table on n = 1..max_n points, braided or not."""
    n = draw(st.integers(1, max_n))
    letter = st.integers(0, n - 1)
    return quadset.QuadraticSet(n, draw(st.lists(st.tuples(letter, letter),
                                                 min_size=n * n, max_size=n * n)))


def words(qs, max_len):
    return st.lists(st.integers(0, qs.n - 1), max_size=max_len).map(tuple)


@settings(max_examples=300, deadline=None)
@given(tables(), st.data())
def test_word_actions_match_oracle_on_any_table(qs, data):
    # braided or not: the one crossing expands the same formulas
    wa = braidmon.WordActions(qs, max_degree=3)
    assert_actions_match_oracle(wa, data.draw(words(qs, 4)), data.draw(words(qs, 4)))


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_crossing_gives_the_monoid_axioms_on_words_for_any_table(qs, data):
    # braided or not, which is why check_braided_monoid_axioms tests only descent
    wa = braidmon.WordActions(qs, max_degree=6)
    a, b, u = (data.draw(words(qs, 3)) for _ in range(3))

    def left(x, y):
        return braidmon.word_left_action(x, y, wa)

    def right(x, y):
        return braidmon.word_right_action(x, y, wa)

    assert left(a + b, u) == left(a, left(b, u))                    # ML1
    assert right(a, u + b) == right(right(a, u), b)                 # MR1
    assert left(a, u + b) == left(a, u) + left(right(a, u), b)      # ML2
    assert right(a + b, u) == right(a, left(b, u)) + right(b, u)    # MR2
    assert wa.nor(left(a, b) + right(a, b)) == wa.nor(a + b)        # M3


def test_word_actions_match_oracle_on_the_paper_class():
    for n in (1, 2, 3):
        words = [w for k in range(4) for w in product(range(n), repeat=k)]
        for qs in quadset.enumerate_solutions(
                n, ("braided", "idempotent", "left_nondegenerate")):
            wa = braidmon.WordActions(qs, max_degree=3)
            for a in words:
                for b in words:
                    assert_actions_match_oracle(wa, a, b)


def test_actions_preserve_length(mixed3):
    wa = braidmon.WordActions(mixed3, max_degree=4)
    words = [w for k in range(3) for w in product(range(3), repeat=k)]
    for a in words:
        for b in words:
            assert len(braidmon.word_left_action(a, b, wa)) == len(b)
            assert len(braidmon.word_right_action(a, b, wa)) == len(a)


def test_monoid_axioms(mixed3, cycle3):
    for qs in (mixed3, cycle3):
        wa = braidmon.WordActions(qs, max_degree=6)
        assert braidmon.check_braided_monoid_axioms(wa, 3)


def test_axioms_reject_non_braided():
    bad = quadset.QuadraticSet(2, [(1, 1), (0, 0), (0, 0), (0, 0)])
    assert not quadset.check_properties(bad).braided
    with pytest.raises(NotBraided):
        braidmon.check_braided_monoid_axioms(
            braidmon.WordActions(bad, max_degree=4), 2)


def test_axioms_catch_an_action_that_does_not_descend(monkeypatch):
    # past the braided gate, the right action of this table is not well
    # defined on S(X, r): 10 = 00 there, but (0) <| (10) != (0) <| (00)
    bad = quadset.QuadraticSet(2, [(1, 1), (0, 0), (0, 0), (0, 0)])
    monkeypatch.setattr(braidmon, "require_properties", lambda *args: None)
    with pytest.raises(CheckFailed, match=r"<\| does not descend .* a=\(0,\), b=\(1, 0\)"):
        braidmon.check_braided_monoid_axioms(braidmon.WordActions(bad, max_degree=4), 2)


def test_axioms_need_normal_forms_through_max_len():
    # a braided set whose basis is truncated at degree 3
    qs = quadset.QuadraticSet(2, [(1, 1), (0, 1), (1, 0), (0, 0)])
    wa = braidmon.WordActions(qs, max_degree=3)
    assert not wa.gb.complete
    assert braidmon.check_braided_monoid_axioms(wa, 3)
    with pytest.raises(InsufficientDegree):
        braidmon.check_braided_monoid_axioms(wa, 4)


def test_level2_solution_of_mixed3(mixed3):
    vs = braidmon.veronese_solution(mixed3, 2)
    assert vs.labels == ((0, 0), (0, 1), (0, 2))
    expected = quadset.QuadraticSet(3, [LEVEL2_TABLE[i, j]
                                        for i in range(3) for j in range(3)])
    assert vs.base == expected
    assert tuple(vs.base.r(1, j)[0] for j in range(3)) == (1, 2, 0)
    assert tuple(vs.base.r(2, j)[0] for j in range(3)) == (2, 0, 1)


def test_level_d_of_permutation_is_power_of_f():
    for n in range(1, 5):
        for f in permutations(range(n)):
            qs = quadset.make_permutation_solution(list(f))
            wa = braidmon.WordActions(qs, max_degree=6)
            for d in (2, 3):
                vs = braidmon.veronese_solution(qs, d, wa)
                fd = list(range(n))
                for _ in range(d):
                    fd = [f[i] for i in fd]
                assert vs.base == quadset.make_permutation_solution(fd)


def test_veronese_solution_refuses_word_actions_of_another_set(cycle3, mixed3):
    with pytest.raises(InvalidArgument, match="another set"):
        braidmon.veronese_solution(cycle3, 2, braidmon.WordActions(mixed3, 4))
    wa = braidmon.WordActions(quadset.make_permutation_solution([1, 2, 0]), 4)
    assert braidmon.veronese_solution(cycle3, 2, wa) == braidmon.veronese_solution(cycle3, 2)


def test_veronese_solution_past_max_size_is_refused_before_listing(monkeypatch, cycle3):
    # under a bound of 16, the 2-point identity with its 2^d normal words of
    # length d stops at d = 4; the count is read off the Hilbert series, and
    # only when n^d passes the bound
    monkeypatch.setattr(braidmon, "MAX_SIZE", 16)
    ident2 = quadset.make_named("identity", 2)
    counted = []
    monkeypatch.setattr(braidmon, "hilbert_series",
                        lambda gb, d: counted.append(d) or ncgb.hilbert_series(gb, d))
    words = braidmon.normal_words
    monkeypatch.setattr(braidmon, "normal_words", lambda gb, d: pytest.fail("words listed"))
    for d in (5, 6):
        with pytest.raises(SizeTooLarge, match=f"has {2 ** d} points, more than 16"):
            braidmon.veronese_solution(ident2, d)
    monkeypatch.setattr(braidmon, "normal_words", words)
    assert braidmon.veronese_solution(ident2, 4).base.n == 16
    # 3^2 = 9 words at most, so no count; 3^3 = 27, but the cycle has 3
    assert braidmon.veronese_solution(cycle3, 2).base.n == 3
    assert braidmon.veronese_solution(cycle3, 3).base.n == 3
    assert counted == [5, 6, 3]


def test_prolongation_periods(mixed3):
    data = braidmon.prolongation_sequence(mixed3, 4)
    same = [s.base == mixed3 for s in data.solutions]
    assert same == [True, False, True, False]
    assert data.period == 2 and data.distinct_count == 2
    assert data.solutions[1].base == data.solutions[3].base

    # permutation case: the period is the order of f
    f = [1, 2, 0]
    qs = quadset.make_permutation_solution(f)
    data = braidmon.prolongation_sequence(qs, 4)
    assert data.period == 3 and data.distinct_count == 3

    ident = quadset.make_permutation_solution([0, 1])
    assert braidmon.prolongation_sequence(ident, 3).period == 1


def test_prolongation_checks_its_base_once(monkeypatch, mixed3):
    calls = []
    check = braidmon.require_properties
    monkeypatch.setattr(braidmon, "require_properties",
                        lambda qs, *args: calls.append(qs) or check(qs, *args))
    braidmon.prolongation_sequence(mixed3, 4)
    assert calls == [mixed3]
    # the Veronese solution alone still checks its base
    bad = quadset.QuadraticSet(2, [(1, 1), (0, 0), (0, 0), (0, 0)])
    for call in (lambda: braidmon.veronese_solution(bad, 2),
                 lambda: braidmon.prolongation_sequence(bad, 2)):
        with pytest.raises(NotBraided):
            call()


def test_level_solutions_stay_idempotent(mixed3, cycle3):
    for qs in (mixed3, cycle3):
        for d in (2, 3):
            assert quadset.check_properties(braidmon.veronese_solution(qs, d).base).idempotent


def test_normalized_map_is_a_braiding_on_normal_words(mixed3):
    wa = braidmon.WordActions(mixed3, max_degree=6)
    # rho restricted to length-2 normal words satisfies the braid relation
    words = ncgb.normal_words(wa.gb, 2)
    index = {w: i for i, w in enumerate(words)}
    table = []
    for a in words:
        for b in words:
            u, v = braidmon.rho(a, b, wa)
            table.append((index[u], index[v]))
    level = quadset.QuadraticSet(len(words), table)
    rep = quadset.check_properties(level)
    assert rep.braided and rep.idempotent and rep.left_nondegenerate


def test_monoid_axioms_check_survives_optimized_mode():
    # python -O strips assert statements; a broken word action must still
    # be reported
    code = (
        "from ybx import braidmon, quadset\n"
        "from ybx.errors import CheckFailed\n"
        "wa = braidmon.WordActions(quadset.make_permutation_solution([1, 2, 0]),\n"
        "                          max_degree=4)\n"
        "print(braidmon.check_braided_monoid_axioms(wa, 2))\n"
        "good = braidmon.word_left_action\n"
        "braidmon.word_left_action = lambda a, b, wa: good(a, b, wa)[::-1]\n"
        "try:\n"
        "    braidmon.check_braided_monoid_axioms(wa, 2)\n"
        "except CheckFailed as exc:\n"
        "    print('CheckFailed', exc)\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(braidmon.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    verdict, failure = out.splitlines()
    assert verdict == "True"
    assert failure.startswith("CheckFailed ")
