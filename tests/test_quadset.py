import pickle
import random
import time
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadset_oracle
from ybx import quadset
from ybx.errors import IndexOutOfRange, MissingPair, NotABijection, SizeTooLarge


def random_table(n, rng):
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(n * n)]


def braided_oracle(qs):
    # independent check of r12 r23 r12 = r23 r12 r23 via explicit maps on
    # triples, written differently from the library implementation
    def r12(t):
        a, b = qs.r(t[0], t[1])
        return (a, b, t[2])

    def r23(t):
        a, b = qs.r(t[1], t[2])
        return (t[0], a, b)

    for t in product(range(qs.n), repeat=3):
        if r12(r23(r12(t))) != r23(r12(r23(t))):
            return False
    return True


def test_permutation_solution_properties(cycle3):
    rep = quadset.check_properties(cycle3)
    assert rep.braided
    assert rep.idempotent
    assert rep.left_nondegenerate
    assert not rep.involutive
    assert not rep.right_nondegenerate


def test_mixed3_properties(mixed3):
    rep = quadset.check_properties(mixed3)
    assert rep.braided
    assert rep.idempotent
    assert rep.left_nondegenerate
    assert not rep.right_nondegenerate
    # left actions are the transpositions (1 2), (0 1), (0 2)
    assert (tuple(tuple(mixed3.r(i, j)[0] for j in range(3)) for i in range(3))
            == ((0, 2, 1), (1, 0, 2), (2, 1, 0)))
    # all right actions collapse to the first element
    assert all(mixed3.r(i, j)[1] == 0 for i in range(3) for j in range(3))


def test_named_solutions():
    ident = quadset.make_named("identity", 3)
    flip = quadset.make_named("flip", 3)
    assert quadset.check_properties(ident).braided
    assert quadset.check_properties(ident).idempotent
    rep = quadset.check_properties(flip)
    assert rep.braided and rep.involutive
    assert not rep.idempotent


def test_quadratic_set_errors():
    with pytest.raises(MissingPair, match=r"^expected 4 entries, got 1$"):
        quadset.QuadraticSet(2, [(0, 0)])
    with pytest.raises(MissingPair, match=r"^expected 1 entries, got 2$"):
        quadset.QuadraticSet(1, [(0, 0), (0, 0)])
    with pytest.raises(IndexOutOfRange, match=r"^image \(0, 1\) out of range for n=1$"):
        quadset.QuadraticSet(1, [(0, 1)])
    with pytest.raises(IndexOutOfRange, match=r"^image \(-1, 0\) out of range for n=2$"):
        quadset.QuadraticSet(2, [(0, 0), (0, 0), (0, 0), (-1, 0)])
    with pytest.raises(NotABijection):
        quadset.make_permutation_solution([0, 0])


def test_braided_matches_oracle_on_random_tables():
    rng = random.Random(20240817)
    for _ in range(60):
        qs = quadset.QuadraticSet(3, random_table(3, rng))
        assert quadset.check_properties(qs).braided == braided_oracle(qs)


@st.composite
def full_tables(draw):
    """r-tables on 1-5 points: arbitrary ones, and braided r_f(x, y) =
    (f(y), y) or Cartesian products of them, with at most one cell changed."""
    n = draw(st.integers(1, 5))
    pairs = list(product(range(n), repeat=2))
    if draw(st.booleans()):
        return n, tuple(draw(st.lists(st.sampled_from(pairs), min_size=n * n,
                                      max_size=n * n)))
    sizes = draw(st.sampled_from([s for s in ([n], [2, 2]) if s[0] ** len(s) == n]))
    qs = None
    for m in sizes:
        f = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
        r_f = quadset.QuadraticSet(m, [(f[j], j) for i in range(m) for j in range(m)])
        qs = r_f if qs is None else quadset.cartesian_product(qs, r_f)
    table = list(qs.r_table)
    if draw(st.booleans()):
        table[draw(st.integers(0, n * n - 1))] = draw(st.sampled_from(pairs))
    return n, tuple(table)


@settings(max_examples=400, deadline=None)
@given(full_tables())
def test_braided_test_matches_the_wait_oracle(case):
    n, table = case
    want = quadset_oracle.braided_by_wait(table, n)
    assert quadset.PROPERTY_TESTS["braided"](table, n) == want
    assert quadset.check_properties(quadset.QuadraticSet(n, table)).braided == want


def test_cartesian_product_preserves_structure(cycle3, mixed3):
    prod = quadset.cartesian_product(cycle3, mixed3)
    assert prod.n == 9
    rep = quadset.check_properties(prod)
    assert rep.braided and rep.idempotent and rep.left_nondegenerate
    # components act independently
    for i, a in product(range(3), repeat=2):
        for j, b in product(range(3), repeat=2):
            k, l = cycle3.r(i, j)
            u, v = mixed3.r(a, b)
            assert prod.r(i * 3 + a, j * 3 + b) == (k * 3 + u, l * 3 + v)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                min_size=9, max_size=9),
       st.permutations(list(range(3))))
def test_relabel_preserves_properties(table, sigma):
    qs = quadset.QuadraticSet(3, table)
    other = quadset.relabel(qs, list(sigma))
    assert (quadset.check_properties(qs)._asdict()
            == quadset.check_properties(other)._asdict())
    assert quadset.canonical_form(qs) == quadset.canonical_form(other)


def test_canonical_form_is_idempotent(mixed3):
    canon = quadset.QuadraticSet(3, quadset.canonical_form(mixed3))
    assert quadset.canonical_form(canon) == canon.r_table


def test_enumerate_small_counts():
    assert len(quadset.enumerate_solutions(1, [])) == 1
    all2 = quadset.enumerate_solutions(2, [])
    assert len(all2) == 136
    nice2 = quadset.enumerate_solutions(
        2, ["braided", "idempotent", "left_nondegenerate"])
    assert len(nice2) == 3
    nice3 = quadset.enumerate_solutions(
        3, ["braided", "idempotent", "left_nondegenerate"])
    assert len(nice3) == 5
    for qs in nice2 + nice3:
        rep = quadset.check_properties(qs)
        assert rep.braided and rep.idempotent and rep.left_nondegenerate


def test_enumerate_agrees_with_brute_force_n2():
    # enumerate with a mask and compare against filtering all 4^4 tables
    masks = [["idempotent"], ["involutive"], ["left_nondegenerate"]]
    for mask in masks:
        fancy = {qs.r_table for qs in quadset.enumerate_solutions(2, mask)}
        brute = set()
        for table in product(product(range(2), repeat=2), repeat=4):
            qs = quadset.QuadraticSet(2, table)
            if all(quadset.check_properties(qs)._asdict()[m] for m in mask):
                brute.add(quadset.canonical_form(qs))
        assert fancy == brute


def test_enumerate_n4_counts():
    # n = 4 fits the node budget: the involutive nondegenerate
    # braided classes on 4 points (Etingof-Schedler-Soloviev count 23) and
    # the braided idempotent left-nondegenerate ones
    assert len(quadset.enumerate_solutions(4, [
        "braided", "involutive", "left_nondegenerate", "right_nondegenerate"])) == 23
    assert len(quadset.enumerate_solutions(
        4, ["braided", "idempotent", "left_nondegenerate"])) == 14


def test_enumerate_guards():
    with pytest.raises(SizeTooLarge):
        quadset.enumerate_solutions(4, [])
    with pytest.raises(ValueError):
        quadset.enumerate_solutions(2, ["shiny"])


def test_enumerate_refuses_an_n_its_root_outgrows(monkeypatch):
    # the root's n! - 1 relabelings of n*n entries (n = 7, 12) or n^3 braid
    # triples (n = 10**6) beyond the budget are refused before any is built
    with monkeypatch.context() as m:
        m.setattr(quadset, "_sources", None)
        for n in (7, 12, 10 ** 6):
            start = time.perf_counter()
            with pytest.raises(SizeTooLarge, match=f"n={n} starts from {n}! - 1 relabelings"):
                quadset.enumerate_solutions(n, [])
            assert time.perf_counter() - start < 0.1
    # at n = 4 the root builds 23 * 16 entries: a budget of that many reaches the search
    monkeypatch.setattr(quadset, "NODE_BUDGET", 23 * 16 - 1)
    with pytest.raises(SizeTooLarge, match="4! - 1 relabelings of 16 entries, over its budget"):
        quadset.enumerate_solutions(4, [])
    monkeypatch.setattr(quadset, "NODE_BUDGET", 23 * 16)
    with pytest.raises(SizeTooLarge, match="visited 369 nodes"):
        quadset.enumerate_solutions(4, [])


# --- orderly enumeration against the enumeration it replaced ---------------

ALL_MASKS = [list(m) for k in range(len(quadset.PROPERTY_NAMES) + 1)
             for m in combinations(quadset.PROPERTY_NAMES, k)]


def r_tables(sols):
    return [qs.r_table for qs in sols]


def test_enumerate_matches_oracle_on_all_masks_n2():
    assert len(ALL_MASKS) == 64
    for mask in ALL_MASKS:
        assert (r_tables(quadset.enumerate_solutions(2, mask))
                == r_tables(quadset_oracle.enumerate_solutions(2, mask))), mask


@pytest.mark.parametrize("mask", [
    ["involutive"],
    ["idempotent", "left_nondegenerate"],
    ["braided", "involutive"],
    ["braided", "idempotent", "left_nondegenerate"],
])
def test_enumerate_matches_oracle_n3(mask):
    assert (r_tables(quadset.enumerate_solutions(3, mask))
            == r_tables(quadset_oracle.enumerate_solutions(3, mask)))


def test_enumerate_matches_cell_oracle_on_all_masks_n2():
    for mask in ALL_MASKS:
        assert (r_tables(quadset.enumerate_solutions(2, mask))
                == r_tables(quadset_oracle.cell_enumerate_solutions(2, mask)[0])), mask


ORDERLY_MASKS_N3 = [
    ["involutive"],
    ["left_nondegenerate", "right_nondegenerate"],
    ["idempotent", "left_nondegenerate"],
    ["braided"],
    ["braided", "involutive"],
    ["braided", "idempotent", "left_nondegenerate"],
]
PAPER_CLASS = ["braided", "idempotent", "left_nondegenerate"]
ESS_CLASS = ["braided", "involutive", "left_nondegenerate", "right_nondegenerate"]
NODE_COUNT_CASES = [(3, mask) for mask in ORDERLY_MASKS_N3] + [(4, PAPER_CLASS)]


@pytest.mark.parametrize("n, mask", [(3, mask) for mask in ORDERLY_MASKS_N3 + [
    ["braided", "left_nondegenerate"], ["braided", "left_2_cancellative"]]]
    + [(4, ESS_CLASS), (4, PAPER_CLASS)])
def test_enumerate_matches_cell_oracle(n, mask, monkeypatch):
    # the same classes, in the same order, as the search on pair tuples that
    # filtered all n^2 images and re-ran every pending braid triple; on the
    # orderly masks at n = 3 and the paper's class at n = 4 also the same
    # nodes: a budget of the oracle's count N is enough, and N - 1 is not
    want, nodes = quadset_oracle.cell_enumerate_solutions(n, mask)
    if (n, mask) in NODE_COUNT_CASES:
        monkeypatch.setattr(quadset, "NODE_BUDGET", nodes)
    assert r_tables(quadset.enumerate_solutions(n, mask)) == r_tables(want)
    if (n, mask) in NODE_COUNT_CASES:
        monkeypatch.setattr(quadset, "NODE_BUDGET", nodes - 1)
        with pytest.raises(SizeTooLarge, match=f"visited {nodes} nodes, over its budget"):
            quadset.enumerate_solutions(n, mask)


# the braid triples that quadset_oracle.cell_enumerate_solutions evaluates: its
# _braid_pending re-runs every pending triple at each candidate image
CELL_SEARCH_BRAID_EVALUATIONS = {(3, ("braided", "involutive")): 32_296,
                                 (4, tuple(PAPER_CLASS)): 4_813_815}


@pytest.mark.parametrize("n, mask", list(CELL_SEARCH_BRAID_EVALUATIONS))
def test_enumerate_wakes_a_braid_triple_only_on_its_cell(n, mask, monkeypatch):
    # the search re-checks a braid triple only once the cell it waits on is
    # assigned: at most a fifth of the cell search's evaluations
    calls = [0]
    braid_wait = quadset._braid_wait

    def counted(*args):
        calls[0] += 1
        return braid_wait(*args)

    monkeypatch.setattr(quadset, "_braid_wait", counted)
    quadset.enumerate_solutions(n, list(mask))
    assert 0 < calls[0] <= CELL_SEARCH_BRAID_EVALUATIONS[n, mask] // 5


@pytest.mark.parametrize("n, masks", [(2, ALL_MASKS), (3, ORDERLY_MASKS_N3)])
def test_enumerated_tables_are_plain_quadratic_sets(n, masks):
    # the search builds each kept table without QuadraticSet's checks: it must
    # still be the very value those checks build
    for mask in masks:
        for qs in quadset.enumerate_solutions(n, mask):
            built = quadset.QuadraticSet(qs.n, qs.r_table)
            assert type(qs) is quadset.QuadraticSet
            assert qs == built and hash(qs) == hash(built) and repr(qs) == repr(built)
            again = pickle.loads(pickle.dumps(qs))
            assert type(again) is quadset.QuadraticSet and again == built


def test_property_report_matches_oracle_on_all_tables_n2():
    for table in product(product(range(2), repeat=2), repeat=4):
        qs = quadset.QuadraticSet(2, table)
        assert (quadset.check_properties(qs)._asdict()
                == quadset_oracle.check_properties(qs)._asdict()), table


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             min_size=n * n, max_size=n * n),
    st.permutations(list(range(n))))))
def test_canonical_form_and_relabel_match_oracle(case):
    n, table, sigma = case
    qs = quadset.QuadraticSet(n, table)
    assert quadset.canonical_form(qs) == quadset_oracle.canonical_form(qs)
    assert quadset.relabel(qs, sigma) == quadset_oracle.relabel(qs, sigma)


@pytest.mark.parametrize("mask", ORDERLY_MASKS_N3)
def test_enumerate_matches_orderly_oracle_n3(mask):
    # the same classes in the same order as the search that compared every
    # relabeling from position 0 at every node
    assert (r_tables(quadset.enumerate_solutions(3, mask))
            == r_tables(quadset_oracle.orderly_enumerate_solutions(3, mask)))


def test_nondegenerate_classes_n3_from_all_action_pairs():
    # r(i, j) = (sigma_i(j), tau_j(i)) runs over every left and right
    # nondegenerate table; their canonical forms are the classes
    sym = list(permutations(range(3)))
    classes = {quadset.canonical_form(quadset.QuadraticSet(
        3, [(sigma[i][j], tau[j][i]) for i in range(3) for j in range(3)]))
        for sigma in product(sym, repeat=3) for tau in product(sym, repeat=3)}
    assert len(classes) == 7860
    assert r_tables(quadset.enumerate_solutions(
        3, ["left_nondegenerate", "right_nondegenerate"])) == sorted(classes)


def tables_of_size(n):
    # random tables, mostly degenerate, and tables built from actions, which
    # are left and right nondegenerate or are permutation solutions
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    perm = st.permutations(list(range(n)))
    actions = st.tuples(st.lists(perm, min_size=n, max_size=n),
                        st.lists(perm, min_size=n, max_size=n))
    return st.tuples(st.just(n), st.one_of(
        st.lists(pair, min_size=n * n, max_size=n * n),
        actions.map(lambda lr: [(lr[0][i][j], lr[1][j][i])
                                for i in range(n) for j in range(n)]),
        perm.map(lambda f: [(f[j], j) for i in range(n) for j in range(n)])))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(tables_of_size))
def test_property_report_matches_oracle_and_keeps_the_value(case):
    n, table = case
    checked, read = quadset.QuadraticSet(n, table), quadset.QuadraticSet(n, table)
    assert (quadset.check_properties(checked)._asdict()
            == quadset_oracle.check_properties(read)._asdict())
    fresh = quadset.QuadraticSet(n, table)
    for used in (read, checked):
        assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
        assert pickle.dumps(fresh) == pickle.dumps(used)
    for qs in (fresh, read):
        again = pickle.loads(pickle.dumps(qs))
        assert again == qs and hash(again) == hash(qs) and repr(again) == repr(qs)


def test_braided_filter_agrees_with_braided_mask_n3():
    # the braided masks that finish at n = 3 agree with one another
    lnd = quadset.enumerate_solutions(3, ["braided", "left_nondegenerate"])
    idem = [qs for qs in lnd if quadset.check_properties(qs).idempotent]
    assert idem == quadset.enumerate_solutions(
        3, ["braided", "idempotent", "left_nondegenerate"])
    assert len(idem) == 5


def test_enumerate_node_budget(monkeypatch):
    monkeypatch.setattr(quadset, "NODE_BUDGET", 50)
    with pytest.raises(SizeTooLarge, match="51 nodes, over its budget of 50"):
        quadset.enumerate_solutions(3, ["involutive"])
    assert len(quadset.enumerate_solutions(2, ["braided", "involutive"])) == 3


def test_left_2_cancellative_pruning_agrees_with_filter_n3():
    # the mask prunes rows that repeat an image; filtering the braided
    # classes afterwards must give the same list
    braided = quadset.enumerate_solutions(3, ["braided"])
    cancel = [qs for qs in braided if quadset.check_properties(qs).left_2_cancellative]
    assert cancel == quadset.enumerate_solutions(3, ["braided", "left_2_cancellative"])
    assert 0 < len(cancel) < len(braided)
