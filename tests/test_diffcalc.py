import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diffcalc_oracle
import linr_oracle
from ybx import diffcalc, linr, ncgb, orbits, quadset
from ybx.errors import InsufficientDegree, InvalidArgument, NotIdempotent, YbxError

F1 = Fraction(1)


@pytest.fixture(scope="module")
def sym():
    gb, rho, relations = diffcalc.calcsym()
    return gb, rho, relations


def nf(p, gb):
    return ncgb.normal_form(p, gb)


def test_symmetric_bimodule_rules(sym):
    gb, rho, _ = sym
    # dx.x = x(dx + dy), dy.x = (2x - y)dx + x dy,
    # dx.y = y dx + (2y - x)dy, dy.y = y(dx + dy)
    x, y = {(0,): F1}, {(1,): F1}
    assert rho.rho[0] == [[x, x], [{(0,): Fraction(2), (1,): -F1}, x]]
    assert rho.rho[1] == [[y, {(1,): Fraction(2), (0,): -F1}], [y, y]]


def test_symmetric_map_satisfies_both_conditions(sym):
    gb, rho, relations = sym
    assert diffcalc.check_rho_map(gb, rho, relations, 5) == {"ok": True}


def test_family_satisfies_conditions_at_random_parameters():
    rng = random.Random(2026)
    for _ in range(20):
        params = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(4)]
        gb, rho, relations = diffcalc.make_rho_family(*params)
        assert diffcalc.check_rho_map(gb, rho, relations, 4) == {"ok": True}


def test_family_accepts_string_fractions():
    gb, rho, relations = diffcalc.make_rho_family("1/2", "-2/3", "0", "5")
    assert diffcalc.check_rho_map(gb, rho, relations, 4) == {"ok": True}


def test_broken_map_is_rejected(sym):
    gb, _, relations = sym
    x = {(0,): F1}
    bad = diffcalc.RhoMap(2, [[[x, x], [x, x]], [[x, x], [x, x]]], gb)
    assert not diffcalc.check_rho_map(gb, bad, relations, 4)["ok"]


def test_degree_guard(sym):
    gb, rho, relations = sym
    cubic = {(0, 0, 0): F1}
    deep = diffcalc.RhoMap(2, [[[cubic, {}], [{}, {}]],
                               [[{}, {}], [{}, cubic]]], gb)
    with pytest.raises(InsufficientDegree):
        diffcalc.check_rho_map(gb, deep, relations, 4)


def test_right_multiplication_closed_forms(sym):
    # dx_i . x^m = 2^(m-2)((3x^m - y^m)dx + 2x^m dy) and
    # dx_i . y^m = 2^(m-2)(2y^m dx + (3y^m - x^m)dy), both i, in normal form
    gb, rho, _ = sym
    for m in range(2, 6):
        xm = (0,) * m
        ym = next(iter(nf({(1,) * m: F1}, gb)))
        c = Fraction(2) ** (m - 2)
        expect_x = [nf({xm: 3 * c, ym: -c}, gb), {xm: 2 * c}]
        expect_y = [{ym: 2 * c}, nf({ym: 3 * c, xm: -c}, gb)]
        for basis in ([{(): F1}, {}], [{}, {(): F1}]):
            assert diffcalc.right_multiply(basis, xm, rho, gb) == expect_x
            assert diffcalc.right_multiply(basis, (1,) * m, rho, gb) == expect_y


def test_differential_values(sym):
    gb, rho, _ = sym
    # d(x^2) = 2x dx + x dy, so the first partial of x^2 is 2x
    assert diffcalc.differential((0, 0), rho, gb) == \
        [{(0,): Fraction(2)}, {(0,): F1}]
    # first partial of y^3 (normal form x^2 y) is 3y^2 = 3xy
    d = diffcalc.differential(nf({(1, 1, 1): F1}, gb), rho, gb)
    assert d[0] == {(0, 1): Fraction(3)}
    # d is linear and kills constants
    assert diffcalc.differential({(): Fraction(7)}, rho, gb) == [{}, {}]
    two = diffcalc.differential({(0, 0): Fraction(2)}, rho, gb)
    assert two == [{(0,): Fraction(4)}, {(0,): Fraction(2)}]


def test_leibniz_rule_on_products(sym):
    gb, rho, _ = sym
    rng = random.Random(8)
    words = [w for d in (1, 2) for w in ncgb.normal_words(gb, d)]
    for _ in range(15):
        u = rng.choice(words)
        v = rng.choice(words)
        uv = nf({u + v: F1}, gb)
        lhs = diffcalc.differential(uv, rho, gb)
        du_v = diffcalc.right_multiply(
            diffcalc.differential(u, rho, gb), v, rho, gb)
        u_dv = [nf({u + w: c for w, c in p.items()}, gb)
                for p in diffcalc.differential(v, rho, gb)]
        rhs = diffcalc.form_add(du_v, u_dv)
        assert lhs == [nf(p, gb) for p in rhs]


def test_annihilator_and_connectedness(sym):
    gb, rho, _ = sym
    # dx - dy kills every element of degree two and higher
    assert diffcalc.annihilator_check(rho, gb, 5)
    # but not degree one: (dx - dy).x = (y - x)dx + 0 dy
    form = diffcalc.right_multiply([{(): F1}, {(): -F1}], (0,), rho, gb)
    assert not diffcalc.form_is_zero(form)
    # d is injective on each graded piece up to degree five
    assert diffcalc.connectedness_check(rho, gb, 5)


def test_annihilator_check_needs_two_generators():
    gb = ncgb.complete([{(1, 0): F1, (0, 1): -F1}], 4, alphabet=3)
    one = {(): F1}
    rho = diffcalc.RhoMap(3, [[[one if i == k else {} for k in range(3)]
                               for i in range(3)]] * 3, gb)
    with pytest.raises(InvalidArgument):
        diffcalc.annihilator_check(rho, gb, 3)


def test_checks_grow_each_word_from_its_prefix(sym, monkeypatch):
    # at degree 5 the symmetric point has 10 normal words of degree 1..5;
    # each costs one one-letter product, not one per letter
    gb, rho, _ = sym
    products = []
    mat_mul = diffcalc._mat_mul
    monkeypatch.setattr(diffcalc, "_mat_mul",
                        lambda A, B, gb: products.append(len(A)) or mat_mul(A, B, gb))
    assert diffcalc.connectedness_check(rho, gb, 5)
    assert products == [1] * 10
    products.clear()
    assert diffcalc.annihilator_check(rho, gb, 5)
    assert products == [1] * 10


# random maps on the symmetric basis take their entries from ENTRIES
X, Y, NEG_X = {(0,): F1}, {(1,): F1}, {(0,): -F1}
ENTRIES = [{}, X, NEG_X, Y, {(1,): -F1}, {(0,): F1, (1,): -F1}, {(0, 0): F1}, {(0, 1): F1}]
DIAG = [[[X, {}], [{}, X]], [[Y, {}], [{}, Y]]]
SWAP = [[[{}, X], [X, {}]], [[{}, Y], [Y, {}]]]
ALL_X = [[[X, X], [X, X]], [[X, X], [X, X]]]
# dx . x = -x dx, so d(x^2) = dx . x + x dx = 0
KILL_X2 = [[[NEG_X, {}], [{}, {}]], [[{}, {}], [{}, {}]]]
matrices = st.lists(st.lists(st.lists(st.sampled_from(ENTRIES), min_size=2, max_size=2),
                             min_size=2, max_size=2), min_size=2, max_size=2)
fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
WORDS = [w for d in range(4) for w in product(range(2), repeat=d)]
polys = st.dictionaries(st.sampled_from(WORDS), fractions.filter(bool), max_size=4)
forms = st.lists(polys, min_size=2, max_size=2)
words = st.lists(st.integers(0, 1), max_size=4).map(tuple)


def outcome(f, *args):
    try:
        return f(*args)
    except YbxError as exc:
        return type(exc).__name__, str(exc)


def assert_same(got, want):
    assert got == want and repr(got) == repr(want)


def assert_matches_oracle(gb, relations, mats, p, form, word):
    rho = diffcalc.RhoMap(2, mats, gb)
    old = diffcalc_oracle.RhoMap(2, mats, gb)
    assert_same(rho.rho, old.rho)
    for D in range(1, 6):
        for name in ("annihilator_check", "connectedness_check"):
            assert_same(outcome(getattr(diffcalc, name), rho, gb, D),
                        outcome(getattr(diffcalc_oracle, name), old, gb, D))
    for D in (3, 4, 5):
        assert_same(outcome(diffcalc.check_rho_map, gb, rho, relations, D),
                    outcome(diffcalc_oracle.check_rho_map, gb, old, relations, D))
    for arg in (p, nf(p, gb), word):
        assert_same(diffcalc.differential(arg, rho, gb),
                    diffcalc_oracle.differential(arg, old, gb))
    form = [nf(q, gb) for q in form]
    assert_same(diffcalc.right_multiply(form, word, rho, gb),
                diffcalc_oracle.right_multiply(form, word, old, gb))


@settings(max_examples=150, deadline=None)
@given(matrices, polys, forms, words)
@example(DIAG, {}, [{}, {}], ()).via("annihilator False")
@example(SWAP, {}, [{}, {}], ()).via("annihilator False")
@example(ALL_X, {}, [{}, {}], ()).via("fails the rho conditions")
@example(KILL_X2, {}, [{}, {}], ()).via("not connected")
def test_random_maps_match_oracle(mats, p, form, word):
    gb, _, relations = diffcalc.calcsym()
    assert_matches_oracle(gb, relations, mats, p, form, word)


@settings(max_examples=40, deadline=None)
@given(st.tuples(fractions, fractions, fractions, fractions), polys, forms, words)
def test_family_matches_oracle(params, p, form, word):
    gb, rho, relations = diffcalc.make_rho_family(*params)
    assert_matches_oracle(gb, relations, rho.rho, p, form, word)


def test_oracle_examples_reach_both_verdicts(sym):
    gb, _, relations = sym
    for mats in (DIAG, SWAP):
        assert not diffcalc.annihilator_check(diffcalc.RhoMap(2, mats, gb), gb, 5)
    assert not diffcalc.check_rho_map(gb, diffcalc.RhoMap(2, ALL_X, gb), relations, 4)["ok"]
    assert not diffcalc.connectedness_check(diffcalc.RhoMap(2, KILL_X2, gb), gb, 2)


def test_no_degree_lowering_derivations(rid2):
    from ybx import quadset
    for n in (2, 3):
        qs = quadset.make_permutation_solution(list(range(n)))
        rels = orbits.canonical_relations(qs).to_polynomials()
        assert diffcalc.no_degree_lowering_derivations(rels, n)
    # commuting generators do admit degree-lowering derivations
    comm = [{(1, 0): F1, (0, 1): -F1}]
    assert not diffcalc.no_degree_lowering_derivations(comm, 2)


def test_nichols_exterior_for_identity_pair(rid2, cycle3, mixed3):
    _, rmat = linr.linearize(rid2)
    out = diffcalc.nichols_exterior(rmat)
    assert out["theta_relations"] == [(0, 0), (1, 1)]
    for i in range(2):
        for j in range(2):
            assert out["wedge_rules"][(i, j)] == {(j, j): F1}
            assert out["mixed_rules"][(i, j)] == {(j, j): -F1}
    assert linr.subspace_equal(out["dtheta_relations"],
                               linr.splus_relations(rmat))
    # rules and d-theta relations equal those read from the dense R and delta
    from ybx import quadset
    lat = quadset.enumerate_solutions(3, ["braided", "idempotent", "left_nondegenerate"])
    for qs in (rid2, cycle3, mixed3, *lat):
        _, rmat = linr.linearize(qs)
        out = diffcalc.nichols_exterior(rmat)
        flip = linr_oracle.RationalMatrix(linr.flip_matrix(qs.n).data)
        want = linr_oracle.nichols_exterior(flip.mul(linr_oracle.linearize(qs)))
        assert out["wedge_rules"] == want["wedge_rules"]
        assert out["mixed_rules"] == want["mixed_rules"]
        assert out["dtheta_relations"].data == want["dtheta_relations"].data


def conjugate(psi, i, j):
    """A Psi A^-1 for the unipotent A = I + E_ij; it keeps idempotence.
    Built with the dense oracle, then carried into linr."""
    n2 = psi.rows
    one = linr_oracle.RationalMatrix.identity(n2)
    e_ij = linr_oracle.RationalMatrix.zeros(n2, n2)
    e_ij.data[i][j] = F1
    out = one.add(e_ij).mul(linr_oracle.RationalMatrix(psi.data)).mul(one.sub(e_ij))
    return linr.RationalMatrix(out.data, cols=n2)


def test_nichols_exterior_reads_theta_from_the_image():
    qs = quadset.make_permutation_solution([1, 0])
    psi, _ = linr.linearize(qs)
    flip = linr.flip_matrix(2)
    # image(Psi) = span{e_01, e_10}; A = I + E_10 fixes it, and A Psi A^-1
    # has the column e_10 - e_01, so theta is read from the image itself
    psi_a = conjugate(psi, 1, 0)
    assert psi_a != psi and linr.check_idempotent(psi_a)
    out = diffcalc.nichols_exterior(flip.mul(psi_a))
    assert out["theta_relations"] == linr.nichols_monomials(qs) == [(0, 1), (1, 0)]
    # A = I + E_01 moves it to span{e_00 + e_01, e_10}: theta_0 theta_0 = 0
    # is no relation, and no pairs span the image
    psi_b = conjugate(psi, 0, 1)
    assert linr.check_idempotent(psi_b)
    with pytest.raises(InvalidArgument, match="image"):
        diffcalc.nichols_exterior(flip.mul(psi_b))


def test_nichols_exterior_check_survives_optimized_mode():
    # python -O strips assert statements; a wrong S_+(R) relation space
    # must still be reported
    code = (
        "from ybx import diffcalc, linr, quadset\n"
        "from ybx.errors import CheckFailed\n"
        "_, rmat = linr.linearize(quadset.make_permutation_solution([0, 1]))\n"
        "print(sorted(diffcalc.nichols_exterior(rmat)))\n"
        "diffcalc.splus_relations = lambda r: linr.RationalMatrix([[1, 0, 0, 0]])\n"
        "try:\n"
        "    diffcalc.nichols_exterior(rmat)\n"
        "except CheckFailed as exc:\n"
        "    print('CheckFailed', exc)\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(diffcalc.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    keys, failure = out.splitlines()
    assert keys == str(sorted(["theta_relations", "wedge_rules", "mixed_rules",
                               "dtheta_relations"]))
    assert failure.startswith("CheckFailed ")


def test_nichols_exterior_requires_idempotent():
    from ybx import quadset
    _, rmat = linr.linearize(quadset.make_named("flip", 2))
    with pytest.raises(NotIdempotent):
        diffcalc.nichols_exterior(rmat)
