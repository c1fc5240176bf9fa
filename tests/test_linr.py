import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linr_oracle
from ybx import diffcalc, elim, linr, orbits, quadset
from ybx.errors import InvalidArgument, NotIdempotent, ShapeMismatch, SizeTooLarge

F1 = Fraction(1)


def dense(mat):
    return linr_oracle.RationalMatrix(mat.data, cols=mat.cols)


def sparse(mat):
    """A matrix built with the dense oracle, carried into linr."""
    return linr.RationalMatrix(mat.data, cols=mat.cols)


def random_matrix(r, c, rng):
    return linr.RationalMatrix(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)]
         for _ in range(r)])


def test_matrix_algebra_properties():
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(4, 4, rng)
        b = random_matrix(4, 4, rng)
        # transpose reverses products, rref is idempotent
        assert a.mul(b).transpose() == b.transpose().mul(a.transpose())
        red, pivots = a.rref()
        assert red.rref()[0] == red
        assert a.rank() == len(pivots) == a.transpose().rank()
        # kernel vectors annihilate
        for v in a.nullspace_basis():
            assert all(sum(row[i] * v[i] for i in range(4)) == 0
                       for row in a.data)
        assert a.rank() + len(a.nullspace_basis()) == 4


def test_shape_guards():
    a = linr.RationalMatrix([[1, 2]])
    with pytest.raises(ShapeMismatch):
        a.mul(a)
    with pytest.raises(ShapeMismatch):
        linr._tensor_dim(linr.RationalMatrix([[1, 2], [3, 4], [5, 6]]))


def test_subspace_comparisons():
    a = linr.RationalMatrix([[1, 0, 1], [0, 1, 0]])
    b = linr.RationalMatrix([[1, 1, 1], [2, 1, 2]])
    c = linr.RationalMatrix([[1, 0, 0]])
    assert linr.subspace_equal(a, b)
    assert not linr.subspace_equal(a, c)
    assert linr.subspace_contains(a, b) and not linr.subspace_contains(c, a)


def test_matrix_checks_match_set_level_flags():
    cases = quadset.enumerate_solutions(2, [])
    cases += quadset.enumerate_solutions(
        3, ["idempotent", "left_nondegenerate"])
    rng = random.Random(12)
    for _ in range(25):
        cases.append(quadset.QuadraticSet(
            3, [(rng.randrange(3), rng.randrange(3)) for _ in range(9)]))
    for qs in cases:
        rep = quadset.check_properties(qs)
        psi, rmat = linr.linearize(qs)
        assert linr.check_braid(psi) == rep.braided
        assert linr.check_matrix_ybe(rmat) == rep.braided
        assert linr.check_idempotent(psi) == rep.idempotent
        assert linr.flip_matrix(qs.n).mul(rmat) == psi


def test_splus_span_equals_canonical_relation_span(cycle3, mixed3):
    for qs in (cycle3, mixed3, quadset.make_named("flip", 3)):
        psi, rmat = linr.linearize(qs)
        sp = linr.splus_relations(rmat)
        n = qs.n
        rows = []
        for u, v in orbits.canonical_relations(qs).relations:
            vec = [Fraction(0)] * (n * n)
            vec[u[0] * n + u[1]] = F1
            vec[v[0] * n + v[1]] = -F1
            rows.append(vec)
        canonical = linr.RationalMatrix(rows, cols=n * n).row_space_basis()
        assert linr.subspace_equal(sp, canonical)


def test_sminus_degenerate(cycle3, mixed3, rid2):
    for qs in (cycle3, mixed3, rid2):
        psi, _ = linr.linearize(qs)
        assert linr.sminus_degenerate_check(psi)
    flip_psi, _ = linr.linearize(quadset.make_named("flip", 2))
    with pytest.raises(NotIdempotent):
        linr.sminus_degenerate_check(flip_psi)


def test_transpose_relations_for_permutation_family(cycle3):
    # y^i y^j = 0 whenever i differs from f(j); here f is the 3-cycle
    _, rmat = linr.linearize(cycle3)
    rels = linr.transpose_yb_relations(rmat)
    monomials = {next(iter(p)) for p in rels if len(p) == 1}
    f = [1, 2, 0]
    assert monomials == {(i, j) for i in range(3) for j in range(3)
                         if i != f[j]}
    assert all(c == -1 for p in rels if len(p) == 1 for c in p.values())


def test_transpose_relations_for_mixed3(mixed3):
    _, rmat = linr.linearize(mixed3)
    rels = [p for p in linr.transpose_yb_relations(rmat)]
    nontrivial = [dict(p) for p in rels]
    # the three sums over preimages of the image pairs
    expected = [
        {(1, 1): F1, (2, 2): F1},            # y2 y2 + y3 y3
        {(0, 2): F1, (2, 1): F1},            # y1 y3 + y3 y2
        {(0, 1): F1, (1, 2): F1},            # y1 y2 + y2 y3
    ]
    for want in expected:
        assert any(
            {k: v for k, v in p.items() if v > 0} == want
            for p in nontrivial)


def test_koszul_dual_relations(cycle3, mixed3):
    # permutation family: (sum_a y^a) y^i = 0, independent of f
    for f in ([0, 1, 2], [1, 2, 0], [2, 0, 1]):
        qs = quadset.make_permutation_solution(f)
        polys = linr.koszul_dual_polynomials(qs)
        images = sorted((f[i], i) for i in range(3))
        assert polys == [{(a, i): F1 for a in range(3)} for _, i in images]
    # mixed3: the diagonal sum and two cyclic sums
    polys = linr.koszul_dual_polynomials(mixed3)
    assert polys == [
        {(0, 0): F1, (1, 1): F1, (2, 2): F1},
        {(1, 0): F1, (0, 2): F1, (2, 1): F1},
        {(2, 0): F1, (0, 1): F1, (1, 2): F1},
    ]
    # the polynomial relations span image(Psi^T)
    for qs in (cycle3, mixed3):
        _, rmat = linr.linearize(qs)
        kd = linr.koszul_dual_relations(rmat)
        n = qs.n
        rows = []
        for p in linr.koszul_dual_polynomials(qs):
            vec = [Fraction(0)] * (n * n)
            for (a, b), c in p.items():
                vec[a * n + b] = c
            rows.append(vec)
        assert linr.subspace_equal(
            kd, linr.RationalMatrix(rows, cols=n * n).row_space_basis())


def test_koszul_complementarity(cycle3, mixed3, rid2):
    # image(Psi^T) is the annihilator of ker Psi
    for qs in (cycle3, mixed3, rid2):
        psi, rmat = linr.linearize(qs)
        kd = linr.koszul_dual_relations(rmat)
        kernel = psi.nullspace_basis()
        dim = qs.n * qs.n
        assert kd.rank() + len(kernel) == dim
        for row in kd.data:
            for v in kernel:
                assert sum(row[i] * v[i] for i in range(dim)) == 0


def test_public_coefficients_are_fractions(cycle3, mixed3, rid2):
    # linr computes on ints while entries are integral; every coefficient
    # that leaves linr or diffcalc is a Fraction, never an int or a float
    def coeffs(polys):
        return [c for p in polys for c in p.values()]

    lat = quadset.enumerate_solutions(3, ["braided", "idempotent", "left_nondegenerate"])
    for qs in (cycle3, mixed3, rid2, *lat):
        psi, rmat = linr.linearize(qs)
        values = coeffs(linr.koszul_dual_polynomials(qs))
        # R itself and 2R - P, whose relations are made monic by a division
        two_r_p = dense(rmat).add(dense(rmat)).sub(linr_oracle.flip_matrix(qs.n))
        for r in (rmat, sparse(two_r_p)):
            values += coeffs(linr.frt_relations(r) + linr.braided_matrix_relations(r)
                             + linr.transpose_yb_relations(r))
        ext = diffcalc.nichols_exterior(rmat)
        values += coeffs([*ext["wedge_rules"].values(), *ext["mixed_rules"].values()])
        for mat in (psi, rmat, linr.splus_relations(rmat), linr.koszul_dual_relations(rmat),
                    ext["dtheta_relations"], linr.RationalMatrix([[2, 4, 1], [0, 3, 1]])):
            values += [x for row in mat.data + mat.nullspace_basis() for x in row]
        assert values and all(type(x) is Fraction for x in values)


def test_nichols_monomials(cycle3, mixed3):
    # one vanishing product per image pair of r
    assert linr.nichols_monomials(cycle3) == [(0, 2), (1, 0), (2, 1)]
    assert linr.nichols_monomials(mixed3) == [(0, 0), (1, 0), (2, 0)]
    for f in ([0, 1], [1, 0], [1, 2, 0]):
        qs = quadset.make_permutation_solution(f)
        assert linr.nichols_monomials(qs) == sorted(
            (f[i], i) for i in range(len(f)))


def test_braided_factorial_base_cases(rid2):
    psi, _ = linr.linearize(rid2)
    one = linr_oracle.RationalMatrix.identity
    assert linr.braided_factorial(psi, 1) == sparse(one(2))
    two = linr.braided_factorial(psi, 2, sign=-1)
    assert two == sparse(one(4).sub(dense(psi)))


def test_nichols_quadratic(cycle3, mixed3, rid2):
    for qs in (cycle3, mixed3, rid2):
        psi, _ = linr.linearize(qs)
        for m in (3, 4):
            assert linr.nichols_quadratic_check(psi, m)


def no_work(*args):
    raise AssertionError("operator work before the bound was checked")


def test_one_tensor_bound_names_the_dimension(monkeypatch):
    # 9^4 = 6561 > 4096 is refused before any operator on V^(x)4 is built
    psi, _ = linr.linearize(quadset.make_permutation_solution([*range(1, 9), 0]))
    # every step of the factorial applies Psi in place; the Nichols check
    # reads the factorial's columns only once it is built
    monkeypatch.setattr(linr, "_apply", no_work)
    monkeypatch.setattr(linr, "_transpose", no_work)
    for call in (linr.braided_factorial, linr.nichols_quadratic_check):
        with pytest.raises(SizeTooLarge, match="6561"):
            call(psi, 4)


def test_braid_checks_stay_within_the_tensor_bound(monkeypatch):
    # 16^3 = 4096 is decided; 17^3 = 4913 > 4096 is refused before any
    # operator on V^(x)3 is built
    psi, rmat = linr.linearize(quadset.make_permutation_solution([*range(1, 16), 0]))
    assert linr.check_braid(psi) and linr.check_matrix_ybe(rmat)
    psi, rmat = linr.linearize(quadset.make_permutation_solution([*range(1, 17), 0]))
    monkeypatch.setattr(linr, "_apply", no_work)
    for call, mat in ((linr.check_braid, psi), (linr.check_matrix_ybe, rmat)):
        with pytest.raises(SizeTooLarge, match="4913"):
            call(mat)


@pytest.mark.parametrize("m", [0, -1])
def test_tensor_powers_below_one_are_refused(cycle3, m):
    # m = 0 gave a factorial of n rows on a width-1 space, m = -1 a TypeError
    psi, _ = linr.linearize(cycle3)
    for call in (linr.braided_factorial, linr.nichols_quadratic_check):
        with pytest.raises(InvalidArgument, match=f"at least 1, not {m}"):
            call(psi, m)
    assert linr._tensor_dim(psi) == 3


def test_relation_loops_are_bounded_by_their_steps(monkeypatch):
    # a set's R takes 2 n^4 steps in both loops; a dense R takes 2 n^6 in the
    # FRT loop and 2 n^8 in the braided-matrix loop, refused before either runs
    full = [linr.RationalMatrix([[1] * n ** 2 for _ in range(n ** 2)]) for n in (5, 8)]
    assert linr.frt_relations(full[0])
    monkeypatch.setattr(linr, "product", no_work)      # the loops' quadruples
    with pytest.raises(SizeTooLarge, match="on 5 points take 781250 steps > 131072"):
        linr.braided_matrix_relations(full[0])
    with pytest.raises(SizeTooLarge, match="on 8 points take 524288 steps"):
        linr.frt_relations(full[1])
    with pytest.raises(SizeTooLarge, match="on 8 points take 33554432 steps"):
        linr.braided_matrix_relations(full[1])


def test_nichols_quadratic_past_the_old_cap():
    # n = 5 at m = 4 is 625 dimensions, under the 4,096 bound
    psi, _ = linr.linearize(quadset.make_permutation_solution([1, 2, 3, 4, 0]))
    assert linr.nichols_quadratic_check(psi, 4)


def idempotent_table(n, rng):
    """A random idempotent r: it fixes a random set of pairs, its image, and
    sends every other pair into it."""
    pairs = list(product(range(n), repeat=2))
    image = rng.sample(pairs, rng.randint(1, len(pairs)))
    return [p if p in image else rng.choice(image) for p in pairs]


def test_nichols_check_matches_the_kernel_oracle():
    # the oracle row-reduces [m, -Psi]! to a kernel basis; it reaches n = 6
    # at m = 4 (1,296 dimensions), past the dense oracle's 4^4, at about
    # 0.2 s a table there
    rng = random.Random(5)
    verdicts = []
    for n in range(2, 7):
        for _ in range(10 if n < 5 else 3):
            psi, _ = linr.linearize(quadset.QuadraticSet(n, idempotent_table(n, rng)))
            for m in (3, 4):
                got = linr.nichols_quadratic_check(psi, m)
                assert got == linr_oracle.kernel_nichols_quadratic_check(psi, m), (n, m)
                verdicts.append(got)
    assert set(verdicts) == {True, False}, verdicts.count(True)


def frt_permutation_family(f):
    # (t^k_{f(l)} - delta_{f(i),k} sum_a t^a_j) t^i_l = 0 over all i,j,k,l
    n = len(f)
    rels = []
    for i, j, k, l in product(range(n), repeat=4):
        p = {((k, f[l]), (i, l)): F1}
        if f[i] == k:
            for a in range(n):
                key = ((a, j), (i, l))
                p[key] = p.get(key, Fraction(0)) - F1
        p = {key: c for key, c in p.items() if c}
        if p:
            rels.append(p)
    return linr._dedupe(rels)


def braided_matrix_permutation_family(n):
    # u^k_i u^i_l = delta_{k,i} sum_c u^k_c u^c_l, independent of f
    rels = []
    for i, k, l in product(range(n), repeat=3):
        p = {((k, i), (i, l)): F1}
        if k == i:
            for c in range(n):
                key = ((k, c), (c, l))
                p[key] = p.get(key, Fraction(0)) - F1
        p = {key: c for key, c in p.items() if c}
        if p:
            rels.append(p)
    return linr._dedupe(rels)


def as_set(rels):
    return {tuple(sorted(p.items())) for p in rels}


def test_frt_relations_match_permutation_formula():
    for f in ([0, 1], [1, 0], [1, 2, 0]):
        _, rmat = linr.linearize(quadset.make_permutation_solution(f))
        assert as_set(linr.frt_relations(rmat)) == as_set(
            frt_permutation_family(f))


def test_frt_relations_for_identity_pair(rid2):
    # t^{other i}_j t^i_j = 0 and (t^i_j)^2 = (sum_a t^a_{other j}) t^i_j
    _, rmat = linr.linearize(rid2)
    printed = []
    for i in range(2):
        for j in range(2):
            oi, oj = 1 - i, 1 - j
            printed.append({((oi, j), (i, j)): F1})
            p = {((i, j), (i, j)): F1}
            for a in range(2):
                key = ((a, oj), (i, j))
                p[key] = p.get(key, Fraction(0)) - F1
            printed.append({k: c for k, c in p.items() if c})
    assert as_set(linr.frt_relations(rmat)) == as_set(linr._dedupe(printed))


def test_braided_matrix_relations_match_permutation_formula():
    for f in ([0, 1], [1, 0], [1, 2, 0]):
        _, rmat = linr.linearize(quadset.make_permutation_solution(f))
        assert as_set(linr.braided_matrix_relations(rmat)) == as_set(
            braided_matrix_permutation_family(len(f)))


def test_braided_matrix_relations_for_identity_pair(rid2):
    # u^i_{other i} u^{other i}_j = 0
    _, rmat = linr.linearize(rid2)
    printed = [{((i, 1 - i), (1 - i, j)): F1}
               for i in range(2) for j in range(2)]
    assert as_set(linr.braided_matrix_relations(rmat)) == as_set(printed)


def sigma23(n, m):
    """The dense permutation sending x_i y_a (x) x_j y_b to x_i x_j (x) y_a y_b."""
    nm = n * m
    s = linr_oracle.RationalMatrix.zeros(nm * nm, nm * nm)
    for i, a, j, b in product(range(n), range(m), range(n), range(m)):
        s.data[(n * i + j) * m * m + m * a + b][(m * i + a) * nm + m * j + b] = F1
    return s


def test_product_linearization_is_the_sigma23_conjugate(rid2, mixed3):
    # the braiding of X x Y is sigma_23^-1 (Psi_X (x) Psi_Y) sigma_23
    for a, b in [(rid2, quadset.make_permutation_solution([1, 0])),
                 (rid2, mixed3), (mixed3, rid2)]:
        s = sigma23(a.n, b.n)
        both = dense(linr.linearize(a)[0]).kron(dense(linr.linearize(b)[0]))
        prod_psi, _ = linr.linearize(quadset.cartesian_product(a, b))
        assert sparse(s.transpose().mul(both).mul(s)) == prod_psi


# ------------------------------------------- differential tests vs the dense oracle

ENTRIES = [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2),
                               Fraction(-3, 2), Fraction(1, 3)]


RREF_ENTRIES = {
    "int": [0, 1, -1, 2, -3],
    "fraction": [Fraction(0), F1, -F1, Fraction(2), Fraction(-1, 2)],
    "mixed": [0, 1, -1, F1, -F1, 3, Fraction(2, 3)],
}


@st.composite
def matrices(draw, rows=None, cols=None):
    """Rectangular matrices of int, Fraction or mixed entries, mostly zeros;
    unless the row count is given, some with a repeated row or a zero row."""
    extra = rows is None
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols
    kind = RREF_ENTRIES[draw(st.sampled_from(sorted(RREF_ENTRIES)))]
    entries = kind[:1] * 3 + kind       # each kind lists its zero first
    data = [draw(st.lists(st.sampled_from(entries), min_size=cols, max_size=cols))
            for _ in range(rows)]
    if extra and data and draw(st.booleans()):
        data.insert(draw(st.integers(0, len(data))), list(draw(st.sampled_from(data))))
    if extra and draw(st.booleans()):
        data.append(kind[:1] * cols)
    return linr.RationalMatrix(data, cols=cols)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_elimination_matches_dense_oracle(a, data):
    old = dense(a)
    red, pivots = a.rref()
    want_red, want_pivots = old.rref()
    assert (red.data, red.rows, red.cols, pivots) == \
        (want_red.data, want_red.rows, want_red.cols, want_pivots)
    assert a.rank() == old.rank()
    assert a.nullspace_basis() == old.nullspace_basis()
    assert a.row_space_basis() == linr.RationalMatrix(
        old.row_space_basis().data, cols=a.cols)
    b = data.draw(matrices(cols=a.cols))
    assert linr.subspace_equal(a, b) == linr_oracle.subspace_equal(old, dense(b))
    assert linr.subspace_contains(a, b) == \
        linr_oracle.subspace_contains(old, dense(b))
    c = data.draw(matrices(rows=a.cols))
    assert a.mul(c).data == old.mul(dense(c)).data
    # equality does not depend on whether an entry came as an int or a Fraction
    assert a == sparse(old)
    assert red == linr.RationalMatrix(want_red.data, cols=a.cols)
    assert linr.RationalMatrix([[2]]) == linr.RationalMatrix([[Fraction(2)]])
    assert a.transpose().data == old.transpose().data
    # outputs are pickled by the bench
    back = pickle.loads(pickle.dumps(a))
    assert back == a and back.data == pickle.loads(pickle.dumps(old)).data
    assert (back.rows, back.cols) == (old.rows, old.cols)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(RREF_ENTRIES)), st.integers(1, 6), st.data())
def test_sparse_rref_matches_dense_oracle(kind, cols, data):
    # int, Fraction and mixed rows, with pivots 1, -1 and non-unit
    entry = st.sampled_from(RREF_ENTRIES[kind])
    rows = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                              max_size=6))
    red, pivots = elim.rref([dict(enumerate(row)) for row in rows])
    want, want_pivots = linr_oracle.RationalMatrix(rows, cols=cols).rref()
    assert pivots == want_pivots
    assert [[row.get(c, 0) for c in range(cols)] for row in red] == \
        want.data[:len(pivots)]
    if kind == "fraction":
        assert all(type(x) is Fraction for row in red for x in row.values())


@st.composite
def tables(draw, max_n=4):
    """r-tables on n = 2..max_n points; half of them idempotent, some braided."""
    n = draw(st.integers(2, max_n))
    pairs = list(product(range(n), repeat=2))
    if draw(st.booleans()):
        return n, draw(st.lists(st.sampled_from(pairs), min_size=n * n,
                                max_size=n * n))
    image = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return n, [p if p in image else draw(st.sampled_from(image)) for p in pairs]


def assert_operators_match(psi, rmat, ms):
    old_psi, old_rmat = dense(psi), dense(rmat)
    assert linr.check_braid(psi) == linr_oracle.check_braid(old_psi)
    assert linr.check_matrix_ybe(rmat) == linr_oracle.check_matrix_ybe(old_rmat)
    idempotent = linr_oracle.check_idempotent(old_psi)
    assert linr.check_idempotent(psi) == idempotent
    # id -+ Psi and the flip, which linr builds as rows
    one = linr_oracle.RationalMatrix.identity(psi.rows)
    assert linr.splus_relations(rmat).data == \
        one.sub(old_psi).transpose().row_space_basis().data
    if idempotent:
        assert linr.sminus_degenerate_check(psi) == (one.add(old_psi).rank() == psi.rows)
    n = linr._tensor_dim(psi)
    assert linr.flip_matrix(n).data == linr_oracle.flip_matrix(n).data
    assert linr.frt_relations(rmat) == linr_oracle.frt_relations(old_rmat)
    assert linr.braided_matrix_relations(rmat) == \
        linr_oracle.braided_matrix_relations(old_rmat)
    for m in ms:
        for sign in (1, -1):
            assert linr.braided_factorial(psi, m, sign).data == \
                linr_oracle.braided_factorial(old_psi, m, sign).data
        if idempotent:
            assert linr.nichols_quadratic_check(psi, m) == \
                linr_oracle.nichols_quadratic_check(old_psi, m)
        else:
            with pytest.raises(NotIdempotent):
                linr.nichols_quadratic_check(psi, m)


@settings(max_examples=20, deadline=None)
@given(tables())
def test_linearized_operators_match_dense_oracle(case):
    n, table = case
    psi, rmat = linr.linearize(quadset.QuadraticSet(n, table))
    assert_operators_match(psi, rmat, (1, 2, 3) if n < 4 else (2,))


@settings(max_examples=15, deadline=None)
@given(tables(3), tables(3), st.sampled_from(ENTRIES[4:]), st.data())
def test_non_monomial_operators_match_dense_oracle(case1, case2, c, data):
    # 2 Psi, Psi_1 + Psi_2 and a conjugate A Psi A^-1 of Psi by a unipotent
    # A = I + c E_ij have several entries per column; the conjugate keeps
    # idempotence, so the Nichols check runs on it too
    n, table = case1
    psi1, _ = linr.linearize(quadset.QuadraticSet(n, table))
    psi2, _ = linr.linearize(quadset.QuadraticSet(
        n, case2[1] if case2[0] == n else table[::-1]))
    # built with the dense oracle, then carried into linr
    i, j = data.draw(st.permutations(range(n * n)))[:2]
    one = linr_oracle.RationalMatrix.identity(n * n)
    e_ij = linr_oracle.RationalMatrix.zeros(n * n, n * n)
    e_ij.data[i][j] = c
    a, a_inv = one.add(e_ij), one.sub(e_ij)
    assert a != one and a.mul(a_inv) == one
    d1, d2 = dense(psi1), dense(psi2)
    flip = linr_oracle.flip_matrix(n)
    for psi in (d1.add(d1), d1.add(d2), a.mul(d1).mul(a_inv)):
        assert_operators_match(sparse(psi), sparse(flip.mul(psi)), (2, 3))


def test_psi_from_r_is_the_flip_product(cycle3, mixed3):
    for qs in (cycle3, mixed3, quadset.make_named("flip", 3)):
        psi, rmat = linr.linearize(qs)
        assert linr.psi_from_r(rmat) == psi == \
            linr.RationalMatrix(dense(linr.flip_matrix(qs.n)).mul(dense(rmat)).data)


# ------------------------------------------------ rational idempotents no set gives

def inverse(mat):
    """The dense inverse of an invertible square matrix, or None."""
    k = mat.rows
    one = linr_oracle.RationalMatrix.identity(k)
    red, pivots = linr_oracle.RationalMatrix(
        [row + unit for row, unit in zip(mat.data, one.data)]).rref()
    if pivots != list(range(k)):
        return None
    return linr_oracle.RationalMatrix([row[k:] for row in red.data])


def conjugate_idempotents(seed, count):
    """Psi = M D M^-1 on V (x) V, dim V = 2: D a random 0/1 diagonal and M a
    random invertible matrix of small rationals, so Psi has Fraction entries
    and, in general, several per column."""
    rng = random.Random(seed)
    nn = 4
    entries = [Fraction(0), Fraction(0), F1, -F1, Fraction(2), Fraction(1, 2),
               Fraction(-2, 3)]
    out = []
    while len(out) < count:
        m = linr_oracle.RationalMatrix(
            [[rng.choice(entries) for _ in range(nn)] for _ in range(nn)])
        m_inv = inverse(m)
        if m_inv is None:
            continue
        d = linr_oracle.RationalMatrix.zeros(nn, nn)
        for i in range(nn):
            d.data[i][i] = Fraction(rng.randint(0, 1))
        out.append(m.mul(d).mul(m_inv))
    return out


def test_nichols_check_on_rational_idempotents_matches_dense_oracle():
    # quadraticity is decided by applying [m, -Psi]! to a spanning set of
    # I_m; the oracle compares spans by rank.  Conjugates of a 0/1 diagonal
    # are idempotent but rarely braided, so both verdicts occur
    one = linr_oracle.RationalMatrix.identity
    verdicts = []
    for k, psi in enumerate(conjugate_idempotents(seed=26, count=30)):
        assert linr_oracle.check_idempotent(psi)
        for m in (3, 4) if k < 8 else (3,):
            got = linr.nichols_quadratic_check(sparse(psi), m)
            assert got == linr_oracle.nichols_quadratic_check(psi, m)
            verdicts.append(got)
            # [m, -Psi]! is id plus products of the Psi_i, each with image in
            # I_m, so its kernel always lies in I_m: containment of I_m in the
            # kernel and equal dimensions each give the verdict alone
            ideal = linr_oracle.RationalMatrix(
                [row for pos in range(m - 1) for row in
                 one(2 ** pos).kron(psi.transpose()).kron(one(2 ** (m - pos - 2))).data])
            kernel = linr_oracle.braided_factorial(psi, m, -1).nullspace_basis()
            assert linr_oracle.subspace_contains(
                ideal, linr_oracle.RationalMatrix(kernel, cols=2 ** m))
    assert set(verdicts) == {True, False}, verdicts.count(True)


def test_relations_of_a_fraction_valued_r_match_dense_oracle():
    # R = P Psi for a rational idempotent Psi, and a random R with Fraction
    # entries on n = 3; the relations are compared with the dense oracle's,
    # and every coefficient leaving linr is a Fraction
    rng = random.Random(7)
    rmats = [linr_oracle.flip_matrix(2).mul(psi)
             for psi in conjugate_idempotents(seed=11, count=6)]
    rmats.append(linr_oracle.RationalMatrix(
        [[rng.choice(ENTRIES) for _ in range(9)] for _ in range(9)]))
    rmats = [old for old in rmats
             if any(x.denominator > 1 for row in old.data for x in row)]
    assert len(rmats) >= 4
    values = []
    for old in rmats:
        rmat = sparse(old)
        frt, bmat = linr.frt_relations(rmat), linr.braided_matrix_relations(rmat)
        assert frt == linr_oracle.frt_relations(old)
        assert bmat == linr_oracle.braided_matrix_relations(old)
        values += [c for p in frt + bmat for c in p.values()]
    assert values and all(type(c) is Fraction for c in values)
