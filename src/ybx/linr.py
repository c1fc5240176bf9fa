"""Exact rational linear algebra for linearized solutions.

The pair basis of V (x) V is ordered lexicographically, (i, j) mapped to
row n*i + j (0-based).  The braiding Psi sends x_i (x) x_j to
x_{i|>j} (x) x_{i<|j}; the R-matrix is P Psi with P the flip.  Four-index
symbols R^a_i{}^b_j are stored as entry (output pair (a,b), input pair
(i,j)).

Operators are composed as sparse columns ({row: coeff} dicts), so their
cost follows the nonzeros; every rank, kernel and span question goes
through the exact sparse elimination of ybx.elim.
"""

from fractions import Fraction
from itertools import product

from . import elim
from .errors import NotIdempotent, ShapeMismatch, SizeTooLarge

F0 = Fraction(0)
F1 = Fraction(1)


class RationalMatrix:
    """Dense exact-rational matrix with rank/kernel/image operations."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        self.data = [[Fraction(x) for x in row] for row in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(row) != self.cols for row in self.data):
                raise ShapeMismatch("ragged rows")
        else:
            self.cols = cols or 0

    @staticmethod
    def identity(n):
        return RationalMatrix([[F1 if i == j else F0 for j in range(n)]
                               for i in range(n)])

    @staticmethod
    def from_sparse(vecs, width):
        """The matrix whose rows are the sparse vectors vecs."""
        return RationalMatrix([[v.get(c, F0) for c in range(width)] for v in vecs],
                              cols=width)

    @staticmethod
    def from_columns(cols, rows):
        return RationalMatrix.from_sparse(_transpose(cols, rows), len(cols))

    def sparse_rows(self):
        return [{c: x for c, x in enumerate(row) if x} for row in self.data]

    def columns(self):
        """The columns as sparse {row: coeff} dicts."""
        return _transpose(self.sparse_rows(), self.cols)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def mul(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.cols} != {other.rows}")
        return RationalMatrix.from_columns(
            _compose(self.columns(), other.columns()), self.rows)

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("size mismatch")
        return RationalMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.data, other.data)],
                              cols=self.cols)

    def sub(self, other):
        return self.add(RationalMatrix([[-x for x in row] for row in other.data],
                                       cols=other.cols))

    def transpose(self):
        return RationalMatrix([[self.data[i][j] for i in range(self.rows)]
                               for j in range(self.cols)], cols=self.rows)

    def kron(self, other):
        out = []
        for r1 in self.data:
            for r2 in other.data:
                out.append([a * b for a in r1 for b in r2])
        return RationalMatrix(out, cols=self.cols * other.cols)

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot columns)."""
        red, pivots = elim.rref(self.sparse_rows())
        red += [{}] * (self.rows - len(red))
        return RationalMatrix.from_sparse(red, self.cols), pivots

    def rank(self):
        return _rank(self.sparse_rows())

    def nullspace_basis(self):
        """Basis of the right kernel, as a list of column vectors (lists)."""
        return RationalMatrix.from_sparse(
            _kernel(self.sparse_rows(), self.cols), self.cols).data

    def row_space_basis(self):
        """Nonzero rows of the reduced row echelon form."""
        return RationalMatrix.from_sparse(elim.rref(self.sparse_rows())[0], self.cols)


def _transpose(vecs, width):
    """Rows of the sparse vectors read as columns, and vice versa."""
    out = [{} for _ in range(width)]
    for i, vec in enumerate(vecs):
        for k, x in vec.items():
            out[k][i] = x
    return out


def _compose(a, b):
    """Columns of the product a b of two operators given by columns."""
    out = []
    for col in b:
        acc = {}
        for k, c in col.items():
            elim.add_to(acc, c, a[k])
        out.append(acc)
    return out


def _rank(rows):
    return len(elim.rref(rows)[1])


def _kernel(rows, width):
    """Basis of {v : row . v = 0 for every row}, one sparse vector per
    non-pivot column."""
    red, pivots = elim.rref(rows)
    free = sorted(set(range(width)) - set(pivots))
    return [{fc: F1, **{p: -row[fc] for p, row in zip(pivots, red) if fc in row}}
            for fc in free]


def _same_span(a, b):
    return _rank(a) == _rank(b) == _rank(a + b)


def subspace_equal(a, b):
    """Row spaces of a and b coincide (exact rank comparison)."""
    if a.cols != b.cols:
        raise ShapeMismatch("ambient dimensions differ")
    return _same_span(a.sparse_rows(), b.sparse_rows())


def subspace_contains(a, b):
    """Row space of a contains the row space of b."""
    if a.cols != b.cols:
        raise ShapeMismatch("ambient dimensions differ")
    rows = a.sparse_rows()
    return _rank(rows + b.sparse_rows()) == _rank(rows)


def linearize(qs):
    """The braiding Psi and R-matrix R = P Psi of a quadratic set."""
    n = qs.n
    images = [qs.r(i, j) for i in range(n) for j in range(n)]
    return (RationalMatrix.from_columns([{n * k + l: F1} for k, l in images], n * n),
            RationalMatrix.from_columns([{n * l + k: F1} for k, l in images], n * n))


def _lift(cols, n, m, pos):
    """The columns of an operator on V (x) V acting at tensor positions
    (pos, pos+1) of V^(x)m, n = dim V."""
    nn = n * n
    right = n ** (m - pos - 2)
    out = []
    for col in range(n ** m):
        a, rest = divmod(col, nn * right)
        ij, b = divmod(rest, right)
        base = a * nn * right + b
        out.append({base + kl * right: v for kl, v in cols[ij].items()})
    return out


def check_braid(psi):
    """Psi_1 Psi_2 Psi_1 = Psi_2 Psi_1 Psi_2 on V^(x)3."""
    n = _tensor_dim(psi)
    cols = psi.columns()
    p1, p2 = _lift(cols, n, 3, 0), _lift(cols, n, 3, 1)
    return _compose(p1, _compose(p2, p1)) == _compose(p2, _compose(p1, p2))


def check_matrix_ybe(rmat):
    """R12 R13 R23 = R23 R13 R12 on V^(x)3."""
    n = _tensor_dim(rmat)
    cols = rmat.columns()
    r12, r23 = _lift(cols, n, 3, 0), _lift(cols, n, 3, 1)
    # R13 acts on positions 0 and 2
    r13 = [{(kl // n * n + y) * n + kl % n: v for kl, v in cols[n * i + j].items()}
           for i, y, j in product(range(n), repeat=3)]
    return _compose(r12, _compose(r13, r23)) == _compose(r23, _compose(r13, r12))


def check_idempotent(psi):
    if psi.rows != psi.cols:
        raise ShapeMismatch(f"{psi.cols} != {psi.rows}")
    cols = psi.columns()
    return _compose(cols, cols) == cols


def _tensor_dim(mat):
    if mat.rows != mat.cols:
        raise ShapeMismatch("matrix is not square")
    n = round(mat.rows ** 0.5)
    if n * n != mat.rows:
        raise ShapeMismatch("dimension is not a perfect square")
    return n


def flip_matrix(n):
    return psi_from_r(RationalMatrix.identity(n * n))


def psi_from_r(rmat):
    """The braiding Psi = P R; the flip P permutes the rows of R."""
    n = _tensor_dim(rmat)
    return RationalMatrix([rmat.data[n * (r % n) + r // n] for r in range(n * n)])


def splus_relations(rmat):
    """Relation space of S_+(R): image of (id - Psi), Psi = P R."""
    psi = psi_from_r(rmat)
    delta = RationalMatrix.identity(psi.rows).sub(psi)
    # image = column space; return as row-space basis of the transpose
    return delta.transpose().row_space_basis()


def sminus_degenerate_check(psi):
    """For idempotent Psi, id + Psi is onto, so all degree-2 products of
    S_-(R) vanish."""
    if not check_idempotent(psi):
        raise NotIdempotent("the degeneracy statement needs an idempotent Psi")
    n2 = psi.rows
    return RationalMatrix.identity(n2).add(psi).rank() == n2


def transpose_yb_relations(rmat):
    """Relations of the transpose algebra on dual generators y^1..y^n:
    for each output pair (i, j) the binomial

        sum over r(a,b) = (i,j) of y^a y^b  -  y^i y^j,

    zero polynomials dropped.  Returned as {(a, b): coeff} dicts."""
    n = _tensor_dim(rmat)
    rels = []
    for row, vec in enumerate(psi_from_r(rmat).sparse_rows()):
        p = {divmod(c, n): x for c, x in vec.items()}
        p[divmod(row, n)] = p.get(divmod(row, n), F0) - F1
        p = {k: v for k, v in p.items() if v}
        if p:
            rels.append(p)
    return rels


def koszul_dual_relations(rmat):
    """Relation space of the Koszul dual: image(Psi^T) over the dual basis."""
    psi = psi_from_r(rmat)
    if not check_idempotent(psi):
        raise NotIdempotent("Koszul duality here needs an idempotent Psi")
    # column space of Psi^T = row space of Psi
    return psi.row_space_basis()


def _require_idempotent(qs, message):
    """The set-level twin of check_idempotent(psi): r(r(x, y)) = r(x, y)."""
    if any(qs.r(*qs.r(i, j)) != qs.r(i, j) for i in range(qs.n) for j in range(qs.n)):
        raise NotIdempotent(message)


def koszul_dual_polynomials(qs):
    """Set-theoretic Koszul dual relations: one per image pair (i, j) of r,
    the sum of y^a y^b over the preimage of (i, j)."""
    _require_idempotent(qs, "Koszul duality here needs an idempotent r")
    pre = {}
    for a, b in product(range(qs.n), repeat=2):
        pre.setdefault(qs.r(a, b), []).append((a, b))
    return [{p: F1 for p in pre[img]} for img in sorted(pre)]


def braided_factorial(psi, m, sign=1):
    """[m, +-Psi]! = [m, +-Psi] ([m-1, +-Psi]! (x) id) with
    [m, Phi] = id + Phi_{m-1} + Phi_{m-2} Phi_{m-1} + ... + Phi_1...Phi_{m-1}."""
    n = _tensor_dim(psi)
    if n > 4 or m > 4:
        raise SizeTooLarge("tensor powers limited to 4^4")
    fact = _factorial(psi.columns(), n, m, sign)
    return RationalMatrix.from_columns(fact, len(fact))


def _factorial(cols, n, m, sign):
    """The columns of [m, +-Psi]!, Psi given by its columns."""
    phi = cols if sign > 0 else [{r: -v for r, v in col.items()} for col in cols]
    fact = [{c: F1} for c in range(n)]
    for k in range(2, m + 1):
        # [k, phi] applied to [k-1, phi]! (x) id, one term at a time
        term = [{r * n + y: v for r, v in col.items()} for col in fact for y in range(n)]
        fact = [dict(col) for col in term]
        for pos in range(k - 2, -1, -1):
            term = _compose(_lift(phi, n, k, pos), term)
            for total, col in zip(fact, term):
                elim.add_to(total, F1, col)
    return fact


def nichols_monomials(qs):
    """The set-theoretic Nichols relations theta_a theta_b = 0, one per
    image pair (a, b) of r, sorted."""
    _require_idempotent(qs, "quadratic Nichols relations need an idempotent r")
    return sorted({qs.r(i, j) for i in range(qs.n) for j in range(qs.n)})


def nichols_quadratic_check(psi, m):
    """ker [m, -Psi]! equals the degree-m component of the ideal generated
    by image(Psi); exact subspace equality by rank."""
    n = _tensor_dim(psi)
    if n > 4 or m > 4:
        raise SizeTooLarge("tensor powers limited to 4^4")
    if not check_idempotent(psi):
        raise NotIdempotent("quadraticity holds for idempotent Psi")
    cols = psi.columns()
    dim = n ** m
    kernel = _kernel(_transpose(_factorial(cols, n, m, -1), dim), dim)
    # V^(x)pos (x) image(Psi) (x) V^(x)(m-pos-2) is the image of Psi at pos
    ideal = [v for pos in range(m - 1) for v in _lift(cols, n, m, pos)]
    return _same_span(kernel, ideal)


def _index(rmat, *slots):
    """The nonzero R^up1_lo1{}^up2_lo2 as (up1, lo1, up2, lo2, value),
    grouped by their indices at the given slots."""
    n = _tensor_dim(rmat)
    out = {}
    for r, row in enumerate(rmat.data):
        for c, v in enumerate(row):
            if v:
                e = (r // n, c // n, r % n, c % n, v)
                out.setdefault(tuple(e[s] for s in slots), []).append(e)
    return out


def frt_relations(rmat):
    """FRT bialgebra relations on generators t^i_j:
    sum_ab R^i_a{}^k_b t^a_j t^b_l - sum_ab t^k_b t^i_a R^a_j{}^b_l,
    over all (i, j, k, l); deduplicated and made monic."""
    n = _tensor_dim(rmat)
    by_up, by_lo = _index(rmat, 0, 2), _index(rmat, 1, 3)
    rels = []
    for i, j, k, l in product(range(n), repeat=4):
        p = {}
        for _, a, _, b, c in by_up.get((i, k), ()):
            key = ((a, j), (b, l))
            p[key] = p.get(key, F0) + c
        for a, _, b, _, c in by_lo.get((j, l), ()):
            key = ((k, b), (i, a))
            p[key] = p.get(key, F0) - c
        p = {key: v for key, v in p.items() if v}
        if p:
            rels.append(p)
    return _dedupe(rels)


def braided_matrix_relations(rmat):
    """Braided matrix algebra relations on generators u^i_j:
    sum R^k_a{}^i_b u^b_c R^c_j{}^a_d u^d_l - sum u^k_a R^a_b{}^i_c u^c_d R^d_j{}^b_l."""
    n = _tensor_dim(rmat)
    by_up, by_lo1_up2 = _index(rmat, 0, 2), _index(rmat, 1, 2)
    by_up2, by_lo1_up2_lo2 = _index(rmat, 2), _index(rmat, 1, 2, 3)
    rels = []
    for i, j, k, l in product(range(n), repeat=4):
        p = {}
        for _, a, _, b, v1 in by_up.get((k, i), ()):
            for c, _, _, d, v2 in by_lo1_up2.get((j, a), ()):
                key = ((b, c), (d, l))
                p[key] = p.get(key, F0) + v1 * v2
        for a, b, _, c, v1 in by_up2.get((i,), ()):
            for d, _, _, _, v2 in by_lo1_up2_lo2.get((j, b, l), ()):
                key = ((k, a), (c, d))
                p[key] = p.get(key, F0) - v1 * v2
        p = {key: vv for key, vv in p.items() if vv}
        if p:
            rels.append(p)
    return _dedupe(rels)


def _dedupe(rels):
    """Normalize each polynomial monic at its deg-lex-leading monomial and
    drop duplicates, preserving first-seen order."""
    seen = set()
    out = []
    for p in rels:
        lead = max(p)
        c = p[lead]
        q = tuple(sorted((k, v / c) for k, v in p.items()))
        if q not in seen:
            seen.add(q)
            out.append(dict(q))
    return out


def rmatrix_star(phi, psi):
    """The braiding sigma_23 (phi (x) psi) sigma_23 on (V (x) W)^(x)2."""
    n, m = _tensor_dim(phi), _tensor_dim(psi)
    nm = n * m
    phi_cols, psi_cols = phi.columns(), psi.columns()
    cols = []
    for i, a, j, b in product(range(n), range(m), range(n), range(m)):
        cols.append({(kl // n * m + uv // m) * nm + kl % n * m + uv % m: c1 * c2
                     for kl, c1 in phi_cols[n * i + j].items()
                     for uv, c2 in psi_cols[m * a + b].items()})
    return RationalMatrix.from_columns(cols, nm * nm)
