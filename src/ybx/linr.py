"""Exact rational linear algebra for linearized solutions.

The pair basis of V (x) V is ordered lexicographically, (i, j) mapped to
row n*i + j (0-based).  The braiding Psi sends x_i (x) x_j to
x_{i|>j} (x) x_{i<|j}; the R-matrix is P Psi with P the flip.  Four-index
symbols R^a_i{}^b_j are stored as entry (output pair (a,b), input pair
(i,j)).

Operators are held and combined as sparse rows ({column: coeff} dicts of
the nonzeros, coefficients following elim.coeff): products compose rows,
Psi at tensor positions (pos, pos+1) moves the entries of the rows it is
applied to, id +- Psi adds Psi's rows to the identity's, and the flip
permutes rows.  A column space, such as image(Psi), is read from a
transpose.  Rank, kernel and span questions go through ybx.elim; the
Nichols check eliminates nothing.  RationalMatrix only carries a matrix
into and out of linr.  Operators on V^(x)m are built for n^m <= MAX_TENSOR_DIM
only, FRT and braided-matrix relations for n^4 <= MAX_QUADRUPLES in at most
MAX_RELATION_STEPS loop steps.  Those relations are built on monomial codes,
t^a_j t^b_l as ((a n + j) n + b) n + l, and the braided-matrix loop reads R
by column.  Coefficients that leave linr are Fractions.
"""

from fractions import Fraction
from itertools import product

from . import elim
from .errors import InvalidArgument, NotIdempotent, ShapeMismatch, SizeTooLarge
from .quadset import require_properties

F1 = Fraction(1)
MAX_TENSOR_DIM = 4096     # 8^4, the largest dim V^(x)m an operator is built for
MAX_QUADRUPLES = 65536    # 16^4, the most index quadruples FRT relations run over
MAX_RELATION_STEPS = 2 * MAX_QUADRUPLES     # a set's R takes 2 n^4 inner steps


class RationalMatrix:
    """Exact-rational matrix held as sparse rows: vecs[i] is row i, its
    nonzero entries following elim.coeff; data is a dense Fraction copy,
    built on each read.  mul and rref stay for the bench tracer."""

    __slots__ = ("rows", "cols", "vecs")

    def __init__(self, data, cols=None):
        """The matrix with the given rows, each a dense sequence or a sparse
        {column: coeff} dict; cols is the width, needed when no row is dense."""
        self.vecs = []
        for row in data:
            if not isinstance(row, dict):
                if cols is None:
                    cols = len(row)
                elif len(row) != cols:
                    raise ShapeMismatch("ragged rows")
                row = dict(enumerate(row))
            self.vecs.append({c: y for c, x in row.items() if (y := elim.coeff(x))})
        self.rows, self.cols = len(self.vecs), cols or 0

    @property
    def data(self):
        return [[Fraction(row.get(c, 0)) for c in range(self.cols)]
                for row in self.vecs]

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.vecs == other.vecs)

    def mul(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.cols} != {other.rows}")
        return RationalMatrix(_compose(other.vecs, self.vecs), cols=other.cols)

    def transpose(self):
        return RationalMatrix(_transpose(self.vecs, self.cols), cols=self.rows)

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot columns)."""
        red, pivots = elim.rref(self.vecs)
        red += [{}] * (self.rows - len(red))
        return RationalMatrix(red, cols=self.cols), pivots

    def rank(self):
        return _rank(self.vecs)

    def nullspace_basis(self):
        """Basis of the right kernel as column vectors (lists): for each free
        column c in order, the vector 1 at c and 0 at the other free columns."""
        red, pivots = elim.rref(self.vecs)
        free = sorted(set(range(self.cols)) - set(pivots))
        return RationalMatrix([{c: 1, **{p: -row[c] for p, row in zip(pivots, red) if c in row}}
                               for c in free], cols=self.cols).data

    def row_space_basis(self):
        """Nonzero rows of the reduced row echelon form."""
        return RationalMatrix(elim.rref(self.vecs)[0], cols=self.cols)


def _transpose(vecs, width):
    """Rows of the sparse vectors read as columns, and vice versa."""
    out = [{} for _ in range(width)]
    for i, vec in enumerate(vecs):
        for k, x in vec.items():
            out[k][i] = x
    return out


def _compose(a, b):
    """The rows of the product b a of two operators given by their rows."""
    out = []
    for row in b:
        acc = {}
        for k, c in row.items():
            elim.add_to(acc, c, a[k])
        out.append(acc)
    return out


def _id_plus(rows, f):
    """The rows of id + f Psi, Psi given by its rows."""
    out = [{i: 1} for i in range(len(rows))]
    for acc, row in zip(out, rows):
        elim.add_to(acc, f, row)
    return out


def _rank(rows):
    return len(elim.rref(rows)[1])


def subspace_equal(a, b):
    """Row spaces of a and b coincide (exact rank comparison)."""
    return subspace_contains(a, b) and _rank(b.vecs) == _rank(a.vecs)


def subspace_contains(a, b):
    """Row space of a contains the row space of b."""
    if a.cols != b.cols:
        raise ShapeMismatch("ambient dimensions differ")
    return _rank(a.vecs + b.vecs) == _rank(a.vecs)


def linearize(qs):
    """The braiding Psi and R-matrix R = P Psi of a quadratic set."""
    n = qs.n
    cols = [{n * k + l: 1} for k, l in qs.r_table]
    psi = RationalMatrix(cols, cols=n * n).transpose()
    return psi, psi_from_r(psi)


def _apply(rows, phi, n, m, pos):
    """The rows of T Phi_pos, T on V^(x)m and Phi on V (x) V given by their
    rows, Phi_pos acting at tensor positions (pos, pos+1), n = dim V: an entry
    at column c moves along the row of Phi at c's digits pos, pos+1."""
    nn, right = n * n, n ** (m - pos - 2)
    moves = [[((kl - ij) * right, v) for kl, v in row.items()]
             for ij, row in enumerate(phi)]
    out = []
    for row in rows:
        acc = {}
        for c, x in row.items():
            for d, v in moves[c // right % nn]:
                y = acc.get(c + d, 0) + x * v
                if y:
                    acc[c + d] = y
                else:
                    del acc[c + d]
        out.append(acc)
    return out


def check_braid(psi):
    """Psi_1 Psi_2 Psi_1 = Psi_2 Psi_1 Psi_2 on V^(x)3."""
    n = _tensor_dim(psi, 3)
    left = right = [{c: 1} for c in range(n ** 3)]
    for p in (0, 1, 0):
        left, right = _apply(left, psi.vecs, n, 3, p), _apply(right, psi.vecs, n, 3, 1 - p)
    return left == right


def check_matrix_ybe(rmat):
    """R12 R13 R23 = R23 R13 R12 on V^(x)3, the braid relation of Psi = P R:
    Psi1 Psi2 Psi1 = P13 R23 R13 R12, Psi2 Psi1 Psi2 = P13 R12 R13 R23 (Kassel)."""
    return check_braid(psi_from_r(rmat))


def check_idempotent(psi):
    if psi.rows != psi.cols:
        raise ShapeMismatch(f"{psi.cols} != {psi.rows}")
    return _compose(psi.vecs, psi.vecs) == psi.vecs


def require_idempotent(psi, what):
    """The matrix-level twin of quadset.require_properties(qs, what, "idempotent")."""
    if not check_idempotent(psi):
        raise NotIdempotent(f"{what} needs an idempotent Psi")


def _tensor_dim(mat, power=None):
    """dim V for mat on V (x) V; a power given must be >= 1, n^power <= MAX_TENSOR_DIM."""
    if mat.rows != mat.cols:
        raise ShapeMismatch("matrix is not square")
    n = round(mat.rows ** 0.5)
    if n * n != mat.rows:
        raise ShapeMismatch("dimension is not a perfect square")
    if power is not None and power < 1:
        raise InvalidArgument(f"the tensor power must be at least 1, not {power}")
    if power is not None and n ** power > MAX_TENSOR_DIM:
        raise SizeTooLarge(f"V^(x){power} has dimension {n ** power} > {MAX_TENSOR_DIM}")
    return n


def flip_matrix(n):
    return RationalMatrix([{n * (r % n) + r // n: 1} for r in range(n * n)], cols=n * n)


def psi_from_r(rmat):
    """The braiding Psi = P R; the flip P permutes the rows of R."""
    n = _tensor_dim(rmat)
    return RationalMatrix([rmat.vecs[n * (r % n) + r // n] for r in range(n * n)],
                          cols=n * n)


def splus_relations(rmat):
    """Relation space of S_+(R): image(id - Psi), the row space of id - Psi^T."""
    psi = psi_from_r(rmat)
    return RationalMatrix(elim.rref(_id_plus(_transpose(psi.vecs, psi.cols), -1))[0],
                          cols=psi.cols)


def sminus_degenerate_check(psi):
    """For idempotent Psi, id + Psi is onto, so all degree-2 products of
    S_-(R) vanish."""
    require_idempotent(psi, "the degeneracy statement")
    return _rank(_id_plus(psi.vecs, 1)) == psi.rows


def transpose_yb_relations(rmat):
    """Relations of the transpose algebra on dual generators y^1..y^n:
    for each output pair (i, j) the binomial

        sum over r(a,b) = (i,j) of y^a y^b  -  y^i y^j,

    zero polynomials dropped.  Returned as {(a, b): coeff} dicts."""
    n = _tensor_dim(rmat)
    rels = []
    for row, vec in enumerate(psi_from_r(rmat).vecs):
        p = {divmod(c, n): x for c, x in vec.items()}
        p[divmod(row, n)] = p.get(divmod(row, n), 0) - 1
        p = {k: Fraction(v) for k, v in p.items() if v}
        if p:
            rels.append(p)
    return rels


def koszul_dual_relations(rmat):
    """Relation space of the Koszul dual over the dual basis: the annihilator
    of image(id - Psi), which for idempotent Psi is image(Psi^T), the row
    space of Psi.  This is the paper's Koszul dual of the Yang-Baxter
    algebra in the linearised idempotent setting, for any idempotent
    R-matrix, also one that no set-theoretic solution gives."""
    psi = psi_from_r(rmat)
    require_idempotent(psi, "Koszul duality here")
    return psi.row_space_basis()


def koszul_dual_polynomials(qs):
    """Set-theoretic Koszul dual relations: one per image pair (i, j) of r,
    the sum of y^a y^b over the preimage of (i, j).  This is the paper's
    explicit presentation of the Koszul dual for an idempotent solution, read
    off r without building an operator; on a linearized solution it spans
    koszul_dual_relations, which also takes R-matrices no solution gives."""
    require_properties(qs, "Koszul duality here", "idempotent")
    pre = {}
    for p, img in enumerate(qs.r_table):
        pre.setdefault(img, []).append(divmod(p, qs.n))
    return [{p: F1 for p in pre[img]} for img in sorted(pre)]


def braided_factorial(psi, m, sign=1):
    """[m, +-Psi]! = [m, +-Psi] ([m-1, +-Psi]! (x) id) with
    [m, Phi] = id + Phi_{m-1} + Phi_{m-2} Phi_{m-1} + ... + Phi_1...Phi_{m-1}."""
    n = _tensor_dim(psi, m)
    return RationalMatrix(_factorial(psi.vecs, n, m, sign), cols=n ** m)


def _factorial(rows, n, m, sign):
    """The rows of [m, +-Psi]!, Psi given by its rows."""
    phi = rows if sign > 0 else [{c: -v for c, v in row.items()} for row in rows]
    fact = [{c: 1} for c in range(n)]
    for k in range(2, m + 1):
        # [k, phi] applied to [k-1, phi]! (x) id, one term at a time
        term = [{c * n + y: v for c, v in row.items()} for row in fact for y in range(n)]
        fact = [dict(row) for row in term]
        for pos in range(k - 2, -1, -1):
            term = _apply(term, phi, n, k, pos)
            for total, row in zip(fact, term):
                elim.add_to(total, 1, row)
    return fact


def nichols_monomials(qs):
    """The set-theoretic Nichols relations theta_a theta_b = 0, one per
    image pair (a, b) of r, sorted."""
    require_properties(qs, "quadratic Nichols relations", "idempotent")
    return sorted(set(qs.r_table))


def nichols_quadratic_check(psi, m):
    """ker A = I_m, the degree-m part of the ideal of image(Psi), A = [m, -Psi]!,
    iff A I_m = 0: A is id plus signed nonempty products of the Psi_i, each with
    image in I_m, so A v = 0 gives v = (id - A) v in I_m always.  A, read as
    columns, is applied to the e_a (x) v (x) e_b spanning I_m, v a column of Psi."""
    n = _tensor_dim(psi, m)
    require_idempotent(psi, "quadraticity")
    cols = _transpose(_factorial(psi.vecs, n, m, -1), n ** m)
    image = {tuple(v.items()) for v in _transpose(psi.vecs, psi.cols) if v}
    ideal = [{(a * n * n + kl) * right + b: x for kl, x in v}
             for pos in range(m - 1) for right in [n ** (m - pos - 2)]
             for a, b in product(range(n ** pos), range(right)) for v in image]
    return not any(_compose(cols, ideal))


def _relation_index(rmat, steps, *groupings):
    """dim V and, per pair of slots (s, t) in groupings, the nonzero entries e =
    (up1, lo1, up2, lo2, value) of R grouped at index e[s] n + e[t] of a list;
    refused past MAX_QUADRUPLES or MAX_RELATION_STEPS inner steps, steps(n, groups)."""
    n = _tensor_dim(rmat)
    index = [[[] for _ in range(n * n)] for _ in groupings]
    for r, row in enumerate(rmat.vecs):
        for c, v in row.items():
            e = (r // n, c // n, r % n, c % n, v)
            for (s, t), out in zip(groupings, index):
                out[e[s] * n + e[t]].append(e)
    for size, most, text in ((n ** 4, MAX_QUADRUPLES, "run over {} index quadruples > {}"),
                             (steps(n, index), MAX_RELATION_STEPS, "take {} steps > {}")):
        if size > most:
            raise SizeTooLarge(f"relations of R on {n} points " + text.format(size, most))
    return n, index


def frt_relations(rmat):
    """FRT bialgebra relations on generators t^i_j:
    sum_ab R^i_a{}^k_b t^a_j t^b_l - sum_ab t^k_b t^i_a R^a_j{}^b_l,
    over all (i, j, k, l); deduplicated and made monic."""
    n, (by_up, by_lo) = _relation_index(   # each half reads a nonzero n^2 times
        rmat, lambda n, g: 2 * n * n * sum(map(len, g[0])), (0, 2), (1, 3))
    rels = []
    for i, j, k, l in product(range(n), repeat=4):
        p = {}
        for _, a, _, b, c in by_up[i * n + k]:
            key = ((a * n + j) * n + b) * n + l  # t^a_j t^b_l
            p[key] = p.get(key, 0) + c
        for a, _, b, _, c in by_lo[j * n + l]:
            key = ((k * n + b) * n + i) * n + a  # t^k_b t^i_a
            p[key] = p.get(key, 0) - c
        rels.append(p)
    return _dedupe(rels, n)


def braided_matrix_relations(rmat):
    """Braided matrix algebra relations on generators u^i_j:
    sum R^k_a{}^i_b u^b_c R^c_j{}^a_d u^d_l - sum u^k_a R^a_b{}^i_c u^c_d R^d_j{}^b_l.
    The second sum reads R's column (j, l) first, whose R^d_j{}^b_l fix b."""
    n, (by_up, by_lo1_up2, by_col) = _relation_index(   # 2n per e, f with up2(f) = lo1(e)
        rmat, lambda n, g: 2 * n * sum(sum(map(len, g[1][x * n:x * n + n]))
                                       * sum(map(len, g[1][x::n])) for x in range(n)),
        (0, 2), (1, 2), (1, 3))
    rels = []
    for i, j, k, l in product(range(n), repeat=4):
        p = {}
        for _, a, _, b, v1 in by_up[k * n + i]:
            for c, _, _, d, v2 in by_lo1_up2[j * n + a]:
                key = ((b * n + c) * n + d) * n + l  # u^b_c u^d_l
                p[key] = p.get(key, 0) + v1 * v2
        for d, _, b, _, v2 in by_col[j * n + l]:
            for a, _, _, c, v1 in by_lo1_up2[b * n + i]:
                key = ((k * n + a) * n + c) * n + d  # u^k_a u^c_d
                p[key] = p.get(key, 0) - v1 * v2
        rels.append(p)
    return _dedupe(rels, n)


def _dedupe(rels, n):
    """Each nonzero polynomial on monomial codes, zero terms dropped, made
    monic at its leading code; duplicates, found on exact values, dropped in
    order.  The relations kept are decoded to pairs of generator indices,
    with one Fraction made per distinct value."""
    kept = {}
    for p in rels:
        if 0 in p.values():
            p = {k: v for k, v in p.items() if v}
        if not p:
            continue
        c = p[max(p)]
        if c != 1:
            inv = -1 if c == -1 else F1 / c
            p = {k: v * inv for k, v in p.items()}
        kept.setdefault(frozenset(p.items()), p)
    nn = n * n
    pairs = [divmod(x, n) for x in range(nn)]
    fractions = {v: Fraction(v) for v in {v for p in kept.values() for v in p.values()}}
    return [{(pairs[k // nn], pairs[k % nn]): fractions[p[k]] for k in sorted(p)}
            for p in kept.values()]
