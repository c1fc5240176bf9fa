"""The dense linear layer that ybx.linr replaced, kept as an oracle.

RationalMatrix multiplies and row-reduces dense lists of Fractions, and
every operator on V^(x)m is built as a dense n^m x n^m matrix.  The FRT and
braided-matrix relations loop over every index tuple.  The Segre
relation vectors of ybx.verseg and the exterior calculus of ybx.diffcalc
are built here as dense lists too.  Tests compare the sparse layer against
these functions entry for entry.  The sparse kernel-membership Nichols
check that linr's column reading replaced follows, and the tuple-keyed
FRT and braided-matrix relations that linr's monomial codes replaced,
with the Fraction rendering of the CLI's relation lines, close the module.
"""

from fractions import Fraction
from itertools import product

from ybx import elim, linr
from ybx.errors import NotIdempotent, ShapeMismatch, SizeTooLarge

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
    def zeros(r, c):
        return RationalMatrix([[F0] * c for _ in range(r)], cols=c)

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __getitem__(self, rc):
        return self.data[rc[0]][rc[1]]

    def mul(self, other):
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.cols} != {other.rows}")
        out = [[F0] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            for k, a in enumerate(row):
                if a:
                    orow = other.data[k]
                    trow = out[i]
                    for j, b in enumerate(orow):
                        if b:
                            trow[j] += a * b
        return RationalMatrix(out, cols=other.cols)

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("size mismatch")
        return RationalMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.data, other.data)],
                              cols=self.cols)

    def sub(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("size mismatch")
        return RationalMatrix([[a - b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.data, other.data)],
                              cols=self.cols)

    def scale(self, c):
        c = Fraction(c)
        return RationalMatrix([[c * a for a in row] for row in self.data],
                              cols=self.cols)

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
        m = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = F1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == len(m):
                break
        return RationalMatrix(m, cols=self.cols), pivots

    def rank(self):
        return len(self.rref()[1])

    def nullspace_basis(self):
        """Basis of the right kernel, as a list of column vectors (lists)."""
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [F0] * self.cols
            v[fc] = F1
            for r, pc in enumerate(pivots):
                v[pc] = -red.data[r][fc]
            basis.append(v)
        return basis

    def row_space_basis(self):
        """Nonzero rows of the reduced row echelon form."""
        red, pivots = self.rref()
        return RationalMatrix(red.data[:len(pivots)] or [], cols=self.cols)


def span_matrix(mat):
    """Row-space basis of a matrix (rows as spanning vectors)."""
    return mat.row_space_basis()


def subspace_equal(a, b):
    """Row spaces of a and b coincide (exact rank comparison)."""
    if a.cols != b.cols:
        raise ShapeMismatch("ambient dimensions differ")
    ra, rb = a.rank(), b.rank()
    stacked = RationalMatrix(a.data + b.data, cols=a.cols)
    return ra == rb == stacked.rank()


def subspace_contains(a, b):
    """Row space of a contains the row space of b."""
    stacked = RationalMatrix(a.data + b.data, cols=a.cols)
    return stacked.rank() == a.rank()


def _lift(mat, n, m, pos):
    """Embed an operator on V (x) V at tensor positions (pos, pos+1) of
    V^(x)m, n = dim V."""
    dim = n ** m
    out = [[F0] * dim for _ in range(dim)]
    left = n ** pos
    right = n ** (m - pos - 2)
    for a in range(left):
        for b in range(right):
            for ij in range(n * n):
                col_base = (a * n * n + ij) * right + b
                for kl in range(n * n):
                    v = mat.data[kl][ij]
                    if v:
                        row = (a * n * n + kl) * right + b
                        out[row][col_base] = v
    return RationalMatrix(out)


def check_braid(psi):
    """Psi_1 Psi_2 Psi_1 = Psi_2 Psi_1 Psi_2 on V^(x)3."""
    n = _tensor_dim(psi)
    p1 = _lift(psi, n, 3, 0)
    p2 = _lift(psi, n, 3, 1)
    return p1.mul(p2).mul(p1) == p2.mul(p1).mul(p2)


def check_matrix_ybe(rmat):
    """R12 R13 R23 = R23 R13 R12 on V^(x)3."""
    n = _tensor_dim(rmat)
    r12 = _lift(rmat, n, 3, 0)
    r23 = _lift(rmat, n, 3, 1)
    # R13 acts on positions 0 and 2
    dim = n ** 3
    r13 = [[F0] * dim for _ in range(dim)]
    for i, j in product(range(n), repeat=2):
        for k, l in product(range(n), repeat=2):
            v = rmat.data[n * k + l][n * i + j]
            if v:
                for y in range(n):
                    r13[(k * n + y) * n + l][(i * n + y) * n + j] = v
    r13 = RationalMatrix(r13)
    return r12.mul(r13).mul(r23) == r23.mul(r13).mul(r12)


def check_idempotent(psi):
    return psi.mul(psi) == psi


def _tensor_dim(mat):
    if mat.rows != mat.cols:
        raise ShapeMismatch("matrix is not square")
    n = round(mat.rows ** 0.5)
    if n * n != mat.rows:
        raise ShapeMismatch("dimension is not a perfect square")
    return n


def braided_factorial(psi, m, sign=1):
    """[m, +-Psi]! = [m, +-Psi] ([m-1, +-Psi]! (x) id) with
    [m, Phi] = id + Phi_{m-1} + Phi_{m-2} Phi_{m-1} + ... + Phi_1...Phi_{m-1}."""
    n = _tensor_dim(psi)
    if n > 4 or m > 4:
        raise SizeTooLarge("tensor powers limited to 4^4")
    phi = psi if sign > 0 else psi.scale(-1)

    def bracket(k):
        # operator [k, phi] on V^(x)k
        dim = n ** k
        total = RationalMatrix.identity(dim)
        term = RationalMatrix.identity(dim)
        for i in range(k - 1, 0, -1):
            term = _lift(phi, n, k, i - 1).mul(term)
            total = total.add(term)
        return total

    fact = RationalMatrix.identity(n)
    for k in range(2, m + 1):
        prev = fact.kron(RationalMatrix.identity(n))
        fact = bracket(k).mul(prev)
    return fact if m > 1 else RationalMatrix.identity(n)


def nichols_quadratic_check(psi, m):
    """ker [m, -Psi]! equals the degree-m component of the ideal generated
    by image(Psi); exact subspace equality by rank."""
    n = _tensor_dim(psi)
    if n > 4 or m > 4:
        raise SizeTooLarge("tensor powers limited to 4^4")
    if not check_idempotent(psi):
        raise NotIdempotent("quadraticity holds for idempotent Psi")
    fact = braided_factorial(psi, m, sign=-1)
    kernel = RationalMatrix(fact.nullspace_basis() or [], cols=n ** m)

    image = span_matrix(psi.transpose())  # rows span image(Psi) in V (x) V
    vecs = []
    for pos in range(m - 1):
        left = n ** pos
        right = n ** (m - pos - 2)
        for row in image.data:
            for a in range(left):
                for b in range(right):
                    v = [F0] * (n ** m)
                    for ij, c in enumerate(row):
                        if c:
                            v[(a * n * n + ij) * right + b] = c
                    vecs.append(v)
    ideal = RationalMatrix(vecs or [], cols=n ** m)
    return subspace_equal(span_matrix(kernel), span_matrix(ideal))


def frt_relations(rmat):
    """FRT bialgebra relations on generators t^i_j:
    sum_ab R^i_a{}^k_b t^a_j t^b_l - sum_ab t^k_b t^i_a R^a_j{}^b_l,
    over all (i, j, k, l); deduplicated and made monic."""
    n = _tensor_dim(rmat)

    def R(up1, lo1, up2, lo2):
        return rmat.data[n * up1 + up2][n * lo1 + lo2]

    rels = []
    for i, j, k, l in product(range(n), repeat=4):
        p = {}
        for a, b in product(range(n), repeat=2):
            c = R(i, a, k, b)
            if c:
                key = ((a, j), (b, l))
                p[key] = p.get(key, F0) + c
            c = R(a, j, b, l)
            if c:
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

    def R(up1, lo1, up2, lo2):
        return rmat.data[n * up1 + up2][n * lo1 + lo2]

    rels = []
    for i, j, k, l in product(range(n), repeat=4):
        p = {}
        for a, b, c, d in product(range(n), repeat=4):
            v = R(k, a, i, b) * R(c, j, a, d)
            if v:
                key = ((b, c), (d, l))
                p[key] = p.get(key, F0) + v
            v = R(a, b, i, c) * R(d, j, b, l)
            if v:
                key = ((k, a), (c, d))
                p[key] = p.get(key, F0) - v
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


def flip_matrix(n):
    """The dense flip P: column (i, j) is the unit vector of (j, i)."""
    p = RationalMatrix.zeros(n * n, n * n)
    for i, j in product(range(n), repeat=2):
        p.data[n * j + i][n * i + j] = F1
    return p


def linearize(qs):
    """The dense braiding Psi of a quadratic set: column (i, j) is the unit
    vector of r(i, j)."""
    n = qs.n
    psi = [[F0] * (n * n) for _ in range(n * n)]
    for i, j in product(range(n), repeat=2):
        k, l = qs.r(i, j)
        psi[n * k + l][n * i + j] = F1
    return RationalMatrix(psi)


def segre_mixed_relations(qsX, qsY):
    """Row-space basis of sigma_23(R_A (x) W (x) W + V (x) V (x) R_B), R_A and
    R_B the row spaces of id - Psi, built from dense vectors."""
    n, m = qsX.n, qsY.n
    nm = n * m
    relX = RationalMatrix.identity(n * n).sub(linearize(qsX)).row_space_basis()
    relY = RationalMatrix.identity(m * m).sub(linearize(qsY)).row_space_basis()
    vecs = []

    # sigma_23 sends (i (x) a) (x) (j (x) b) to component order (i, j, a, b)
    def s23_vector(xij, yab):
        v = [Fraction(0)] * (nm * nm)
        for (i, j), c1 in xij.items():
            for (a, b), c2 in yab.items():
                v[(i * m + a) * nm + (j * m + b)] = c1 * c2
        return v

    def pair_dicts(mat, size):
        return [{(p // size, p % size): c for p, c in enumerate(row) if c}
                for row in mat.data]

    unitY = [{(a, b): Fraction(1)} for a in range(m) for b in range(m)]
    unitX = [{(i, j): Fraction(1)} for i in range(n) for j in range(n)]
    for row in pair_dicts(relX, n):
        for w in unitY:
            vecs.append(s23_vector(row, w))
    for w in unitX:
        for row in pair_dicts(relY, m):
            vecs.append(s23_vector(w, row))
    return RationalMatrix(vecs, cols=nm * nm).row_space_basis()


def nichols_exterior(rmat):
    """The wedge rules, mixed rules and d-theta relations of the exterior
    calculus, read from the dense R and its dense delta = id - P R."""
    n = _tensor_dim(rmat)

    def R(up1, lo1, up2, lo2):
        return rmat.data[n * up1 + up2][n * lo1 + lo2]

    wedge = {}
    mixed = {}
    for i in range(n):
        for j in range(n):
            terms = {}
            for a in range(n):
                for b in range(n):
                    c = R(a, i, b, j)
                    if c:
                        terms[(b, a)] = terms.get((b, a), F0) + c
            wedge[(i, j)] = dict(terms)
            mixed[(i, j)] = {k: -v for k, v in terms.items()}

    dim = n * n
    delta = [[F0] * dim for _ in range(dim)]
    for (i, j), terms in wedge.items():
        col = n * i + j
        delta[col][col] += F1
        for (b, a), c in terms.items():
            delta[n * b + a][col] -= c
    return {"wedge_rules": wedge, "mixed_rules": mixed,
            "dtheta_relations": RationalMatrix(delta).transpose().row_space_basis()}


# ------------------------------ the sparse kernel-membership check linr replaced
#
# ybx.linr decides quadraticity by reading [m, -Psi]! as columns against
# image(Psi).  The check below is the sparse one it replaced: it row-reduces
# all n^m rows of the factorial to a kernel basis and reduces each generator
# of I_m against it.  It reaches the 4,096 dimensions of linr's tensor bound,
# past the dense oracle's 4^4.  It builds the factorial with linr._factorial,
# whose rows tests compare with the dense braided_factorial above.


def sparse_lift(rows, n, m, pos):
    """The rows of an operator on V (x) V, given by its rows, acting at
    tensor positions (pos, pos+1) of V^(x)m, n = dim V."""
    nn = n * n
    right = n ** (m - pos - 2)
    out = []
    for row in range(n ** m):
        a, rest = divmod(row, nn * right)
        ij, b = divmod(rest, right)
        base = a * nn * right + b
        out.append({base + kl * right: v for kl, v in rows[ij].items()})
    return out


def sparse_kernel(rows, width):
    """Basis of {v : row . v = 0 for every row}, keyed by the non-pivot
    columns in order: vector c is 1 at c and 0 at every other free column."""
    red, pivots = elim.rref(rows)
    free = sorted(set(range(width)) - set(pivots))
    return {fc: {fc: 1, **{p: -row[fc] for p, row in zip(pivots, red) if fc in row}}
            for fc in free}


def kernel_nichols_quadratic_check(psi, m):
    """ker A = I_m, the degree-m part of the ideal of image(Psi), A = [m, -Psi]!,
    iff I_m lies in ker A: A is id plus signed nonempty products of the Psi_i,
    each with image in I_m, so A v = 0 gives v = (id - A) v in I_m always."""
    n = linr._tensor_dim(psi, m)
    linr.require_idempotent(psi, "quadraticity")
    kernel = sparse_kernel(linr._factorial(psi.vecs, n, m, -1), n ** m)
    # V^(x)pos (x) image(Psi) (x) V^(x)(m-pos-2): the rows of Psi^T lifted to pos
    image = linr._transpose(psi.vecs, psi.cols)
    ideal = [v for pos in range(m - 1) for v in sparse_lift(image, n, m, pos)]
    # v is in the kernel iff v - sum of v[c] kernel[c] over free columns c is 0
    for v in ideal:
        rest = dict(v)
        for c in kernel.keys() & v.keys():
            elim.add_to(rest, -v[c], kernel[c])
        if rest:
            return False
    return True


# The sparse FRT and braided-matrix relations that linr's loops on monomial
# codes replaced: tuple-keyed polynomials over the n^4 quadruples, the
# braided-matrix loop scanning every nonzero with up2 = i in its second half.


def _sparse_index(rmat, *groupings):
    """Per tuple of slots in groupings, the nonzero R^up1_lo1{}^up2_lo2 as
    (up1, lo1, up2, lo2, value) grouped at those slots."""
    n = linr._tensor_dim(rmat)
    index = [{} for _ in groupings]
    for r, row in enumerate(rmat.vecs):
        for c, v in row.items():
            e = (r // n, c // n, r % n, c % n, v)
            for slots, out in zip(groupings, index):
                out.setdefault(tuple(e[s] for s in slots), []).append(e)
    return product(range(n), repeat=4), index


def sparse_frt_relations(rmat):
    quadruples, (by_up, by_lo) = _sparse_index(rmat, (0, 2), (1, 3))
    rels = []
    for i, j, k, l in quadruples:
        p = {}
        for _, a, _, b, c in by_up.get((i, k), ()):
            key = ((a, j), (b, l))
            p[key] = p.get(key, 0) + c
        for a, _, b, _, c in by_lo.get((j, l), ()):
            key = ((k, b), (i, a))
            p[key] = p.get(key, 0) - c
        rels.append(p)
    return sparse_dedupe(rels)


def sparse_braided_matrix_relations(rmat):
    quadruples, (by_up, by_lo1_up2, by_up2, by_lo1_up2_lo2) = _sparse_index(
        rmat, (0, 2), (1, 2), (2,), (1, 2, 3))
    rels = []
    for i, j, k, l in quadruples:
        p = {}
        for _, a, _, b, v1 in by_up.get((k, i), ()):
            for c, _, _, d, v2 in by_lo1_up2.get((j, a), ()):
                key = ((b, c), (d, l))
                p[key] = p.get(key, 0) + v1 * v2
        for a, b, _, c, v1 in by_up2.get((i,), ()):
            for d, _, _, _, v2 in by_lo1_up2_lo2.get((j, b, l), ()):
                key = ((k, a), (c, d))
                p[key] = p.get(key, 0) - v1 * v2
        rels.append(p)
    return sparse_dedupe(rels)


def sparse_dedupe(rels):
    """Each nonzero tuple-keyed polynomial, zero terms dropped, made monic at
    its deg-lex leading monomial; duplicates, found on exact values, dropped
    in order."""
    seen = set()
    out = []
    for p in rels:
        p = {k: v for k, v in p.items() if v}
        if not p:
            continue
        c = p[max(p)]
        inv = c if c in (1, -1) else F1 / c
        q = tuple(sorted((k, v * inv) for k, v in p.items()))
        if q not in seen:
            seen.add(q)
            out.append({k: Fraction(v) for k, v in q})
    return out


def pretty_tu(p, letter):
    """A relation on generators letter^i_j as ybx linear prints it, read from
    abs, comparison and str on Fractions."""
    parts = []
    for (up, lo), c in sorted(p.items()):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag}*"
        parts.append(f"{sign} {coeff}{letter}^{up[0] + 1}_{up[1] + 1}"
                     f".{letter}^{lo[0] + 1}_{lo[1] + 1}")
    return " ".join(parts).lstrip("+ ")
