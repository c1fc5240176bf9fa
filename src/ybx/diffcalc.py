"""First-order differential calculi from algebra maps into matrices.

A calculus on a quadratic algebra A is built from matrices rho^j of
elements of A, one per generator, subject to two conditions: for every
defining relation sum r_ij x_i x_j = 0,

  rho1:  sum r_ij rho^i rho^j = 0   (matrix identity over A),
  rho2:  sum r_ij (rho^j[i][k] + x_i delta_jk) = 0 for every k.

Then Omega^1 is free as a left module on dx_1..dx_n with bimodule rule
dx_i . x_j = sum_k rho^j[i][k] dx_k, and d extends by the Leibniz rule.

One-forms are lists of n polynomial coefficients, kept in normal form.
"""

from fractions import Fraction

from . import elim
from .errors import CheckFailed, InsufficientDegree
from .ncgb import complete, normal_form, normal_words, poly_add, poly_scale
from .linr import (RationalMatrix, psi_from_r, require_idempotent, splus_relations,
                   subspace_equal, _tensor_dim)

F0 = Fraction(0)
F1 = Fraction(1)


class RhoMap:
    """The matrices rho^j, entries reduced to normal form over gb."""

    def __init__(self, n, matrices, gb):
        self.n = n
        self.gb = gb
        self.rho = [[[normal_form(dict(entry), gb) for entry in row]
                     for row in matrices[j]] for j in range(n)]

    def entry(self, j, i, k):
        return self.rho[j][i][k]


def _poly_mul(p, q):
    out = {}
    for u, cu in p.items():
        for v, cv in q.items():
            w = u + v
            out[w] = out.get(w, F0) + cu * cv
    return {w: c for w, c in out.items() if c}


def _mat_mul(A, B, n, gb):
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            acc = {}
            for t in range(n):
                acc = poly_add(acc, _poly_mul(A[i][t], B[t][k]))
            out[i][k] = normal_form(acc, gb)
    return out


def check_rho_map(gb, rho, relations, D):
    """Verify rho1 and rho2 for each defining relation.

    relations: list of quadratic NcPolynomials {(i, j): coeff}.
    Returns a report dict; "ok" is True when both conditions hold.
    """
    gb.require_degree(D, "the rho conditions")
    n = rho.n
    for j in range(n):
        for row in rho.rho[j]:
            for entry in row:
                if any(len(w) > D - 2 for w in entry):
                    raise InsufficientDegree("rho entries exceed degree D-2")

    for rel in relations:
        # rho1: sum r_ij rho^i rho^j = 0
        acc = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j), c in rel.items():
            prod = _mat_mul(rho.rho[i], rho.rho[j], n, gb)
            for a in range(n):
                for b in range(n):
                    acc[a][b] = poly_add(acc[a][b], prod[a][b], c)
        for a in range(n):
            for b in range(n):
                if normal_form(acc[a][b], gb):
                    return {"ok": False, "condition": "rho1",
                            "relation": rel, "entry": (a, b)}
        # rho2: sum r_ij (rho^j[i][k] + x_i delta_jk) = 0 for each k
        for k in range(n):
            acc2 = {}
            for (i, j), c in rel.items():
                acc2 = poly_add(acc2, rho.entry(j, i, k), c)
                if j == k:
                    acc2 = poly_add(acc2, {(i,): F1}, c)
            if normal_form(acc2, gb):
                return {"ok": False, "condition": "rho2",
                        "relation": rel, "k": k}
    return {"ok": True}


def zero_form(n):
    return [{} for _ in range(n)]


def form_add(a, b, scale=F1):
    return [poly_add(x, y, scale) for x, y in zip(a, b)]


def form_is_zero(form):
    return all(not p for p in form)


def right_multiply(form, word, rho, gb):
    """Apply the bimodule rule letter by letter from the right."""
    n = rho.n
    for j in word:
        out = zero_form(n)
        for i in range(n):
            if form[i]:
                for k in range(n):
                    entry = rho.entry(j, i, k)
                    if entry:
                        out[k] = poly_add(out[k], _poly_mul(form[i], entry))
        form = [normal_form(p, gb) for p in out]
    return form


def differential(p, rho, gb):
    """d of a polynomial (given in normal form), as a one-form."""
    if isinstance(p, tuple):
        p = {p: F1}
    n = rho.n
    total = zero_form(n)
    for word, c in p.items():
        form = zero_form(n)
        prefix = ()
        for letter in word:
            form = right_multiply(form, (letter,), rho, gb)
            form[letter] = poly_add(form[letter],
                                    normal_form({prefix: F1}, gb))
            prefix = prefix + (letter,)
        total = form_add(total, form, c)
    return [normal_form(q, gb) for q in total]


def annihilator_check(rho, gb, D):
    """(dx - dy) . a = 0 for all normal words a of degree 2..D (n = 2)."""
    form = [{(): F1}, {(): -F1}]
    for d in range(2, D + 1):
        for a in normal_words(gb, d):
            if not form_is_zero(right_multiply(form, a, rho, gb)):
                return False
    return True


def connectedness_check(rho, gb, D):
    """ker d contains no nonzero combination of words of degree 1..D."""
    for d in range(1, D + 1):
        # one row per word: its differential, coordinates numbered as met
        index = {}
        rows = [{index.setdefault((slot, w), len(index)): c
                 for slot, p in enumerate(differential(word, rho, gb))
                 for w, c in p.items()}
                for word in normal_words(gb, d)]
        if not index or RationalMatrix(rows, cols=len(index)).rank() < len(rows):
            return False
    return True


def no_degree_lowering_derivations(relations, n):
    """For quadratic relations, solve D(x_i) = alpha_i in k with
    D(uv) = D(u)v + u D(v) vanishing on every relation; returns True when
    only the zero map survives."""
    rows = []
    for rel in relations:
        for t in range(n):
            row = {}
            for (i, j), c in rel.items():
                if j == t:
                    row[i] = row.get(i, 0) + c
                if i == t:
                    row[j] = row.get(j, 0) + c
            rows.append(row)
    return RationalMatrix(rows, cols=n).rank() == n


def nichols_exterior(rmat):
    """Generators and relations of the exterior calculus on the quadratic
    Nichols algebra of an idempotent braiding.

    Returns a dict with the theta relations (monomial pairs), the wedge
    rewriting rules, the mixed bimodule rules, and the relation space of
    the d-theta subalgebra, checked to equal the S_+(R) relations
    (CheckFailed otherwise).
    """
    n = _tensor_dim(rmat)
    psi = psi_from_r(rmat)
    require_idempotent(psi, "the exterior construction")

    # each pair (i, j) contributes the first output pair of its Psi column
    theta = sorted({divmod(min(col), n) for col in psi.transpose().vecs})
    # wedge[(i, j)] holds R^a_i{}^b_j at (b, a), read off the rows of R
    wedge = {(i, j): {} for i in range(n) for j in range(n)}
    for ab, row in enumerate(rmat.vecs):
        for ij, c in row.items():
            wedge[divmod(ij, n)][divmod(ab, n)[::-1]] = Fraction(c)
    mixed = {ij: {k: -v for k, v in terms.items()} for ij, terms in wedge.items()}

    # the d-theta subalgebra relations coincide with those of S_+(R)
    vecs = []
    for (i, j), terms in wedge.items():
        vec = {n * i + j: 1}
        elim.add_to(vec, -1, {n * b + a: c for (b, a), c in terms.items()})
        vecs.append(vec)
    dtheta_rels = RationalMatrix(vecs, cols=n * n).row_space_basis()
    if not subspace_equal(dtheta_rels, splus_relations(rmat)):
        raise CheckFailed("the d-theta relations differ from those of S_+(R)")

    return {"theta_relations": theta, "wedge_rules": wedge,
            "mixed_rules": mixed, "dtheta_relations": dtheta_rels}


def make_rho_family(alpha, beta, lam, mu):
    """The two-generator family over A = k<x, y> / (yx - x^2, y^2 - xy).

    Parameters pick the degree-1 elements e, f, g, h:
      e = alpha x + (1-alpha) y,   f = lam x + (1-lam) y,
      g = mu x + (1-mu) y,         h = beta x + (1-beta) y,
    and the matrices are rho^x = [[e, f], [e+z, f]] with z = x - y,
    rho^y = [[g, h+y-x], [g, h]].

    Returns (gb, rho, relations); the symmetric point is
    alpha = lam = 1, beta = mu = 0 (e = f = x, g = h = y).
    """
    alpha, beta, lam, mu = (Fraction(v) for v in (alpha, beta, lam, mu))
    x, y = (0,), (1,)
    relations = [{(1, 0): F1, (0, 0): -F1},     # yx = x^2
                 {(1, 1): F1, (0, 1): -F1}]     # y^2 = xy
    gb = complete(relations, 8, alphabet=2)

    def lin(cx, cy):
        return {w: c for w, c in ((x, cx), (y, cy)) if c}

    e = lin(alpha, 1 - alpha)
    f = lin(lam, 1 - lam)
    g = lin(mu, 1 - mu)
    h = lin(beta, 1 - beta)
    z = lin(F1, -F1)
    rho_x = [[e, f], [poly_add(e, z), f]]
    rho_y = [[g, poly_add(h, poly_scale(z, -F1))], [g, h]]
    rho = RhoMap(2, [rho_x, rho_y], gb)
    return gb, rho, relations


def calcsym():
    """The symmetric example: e = f = x, g = h = y."""
    return make_rho_family(1, 0, 1, 0)
