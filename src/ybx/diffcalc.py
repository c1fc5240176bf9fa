"""First-order differential calculi from algebra maps into matrices.

A calculus on a quadratic algebra A is built from matrices rho^j of
elements of A, one per generator, subject to two conditions: for every
defining relation sum r_ij x_i x_j = 0,

  rho1:  sum r_ij rho^i rho^j = 0   (matrix identity over A),
  rho2:  sum r_ij (rho^j[i][k] + x_i delta_jk) = 0 for every k.

Then Omega^1 is free as a left module on dx_1..dx_n with bimodule rule
dx_i . x_j = sum_k rho^j[i][k] dx_k, and d extends by the Leibniz rule.

A one-form is a 1 x n matrix of polynomials in normal form, so one
matrix product over A serves both rho^i rho^j and the bimodule rule.
"""

from fractions import Fraction
from functools import reduce

from . import elim
from .errors import CheckFailed, InsufficientDegree, InvalidArgument
from .ncgb import complete, normal_form, normal_words, poly_add, poly_scale
from .linr import (RationalMatrix, psi_from_r, require_idempotent, splus_relations,
                   subspace_equal, _tensor_dim)

F0 = Fraction(0)
F1 = Fraction(1)


class RhoMap:
    """The matrices rho^j, entries reduced to normal form over gb."""

    def __init__(self, n, matrices, gb):
        self.n = n
        self.rho = [[[normal_form(dict(entry), gb) for entry in row]
                     for row in matrices[j]] for j in range(n)]


def _poly_mul(p, q):
    out = {}
    for u, cu in p.items():
        for v, cv in q.items():
            w = u + v
            out[w] = out.get(w, F0) + cu * cv
    return {w: c for w, c in out.items() if c}


def _mat_mul(A, B, gb):
    """The product of two matrices over A, each a list of rows of
    polynomials, of any compatible shapes; entries come out in normal form."""
    cols = list(zip(*B))
    return [[normal_form(reduce(poly_add, map(_poly_mul, row, col), {}), gb)
             for col in cols] for row in A]


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
        # rho1: sum r_ij rho^i rho^j = 0; a sum of normal forms is one
        acc = [zero_form(n) for _ in range(n)]
        for (i, j), c in rel.items():
            prod = _mat_mul(rho.rho[i], rho.rho[j], gb)
            acc = [form_add(a, p, c) for a, p in zip(acc, prod)]
        for a in range(n):
            for b in range(n):
                if acc[a][b]:
                    return {"ok": False, "condition": "rho1",
                            "relation": rel, "entry": (a, b)}
        # rho2: sum r_ij (rho^j[i][k] + x_i delta_jk) = 0 for each k; the
        # entries of rho are reduced by the basis rho was built with
        for k in range(n):
            acc2 = {}
            for (i, j), c in rel.items():
                acc2 = poly_add(acc2, rho.rho[j][i][k], c)
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
    """Apply the bimodule rule letter by letter from the right: a one-form
    is a 1 x n matrix, and multiplying it by x_j is multiplying by rho^j."""
    for j in word:
        (form,) = _mat_mul([form], rho.rho[j], gb)
    return form


def _step(form, word, rho, gb):
    """d(w x) = d(w).x + w dx for word = w x, from form = d(w)."""
    form = right_multiply(form, word[-1:], rho, gb)
    form[word[-1]] = poly_add(form[word[-1]], normal_form(word[:-1], gb))
    return form


def differential(p, rho, gb):
    """d of a polynomial (given in normal form), as a one-form."""
    if isinstance(p, tuple):
        p = {p: F1}
    total = zero_form(rho.n)
    for word, c in p.items():
        form = zero_form(rho.n)
        for k in range(1, len(word) + 1):
            form = _step(form, word[:k], rho, gb)
        total = form_add(total, form, c)
    # total is already reduced; this pass puts its words in normal_form's order
    return [normal_form(q, gb) for q in total]


def annihilator_check(rho, gb, D):
    """(dx - dy) . a = 0 for all normal words a of degree 2..D (n = 2);
    normal words are prefix-closed, so (dx - dy) . wx = ((dx - dy) . w) . x."""
    if rho.n != 2:
        raise InvalidArgument(f"the annihilator check needs n = 2, not {rho.n}")
    forms = {(): [{(): F1}, {(): -F1}]}
    for d in range(1, D + 1):
        forms = {w: right_multiply(forms[w[:-1]], w[-1:], rho, gb)
                 for w in normal_words(gb, d)}
        if d >= 2 and not all(map(form_is_zero, forms.values())):
            return False
    return True


def connectedness_check(rho, gb, D):
    """ker d contains no nonzero combination of words of degree 1..D."""
    forms = {(): zero_form(rho.n)}
    for d in range(1, D + 1):
        # d of each normal word from d of its prefix, a normal word too
        forms = {w: _step(forms[w[:-1]], w, rho, gb)
                 for w in normal_words(gb, d)}
        # one row per word: its differential, coordinates numbered as met
        index = {}
        rows = [{index.setdefault((slot, w), len(index)): c
                 for slot, p in enumerate(form) for w, c in p.items()}
                for form in forms.values()]
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

    Returns a dict with the theta relations (monomial pairs; InvalidArgument
    unless pairs span image(Psi)), the wedge rewriting rules, the mixed
    bimodule rules, and the relation space of the d-theta subalgebra,
    checked to equal the S_+(R) relations (CheckFailed otherwise).
    """
    n = _tensor_dim(rmat)
    psi = psi_from_r(rmat)
    require_idempotent(psi, "the exterior construction")

    # theta_a theta_b = 0 for each pair (a, b) in the reduced basis of image(Psi)
    image = psi.transpose().row_space_basis().vecs
    if any(len(row) != 1 for row in image):
        raise InvalidArgument("the theta relations need image(Psi) spanned by pairs")
    theta = sorted(divmod(c, n) for row in image for c in row)
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
