"""The differential calculus code that ybx.diffcalc replaced, kept verbatim
as an oracle.

right_multiply runs its own i/k loop over the entries of rho^j, and
differential and both checks rebuild every word's value from the empty
word, one letter at a time.  RhoMap is the old class, with its unused gb
and its entry accessor; build one from the same matrices as the
ybx.diffcalc.RhoMap under test.
"""

from fractions import Fraction

from ybx.errors import InsufficientDegree
from ybx.linr import RationalMatrix
from ybx.ncgb import normal_form, normal_words, poly_add

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
