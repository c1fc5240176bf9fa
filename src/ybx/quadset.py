"""Finite quadratic sets (X, r).

A quadratic set is a finite set X = {x_1, ..., x_n} together with a map
r on ordered pairs, written r(x, y) = (x|>y, x<|y).  The left component
defines a family of left actions L_x, the right component right actions
R_y.  Indices are 0-based internally; all 1-based conversion happens at
the text boundary (cli module).  A solution is the pair (n, r_table) and
nothing more: both actions are read off r_table.

The map r is not assumed bijective.
"""

from collections import namedtuple
from functools import cache
from itertools import permutations, product
from math import factorial

from .errors import (IndexOutOfRange, InvalidArgument, MissingPair, NotABijection,
                     NotBraided, NotIdempotent, NotLeftNondegenerate, SizeTooLarge)

# the properties a construction may require: the error each raises, and its wording
REQUIREMENTS = {"braided": (NotBraided, "a braided set"),
                "idempotent": (NotIdempotent, "an idempotent set"),
                "left_nondegenerate": (NotLeftNondegenerate, "a left-nondegenerate set")}

# the most points a solution file or a built Veronese solution has: 65,536 table entries
MAX_SIZE = 256


# a solution (X, r), immutable: r_table holds the n*n pairs r(x_i, x_j) at i*n+j, 0-based
class QuadraticSet(namedtuple("QuadraticSet", "n r_table")):
    __slots__ = ()

    def __new__(cls, n, r_table):
        r_table = tuple(map(tuple, r_table))
        if len(r_table) != n * n:
            raise MissingPair(f"expected {n * n} entries, got {len(r_table)}")
        for k, l in r_table:
            if not (0 <= k < n and 0 <= l < n):
                raise IndexOutOfRange(f"image ({k}, {l}) out of range for n={n}")
        return tuple.__new__(cls, (n, r_table))

    def r(self, i, j):
        return self.r_table[i * self.n + j]


def make_permutation_solution(f):
    """The solution r_f(x, y) = (f(y), y) for a permutation f, 0-based."""
    n = len(f)
    if sorted(f) != list(range(n)):
        raise NotABijection(f"{f} is not a permutation of 0..{n - 1}")
    return QuadraticSet(n, [(f[j], j) for i in range(n) for j in range(n)])


def make_named(kind, n):
    if n < 1:
        raise IndexOutOfRange("n must be positive")
    if kind == "identity":
        return QuadraticSet(n, [(i, j) for i in range(n) for j in range(n)])
    if kind == "flip":
        return QuadraticSet(n, [(j, i) for i in range(n) for j in range(n)])
    raise InvalidArgument(f"unknown named solution {kind!r}")


def _braid_wait(table, n, p, t):
    """The first unassigned cell (from p on) that r12 r23 r12 = r23 r12 r23
    reads in table on the triple t = (x, y, z), else -1 if it holds, -2 if not."""
    x, y, z = t
    # r(x, y) = ab, r(b, z) = cd, r(a, c) = ef; r(y, z) = cd2, r(x, c2) = ab2,
    # r(b2, d2) = ef2; it holds when (e, f, d) = (a2, e2, f2)
    if (u := x * n + y) >= p:
        return u
    a, b = table[u]
    if (u := b * n + z) >= p:
        return u
    c, d = table[u]
    if (u := a * n + c) >= p:
        return u
    e, f = table[u]
    if (u := y * n + z) >= p:
        return u
    c2, d2 = table[u]
    if (u := x * n + c2) >= p:
        return u
    a2, b2 = table[u]
    if (u := b2 * n + d2) >= p:
        return u
    return -1 if e == a2 and (f, d) == table[u] else -2


def _wake(bucket, table, n, p, wait):
    """Check bucket's braid triples on table, assigned before p, and append each
    that still waits to the bucket of its cell.  Returns the buckets appended to,
    or None, with those appends undone, once a triple fails."""
    moved = []
    for t in bucket:
        w = _braid_wait(table, n, p, t)
        if w == -2:
            for w in moved:
                wait[w].pop()
            return None
        if w >= 0:
            wait[w].append(t)
            moved.append(w)
    return moved


def _braided(t, n):
    """r12 r23 r12 = r23 r12 r23 on all n^3 triples, read as _braid_wait reads them."""
    for x in range(n):
        xn = x * n
        for y in range(n):
            a, b = t[xn + y]
            an, bn, yn = a * n, b * n, y * n
            for z in range(n):
                c, d = t[bn + z]
                e, f = t[an + c]
                c2, d2 = t[yn + z]
                a2, b2 = t[xn + c2]
                if e != a2 or (f, d) != t[b2 * n + d2]:
                    return False
    return True


# one exhaustive test per property of an r_table t of n*n pairs, for
# check_properties and require_properties
PROPERTY_TESTS = {
    # r(r(x, y)) = (x, y), and r(r(x, y)) = r(x, y)
    "involutive": lambda t, n: all(t[k * n + l] == ij for ij, (k, l)
                                   in zip(product(range(n), repeat=2), t)),
    "idempotent": lambda t, n: all(t[k * n + l] == (k, l) for k, l in t),
    "braided": _braided,
    # each row has n distinct left images, each column n distinct right
    # images, each row n distinct image pairs
    "left_nondegenerate":
        lambda t, n: len({(p // n, kl[0]) for p, kl in enumerate(t)}) == n * n,
    "right_nondegenerate":
        lambda t, n: len({(p % n, kl[1]) for p, kl in enumerate(t)}) == n * n,
    "left_2_cancellative":
        lambda t, n: len({(p // n, kl) for p, kl in enumerate(t)}) == n * n,
}
PROPERTY_NAMES = tuple(PROPERTY_TESTS)
# one verdict per property, in PROPERTY_NAMES order
PropertyReport = namedtuple("PropertyReport", PROPERTY_TESTS)


def check_properties(qs):
    """Exhaustive property check over all pairs/triples."""
    return PropertyReport._make(test(qs.r_table, qs.n) for test in PROPERTY_TESTS.values())


def require_properties(qs, what, *names):
    """Raise the error of the first named property that qs lacks, worded
    "{what} needs ...", running only the named tests, in order."""
    for name in names:
        if not PROPERTY_TESTS[name](qs.r_table, qs.n):
            error, noun = REQUIREMENTS[name]
            raise error(f"{what} needs {noun}")


def cartesian_product(a, b):
    """The product solution r*s on X x Y, pairs ordered lexicographically.

    z_{ia} = (x_i, y_a) gets index i*m + a; both components act in parallel.
    """
    n, m = a.n, b.n
    # the rows of a and b that row (i, ai) of the product pairs up, cell by cell
    rows = [(a.r_table[i * n:i * n + n], b.r_table[ai * m:ai * m + m])
            for i, ai in product(range(n), range(m))]
    return QuadraticSet(n * m, [(k * m + u, l * m + v) for row_a, row_b in rows
                                for (k, l), (u, v) in product(row_a, row_b)])


def _sources(sigma):
    """Entry p of a table relabeled by sigma is sigma applied to entry
    _sources(sigma)[p] of the table."""
    n = len(sigma)
    inv = [0] * n
    for i, s in enumerate(sigma):
        inv[s] = i
    return [inv[i] * n + inv[j] for i in range(n) for j in range(n)]


def _relabeled(table, sigma):
    return tuple((sigma[table[s][0]], sigma[table[s][1]]) for s in _sources(sigma))


def relabel(qs, sigma):
    """The isomorphic solution with x_i renamed to x_{sigma(i)}."""
    return QuadraticSet(qs.n, _relabeled(qs.r_table, sigma))


def canonical_form(qs):
    """Lexicographically least r_table over all Sym(n) relabelings."""
    return min(_relabeled(qs.r_table, sigma) for sigma in permutations(range(qs.n)))


NODE_BUDGET = 200_000


@cache
def _frame(n):
    """enumerate_solutions' constants at n: the pairs; the values free under
    each bitmask of used ones; the braid triples, by the cell they read first;
    and the root's ties, each non-identity relabeling as (its action on the
    pair codes k*n + l, its sources, position 0)."""
    size = n * n
    return (tuple(divmod(q, n) for q in range(size)),
            tuple(tuple(v for v in range(n) if not m >> v & 1) for m in range(1 << n)),
            tuple(tuple((*divmod(c, n), z) for z in range(n)) for c in range(size)),
            tuple((tuple(s[q // n] * n + s[q % n] for q in range(size)), _sources(s), 0)
                  for s in permutations(range(n)))[1:])


def enumerate_solutions(n, predicate=()):
    """All r-tables on [1..n]^2 satisfying the property mask, up to relabeling.

    predicate is an iterable of property names that must all hold.  The
    result is the lex-least r_table of each class, in lex order.  The search
    is an orderly generation: pairs get images in lex order, and a partial
    table is dropped once a relabeling of it is lex-smaller, so only each
    class's least member is completed.  Each relabeling, an action on the
    pair codes k*n + l, goes down the search while tied with the table, with
    the position its comparison waits on.  A cell's candidates are its row's
    free left images times its column's free right images, under the mask's
    nondegeneracies; its other cheap constraints are checked cell by cell,
    and a braid triple waits on the first unassigned cell it reads
    (_braid_wait), checked again only once that cell is assigned (_wake), so a
    candidate whose cell no triple waits on does no undo bookkeeping.  Together
    they decide every property of the mask, so each completed table is kept,
    built once as the named tuple: its cells, taken from pairs, are in range.
    SizeTooLarge is raised at once when the root's n^3 braid triples or
    (n! - 1) * n^2 relabeled entries outnumber NODE_BUDGET (n >= 7), and
    else past NODE_BUDGET nodes (partial tables); a node's cost grows with n.
    """
    if n < 1:
        raise InvalidArgument(f"enumeration needs n >= 1, not {n}")
    mask = frozenset(predicate)
    unknown = mask - set(PROPERTY_NAMES)
    if unknown:
        raise InvalidArgument(f"unknown properties in mask: {sorted(unknown)}")
    if n ** 3 > NODE_BUDGET or (factorial(n) - 1) * n * n > NODE_BUDGET:
        raise SizeTooLarge(f"enumeration at n={n} starts from {n}! - 1 relabelings of "
                           f"{n * n} entries, over its budget of {NODE_BUDGET}")
    want_invol, want_idem, want_braid, want_lnd, want_rnd, want_l2c = (
        name in mask for name in PROPERTY_NAMES)

    pairs, free, triples, relabelings = _frame(n)
    size, lnd, rnd = n * n, ((1 << n) - 1) * want_lnd, ((1 << n) - 1) * want_rnd
    table, code = [None] * size, [0] * size  # cells from p on are unassigned
    # row i's left images, column j's right ones, as bits read under their nondegeneracy
    left_used, right_used = [0] * n, [0] * n
    wait = [list(b) for b in triples] if want_braid else [()] * size
    found, nodes = [], 0

    def extend(p, tied):
        nonlocal nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise SizeTooLarge(f"enumeration at n={n} visited {nodes} nodes, "
                               f"over its budget of {NODE_BUDGET}")
        still = []  # (action, sources, first undecided position); unread at a leaf
        for act, src, pos in tied:
            while pos < p and src[pos] < p:
                other, mine = act[code[src[pos]]], code[pos]
                if other != mine:
                    if other < mine:
                        return
                    break
                pos += 1
            else:
                still.append((act, src, pos))
        if p == size:
            found.append(QuadraticSet._make((n, tuple(table))))
            return
        i, j = pairs[p]
        # hit: an assigned cell maps to p, read by idempotent and involutive alone
        bucket, hit = wait[p], (want_idem or want_invol) and p in code[:p]
        for k in free[left_used[i] & lnd]:
            for l in free[right_used[j] & rnd]:
                q = k * n + l
                if (want_l2c and q in code[i * n:p]
                        # idempotent: r(r(p)) = r(p), every image is a fixed point
                        or want_idem and (q < p and code[q] != q or hit and q != p)
                        # involutive: r(r(p)) = p, so r is a bijection: an earlier cell q
                        # must map to p; for a later q, neither q nor p may be an image yet
                        or want_invol and (code[q] != p if q < p else hit or q in code[:p])):
                    continue
                table[p], code[p] = pairs[q], q
                moved = _wake(bucket, table, n, p + 1, wait) if bucket else ()
                if moved is None:
                    continue
                left_used[i] ^= 1 << k
                right_used[j] ^= 1 << l
                extend(p + 1, still)
                left_used[i] ^= 1 << k
                right_used[j] ^= 1 << l
                for w in moved:
                    wait[w].pop()

    extend(0, relabelings)
    return found
