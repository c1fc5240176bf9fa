"""Finite quadratic sets (X, r).

A quadratic set is a finite set X = {x_1, ..., x_n} together with a map
r on ordered pairs, written r(x, y) = (x|>y, x<|y).  The left component
defines a family of left actions L_x, the right component right actions
R_y.  Indices are 0-based internally; all 1-based conversion happens at
the text boundary (cli module).

The map r is not assumed bijective.
"""

from dataclasses import dataclass
from itertools import permutations, product

from .errors import (DuplicatePair, IndexOutOfRange, InvalidArgument, MissingPair,
                     NotABijection, SizeTooLarge)

PROPERTY_NAMES = ("involutive", "idempotent", "braided",
                  "left_nondegenerate", "right_nondegenerate",
                  "left_2_cancellative")


@dataclass(frozen=True)
class PropertyReport:
    involutive: bool
    idempotent: bool
    braided: bool
    left_nondegenerate: bool
    right_nondegenerate: bool
    left_2_cancellative: bool

    def as_dict(self):
        return {name: getattr(self, name) for name in PROPERTY_NAMES}


class QuadraticSet:
    """Immutable finite quadratic set with cached action tables."""

    __slots__ = ("n", "r_table", "left", "right")

    def __init__(self, n, r_table):
        # r_table: tuple of n*n pairs, entry i*n+j is r(x_i, x_j), 0-based
        self.n = n
        self.r_table = tuple(tuple(p) for p in r_table)
        if len(self.r_table) != n * n:
            raise MissingPair(f"expected {n * n} entries, got {len(self.r_table)}")
        for k, l in self.r_table:
            if not (0 <= k < n and 0 <= l < n):
                raise IndexOutOfRange(f"image ({k}, {l}) out of range for n={n}")
        self.left = tuple(tuple(self.r_table[i * n + j][0] for j in range(n))
                          for i in range(n))
        self.right = tuple(tuple(self.r_table[i * n + j][1] for j in range(n))
                           for i in range(n))

    def r(self, i, j):
        return self.r_table[i * self.n + j]

    def __eq__(self, other):
        return (isinstance(other, QuadraticSet)
                and self.n == other.n and self.r_table == other.r_table)

    def __hash__(self):
        return hash((self.n, self.r_table))

    def __repr__(self):
        return f"QuadraticSet(n={self.n}, r_table={self.r_table!r})"


def make_solution(n, entries):
    """Build a QuadraticSet from ((i,j),(k,l)) entries, 0-based."""
    if n < 1:
        raise IndexOutOfRange("n must be positive")
    table = {}
    for (i, j), (k, l) in entries:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"source pair ({i}, {j}) out of range")
        if (i, j) in table:
            raise DuplicatePair(f"pair ({i}, {j}) given twice")
        table[(i, j)] = (k, l)
    missing = [(i, j) for i in range(n) for j in range(n) if (i, j) not in table]
    if missing:
        raise MissingPair(f"no image for pair {missing[0]}")
    return QuadraticSet(n, [table[(i, j)] for i in range(n) for j in range(n)])


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
    raise ValueError(f"unknown named solution {kind!r}")


def _braided(qs):
    # r12 r23 r12 = r23 r12 r23 on all triples
    r = qs.r
    for x, y, z in product(range(qs.n), repeat=3):
        a, b = r(x, y)
        c, d = r(b, z)
        e, f = r(a, c)
        lhs = (e, f, d)
        c2, d2 = r(y, z)
        a2, b2 = r(x, c2)
        e2, f2 = r(b2, d2)
        rhs = (a2, e2, f2)
        if lhs != rhs:
            return False
    return True


def check_properties(qs):
    """Exhaustive property check over all pairs/triples."""
    n = qs.n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    idempotent = all(qs.r(*qs.r(i, j)) == qs.r(i, j) for i, j in pairs)
    involutive = all(qs.r(*qs.r(i, j)) == (i, j) for i, j in pairs)
    left_nondeg = all(sorted(row) == list(range(n)) for row in qs.left)
    right_nondeg = all(sorted(qs.right[i][j] for i in range(n)) == list(range(n))
                       for j in range(n))
    left_2_cancel = all(len({qs.r(i, j) for j in range(n)}) == n for i in range(n))
    return PropertyReport(
        involutive=involutive,
        idempotent=idempotent,
        braided=_braided(qs),
        left_nondegenerate=left_nondeg,
        right_nondegenerate=right_nondeg,
        left_2_cancellative=left_2_cancel,
    )


def cartesian_product(a, b):
    """The product solution r*s on X x Y, pairs ordered lexicographically.

    z_{ia} = (x_i, y_a) gets index i*m + a; both components act in parallel.
    """
    n, m = a.n, b.n
    table = []
    for i, ai in product(range(n), range(m)):
        for j, bj in product(range(n), range(m)):
            k, l = a.r(i, j)
            u, v = b.r(ai, bj)
            table.append((k * m + u, l * m + v))
    return QuadraticSet(n * m, table)


def relabel(qs, sigma):
    """The isomorphic solution with x_i renamed to x_{sigma(i)}."""
    n = qs.n
    inv = [0] * n
    for i, s in enumerate(sigma):
        inv[s] = i
    table = []
    for i in range(n):
        for j in range(n):
            k, l = qs.r(inv[i], inv[j])
            table.append((sigma[k], sigma[l]))
    return QuadraticSet(n, table)


def canonical_form(qs):
    """Lexicographically least r_table over all Sym(n) relabelings."""
    return min(relabel(qs, sigma).r_table for sigma in permutations(range(qs.n)))


def enumerate_solutions(n, predicate=()):
    """All r-tables on [1..n]^2 satisfying the property mask, up to relabeling.

    predicate is an iterable of property names that must all hold.  The
    search assigns r pair by pair with pruning for the cheap constraints
    and runs the full check on complete tables.
    """
    if n < 1:
        raise InvalidArgument(f"enumeration needs n >= 1, not {n}")
    if n > 3:
        raise SizeTooLarge("enumeration is limited to n <= 3")
    mask = frozenset(predicate)
    unknown = mask - set(PROPERTY_NAMES)
    if unknown:
        raise InvalidArgument(f"unknown properties in mask: {sorted(unknown)}")
    want_idem = "idempotent" in mask
    want_invol = "involutive" in mask
    want_lnd = "left_nondegenerate" in mask
    want_rnd = "right_nondegenerate" in mask

    pairs = [(i, j) for i in range(n) for j in range(n)]
    codomain = pairs
    table = {}
    found = []

    def consistent(p, q):
        # incremental checks only; full check_properties runs at the leaves
        if want_idem:
            # images of r must be fixed points: r(r(p)) = r(p)
            if q in table and table[q] != q:
                return False
            if q != p and any(v == p for v in table.values()):
                return False
        if want_invol:
            if q in table and table[q] != p:
                return False
            for p2, q2 in table.items():
                if q2 == p and p2 != p and q != p2:
                    return False
        if want_lnd:
            i = p[0]
            row = [table[(i, j)][0] for j in range(n) if (i, j) in table]
            if row.count(q[0]) > 1:
                return False
        if want_rnd:
            j = p[1]
            col = [table[(i, j)][1] for i in range(n) if (i, j) in table]
            if col.count(q[1]) > 1:
                return False
        return True

    def extend(idx):
        if idx == len(pairs):
            qs = QuadraticSet(n, [table[p] for p in pairs])
            rep = check_properties(qs).as_dict()
            if all(rep[name] for name in mask):
                found.append(qs)
            return
        p = pairs[idx]
        for q in codomain:
            table[p] = q
            if consistent(p, q):
                extend(idx + 1)
        del table[p]

    extend(0)

    seen = {}
    for qs in found:
        key = canonical_form(qs)
        if key not in seen:
            seen[key] = QuadraticSet(n, key)
    return [seen[key] for key in sorted(seen)]
