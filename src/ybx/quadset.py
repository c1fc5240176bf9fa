"""Finite quadratic sets (X, r).

A quadratic set is a finite set X = {x_1, ..., x_n} together with a map
r on ordered pairs, written r(x, y) = (x|>y, x<|y).  The left component
defines a family of left actions L_x, the right component right actions
R_y.  Indices are 0-based internally; all 1-based conversion happens at
the text boundary (cli module).  Action tables are built on first read.

The map r is not assumed bijective.
"""

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial

from .errors import (DuplicatePair, IndexOutOfRange, InvalidArgument, MissingPair,
                     NotABijection, NotBraided, NotIdempotent, NotLeftNondegenerate,
                     SizeTooLarge)

# the properties a construction may require: the error each raises, and its wording
REQUIREMENTS = {"braided": (NotBraided, "a braided set"),
                "idempotent": (NotIdempotent, "an idempotent set"),
                "left_nondegenerate": (NotLeftNondegenerate, "a left-nondegenerate set")}


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

    def require(self, what, *names):
        """Raise the error of the first named property that fails, worded
        "{what} needs ..."."""
        for name in names:
            if not getattr(self, name):
                error, noun = REQUIREMENTS[name]
                raise error(f"{what} needs {noun}")


class QuadraticSet:
    """Immutable finite quadratic set; its action tables are built on first read."""

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

    def __getattr__(self, name):
        # reached only while the slots are unset; later reads are plain slot reads
        if name not in ("left", "right"):
            raise AttributeError(f"'QuadraticSet' object has no attribute {name!r}")
        rows = [self.r_table[i * self.n:(i + 1) * self.n] for i in range(self.n)]
        self.left = tuple(tuple(k for k, _ in row) for row in rows)
        self.right = tuple(tuple(l for _, l in row) for row in rows)
        return getattr(self, name)

    def __reduce__(self):
        return QuadraticSet, (self.n, self.r_table)

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


def _braid_pending(table, n, triples):
    """The triples (x, y, z) on which r12 r23 r12 = r23 r12 r23 reads an
    unassigned (None) entry of table, or None if it fails on one of them."""
    pending = []
    for t in triples:
        x, y, z = t
        # r(x, y) = ab, r(b, z) = cd, r(a, c) = ef; r(y, z) = cd2, r(x, c2) = ab2,
        # r(b2, d2) = ef2; a None entry stays None through `and`
        ab, cd2 = table[x * n + y], table[y * n + z]
        cd, ab2 = ab and table[ab[1] * n + z], cd2 and table[x * n + cd2[0]]
        ef, ef2 = cd and table[ab[0] * n + cd[0]], ab2 and table[ab2[1] * n + cd2[1]]
        if ef is None or ef2 is None:
            pending.append(t)
        elif ef[0] != ab2[0] or ef[1] != ef2[0] or cd[1] != ef2[1]:
            return None
    return pending


# one exhaustive test per property of an r_table t of n*n pairs, for
# check_properties
PROPERTY_TESTS = {
    # r(r(x, y)) = (x, y), and r(r(x, y)) = r(x, y)
    "involutive": lambda t, n: all(t[k * n + l] == ij for ij, (k, l)
                                   in zip(product(range(n), repeat=2), t)),
    "idempotent": lambda t, n: all(t[k * n + l] == (k, l) for k, l in t),
    "braided": lambda t, n: _braid_pending(t, n, product(range(n), repeat=3)) == [],
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


def check_properties(qs):
    """Exhaustive property check over all pairs/triples."""
    return PropertyReport(**{name: test(qs.r_table, qs.n)
                             for name, test in PROPERTY_TESTS.items()})


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


def enumerate_solutions(n, predicate=()):
    """All r-tables on [1..n]^2 satisfying the property mask, up to relabeling.

    predicate is an iterable of property names that must all hold.  The
    result is the lex-least r_table of each class, in lex order.  The search
    is an orderly generation: pairs get images in lex order, and a partial
    table is dropped once a relabeling of it is lex-smaller, so only each
    class's least member is completed.  Each relabeling still tied with the
    table goes down the search with the position its comparison waits on;
    one found larger is dropped below the node.  The mask's cheap
    constraints are checked cell by cell and a braid triple as soon as its
    six entries are assigned; together they decide every property of the
    mask, so each completed table is kept.
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

    size = n * n
    pairs = [divmod(p, n) for p in range(size)]
    table = [None] * size
    preimages = [[] for _ in range(size)]  # the assigned cells r maps to q
    # left_used[i*n+k]: row i has left image k; right_used[j*n+l]: column j has l
    left_used, right_used = [False] * size, [False] * size
    pair_used = [False] * (n * size)  # pair_used[i*size+q]: row i has image pairs[q]
    found, nodes = [], 0

    def extend(p, triples, tied):
        nonlocal nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise SizeTooLarge(f"enumeration at n={n} visited {nodes} nodes, "
                               f"over its budget of {NODE_BUDGET}")
        still = []  # (sigma, sources, first undecided position); empty at a leaf
        for sigma, src, pos in tied:
            while pos < size:
                mine, kl = table[pos], table[src[pos]]
                if mine is None or kl is None:
                    still.append((sigma, src, pos))
                    break
                other = (sigma[kl[0]], sigma[kl[1]])
                if other < mine:
                    return
                if other > mine:
                    break
                pos += 1
        if p == size:
            found.append(QuadraticSet(n, table))
            return
        i, j = pairs[p]
        for q, (k, l) in enumerate(pairs):
            if (want_lnd and left_used[i * n + k] or want_rnd and right_used[j * n + l]
                    or want_l2c and pair_used[i * size + q]
                    # idempotent: r(r(p)) = r(p), every image is a fixed point
                    or want_idem and (table[q] not in (None, pairs[q])
                                      or preimages[p] and q != p)
                    # involutive: r(r(p)) = p, so r is a bijection
                    or want_invol and (table[q] not in (None, pairs[p]) or preimages[q]
                                       or preimages[p] and preimages[p][0] != q)):
                continue
            table[p] = pairs[q]
            rest = _braid_pending(table, n, triples) if want_braid else triples
            if rest is not None:
                left_used[i * n + k] = right_used[j * n + l] = True
                pair_used[i * size + q] = True
                preimages[q].append(p)
                extend(p + 1, rest, still)
                preimages[q].pop()
                left_used[i * n + k] = right_used[j * n + l] = False
                pair_used[i * size + q] = False
            table[p] = None

    extend(0, list(product(range(n), repeat=3)),
           [(sigma, _sources(sigma), 0) for sigma in permutations(range(n))][1:])
    return found
