"""The enumeration that ybx.quadset replaced, kept as an oracle.

enumerate_solutions walks every table that passes the cheap per-pair
constraints, runs the full property check on each, and keeps one
canonical form per class at the end; canonical_form builds all n!
relabeled QuadraticSets.  The braid and property checks are the old ones
too, so a fault in the shared braid routine of ybx.quadset shows here.
QuadraticSet, PropertyReport and the errors come from ybx unchanged.
"""

from itertools import permutations, product

from ybx.errors import InvalidArgument, SizeTooLarge
from ybx.quadset import PROPERTY_NAMES, PropertyReport, QuadraticSet


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
