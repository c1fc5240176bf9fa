"""The enumeration that ybx.quadset replaced, kept as an oracle.

enumerate_solutions walks every table that passes the cheap per-pair
constraints, runs the full property check on each, and keeps one
canonical form per class at the end; canonical_form builds all n!
relabeled QuadraticSets.  The braid and property checks are the old ones
too, so a fault in the shared braid routine of ybx.quadset shows here.
QuadraticSet, PropertyReport and the errors come from ybx unchanged.

orderly_enumerate_solutions is the orderly search that replaced
enumerate_solutions, before its relabeling test was carried down the
search.  cell_enumerate_solutions is the orderly search on pair tuples that
the integer-code search of ybx.quadset replaced: it filters all n^2 images
of each cell and re-runs _braid_pending over every pending braid triple at
each candidate, and it also returns its node count.  Both read the
relabeling sources of ybx.quadset; _braid_pending, the braid routine that
ybx.quadset used to share with them, is kept here as its own copy.

braided_by_wait is the exhaustive braid test of ybx.quadset before it got
its own loop: the search's triple test _braid_wait, mapped over every
triple of a full table.
"""

from itertools import permutations, product, repeat
from math import factorial

from ybx.errors import InvalidArgument, SizeTooLarge
from ybx.quadset import (NODE_BUDGET, PROPERTY_NAMES, PropertyReport, QuadraticSet,
                         _braid_wait, _sources)


def braided_by_wait(t, n):
    """_braid_wait returns -1 on every triple of a full table, or -2 on one."""
    return -2 not in map(_braid_wait, repeat(t), repeat(n), repeat(n * n),
                         product(range(n), repeat=3))


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
    left_nondeg = all(sorted(qs.r(i, j)[0] for j in range(n)) == list(range(n))
                      for i in range(n))
    right_nondeg = all(sorted(qs.r(i, j)[1] for i in range(n)) == list(range(n))
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
            rep = check_properties(qs)._asdict()
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


def _has_smaller_relabeling(table, relabelings):
    """True if, for some (sigma, sources) in relabelings, the relabeled table
    is lex-smaller than table on every completion of its assigned (not None)
    entries; on a full table, if table is not the least of its class."""
    for sigma, src in relabelings:
        for mine, s in zip(table, src):
            kl = table[s]
            if kl is None:
                break
            other = (sigma[kl[0]], sigma[kl[1]])
            if other != mine:
                if mine is not None and other < mine:
                    return True
                break
    return False


def orderly_enumerate_solutions(n, predicate=()):
    """The orderly search that ybx.quadset ran before its relabeling test
    became incremental, kept verbatim: at every node it compares each
    relabeling with the table again from position 0.  Here the leaves get
    this module's check_properties.

    All r-tables on [1..n]^2 satisfying the property mask, up to relabeling.

    predicate is an iterable of property names that must all hold.  The
    result is the lex-least r_table of each class, in lex order.  The search
    is an orderly generation: pairs get images in lex order, and a partial
    table is dropped once a relabeling of it is lex-smaller, so only each
    class's least member is completed.  The mask's cheap constraints are
    checked cell by cell, a braid triple as soon as its six entries are
    assigned, and each completed table gets the full check_properties.
    Visiting more than NODE_BUDGET nodes (partial tables) raises
    SizeTooLarge.
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
    want_braid = "braided" in mask
    want_l2c = "left_2_cancellative" in mask

    size = n * n
    pairs = [divmod(p, n) for p in range(size)]
    relabelings = [(sigma, _sources(sigma)) for sigma in permutations(range(n))][1:]
    table = [None] * size
    preimages = [[] for _ in range(size)]  # the assigned cells r maps to q
    # left_used[i*n+k]: row i has left image k; right_used[j*n+l]: column j has l
    left_used, right_used = [False] * size, [False] * size
    pair_used = [False] * (n * size)  # pair_used[i*size+q]: row i has image pairs[q]
    found = []
    nodes = 0

    def extend(p, triples):
        nonlocal nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise SizeTooLarge(f"enumeration at n={n} visited {nodes} nodes, "
                               f"over its budget of {NODE_BUDGET}")
        if _has_smaller_relabeling(table, relabelings):
            return
        if p == size:
            qs = QuadraticSet(n, table)
            rep = check_properties(qs)._asdict()
            if all(rep[name] for name in mask):
                found.append(qs)
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
                extend(p + 1, rest)
                preimages[q].pop()
                left_used[i * n + k] = right_used[j * n + l] = False
                pair_used[i * size + q] = False
            table[p] = None

    extend(0, list(product(range(n), repeat=3)))
    return found


def cell_enumerate_solutions(n, predicate=()):
    """The search that ybx.quadset.enumerate_solutions ran on pair tuples,
    kept verbatim but for its result, which is (the classes, the nodes
    visited).  Budgets are this module's NODE_BUDGET.

    All r-tables on [1..n]^2 satisfying the property mask, up to relabeling.

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
    return found, nodes
