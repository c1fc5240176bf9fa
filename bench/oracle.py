"""Answers computed apart from ybx, against which the benchmark checks ybx.

Nothing here imports ybx.  A table is a tuple of n*n pairs whose entry
i*n + j is r(x_i, x_j), 0-based, the layout ybx also uses.  Words are
tuples of 0-based letters.  Every count below comes either from a brute
force over all candidates or from a theorem the paper or its references
prove, never from a stored copy of ybx's output.
"""

from itertools import permutations, product
from math import comb

PROPERTY_NAMES = ("involutive", "idempotent", "braided",
                  "left_nondegenerate", "right_nondegenerate",
                  "left_2_cancellative")


class WrongAnswer(Exception):
    """An output of ybx disagrees with the independent answer."""


def expect(ok, message):
    if not ok:
        raise WrongAnswer(message)


# ---------------------------------------------------------------- tables

def perm_table(f):
    """r_f(x, y) = (f(y), y)."""
    n = len(f)
    return tuple((f[j], j) for i in range(n) for j in range(n))


def named_table(kind, n):
    if kind == "flip":
        return tuple((j, i) for i in range(n) for j in range(n))
    return tuple((i, j) for i in range(n) for j in range(n))


def left_action_table(sigma):
    """The idempotent left-nondegenerate table with left actions sigma:
    r(x, y) = (a, sigma_a^{-1}(a)) with a = sigma_x(y)."""
    n = len(sigma)
    table = []
    for x, y in product(range(n), repeat=2):
        a = sigma[x][y]
        table.append((a, sigma[a].index(a)))
    return tuple(table)


def involutive_table(sigma):
    """The involutive table with left actions sigma:
    r(x, y) = (a, sigma_a^{-1}(x)) with a = sigma_x(y)."""
    n = len(sigma)
    table = []
    for x, y in product(range(n), repeat=2):
        a = sigma[x][y]
        table.append((a, sigma[a].index(x)))
    return tuple(table)


def product_table(n, a, m, b):
    """Both factors act in parallel on pairs; (i, u) has index i*m + u."""
    table = []
    for (i, u), (j, v) in product(product(range(n), range(m)), repeat=2):
        k, l = a[i * n + j]
        s, t = b[u * m + v]
        table.append((k * m + s, l * m + t))
    return tuple(table)


def relabel(n, table, g):
    """The table with x_i renamed x_{g(i)}."""
    out = [None] * (n * n)
    for i, j in product(range(n), repeat=2):
        k, l = table[i * n + j]
        out[g[i] * n + g[j]] = (g[k], g[l])
    return tuple(out)


def canonical(n, table):
    return min(relabel(n, table, g) for g in permutations(range(n)))


def properties(n, table):
    """The six properties ybx reports, decided over all pairs and triples."""
    def r(i, j):
        return table[i * n + j]

    def r12(w):
        return r(w[0], w[1]) + (w[2],)

    def r23(w):
        return (w[0],) + r(w[1], w[2])

    pairs = list(product(range(n), repeat=2))
    return {
        "involutive": all(r(*r(*p)) == p for p in pairs),
        "idempotent": all(r(*r(*p)) == r(*p) for p in pairs),
        "braided": all(r12(r23(r12(w))) == r23(r12(r23(w)))
                       for w in product(range(n), repeat=3)),
        "left_nondegenerate": all(len({r(x, y)[0] for y in range(n)}) == n
                                  for x in range(n)),
        "right_nondegenerate": all(len({r(x, y)[1] for x in range(n)}) == n
                                   for y in range(n)),
        "left_2_cancellative": all(len({r(x, y) for y in range(n)}) == n
                                   for x in range(n)),
    }


def orbits(n, table):
    """Classes of pairs under p ~ r(p), by union-find."""
    parent = list(range(n * n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in range(n * n):
        k, l = table[p]
        parent[find(p)] = find(k * n + l)
    classes = {}
    for p in range(n * n):
        classes.setdefault(find(p), set()).add(divmod(p, n))
    return sorted((frozenset(c) for c in classes.values()), key=min)


def canonical_relations(n, table):
    """Rewrite rules u -> min(orbit of u) for every non-minimal pair u."""
    return sorted((u, min(orb)) for orb in orbits(n, table)
                  for u in orb if u != min(orb))


def preimages(n, table):
    """Image pair -> sorted list of the pairs r sends to it."""
    pre = {}
    for p in range(n * n):
        pre.setdefault(table[p], []).append(divmod(p, n))
    return dict(sorted(pre.items()))


def perm_power(f, d):
    out = list(range(len(f)))
    for _ in range(d):
        out = [f[x] for x in out]
    return out


def perm_order(f):
    d = 1
    while perm_power(f, d) != list(range(len(f))):
        d += 1
    return d


# ---------------------------------------------------------------- words

def normal_word_levels(leads, n, d_max):
    """The words of each length 0..d_max containing no lead as a factor, in
    deg-lex order, by extending normal words one letter at a time."""
    leads = set(leads)
    longest = max((len(u) for u in leads), default=0)
    level = [()]
    yield level
    for _ in range(d_max):
        level = [w + (x,) for w in level for x in range(n)
                 if not any((w + (x,))[len(w) + 1 - k:] in leads
                            for k in range(1, min(longest, len(w) + 1) + 1))]
        yield level


def normal_word_counts(leads, n, d_max):
    """Number of normal words of each length 0..d_max."""
    return [len(level) for level in normal_word_levels(leads, n, d_max)]


def congruence_class_counts(relations, n, d_max):
    """Number of classes of words of each length 0..d_max under the monoid
    congruence generated by the pairs (u, v), by union-find on words
    encoded in base n."""
    counts = [1]
    for d in range(1, d_max + 1):
        size = n ** d
        parent = list(range(size))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in relations:
            k = len(u)
            if k > d:
                continue
            cu = sum(x * n ** (k - 1 - i) for i, x in enumerate(u))
            cv = sum(x * n ** (k - 1 - i) for i, x in enumerate(v))
            for pos in range(d - k + 1):
                low = n ** (d - k - pos)
                for pre in range(n ** pos):
                    base = pre * n ** (d - pos)
                    for suf in range(low):
                        a = find(base + cu * low + suf)
                        b = find(base + cv * low + suf)
                        if a != b:
                            parent[a] = b
        counts.append(sum(1 for a in range(size) if find(a) == a))
    return counts


def polynomial_ring_dims(n, d_max):
    """dim of degree d in k[x_1..x_n]: the Hilbert series 1/(1-t)^n."""
    return [comb(n + d - 1, d) for d in range(d_max + 1)]


# ------------------------------------------------------- Burnside counts

def burnside(n, labelled, fixed):
    """Isomorphism classes among labelled objects: the mean over Sym(n) of
    the number of objects each relabelling fixes."""
    total = sum(sum(1 for t in labelled if fixed(t, g))
                for g in permutations(range(n)))
    count, rem = divmod(total, len(list(permutations(range(n)))))
    expect(rem == 0, "Burnside sum is not divisible by |Sym(n)|")
    return count


def table_fixed(n):
    def fixed(table, g):
        return relabel(n, table, g) == table
    return fixed


def all_involutions(m):
    """Every involution of {0..m-1}, as a tuple of images."""
    out = []

    def grow(img, free):
        if not free:
            out.append(tuple(img))
            return
        a = free[0]
        img[a] = a
        grow(img, free[1:])
        for b in free[1:]:
            img[a], img[b] = b, a
            grow(img, [c for c in free[1:] if c != b])
        img[a] = None

    grow([None] * m, list(range(m)))
    return out


def involutive_tables(n):
    """All involutive tables: involutions of the n*n pairs."""
    return [tuple(divmod(q, n) for q in s) for s in all_involutions(n * n)]


def count_nondegenerate(n):
    """Classes of tables whose rows of left images and columns of right
    images are permutations: n!^(2n) labelled tables, split into a left
    and a right half that relabellings fix independently."""
    perms = list(permutations(range(n)))
    halves = list(product(perms, repeat=n))   # halves[x] or [y] is a row
    total = 0
    for g in permutations(range(n)):
        # half h is fixed iff h[g x][g y] = g h[x][y]
        fix = sum(1 for h in halves
                  if all(h[g[x]][g[y]] == g[h[x][y]]
                         for x in range(n) for y in range(n)))
        total += fix * fix
    return total // len(perms)


def left_action_tables(n):
    return [left_action_table(s)
            for s in product(list(permutations(range(n))), repeat=n)]


def enumeration_count(n, mask, candidates):
    """Classes among the candidate tables that have every property in mask."""
    keep = [t for t in candidates
            if all(properties(n, t)[name] for name in mask)]
    return burnside(n, keep, table_fixed(n))


def check_enumeration(n, mask, tables, expected):
    """ybx's list must hold `expected` pairwise non-isomorphic tables, each
    with every property in mask."""
    expect(len(tables) == expected,
           f"n={n} {sorted(mask)}: {len(tables)} solutions, want {expected}")
    for t in tables:
        rep = properties(n, t)
        bad = [name for name in mask if not rep[name]]
        expect(not bad, f"n={n}: returned table lacks {bad}")
    forms = {canonical(n, t) for t in tables}
    expect(len(forms) == len(tables), f"n={n}: isomorphic tables returned")
