"""r-orbits, the orbit graph, and the canonical relation set.

Pairs p, q lie in the same r-orbit when r^k(p) = r^m(q) for some k, m;
equivalently when they fall in the same weakly-connected component of
the orbit graph (vertices X^2, one arrow p -> r(p) per pair).  Each
orbit contributes one relation per non-minimal member, rewriting it to
the deg-lex least member.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CheckFailed, NotIdempotent, NotLeftNondegenerate
from .growth import DirectedGraph
from .quadset import check_properties


@dataclass(frozen=True)
class Orbit:
    members: frozenset       # of pairs
    minimal: tuple
    fixed_points: frozenset


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple
    orbit_of: dict

    def __len__(self):
        return len(self.orbits)


@dataclass(frozen=True)
class RelationSet:
    # binomials u - v with u > v deg-lex, v the orbit minimum
    relations: tuple         # of (u, v) pairs of length-2 words

    def to_polynomials(self):
        return [{u: Fraction(1), v: Fraction(-1)} for u, v in self.relations]

    def leading_pairs(self):
        return {u for u, _ in self.relations}


def _pair_index(qs):
    return [(i, j) for i in range(qs.n) for j in range(qs.n)]


def orbit_graph(qs):
    """Vertices are the n^2 pairs in lex order; one edge p -> r(p) each."""
    n = qs.n
    edges = set()
    for i in range(n):
        for j in range(n):
            k, l = qs.r(i, j)
            edges.add((i * n + j, k * n + l))
    return DirectedGraph(n * n, frozenset(edges))


def r_orbits(qs):
    """Weakly-connected components of the orbit graph."""
    pairs = _pair_index(qs)
    parent = {p: p for p in pairs}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for p in pairs:
        q = qs.r(*p)
        parent.setdefault(q, q)
        ra, rb = find(p), find(q)
        if ra != rb:
            parent[ra] = rb

    groups = {}
    for p in pairs:
        groups.setdefault(find(p), []).append(p)

    orbits = []
    for members in groups.values():
        fixed = frozenset(p for p in members if qs.r(*p) == p)
        orbits.append(Orbit(members=frozenset(members),
                            minimal=min(members),
                            fixed_points=fixed))
    orbits.sort(key=lambda o: o.minimal)
    orbit_of = {}
    for idx, orb in enumerate(orbits):
        for p in orb.members:
            orbit_of[p] = idx
    return OrbitDecomposition(orbits=tuple(orbits), orbit_of=orbit_of)


def canonical_relations(qs):
    """One binomial u - min per non-minimal pair u; n^2 - M relations."""
    dec = r_orbits(qs)
    rels = []
    for orb in dec.orbits:
        for p in sorted(orb.members):
            if p != orb.minimal:
                rels.append((p, orb.minimal))
    rels.sort()
    return RelationSet(relations=tuple(rels))


def idempotent_structure(qs):
    """The table k with x_i x_j ~ x_1 x_{k[i][j]}, via k = L_1^{-1} L_i.

    Requires an idempotent left-nondegenerate set; rows are 0-based and
    the table covers all i (row 0 is the identity row k[0][j] = j).
    """
    rep = check_properties(qs)
    if not rep.idempotent:
        raise NotIdempotent("idempotent structure needs an idempotent set")
    if not rep.left_nondegenerate:
        raise NotLeftNondegenerate("idempotent structure needs left nondegeneracy")
    n = qs.n
    inv0 = [0] * n
    for j in range(n):
        inv0[qs.left[0][j]] = j
    table = [[inv0[qs.left[i][j]] for j in range(n)] for i in range(n)]
    # characterization: x_1 x_{k_ij} and x_i x_j share an orbit
    dec = r_orbits(qs)
    for i in range(n):
        for j in range(n):
            if dec.orbit_of[(0, table[i][j])] != dec.orbit_of[(i, j)]:
                raise CheckFailed(f"x_1 x_{table[i][j] + 1} and x_{i + 1} x_{j + 1} "
                                  "lie in different orbits")
    return tuple(tuple(row) for row in table)
