"""The r-orbits that ybx.orbits replaced, kept as an oracle.

r_orbits is the union-find on pair tuples, with a dict of tuples as its
parent table, that ybx.orbits ran before it joined pair codes i*n + j in a
list.  Orbit and OrbitDecomposition come from ybx.orbits unchanged, so the
two give records that must be equal, repr included.
"""

from ybx.orbits import Orbit, OrbitDecomposition


def r_orbits(qs):
    """Weakly-connected components of the orbit graph."""
    pairs = [(i, j) for i in range(qs.n) for j in range(qs.n)]
    parent = {p: p for p in pairs}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for p in pairs:
        ra, rb = find(p), find(qs.r(*p))
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
