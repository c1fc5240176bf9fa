"""r-orbits, the orbit graph, the canonical relation set, and the
verdicts built on them: the idempotent structure and the dim A_2 bounds
of left-nondegenerate idempotent sets, the witness for infinite global
dimension, and the two graphs of a basis that these and the CLI read.

Pairs p, q lie in the same r-orbit when r^k(p) = r^m(q) for some k, m;
equivalently when they fall in the same weakly-connected component of
the orbit graph (vertices X^2, one arrow p -> r(p) per pair).  Each
orbit contributes one relation per non-minimal member, rewriting it to
the deg-lex least member.
"""

from collections import namedtuple

from . import growth, ncgb, quadset
from .errors import CheckFailed, PreconditionViolated


# members and fixed_points: frozensets of pairs; minimal: the least member
Orbit = namedtuple("Orbit", "members minimal fixed_points")


# orbits: tuple of Orbit by minimal member; orbit_of: pair -> its orbit's index
class OrbitDecomposition(namedtuple("OrbitDecomposition", "orbits orbit_of")):
    __slots__ = ()

    def __len__(self):
        return len(self.orbits)


# relations: (u, v) pairs of length-2 words, binomials u - v with v the orbit minimum
class RelationSet(namedtuple("RelationSet", "relations")):
    __slots__ = ()

    def to_polynomials(self):
        return [{u: 1, v: -1} for u, v in self.relations]


def orbit_graph(qs):
    """Vertices are the n^2 pairs in lex order; one edge p -> r(p) each."""
    n = qs.n
    return growth.DirectedGraph(n * n, frozenset((p, k * n + l)
                                                 for p, (k, l) in enumerate(qs.r_table)))


def r_orbits(qs):
    """Weakly-connected components of the orbit graph, by union-find on the
    pair codes i*n + j."""
    n, table = qs.n, qs.r_table
    parent = list(range(n * n))

    def find(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    for p, (k, l) in enumerate(table):
        ra, rb = find(p), find(k * n + l)
        if ra != rb:
            parent[ra] = rb

    groups = {}
    for p in range(n * n):
        groups.setdefault(find(p), []).append(p)
    # both come in code order, which is lex order on pairs: least member first
    pairs = [divmod(p, n) for p in range(n * n)]
    orbits = tuple(Orbit(members=frozenset(pairs[p] for p in members),
                         minimal=pairs[members[0]],
                         fixed_points=frozenset(pairs[p] for p in members
                                                if table[p] == pairs[p]))
                   for members in groups.values())
    return OrbitDecomposition(orbits=orbits, orbit_of={
        p: idx for idx, orb in enumerate(orbits) for p in orb.members})


def canonical_relations(qs):
    """One binomial u - min per non-minimal pair u; n^2 - M relations."""
    return RelationSet(relations=tuple(sorted(
        (p, orb.minimal) for orb in r_orbits(qs).orbits for p in orb.members
        if p != orb.minimal)))


def canonical_basis(qs, max_degree):
    """The Groebner basis of A(k, X, r): the canonical relations completed
    through max_degree."""
    return ncgb.complete(canonical_relations(qs).to_polynomials(), max_degree,
                         alphabet=qs.n)


def idempotent_structure(qs):
    """The table k with x_i x_j ~ x_1 x_{k[i][j]}, via k = L_1^{-1} L_i.

    Requires an idempotent left-nondegenerate set; rows are 0-based and
    the table covers all i (row 0 is the identity row k[0][j] = j).
    """
    quadset.require_properties(qs, "idempotent structure",
                               "idempotent", "left_nondegenerate")
    n, t = qs.n, qs.r_table
    inv0 = [0] * n
    for j in range(n):
        inv0[t[j][0]] = j
    table = [[inv0[t[i * n + j][0]] for j in range(n)] for i in range(n)]
    # r(x_1, x_k) for k = k_ij starts with the a of r(x_i, x_j), and both are fixed
    # points (a, b), where b = sigma_a^-1(a): one image, so x_1 x_k ~ x_i x_j
    for i in range(n):
        for j in range(n):
            if t[table[i][j]] != t[i * n + j]:
                raise CheckFailed(f"x_1 x_{table[i][j] + 1} and x_{i + 1} x_{j + 1} "
                                  "have different images")
    return tuple(tuple(row) for row in table)


def basis_graphs(gb):
    """The graph of normal words of length 2 and its obstruction graph."""
    n, n2 = gb.alphabet_size, ncgb.normal_words(gb, 2)
    return growth.normal_graph(n2, n), growth.obstruction_graph(n2, n)


def automaton_graph(gb):
    """The digraph of gb's normal-word automaton, whose paths from vertex 0 are
    the normal words: a vertex is a state and the letter into it, as the start
    (1, the empty suffix) is entered by many letters."""
    step, vertices, edges = gb.index.step, {(1, None): 0}, set()
    todo = list(vertices)
    for u, (state, _) in enumerate(todo):       # breadth first: todo grows as it goes
        for x in range(gb.alphabet_size):
            if (t := step(state, x)) is not None:
                edges.add((u, v := vertices.setdefault((t, x), len(vertices))))
                if v == len(todo):
                    todo.append((t, x))
    return growth.DirectedGraph(len(todo), frozenset(edges))


def gldiminf_witness(gb):
    """A cycle of the obstruction graph when the growth degree is below
    the generator count; "not applicable" otherwise.

    The witness is a self-arrow (x,) or a 2-cycle (x, z).
    """
    n = gb.alphabet_size
    if not gb.pbw or not gb.complete:
        raise PreconditionViolated("witness search needs a complete quadratic basis")
    gn, gw = basis_graphs(gb)
    gk = growth.gk_dimension(gn)
    if gk.kind != "Polynomial" or gk.degree >= n:
        return "NotApplicable"
    for x in range(n):
        if (x, x) in gw.edges:
            return (x,)
    for x in range(n):
        for z in range(n):
            if x != z and (x, z) in gw.edges and (z, x) in gw.edges:
                return (x, z)
    raise CheckFailed("no obstruction cycle found despite low growth")


def dimA2_bounds_check(qs, max_d=5):
    """Bounds on dim A_2 for left-nondegenerate idempotent sets.

    Checks n <= dim A_2 always; when the relations are a Groebner basis
    and the growth degree is 1, also dim A_2 <= C(n,2)+1; when moreover
    dim A_2 = n, dim A_d = n for all checked degrees.  A failed bound
    raises CheckFailed.
    """
    quadset.require_properties(qs, "the dim A_2 check",
                               "idempotent", "left_nondegenerate")
    n = qs.n
    gb = canonical_basis(qs, max(max_d, 3))
    gn, _ = basis_graphs(gb)
    dim_a2 = len(gn.edges)
    report = {"n": n, "dim_A2": dim_a2, "pbw": gb.pbw,
              "lower_ok": n <= dim_a2, "upper_ok": None, "flat_ok": None}
    if not report["lower_ok"]:
        raise CheckFailed(f"dim A_2 = {dim_a2} is below n = {n}")
    if report["pbw"]:
        if growth.gk_dimension(gn) == growth.GrowthClass.polynomial(1):
            report["upper_ok"] = dim_a2 <= n * (n - 1) // 2 + 1
            if not report["upper_ok"]:
                raise CheckFailed(
                    f"dim A_2 = {dim_a2} exceeds C(n,2)+1 at growth degree 1")
        if dim_a2 == n:
            dims = ncgb.hilbert_series(gb, max_d).coefficients[2:]
            report["flat_ok"] = all(c == n for c in dims)
            if not report["flat_ok"]:
                raise CheckFailed(f"dim A_2 = n but dim A_d = {dims}")
    return report
