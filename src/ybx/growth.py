"""Growth and homological dimension of quadratic monomial data via digraphs.

The graph of normal words has an arrow x -> y exactly when xy is a
normal word; the obstruction graph is its edge-complement.  Growth is
exponential iff two distinct cycles share a vertex; otherwise the
polynomial degree is the largest number of cycles met along a directed
path.  Global dimension is finite iff the obstruction graph is acyclic,
and then equals 1 + the longest path length.
"""

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import (CheckFailed, NotIdempotent, NotLeftNondegenerate,
                     PreconditionViolated)


@dataclass(frozen=True)
class DirectedGraph:
    vertex_count: int
    edges: frozenset      # of (u, v) pairs, self-arrows allowed

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")

    def successors(self, u):
        return sorted(v for (a, v) in self.edges if a == u)


@dataclass(frozen=True)
class GrowthClass:
    kind: str             # "Exponential" or "Polynomial"
    degree: int = None    # set for Polynomial

    @staticmethod
    def exponential():
        return GrowthClass("Exponential")

    @staticmethod
    def polynomial(m):
        return GrowthClass("Polynomial", m)


@dataclass(frozen=True)
class GlDim:
    kind: str             # "Finite" or "Infinite"
    value: int = None

    @staticmethod
    def finite(d):
        return GlDim("Finite", d)

    @staticmethod
    def infinite():
        return GlDim("Infinite")


def normal_graph(N2, n):
    """Arrow x -> y iff the length-2 word xy lies in N2 (0-based pairs)."""
    return DirectedGraph(n, frozenset((x, y) for x, y in N2))


def obstruction_graph(N2, n):
    """Edge-complement of the graph of normal words on X^2."""
    normal = {(x, y) for x, y in N2}
    return DirectedGraph(n, frozenset(
        (x, y) for x in range(n) for y in range(n) if (x, y) not in normal))


def _sccs(g):
    """Strongly connected components, by Tarjan (iterative)."""
    n = g.vertex_count
    adj = [[] for _ in range(n)]
    for u, v in sorted(g.edges):
        adj[u].append(v)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = [0]

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            u, pi = work[-1]
            if pi == 0:
                index[u] = low[u] = counter[0]
                counter[0] += 1
                stack.append(u)
                on_stack[u] = True
            advanced = False
            for i in range(pi, len(adj[u])):
                v = adj[u][i]
                if index[v] is None:
                    work[-1] = (u, i + 1)
                    work.append((v, 0))
                    advanced = True
                    break
                if on_stack[v]:
                    low[u] = min(low[u], index[v])
            if advanced:
                continue
            work.pop()
            if low[u] == index[u]:
                comp = []
                while True:
                    v = stack.pop()
                    on_stack[v] = False
                    comp.append(v)
                    if v == u:
                        break
                comps.append(sorted(comp))
            if work:
                p, _ = work[-1]
                low[p] = min(low[p], low[u])
    return comps


def _cyclic_scc(g, comp):
    """Does this strongly connected component contain a cycle?"""
    if len(comp) > 1:
        return True
    v = comp[0]
    return (v, v) in g.edges


def _is_single_cycle(g, comp):
    members = set(comp)
    for u in comp:
        inside = [v for (a, v) in g.edges if a == u and v in members]
        if len(inside) != 1:
            return False
    return True


def gk_dimension(g):
    """Exponential iff two distinct cycles share a vertex, else the max
    number of cycles met along a directed path."""
    comps = _sccs(g)
    cyclic = []
    for comp in comps:
        if _cyclic_scc(g, comp):
            if not _is_single_cycle(g, comp):
                return GrowthClass.exponential()
            cyclic.append(comp)

    # condensation DAG; count cyclic components along the best path
    comp_of = {}
    for idx, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = idx
    weight = [1 if _cyclic_scc(g, comp) else 0 for comp in comps]
    dag = {i: set() for i in range(len(comps))}
    for u, v in g.edges:
        if comp_of[u] != comp_of[v]:
            dag[comp_of[u]].add(comp_of[v])

    best = {}

    def longest(i):
        if i not in best:
            best[i] = weight[i] + max((longest(j) for j in dag[i]), default=0)
        return best[i]

    m = max((longest(i) for i in range(len(comps))), default=0)
    return GrowthClass.polynomial(m)


def has_cycle(g):
    return any(_cyclic_scc(g, comp) for comp in _sccs(g))


def longest_path_length(g):
    """Edge count of the longest directed path; requires an acyclic graph."""
    if has_cycle(g):
        raise ValueError("longest path undefined on cyclic graphs")
    adj = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].append(v)
    best = {}

    def longest(u):
        if u not in best:
            best[u] = max((1 + longest(v) for v in adj[u]), default=0)
        return best[u]

    return max((longest(u) for u in range(g.vertex_count)), default=0)


def global_dimension(gw):
    """Infinite iff the obstruction graph has a cycle, else 1 + longest path."""
    if has_cycle(gw):
        return GlDim.infinite()
    return GlDim.finite(1 + longest_path_length(gw))


def _is_acyclic_tournament_with_loop(g, basepoint):
    n = g.vertex_count
    loops = {u for (u, v) in g.edges if u == v}
    if loops != {basepoint}:
        return False
    plain = DirectedGraph(n, frozenset((u, v) for u, v in g.edges if u != v))
    for u, v in combinations(range(n), 2):
        if ((u, v) in plain.edges) == ((v, u) in plain.edges):
            return False
    return not has_cycle(plain)


def topological_order(g):
    """A topological order of an acyclic digraph (ignoring self-arrows)."""
    n = g.vertex_count
    indeg = [0] * n
    adj = [[] for _ in range(n)]
    for u, v in sorted(g.edges):
        if u != v:
            adj[u].append(v)
            indeg[v] += 1
    order = []
    ready = sorted(u for u in range(n) if indeg[u] == 0)
    while ready:
        u = ready.pop(0)
        order.append(u)
        for v in adj[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
        ready.sort()
    if len(order) != n:
        raise ValueError("graph is not acyclic")
    return order


def tournament_structure(gn, basepoint):
    """Check the three-way equivalence for graphs of normal words with
    polynomial growth of degree one.

    Precondition: the basepoint carries a self-arrow and every vertex is
    joined to it by a directed path (in one direction or the other).
    Returns {"matches": bool, "relabeling": permutation or None}; the
    relabeling lists the vertices in topological order.
    """
    n = gn.vertex_count
    if (basepoint, basepoint) not in gn.edges:
        raise PreconditionViolated("basepoint must carry a self-arrow")

    # reachability in either direction
    def reach(src):
        seen = {src}
        todo = [src]
        while todo:
            u = todo.pop()
            for a, v in gn.edges:
                if a == u and v not in seen:
                    seen.add(v)
                    todo.append(v)
        return seen

    forward = reach(basepoint)
    backward = set()
    for v in range(n):
        if basepoint in reach(v):
            backward.add(v)
    if forward | backward != set(range(n)):
        raise PreconditionViolated("every vertex must connect to the basepoint")

    cond_growth = (gk_dimension(gn) == GrowthClass.polynomial(1)
                   and len(gn.edges) == n * (n - 1) // 2 + 1)
    cond_shape = _is_acyclic_tournament_with_loop(gn, basepoint)

    relabeling = None
    if cond_shape:
        plain = DirectedGraph(n, frozenset((u, v) for u, v in gn.edges if u != v))
        relabeling = topological_order(plain)
    cond_relabel = relabeling is not None

    if not cond_growth == cond_shape == cond_relabel:
        raise CheckFailed("growth, tournament shape and relabeling disagree")
    return {"matches": cond_shape, "relabeling": relabeling}


def extend_to_acyclic_tournament(g):
    """Complete an acyclic digraph to an acyclic tournament on the same
    vertices, orienting missing edges along a topological order."""
    order = topological_order(g)
    pos = {v: i for i, v in enumerate(order)}
    edges = set(g.edges)
    for u, v in combinations(range(g.vertex_count), 2):
        if (u, v) not in edges and (v, u) not in edges:
            edges.add((u, v) if pos[u] < pos[v] else (v, u))
    out = DirectedGraph(g.vertex_count, frozenset(edges))
    if has_cycle(out):
        raise CheckFailed("the completed tournament has a cycle")
    return out


def gldiminf_witness(gb):
    """A cycle of the obstruction graph when the growth degree is below
    the generator count; "not applicable" otherwise.

    The witness is a self-arrow (x,) or a 2-cycle (x, z).
    """
    from .ncgb import normal_words
    n = gb.alphabet_size
    if not all(len(lead) == 2 for lead, _ in gb.rules) or not gb.complete:
        raise PreconditionViolated("witness search needs a complete quadratic basis")
    N2 = normal_words(gb, 2)
    gn = normal_graph(N2, n)
    gw = obstruction_graph(N2, n)
    gk = gk_dimension(gn)
    if gk.kind != "Polynomial" or gk.degree >= n:
        return "NotApplicable"
    for x in range(n):
        if (x, x) in gw.edges:
            return (x,)
    for x in range(n):
        for z in range(n):
            if x != z and (x, z) in gw.edges and (z, x) in gw.edges:
                return (x, z)
    raise AssertionError("no obstruction cycle found despite low growth")


def dimA2_bounds_check(qs, max_d=5):
    """Bounds on dim A_2 for left-nondegenerate idempotent sets.

    Checks n <= dim A_2 always; when the relations are a Groebner basis
    and the growth degree is 1, also dim A_2 <= C(n,2)+1; when moreover
    dim A_2 = n, dim A_d = n for all checked degrees.  A failed bound
    raises CheckFailed.
    """
    from .ncgb import complete, hilbert_series, is_pbw, normal_words
    from .orbits import canonical_relations, r_orbits
    from .quadset import check_properties

    rep = check_properties(qs)
    if not rep.idempotent:
        raise NotIdempotent("bounds require an idempotent set")
    if not rep.left_nondegenerate:
        raise NotLeftNondegenerate("bounds require left nondegeneracy")

    n = qs.n
    dim_a2 = len(r_orbits(qs))
    relations = canonical_relations(qs).to_polynomials()
    pbw = is_pbw(relations)
    report = {"n": n, "dim_A2": dim_a2, "pbw": pbw,
              "lower_ok": n <= dim_a2, "upper_ok": None, "flat_ok": None}
    if not report["lower_ok"]:
        raise CheckFailed(f"dim A_2 = {dim_a2} is below n = {n}")
    if pbw:
        gb = complete(relations, max_d + 1, alphabet=n)
        gn = normal_graph(normal_words(gb, 2), n)
        if gk_dimension(gn) == GrowthClass.polynomial(1):
            report["upper_ok"] = dim_a2 <= n * (n - 1) // 2 + 1
            if not report["upper_ok"]:
                raise CheckFailed(
                    f"dim A_2 = {dim_a2} exceeds C(n,2)+1 at growth degree 1")
        if dim_a2 == n:
            dims = hilbert_series(gb, max_d).coefficients[2:]
            report["flat_ok"] = all(c == n for c in dims)
            if not report["flat_ok"]:
                raise CheckFailed(f"dim A_2 = n but dim A_d = {dims}")
    return report


def to_dot(g, name="G", labels=None):
    """Deterministic DOT rendering; vertices v1..vk, edges sorted."""
    if labels is None:
        labels = [f"v{i + 1}" for i in range(g.vertex_count)]
    lines = [f"digraph {name} {{"]
    for i in range(g.vertex_count):
        lines.append(f'  "{labels[i]}";')
    for u, v in sorted(g.edges):
        lines.append(f'  "{labels[u]}" -> "{labels[v]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
