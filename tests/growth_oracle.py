"""The graph analysis that ybx.growth replaced, kept verbatim as an oracle.

Every verdict recomputes the strongly connected components (_sccs), and
successor lists come from scanning every edge.  gk_dimension and
longest_path_length take longest paths with recursive memo closures;
tournament_structure runs one full-edge-scan search per vertex to find
what reaches the basepoint.  ybx.growth answers the same questions from
one Tarjan pass with components in topological order.  The graph and
result types come from ybx.growth unchanged.  has_cycle,
topological_order and extend_to_acyclic_tournament live only here:
nothing in ybx called them.  topological_order raises InvalidArgument on
a cycle.
"""

from itertools import combinations

from ybx.errors import CheckFailed, InvalidArgument, PreconditionViolated
from ybx.growth import DirectedGraph, GlDim, GrowthClass


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
        raise InvalidArgument("graph is not acyclic")
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
