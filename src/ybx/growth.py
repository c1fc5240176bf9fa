"""Growth and homological dimension of quadratic monomial data via digraphs.

The graph of normal words has an arrow x -> y exactly when xy is a
normal word; the obstruction graph is its edge-complement.  Growth is
exponential iff two distinct cycles share a vertex; otherwise the
polynomial degree is the largest number of cycles met along a directed
path.  Global dimension is finite iff the obstruction graph is acyclic,
and then equals 1 + the longest path length.  All three verdicts read
the strongly connected components of one Tarjan pass.
"""

from collections import namedtuple
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import CheckFailed, InvalidArgument, PreconditionViolated


# edges: a frozenset of (u, v) pairs, self-arrows allowed; __dict__ caches adjacency
class DirectedGraph(namedtuple("DirectedGraph", "vertex_count edges")):
    def __new__(cls, vertex_count, edges):
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise InvalidArgument(f"edge ({u}, {v}) out of range")
        return super().__new__(cls, vertex_count, edges)

    @cached_property
    def adjacency(self):
        """Sorted successor list of every vertex."""
        adj = [[] for _ in range(self.vertex_count)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
        return adj


# kind: "Exponential" or "Polynomial"; degree: set for Polynomial
class GrowthClass(namedtuple("GrowthClass", "kind degree", defaults=(None,))):
    __slots__ = ()

    @staticmethod
    def exponential():
        return GrowthClass("Exponential")

    @staticmethod
    def polynomial(m):
        return GrowthClass("Polynomial", m)


# kind: "Finite" or "Infinite"; value: set for Finite
class GlDim(namedtuple("GlDim", "kind value", defaults=(None,))):
    __slots__ = ()

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


def _components(g):
    """Strongly connected components, by one iterative Tarjan pass.

    Returns (comps, comp_of): comps in topological order, each a pair
    (sorted members, whether it holds a cycle); comp_of[v] indexes comps.
    """
    n = g.vertex_count
    # a virtual vertex n with an arrow to every vertex roots one search
    adj = g.adjacency + [range(n)]
    index = [None] * n + [0]
    low = [0] * (n + 1)
    comp_of = [None] * n      # set when a vertex leaves the stack
    stack, comps, count = [], [], 1
    work = [(n, iter(adj[n]))]
    while work:
        u, succ = work[-1]
        for v in succ:
            if index[v] is None:
                index[v] = low[v] = count
                count += 1
                stack.append(v)
                work.append((v, iter(adj[v])))
                break
            if comp_of[v] is None:
                low[u] = min(low[u], index[v])
        else:
            work.pop()
            if not work:
                break
            p = work[-1][0]
            low[p] = min(low[p], low[u])
            if low[u] == index[u]:
                members = []
                while comp_of[u] is None:
                    v = stack.pop()
                    comp_of[v] = len(comps)
                    members.append(v)
                comps.append((sorted(members), len(members) > 1 or (u, u) in g.edges))
    # Tarjan closes a component after every component it reaches
    last = len(comps) - 1
    return comps[::-1], [last - c for c in comp_of]


def _heaviest_path(g, comps, comp_of, weights):
    """Largest total weight of the components met along a directed path."""
    best = [0] * len(comps)
    for c in reversed(range(len(comps))):
        best[c] = weights[c] + max((best[comp_of[v]] for u in comps[c][0]
                                    for v in g.adjacency[u] if comp_of[v] != c),
                                   default=0)
    return max(best, default=0)


def gk_dimension(g):
    """Exponential iff two distinct cycles share a vertex, else the max
    number of cycles met along a directed path."""
    comps, comp_of = _components(g)
    for members, cyclic in comps:
        # a component is one cycle iff each member has one arrow inside it
        if cyclic and any(sum(comp_of[v] == comp_of[u] for v in g.adjacency[u]) != 1
                          for u in members):
            return GrowthClass.exponential()
    weights = [int(cyclic) for _, cyclic in comps]
    return GrowthClass.polynomial(_heaviest_path(g, comps, comp_of, weights))


def has_cycle(g):
    return any(cyclic for _, cyclic in _components(g)[0])


def global_dimension(gw):
    """Infinite iff the obstruction graph has a cycle, else 1 + longest path."""
    comps, comp_of = _components(gw)
    if any(cyclic for _, cyclic in comps):
        return GlDim.infinite()
    # acyclic: every component is one vertex, and a path of k vertices has k - 1 arrows
    return GlDim.finite(max(1, _heaviest_path(gw, comps, comp_of, [1] * len(comps))))


def topological_order(g):
    """The least topological order of an acyclic digraph (ignoring
    self-arrows)."""
    n = g.vertex_count
    indeg = [0] * n
    for u, v in g.edges:
        if u != v:
            indeg[v] += 1
    ready = [u for u in range(n) if indeg[u] == 0]
    heapify(ready)
    order = []
    while ready:
        u = heappop(ready)
        order.append(u)
        for v in g.adjacency[u]:
            if v != u:
                indeg[v] -= 1
                if indeg[v] == 0:
                    heappush(ready, v)
    if len(order) != n:
        raise InvalidArgument("graph is not acyclic")
    return order


def _reachable(adj, src):
    seen = {src}
    todo = [src]
    while todo:
        for v in adj[todo.pop()]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


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
    predecessors = [[] for _ in range(n)]
    for u, v in gn.edges:
        predecessors[v].append(u)
    if (_reachable(gn.adjacency, basepoint) | _reachable(predecessors, basepoint)
            != set(range(n))):
        raise PreconditionViolated("every vertex must connect to the basepoint")

    pairs = n * (n - 1) // 2
    cond_growth = (gk_dimension(gn) == GrowthClass.polynomial(1)
                   and len(gn.edges) == pairs + 1)
    # an acyclic graph with one arrow per pair of vertices is a tournament; such a
    # graph is acyclic iff it has n components, which then list its one topological order
    plain = DirectedGraph(n, frozenset((u, v) for u, v in gn.edges if u != v))
    comps = _components(plain)[0] if len(plain.edges) == pairs else ()
    cond_shape = gn.edges - plain.edges == {(basepoint, basepoint)} and len(comps) == n
    relabeling = [members[0] for members, _ in comps] if cond_shape else None
    if cond_growth != cond_shape:
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
