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

from .errors import CheckFailed, InvalidArgument, PreconditionViolated


# edges: a frozenset of (u, v) pairs, self-arrows allowed; adjacency, components cached
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

    @cached_property
    def components(self):
        """Strongly connected components, by one iterative Tarjan pass.

        Returns (comps, comp_of): comps in topological order, each a pair
        (sorted members, whether it holds a cycle); comp_of[v] indexes comps.
        """
        n = self.vertex_count
        # a virtual vertex n with an arrow to every vertex roots one search
        adj = self.adjacency + [range(n)]
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
                    cyclic = len(members) > 1 or (u, u) in self.edges
                    comps.append((sorted(members), cyclic))
        # Tarjan closes a component after every component it reaches
        last = len(comps) - 1
        return comps[::-1], [last - c for c in comp_of]


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
    comps, comp_of = g.components
    for members, cyclic in comps:
        # a component is one cycle iff each member has one arrow inside it
        if cyclic and any(sum(comp_of[v] == comp_of[u] for v in g.adjacency[u]) != 1
                          for u in members):
            return GrowthClass.exponential()
    weights = [int(cyclic) for _, cyclic in comps]
    return GrowthClass.polynomial(_heaviest_path(g, comps, comp_of, weights))


def global_dimension(gw):
    """Infinite iff the obstruction graph has a cycle, else 1 + longest path."""
    comps, comp_of = gw.components
    if any(cyclic for _, cyclic in comps):
        return GlDim.infinite()
    # acyclic: every component is one vertex, and a path of k vertices has k - 1 arrows
    return GlDim.finite(max(1, _heaviest_path(gw, comps, comp_of, [1] * len(comps))))


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
    # an acyclic graph with one arrow per pair of vertices is a tournament.  gn less
    # its self-arrows has gn's components, which the one pass emits in the same order:
    # it is acyclic iff they are n, and then they list its one topological order
    comps = gn.components[0]
    cond_shape = ({(u, v) for u, v in gn.edges if u == v} == {(basepoint, basepoint)}
                  and len(gn.edges) == pairs + 1 and len(comps) == n)
    relabeling = [members[0] for members, _ in comps] if cond_shape else None
    if cond_growth != cond_shape:
        raise CheckFailed("growth, tournament shape and relabeling disagree")
    return {"matches": cond_shape, "relabeling": relabeling}


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
