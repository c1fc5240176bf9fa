"""ybx.growth against the graph code it replaced (tests/growth_oracle.py):
every verdict, value or exception type, on all digraphs with at most three
vertices, the empty graph, and seeded random digraphs with up to eight."""

import random
from itertools import product

import pytest

from ybx import growth

import growth_oracle


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:          # the type is the verdict
        return type(exc)


def assert_same(g):
    for name in ("gk_dimension", "global_dimension", "has_cycle",
                 "topological_order", "extend_to_acyclic_tournament"):
        assert outcome(getattr(growth, name), g) \
            == outcome(getattr(growth_oracle, name), g), (name, g)
    for base in range(g.vertex_count):
        assert outcome(growth.tournament_structure, g, base) \
            == outcome(growth_oracle.tournament_structure, g, base), (base, g)


def small_digraphs():
    for n in (1, 2, 3):
        arcs = list(product(range(n), repeat=2))
        for bits in range(1 << len(arcs)):
            yield growth.DirectedGraph(n, frozenset(
                a for k, a in enumerate(arcs) if bits >> k & 1))


def test_all_digraphs_up_to_three_vertices():
    graphs = list(small_digraphs())
    assert len(graphs) == 530
    for g in graphs + [growth.DirectedGraph(0, frozenset())]:
        assert_same(g)


def random_digraphs(rng, count):
    for _ in range(count):
        n = rng.randint(1, 8)
        if rng.random() < 0.3:
            # an acyclic tournament with some arcs turned or dropped and loops
            # added, near the shapes where tournament_structure says yes
            perm = rng.sample(range(n), n)
            edges = {(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)}
            edges.add((perm[rng.randrange(n)],) * 2)
            for u, v in list(edges):
                roll = rng.random()
                if roll < 0.05:
                    edges.discard((u, v))
                    edges.add((v, u))
                elif roll < 0.1:
                    edges.discard((u, v))
            if rng.random() < 0.2:
                edges.add((rng.randrange(n),) * 2)
        else:
            density = rng.choice((0.1, 0.2, 0.35, 0.5))
            edges = {a for a in product(range(n), repeat=2) if rng.random() < density}
        yield growth.DirectedGraph(n, frozenset(edges))


@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_random_digraphs_up_to_eight_vertices(seed):
    for g in random_digraphs(random.Random(seed), 1500):
        assert_same(g)
