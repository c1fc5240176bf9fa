import os
import random
import subprocess
import sys
from functools import cache
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import orbits_oracle
from ybx import orbits, quadset


def random_table(n, rng):
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(n * n)]


def components_oracle(qs):
    # weakly-connected components of p -> r(p) by plain undirected BFS
    n = qs.n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    adj = {p: set() for p in pairs}
    for p in pairs:
        q = qs.r(*p)
        adj[p].add(q)
        adj[q].add(p)
    seen = set()
    comps = []
    for p in pairs:
        if p in seen:
            continue
        comp = set()
        todo = [p]
        while todo:
            u = todo.pop()
            if u in comp:
                continue
            comp.add(u)
            todo.extend(adj[u] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return set(comps)


def test_orbits_match_component_oracle_random():
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(40):
            qs = quadset.QuadraticSet(n, random_table(n, rng))
            dec = orbits.r_orbits(qs)
            assert {orb.members for orb in dec.orbits} == components_oracle(qs)


@cache
def braided_classes():
    """The lex-least member of every braided class at n <= 3."""
    return [qs for n in (1, 2, 3) for qs in quadset.enumerate_solutions(n, ["braided"])]


@st.composite
def any_tables(draw):
    """r-tables on 1-4 points: arbitrary, the braided classes at n <= 3, and
    the braided r_f(x, y) = (f(y), y) of any map f."""
    way = draw(st.sampled_from(["any", "braided", "r_f"]))
    if way == "braided":
        return draw(st.sampled_from(braided_classes()))
    n = draw(st.integers(1, 4))
    if way == "r_f":
        f = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        return quadset.QuadraticSet(n, [(f[j], j) for i in range(n) for j in range(n)])
    pairs = list(product(range(n), repeat=2))
    return quadset.QuadraticSet(n, draw(st.lists(st.sampled_from(pairs),
                                                 min_size=n * n, max_size=n * n)))


@settings(max_examples=300, deadline=None)
@given(any_tables())
def test_orbits_match_the_tuple_oracle(qs):
    # the same members, least members, fixed points and orbit_of; equal
    # reprs mean the frozensets and the dict iterate in the same order
    dec, want = orbits.r_orbits(qs), orbits_oracle.r_orbits(qs)
    assert dec == want and repr(dec) == repr(want)


def test_orbit_graph_shape(cycle3):
    g = orbits.orbit_graph(cycle3)
    assert g.vertex_count == 9
    # one arrow per pair, toward its image
    for i in range(3):
        for j in range(3):
            k, l = cycle3.r(i, j)
            assert (i * 3 + j, k * 3 + l) in g.edges


def test_cycle3_orbits_and_relations(cycle3):
    dec = orbits.r_orbits(cycle3)
    assert len(dec) == 3
    # column orbits: all pairs (_, j) are identified
    for orb in dec.orbits:
        cols = {j for (_, j) in orb.members}
        assert len(cols) == 1
    rels = orbits.canonical_relations(cycle3)
    assert set(rels.relations) == {((i, j), (0, j))
                                   for i in (1, 2) for j in range(3)}


def test_mixed3_relations(mixed3):
    rels = orbits.canonical_relations(mixed3)
    assert rels.relations == (
        ((1, 0), (0, 2)), ((1, 1), (0, 0)), ((1, 2), (0, 1)),
        ((2, 0), (0, 1)), ((2, 1), (0, 2)), ((2, 2), (0, 0)))
    polys = rels.to_polynomials()
    assert all(sorted(p.values()) == [-1, 1] for p in polys)


def test_relation_count_is_pairs_minus_orbits():
    rng = random.Random(11)
    for _ in range(30):
        qs = quadset.QuadraticSet(3, random_table(3, rng))
        dec = orbits.r_orbits(qs)
        rels = orbits.canonical_relations(qs)
        assert len(rels.relations) == 9 - len(dec)


def test_idempotent_structure(mixed3, cycle3):
    k = orbits.idempotent_structure(mixed3)
    assert k[0] == (0, 1, 2)
    dec = orbits.r_orbits(mixed3)
    for i, j in product(range(3), repeat=2):
        assert dec.orbit_of[(0, k[i][j])] == dec.orbit_of[(i, j)]
    # permutation case: every row equals the identity row
    kp = orbits.idempotent_structure(cycle3)
    assert kp == ((0, 1, 2),) * 3


def test_fixed_points_are_images(mixed3):
    dec = orbits.r_orbits(mixed3)
    fixed = {p for orb in dec.orbits for p in orb.fixed_points}
    images = {mixed3.r(i, j) for i in range(3) for j in range(3)}
    assert fixed == images


def test_idempotent_structure_check_survives_optimized_mode():
    # python -O strips assert statements; images that contradict the
    # structure table must still be reported: past the gate, the flip's
    # x_2 x_1 has the image (1, 2) and x_1 x_1, its partner, (1, 1)
    code = (
        "from ybx import orbits, quadset\n"
        "from ybx.errors import CheckFailed\n"
        "cycle3 = quadset.make_permutation_solution([1, 2, 0])\n"
        "print(orbits.idempotent_structure(cycle3))\n"
        "quadset.require_properties = lambda *args: None\n"
        "try:\n"
        "    orbits.idempotent_structure(quadset.make_named('flip', 2))\n"
        "except CheckFailed as exc:\n"
        "    print('CheckFailed', exc)\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(orbits.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    table, failure = out.splitlines()
    assert table == str(((0, 1, 2),) * 3)
    assert failure.startswith("CheckFailed ")
