import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

from ybx import growth, ncgb, orbits, quadset
from ybx.errors import PreconditionViolated, YbxError

ALL_PAIRS3 = [(i, j) for i in range(3) for j in range(3)]


def monomial_gb(normal_pairs, n):
    rels = [{w: Fraction(1)} for w in product(range(n), repeat=2)
            if w not in normal_pairs]
    return ncgb.complete(rels, 3, alphabet=n)


def all_monomial_cases(n=3):
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for bits in range(1 << (n * n)):
        yield frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)


def path_counts(edges, n, up_to):
    # number of d-vertex directed walks, via integer adjacency powers
    adj = [[1 if (i, j) in edges else 0 for j in range(n)] for i in range(n)]
    counts = [1, n]
    vec = [1] * n          # walks ending at each vertex
    for _ in range(2, up_to + 1):
        vec = [sum(vec[i] * adj[i][j] for i in range(n)) for j in range(n)]
        counts.append(sum(vec))
    return counts


def test_graphs_partition_the_square(mixed3):
    gb = ncgb.complete(orbits.canonical_relations(mixed3).to_polynomials(),
                       6, alphabet=3)
    n2 = ncgb.normal_words(gb, 2)
    gn = growth.normal_graph(n2, 3)
    gw = growth.obstruction_graph(n2, 3)
    assert gn.edges & gw.edges == frozenset()
    assert len(gn.edges) + len(gw.edges) == 9


def test_normal_word_counts_equal_path_counts():
    for normal in all_monomial_cases():
        gb = monomial_gb(normal, 3)
        assert gb.complete
        counts = path_counts(normal, 3, 6)
        for d in range(7):
            assert len(ncgb.normal_words(gb, d)) == counts[d]


def test_low_growth_forces_infinite_global_dimension():
    for normal in all_monomial_cases():
        gn = growth.normal_graph(normal, 3)
        gw = growth.obstruction_graph(normal, 3)
        gk = growth.gk_dimension(gn)
        if gk.kind == "Polynomial" and gk.degree < 3:
            assert growth.global_dimension(gw) == growth.GlDim.infinite()
            witness = orbits.gldiminf_witness(monomial_gb(normal, 3))
            assert witness != "NotApplicable"
            if len(witness) == 1:
                assert (witness[0], witness[0]) in gw.edges
            else:
                x, z = witness
                assert (x, z) in gw.edges and (z, x) in gw.edges


def test_growth_examples():
    # full graph: free-algebra growth is exponential
    full = growth.normal_graph(ALL_PAIRS3, 3)
    assert growth.gk_dimension(full) == growth.GrowthClass.exponential()
    # self-arrows only: three disjoint loops, degree one
    loops = growth.normal_graph([(i, i) for i in range(3)], 3)
    assert growth.gk_dimension(loops) == growth.GrowthClass.polynomial(1)
    # chain of loops 0 -> 1 -> 2 with all self-arrows: degree three
    chain = growth.normal_graph(
        [(i, i) for i in range(3)] + [(0, 1), (1, 2)], 3)
    assert growth.gk_dimension(chain) == growth.GrowthClass.polynomial(3)
    # two loops sharing a vertex: exponential
    shared = growth.normal_graph([(0, 0), (0, 1), (1, 0)], 2)
    assert growth.gk_dimension(shared) == growth.GrowthClass.exponential()


def test_global_dimension_examples():
    # no obstructions: longest path 0
    assert growth.global_dimension(growth.DirectedGraph(3, frozenset())) \
        == growth.GlDim.finite(1)
    # obstruction edges i -> j for i > j: acyclic with longest path n-1
    for n in (2, 3, 4):
        gw = growth.DirectedGraph(n, frozenset(
            (i, j) for i in range(n) for j in range(n) if i > j))
        assert growth.global_dimension(gw) == growth.GlDim.finite(n)
    cyc = growth.DirectedGraph(2, frozenset({(0, 1), (1, 0)}))
    assert growth.global_dimension(cyc) == growth.GlDim.infinite()


def test_flip_solution_dimensions():
    for n in (2, 3):
        qs = quadset.make_named("flip", n)
        gb = ncgb.complete(orbits.canonical_relations(qs).to_polynomials(),
                           6, alphabet=n)
        n2 = ncgb.normal_words(gb, 2)
        gw = growth.obstruction_graph(n2, n)
        assert growth.global_dimension(gw) == growth.GlDim.finite(n)
        assert growth.gk_dimension(growth.normal_graph(n2, n)) \
            == growth.GrowthClass.polynomial(n)
        assert orbits.gldiminf_witness(gb) == "NotApplicable"


def test_permutation_solution_witness(cycle3):
    gb = ncgb.complete(orbits.canonical_relations(cycle3).to_polynomials(),
                       6, alphabet=3)
    assert orbits.gldiminf_witness(gb) == (1,)


def acyclic_digraphs(n):
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(arcs)):
        edges = frozenset(a for k, a in enumerate(arcs) if bits >> k & 1)
        g = growth.DirectedGraph(n, edges)
        if not growth.has_cycle(g):
            yield g


def check_extension(g):
    out = growth.extend_to_acyclic_tournament(g)
    assert g.edges <= out.edges
    assert not growth.has_cycle(out)
    for u, v in combinations(range(g.vertex_count), 2):
        assert ((u, v) in out.edges) != ((v, u) in out.edges)


def test_every_acyclic_digraph_extends_to_acyclic_tournament():
    for n in (1, 2, 3, 4):
        for g in acyclic_digraphs(n):
            check_extension(g)
    rng = random.Random(99)
    arcs = [(i, j) for i in range(5) for j in range(5) if i != j]
    found = 0
    while found < 150:
        edges = frozenset(a for a in arcs if rng.random() < 0.3)
        g = growth.DirectedGraph(5, edges)
        if not growth.has_cycle(g):
            check_extension(g)
            found += 1


def test_tournament_structure_recovery():
    rng = random.Random(7)
    for n in (3, 4, 5):
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            edges = {(perm[i], perm[j]) for i in range(n)
                     for j in range(i + 1, n)}
            loop = rng.choice(range(n))
            edges.add((loop, loop))
            g = growth.DirectedGraph(n, frozenset(edges))
            res = growth.tournament_structure(g, loop)
            assert res["matches"] and res["relabeling"] == perm


def test_tournament_structure_negative_and_guards():
    star = growth.DirectedGraph(3, frozenset({(0, 0), (0, 1), (0, 2)}))
    res = growth.tournament_structure(star, 0)
    assert not res["matches"] and res["relabeling"] is None
    with pytest.raises(PreconditionViolated):
        growth.tournament_structure(star, 1)   # no self-arrow there
    lonely = growth.DirectedGraph(3, frozenset({(0, 0)}))
    with pytest.raises(PreconditionViolated):
        growth.tournament_structure(lonely, 0)


def test_dim_a2_bounds(mixed3, cycle3):
    for qs in (mixed3, cycle3):
        report = orbits.dimA2_bounds_check(qs)
        assert report["dim_A2"] == 3 and report["pbw"]
        assert report["lower_ok"] and report["upper_ok"] and report["flat_ok"]
    two = quadset.make_permutation_solution([1, 0])
    report = orbits.dimA2_bounds_check(two)
    assert report["dim_A2"] == 2   # the bounds coincide at n = 2


def test_dot_output_is_deterministic():
    g = growth.DirectedGraph(2, frozenset({(0, 1), (1, 1)}))
    dot = growth.to_dot(g, name="T")
    assert dot == ('digraph T {\n  "v1";\n  "v2";\n'
                   '  "v1" -> "v2";\n  "v2" -> "v2";\n}\n')


# Each case breaks one input of a growth verdict; python -O strips assert
# statements, so the verdict must still raise.
BROKEN_VERDICTS = {
    "tournament": (
        "growth.gk_dimension = lambda g: growth.GrowthClass.polynomial(2)\n"
        "g = growth.DirectedGraph(3, frozenset({(0, 1), (0, 2), (1, 2), (2, 2)}))\n"
        "growth.tournament_structure(g, 2)\n"),
    "extension": (
        "good = growth.topological_order\n"
        "growth.topological_order = lambda g: good(g)[::-1]\n"
        "growth.extend_to_acyclic_tournament("
        "growth.DirectedGraph(3, frozenset({(0, 1), (1, 2)})))\n"),
    # the constant map has a single orbit, so dim A_2 = 1 < n
    "lower": (
        "quadset.require_properties = lambda *args: None\n"
        "orbits.dimA2_bounds_check(quadset.QuadraticSet(3, [(0, 0)] * 9))\n"),
    # the identity map has dim A_2 = 9 and free growth, reported as degree 1
    "upper": (
        "quadset.require_properties = lambda *args: None\n"
        "growth.gk_dimension = lambda g: growth.GrowthClass.polynomial(1)\n"
        "table = [(i, j) for i in range(3) for j in range(3)]\n"
        "orbits.dimA2_bounds_check(quadset.QuadraticSet(3, table))\n"),
    "flat": (
        "good = ncgb.hilbert_series\n"
        "ncgb.hilbert_series = lambda gb, D: ncgb.HilbertPrefix(\n"
        "    tuple(c + 1 for c in good(gb, D).coefficients), True)\n"
        "orbits.dimA2_bounds_check(quadset.make_permutation_solution([1, 2, 0]))\n"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_VERDICTS))
def test_verdicts_survive_optimized_mode(case):
    code = (
        "from ybx import growth, ncgb, orbits, quadset\n"
        "from ybx.errors import CheckFailed\n"
        "try:\n"
        + "".join("    " + line + "\n" for line in BROKEN_VERDICTS[case].splitlines())
        + "except CheckFailed as exc:\n"
        "    print('CheckFailed', exc)\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(growth.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.startswith("CheckFailed ")


@pytest.mark.parametrize("call, match", [
    (lambda: quadset.make_named("twist", 2), "twist"),
    (lambda: growth.DirectedGraph(2, frozenset({(0, 2)})), "out of range"),
    (lambda: growth.topological_order(growth.DirectedGraph(2, frozenset({(0, 1), (1, 0)}))),
     "acyclic"),
], ids=["unknown-named-solution", "edge-out-of-range", "cyclic-graph"])
def test_bad_arguments_are_toolkit_errors(call, match):
    # reported as toolkit errors, which the CLI turns into exit code 2
    with pytest.raises(YbxError, match=match):
        call()
