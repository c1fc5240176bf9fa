"""The public behaviour of the result records: each one prints as
Name(field=value, ...), compares and hashes by value, survives a pickle
round trip and refuses field assignment."""

import pickle
from fractions import Fraction

import pytest

from ybx import braidmon, growth, ncgb, orbits, quadset, verseg
from ybx.errors import InvalidArgument

BASE = quadset.make_permutation_solution([1, 0])
ORBIT = orbits.Orbit(members=frozenset({(0, 1), (1, 0)}), minimal=(0, 1),
                     fixed_points=frozenset())
VERONESE = braidmon.VeroneseSolution(d=1, base=BASE, labels=((0,), (1,)))

# (a record, its repr, an equal record built apart, a different record)
RECORDS = [
    (BASE,
     "QuadraticSet(n=2, r_table=((1, 0), (0, 1), (1, 0), (0, 1)))",
     quadset.QuadraticSet(2, [[1, 0], [0, 1], [1, 0], [0, 1]]),
     quadset.make_permutation_solution([0, 1])),
    (quadset.PropertyReport(True, False, True, True, False, True),
     "PropertyReport(involutive=True, idempotent=False, braided=True, "
     "left_nondegenerate=True, right_nondegenerate=False, left_2_cancellative=True)",
     quadset.PropertyReport(involutive=True, idempotent=False, braided=True,
                            left_nondegenerate=True, right_nondegenerate=False,
                            left_2_cancellative=True),
     quadset.PropertyReport(*[True] * 6)),
    (ORBIT,
     "Orbit(members=frozenset({(0, 1), (1, 0)}), minimal=(0, 1), fixed_points=frozenset())",
     orbits.Orbit(frozenset({(1, 0), (0, 1)}), (0, 1), frozenset()),
     orbits.Orbit(frozenset({(0, 0)}), (0, 0), frozenset({(0, 0)}))),
    (orbits.OrbitDecomposition(orbits=(ORBIT,), orbit_of={(0, 1): 0, (1, 0): 0}),
     "OrbitDecomposition(orbits=(Orbit(members=frozenset({(0, 1), (1, 0)}), "
     "minimal=(0, 1), fixed_points=frozenset()),), orbit_of={(0, 1): 0, (1, 0): 0})",
     orbits.OrbitDecomposition((ORBIT,), {(1, 0): 0, (0, 1): 0}),
     orbits.OrbitDecomposition((), {})),
    (orbits.RelationSet(relations=(((1, 0), (0, 1)),)),
     "RelationSet(relations=(((1, 0), (0, 1)),))",
     orbits.RelationSet((((1, 0), (0, 1)),)),
     orbits.RelationSet(())),
    (growth.DirectedGraph(2, frozenset({(0, 1)})),
     "DirectedGraph(vertex_count=2, edges=frozenset({(0, 1)}))",
     growth.DirectedGraph(vertex_count=2, edges=frozenset({(0, 1)})),
     growth.DirectedGraph(2, frozenset({(1, 0)}))),
    (growth.GrowthClass("Polynomial", 1),
     "GrowthClass(kind='Polynomial', degree=1)",
     growth.GrowthClass.polynomial(1),
     growth.GrowthClass.polynomial(2)),
    (growth.GlDim("Finite", 2),
     "GlDim(kind='Finite', value=2)",
     growth.GlDim.finite(2),
     growth.GlDim.infinite()),
    (ncgb.HilbertPrefix(coefficients=(1, 3), exact=True),
     "HilbertPrefix(coefficients=(1, 3), exact=True)",
     ncgb.HilbertPrefix((1, 3), True),
     ncgb.HilbertPrefix((1, 3), False)),
    (VERONESE,
     "VeroneseSolution(d=1, base=QuadraticSet(n=2, r_table=((1, 0), (0, 1), (1, 0), "
     "(0, 1))), labels=((0,), (1,)))",
     braidmon.VeroneseSolution(1, quadset.make_permutation_solution([1, 0]), ((0,), (1,))),
     braidmon.VeroneseSolution(1, BASE, ((1,), (0,)))),
    (braidmon.ProlongationData(solutions=(VERONESE,), period=None, distinct_count=1),
     "ProlongationData(solutions=(VeroneseSolution(d=1, base=QuadraticSet(n=2, "
     "r_table=((1, 0), (0, 1), (1, 0), (0, 1))), labels=((0,), (1,))),), period=None, "
     "distinct_count=1)",
     braidmon.ProlongationData((VERONESE,), None, 1),
     braidmon.ProlongationData((VERONESE,), 1, 1)),
    (verseg.QuadraticPresentation(
        generators=((0,), (1,)), relations=((((1, 0), Fraction(1)), ((0, 1), Fraction(-1))),)),
     "QuadraticPresentation(generators=((0,), (1,)), relations=((((1, 0), Fraction(1, 1)), "
     "((0, 1), Fraction(-1, 1))),))",
     verseg.QuadraticPresentation(((0,), (1,)),
                                  ((((1, 0), Fraction(1)), ((0, 1), Fraction(-1))),)),
     verseg.QuadraticPresentation(((0,), (1,)), ())),
]
IDS = [type(record).__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, text, equal, other", RECORDS, ids=IDS)
def test_record_repr_and_value_semantics(record, text, equal, other):
    assert repr(record) == text
    assert record == equal and not record != equal
    assert record != other
    if isinstance(record, orbits.OrbitDecomposition):
        with pytest.raises(TypeError):          # orbit_of is a dict
            hash(record)
    else:
        assert hash(record) == hash(equal)
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == text


@pytest.mark.parametrize("record, text, equal, other", RECORDS, ids=IDS)
def test_record_fields_are_read_only(record, text, equal, other):
    name = text[len(type(record).__name__) + 1:].split("=", 1)[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert getattr(record, name) is value and repr(record) == text
    if not isinstance(record, growth.DirectedGraph):    # its __dict__ caches adjacency
        with pytest.raises(AttributeError):
            record.extra = 1


def test_quadratic_set_is_the_tuple_of_its_fields():
    fields = (2, ((1, 0), (0, 1), (1, 0), (0, 1)))
    assert isinstance(BASE, tuple) and quadset.QuadraticSet.__slots__ == ()
    assert BASE == fields and hash(BASE) == hash(fields)
    assert (BASE.n, BASE.r_table) == fields and BASE.r(0, 1) == (0, 1)


def test_directed_graph_refuses_edges_out_of_range():
    with pytest.raises(InvalidArgument, match=r"edge \(0, 2\) out of range"):
        growth.DirectedGraph(2, frozenset({(0, 2)}))


def test_directed_graph_keeps_its_adjacency_through_a_pickle():
    g = growth.DirectedGraph(3, frozenset({(0, 2), (0, 1), (2, 0)}))
    assert g.adjacency == [[1, 2], [], [0]]
    assert g.adjacency is g.adjacency
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g) and copy.adjacency == [[1, 2], [], [0]]


def test_growth_and_gldim_default_to_none():
    assert growth.GrowthClass("Exponential").degree is None
    assert growth.GrowthClass.exponential() == growth.GrowthClass("Exponential", None)
    assert growth.GlDim("Infinite").value is None
    assert growth.GlDim.infinite() == growth.GlDim("Infinite", None)
    assert repr(growth.GlDim.infinite()) == "GlDim(kind='Infinite', value=None)"


def test_orbit_decomposition_length_is_its_orbit_count():
    dec = orbits.r_orbits(quadset.make_permutation_solution([1, 2, 0]))
    assert len(dec) == len(dec.orbits) == 3
    assert len(orbits.OrbitDecomposition((), {})) == 0


def test_property_report_dict_follows_property_names():
    report = quadset.check_properties(BASE)
    assert tuple(report._asdict()) == quadset.PROPERTY_NAMES
    assert report._asdict() == {name: getattr(report, name)
                                for name in quadset.PROPERTY_NAMES}


def test_relation_set_polynomials():
    rels = orbits.RelationSet((((1, 0), (0, 1)), ((1, 1), (0, 0))))
    assert rels.to_polynomials() == [{(1, 0): 1, (0, 1): -1}, {(1, 1): 1, (0, 0): -1}]
