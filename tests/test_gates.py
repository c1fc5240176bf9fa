"""Each construction that needs a property of its solution raises that
property's error class, on the set-level and on the matrix-level path."""

import pytest

from ybx import braidmon, diffcalc, linr, orbits, quadset, verseg
from ybx.errors import NotBraided, NotIdempotent, NotLeftNondegenerate

# each set lacks exactly one of the three properties a gate may need
LACKING = {
    # idempotent and left-nondegenerate, not braided
    "braided": quadset.QuadraticSet(3, ((0, 0), (1, 0), (2, 0), (1, 0), (0, 0),
                                        (2, 0), (2, 0), (0, 0), (1, 0))),
    "idempotent": quadset.make_named("flip", 2),
    "left_nondegenerate": quadset.make_named("identity", 2),
}
ERROR = {"braided": NotBraided, "idempotent": NotIdempotent,
         "left_nondegenerate": NotLeftNondegenerate}
GOOD = quadset.make_permutation_solution([0, 1])

# (gate, the properties it needs)
SET_GATES = {
    "idempotent_structure": (orbits.idempotent_structure,
                             ("idempotent", "left_nondegenerate")),
    "dimA2_bounds_check": (orbits.dimA2_bounds_check,
                           ("idempotent", "left_nondegenerate")),
    "veronese_isomorphism_check": (lambda qs: verseg.veronese_isomorphism_check(qs, 2),
                                   ("braided", "idempotent", "left_nondegenerate")),
    "segre_presentation first": (lambda qs: verseg.segre_presentation(qs, GOOD),
                                 ("idempotent", "left_nondegenerate")),
    "segre_presentation second": (lambda qs: verseg.segre_presentation(GOOD, qs),
                                  ("idempotent", "left_nondegenerate")),
    "segre_morphism_check first": (lambda qs: verseg.segre_morphism_check(qs, GOOD, 3),
                                   ("idempotent", "left_nondegenerate")),
    "segre_morphism_check second": (lambda qs: verseg.segre_morphism_check(GOOD, qs, 3),
                                    ("idempotent", "left_nondegenerate")),
    "check_braided_monoid_axioms": (
        lambda qs: braidmon.check_braided_monoid_axioms(
            braidmon.WordActions(qs, max_degree=4), 2),
        ("braided",)),
    "veronese_solution": (lambda qs: braidmon.veronese_solution(qs, 2), ("braided",)),
    "prolongation_sequence": (lambda qs: braidmon.prolongation_sequence(qs, 2),
                              ("braided", "idempotent", "left_nondegenerate")),
    "koszul_dual_polynomials": (linr.koszul_dual_polynomials, ("idempotent",)),
    "nichols_monomials": (linr.nichols_monomials, ("idempotent",)),
}


@pytest.mark.parametrize("gate, missing", [(gate, name)
                                           for gate, (_, needs) in SET_GATES.items()
                                           for name in needs])
def test_set_level_gate_names_the_missing_property(gate, missing):
    call, _ = SET_GATES[gate]
    qs = LACKING[missing]
    assert not getattr(quadset.check_properties(qs), missing)
    with pytest.raises(ERROR[missing], match=" needs "):
        call(qs)


MATRIX_GATES = {
    "sminus_degenerate_check": lambda psi, rmat: linr.sminus_degenerate_check(psi),
    "koszul_dual_relations": lambda psi, rmat: linr.koszul_dual_relations(rmat),
    "nichols_quadratic_check": lambda psi, rmat: linr.nichols_quadratic_check(psi, 3),
    "nichols_exterior": lambda psi, rmat: diffcalc.nichols_exterior(rmat),
}


@pytest.mark.parametrize("gate", sorted(MATRIX_GATES))
def test_matrix_level_gate_needs_idempotent_psi(gate):
    psi, rmat = linr.linearize(LACKING["idempotent"])
    with pytest.raises(NotIdempotent, match=" needs an idempotent Psi"):
        MATRIX_GATES[gate](psi, rmat)
    # an idempotent Psi passes the gate
    MATRIX_GATES[gate](*linr.linearize(GOOD))


def test_require_properties_raises_the_first_failing_property():
    flip = quadset.make_named("flip", 2)
    quadset.require_properties(flip, "anything", "braided", "left_nondegenerate")
    with pytest.raises(NotIdempotent, match="^the check needs an idempotent set$"):
        quadset.require_properties(flip, "the check", "braided", "idempotent")
    # the constant map to (x_1, x_2) is neither left-nondegenerate nor
    # braided: the error is that of the first name given
    qs = quadset.QuadraticSet(3, [(0, 1)] * 9)
    with pytest.raises(NotLeftNondegenerate, match="^x needs a left-nondegenerate set$"):
        quadset.require_properties(qs, "x", "left_nondegenerate", "braided")
    with pytest.raises(NotBraided, match="^x needs a braided set$"):
        quadset.require_properties(qs, "x", "braided", "left_nondegenerate")
