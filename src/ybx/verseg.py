"""Veronese subalgebra and Segre product presentations.

The d-Veronese subalgebra of a quadratic binomial algebra is generated
by the normal words of length d; each product v_i v_j outside the
normal words of length 2d contributes one relation whose right side is
the normal form split back into a product of two length-d normal words.

The Segre product of two algebras from left-nondegenerate idempotent
solutions is presented on generators z_{ia} with relations rewriting
z_{ia} z_{jb} to z_{11} z_{k l}; this coincides with the canonical
relations of the product solution.  The morphism check compares r-orbit
partitions: a set's degree-2 relations are differences of basis pairs.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import InsufficientDegree
from .braidmon import WordActions, _veronese
from .ncgb import complete, hilbert_series, normal_form_word, normal_words
from .orbits import canonical_basis, canonical_relations, idempotent_structure, r_orbits
from .quadset import cartesian_product, require_properties


# generators: words or product symbols; relations: frozen NcPolynomials over their indices
QuadraticPresentation = namedtuple("QuadraticPresentation", "generators relations")


def _freeze(p):
    return tuple(sorted(p.items()))


def veronese_presentation(relations, d, max_degree=None, alphabet=0):
    """Presentation of the d-Veronese subalgebra of a binomial quadratic
    algebra given by reduced binomial relations."""
    if max_degree is None:
        max_degree = max(2 * d, 3)
    if max_degree < 2 * d:
        raise InsufficientDegree(f"level {d} needs completion through {2 * d}")
    return _veronese_relations(complete(relations, max_degree, alphabet=alphabet), d)


def _veronese_relations(gb, d):
    """The d-Veronese presentation read from the basis gb."""
    gb.require_degree(2 * d, f"the level-{d} Veronese presentation")
    gens = normal_words(gb, d)
    index = {w: i for i, w in enumerate(gens)}
    rels = []
    for i, u in enumerate(gens):
        for j, v in enumerate(gens):
            w = u + v
            nor = normal_form_word(w, gb)
            if nor == w:
                continue
            # subwords of a normal word are normal, so both halves are generators
            rels.append(_freeze({(i, j): Fraction(1),
                                 (index[nor[:d]], index[nor[d:]]): Fraction(-1)}))
    return QuadraticPresentation(tuple(gens), tuple(rels))


def veronese_isomorphism_check(qs, d):
    """Compare the d-Veronese presentation of the algebra with the
    canonical relations of the d-Veronese solution, under v_i <-> x_i."""
    require_properties(qs, "the identification",
                       "braided", "idempotent", "left_nondegenerate")
    if d == 1:
        return True
    wa = WordActions(qs, max_degree=max(2 * d, 3))
    pres = _veronese_relations(wa.gb, d)
    vs = _veronese(wa, d)
    if pres.generators != vs.labels:
        return False
    got = {(max(rel)[0], min(rel)[0]) for rel in pres.relations}
    want = set(canonical_relations(vs.base).relations)
    return got == want


def segre_presentation(qsX, qsY):
    """Relations F_{ia,jb} = z_{ia} z_{jb} - z_{11} z_{k_{ij} l_{ab}} on the
    lexicographically ordered product generators; idempotent_structure
    requires both factors idempotent and left-nondegenerate."""
    n, m = qsX.n, qsY.n
    k = idempotent_structure(qsX)
    l = idempotent_structure(qsY)
    gens = tuple((i, a) for i in range(n) for a in range(m))
    rels = []
    for i in range(n):
        for a in range(m):
            if (i, a) == (0, 0):
                continue
            for j in range(n):
                for b in range(m):
                    src = (i * m + a, j * m + b)
                    dst = (0, k[i][j] * m + l[a][b])
                    rels.append(_freeze({src: Fraction(1), dst: Fraction(-1)}))
    return QuadraticPresentation(gens, tuple(rels))


def segre_morphism_check(qsX, qsY, D):
    """Verify the Segre morphism data up to degree D.

    (a) each F relation maps to zero in the tensor algebra: both tensor
        components have equal normal forms in their factors, which
        idempotent_structure has checked, since the degree-2 normal word
        of a pair is the least pair of its orbit;
    (b) the degree-d component of the product algebra has dimension n*m
        for 2 <= d <= D, matching the diagonal subalgebra;
    (c) the degree-2 relation space image(id - Psi) of the product
        solution equals sigma_23(R_A (x) W (x) W + V (x) V (x) R_B), R_A and
        R_B those of the factors.  As (id - Psi) e_p = e_p - e_r(p), the
        first is {x : x sums to 0 over each r-orbit}; the second is spanned
        by moves of one factor at a time, so its classes are the pairs
        (X-orbit of (i, j), Y-orbit of (a, b)).  A span of differences of
        basis vectors is fixed by its partition, so (c) compares partitions.
    """
    n, m = qsX.n, qsY.n
    prod = cartesian_product(qsX, qsY)
    # (a) raises CheckFailed unless x_i x_j and x_1 x_{k_ij} have one image
    idempotent_structure(qsX)
    idempotent_structure(qsY)

    # (b) dimension of each graded component
    gbP = canonical_basis(prod, max(D, 3))
    dims_ok = all(c == n * m for c in hilbert_series(gbP, D).coefficients[2:])

    # (c) degree-2 relation spaces agree
    rel_ok = _same_orbit_partition(qsX, qsY, prod)

    return {"relations_vanish": True, "dims_ok": dims_ok,
            "relation_space_ok": rel_ok, "ok": dims_ok and rel_ok}


def _same_orbit_partition(qsX, qsY, prod):
    """Whether the r-orbits of prod = X x Y and the classes (X-orbit of (i, j),
    Y-orbit of (a, b)) partition the pairs ((i, a), (j, b)) alike: exactly
    when the joint labels are as many as the labels on either side."""
    m = qsY.n
    ox, oy, op = (r_orbits(qs) for qs in (qsX, qsY, prod))
    joint = {(idx, ox.orbit_of[u // m, v // m], oy.orbit_of[u % m, v % m])
             for (u, v), idx in op.orbit_of.items()}
    return len(joint) == len(op) == len(ox) * len(oy)
