"""Braided-monoid word actions and d-Veronese solutions.

A braided set acts on itself; the actions extend uniquely to words:

  left:   c |> (b_1...b_q) = (c |> b_1)((c <| b_1) |> b_2) ... ,
          (a_1...a_p) |> b = a_1 |> (a_2...a_p |> b)
  right:  a <| (u v) = (a <| u) <| v,
          (a b) <| u = (a <| (b |> u))(b <| u)

Both actions preserve length and come from one crossing of a over b:
each letter c of a, last first, passes along b, turning each letter x
into c |> x and itself into c <| x; b's place then holds a |> b, and the
letters carried out, first one last, spell a <| b.  The crossing never
uses the braid relation, so it gives these words for every r.
WordActions(qs, max_degree) adds normal forms Nor through max_degree.

Composed with normal forms the actions give the normalized solution rho
on normal words; its restriction to the normal words of a fixed length d
is the d-Veronese solution, which for left-nondegenerate idempotent sets
is again a solution on X itself (the prolongation).
"""

from collections import namedtuple
from functools import cached_property
from itertools import product

from .errors import CheckFailed, InvalidArgument, SizeTooLarge
from .ncgb import hilbert_series, normal_form_word, normal_words
from .orbits import canonical_basis
from .quadset import MAX_SIZE, QuadraticSet, require_properties


class WordActions:
    """A quadratic set with the normal forms of its words through max_degree,
    its canonical basis completed on first use."""

    def __init__(self, qs, max_degree):
        self.qs, self.max_degree = qs, max_degree

    @cached_property
    def gb(self):
        return canonical_basis(self.qs, self.max_degree)

    def nor(self, word):
        return normal_form_word(word, self.gb)


def _cross(qs, a, b):
    """(a |> b, a <| b), by the crossing described above."""
    n, t = qs.n, qs.r_table
    b, right_word = list(b), []
    for c in reversed(a):
        for i, x in enumerate(b):
            b[i], c = t[c * n + x]
        right_word.append(c)
    return tuple(b), tuple(reversed(right_word))


def word_left_action(a, b, wa):
    """The word a acting on the word b from the left; |result| = |b|."""
    return _cross(wa.qs, a, b)[0]


def word_right_action(a, b, wa):
    """The word a acted on by the word b from the right; |result| = |a|."""
    return _cross(wa.qs, a, b)[1]


def rho(a, b, wa):
    """The normalized solution on normal words: rho(a, b) =
    (Nor(a |> b), Nor(a <| b))."""
    left, right = _cross(wa.qs, a, b)
    return wa.nor(left), wa.nor(right)


def check_braided_monoid_axioms(wa, max_len):
    """Verify that both word actions descend to the monoid S(X, r):
    Nor(a |> b) = Nor(Nor(a) |> Nor(b)) and Nor(a <| b) = Nor(Nor(a) <| Nor(b))
    for all words a, b of length <= max_len; the first failure raises CheckFailed.

    ML1/MR1, ML2/MR2 and M3 hold on words for every r: a grid's cells do not
    depend on the order they are filled, and each swap of the crossing is a
    defining relation xy = r(x, y).  On S(X, r) they then follow from descent,
    the one condition that depends on r."""
    require_properties(wa.qs, "word actions", "braided")
    wa.gb.require_degree(max_len, "the braided-monoid check")
    nor = wa.nor
    words = [w for k in range(max_len + 1) for w in product(range(wa.qs.n), repeat=k)]
    for a in words:
        for b in words:
            na, nb = nor(a), nor(b)
            if nor(word_left_action(a, b, wa)) != nor(word_left_action(na, nb, wa)):
                raise CheckFailed(f"|> does not descend to S(X, r) on a={a}, b={b}")
            if nor(word_right_action(a, b, wa)) != nor(word_right_action(na, nb, wa)):
                raise CheckFailed(f"<| does not descend to S(X, r) on a={a}, b={b}")
    return True


# base: the level-d solution on labels, the normal words of length d in deg-lex order
VeroneseSolution = namedtuple("VeroneseSolution", "d base labels")


def veronese_solution(qs, d, wa=None):
    """The d-Veronese solution on the normal words of length d; wa is qs's.
    More than MAX_SIZE such words raise SizeTooLarge before any is listed."""
    require_properties(qs, "Veronese solutions", "braided")
    if wa is not None and wa.qs != qs:
        raise InvalidArgument("the word actions were built for another set")
    return _veronese(wa or WordActions(qs, max(2 * d, 3)), d)


def level_words(gb, d, what, unit):
    """The normal words of length d, which the level-d Veronese `what` reads
    off gb as its `unit`; more than MAX_SIZE of them raise SizeTooLarge
    before any is listed."""
    name = f"the level-{d} Veronese {what}"
    gb.require_degree(2 * d, name)
    # there are at most n^d normal words of length d: count them only past the bound
    if gb.alphabet_size ** d > MAX_SIZE and \
            (size := hilbert_series(gb, d).coefficients[d]) > MAX_SIZE:
        raise SizeTooLarge(f"{name} has {size} {unit}, more than {MAX_SIZE}")
    return normal_words(gb, d)


def _veronese(wa, d):
    # veronese_solution on the word actions of a set checked to be braided
    if d < 1:
        raise InvalidArgument(f"the Veronese level must be at least 1, not {d}")
    if d == 1:
        return VeroneseSolution(1, wa.qs, tuple((i,) for i in range(wa.qs.n)))
    labels = tuple(level_words(wa.gb, d, "solution", "points"))
    index = {w: i for i, w in enumerate(labels)}
    table = []
    for a in labels:
        for b in labels:
            u, v = rho(a, b, wa)
            table.append((index[u], index[v]))
    return VeroneseSolution(d, QuadraticSet(len(labels), table), labels)


# solutions for d = 1..d_max; period: least p with r^(p+1) = r, or None if not seen
ProlongationData = namedtuple("ProlongationData", "solutions period distinct_count")


def prolongation_sequence(qs, d_max):
    """The prolongations (X, r^(d)) for d = 1..d_max with periodicity data."""
    if d_max < 1:
        raise InvalidArgument(f"the prolongation bound must be at least 1, not {d_max}")
    require_properties(qs, "prolongations", "braided", "idempotent", "left_nondegenerate")
    wa = WordActions(qs, max_degree=max(2 * d_max, 3))
    sols = [_veronese(wa, d) for d in range(1, d_max + 1)]
    period = None
    for d in range(2, d_max + 1):
        if sols[d - 1].base == qs:
            period = d - 1
            break
    distinct = len({s.base for s in sols})
    return ProlongationData(tuple(sols), period, distinct)

