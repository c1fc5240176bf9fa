"""The word actions that ybx.braidmon replaced, kept verbatim as an oracle.

word_left_action crosses b with one letter of a at a time, and
word_right_action rebuilds a <| b one letter of b at a time, expanding
(ab) <| u = (a <| (b |> u))(b <| u) and recomputing each suffix's action
on u.  ybx.braidmon gets both words from one crossing.  `wa` is a
ybx.braidmon.WordActions; only its `qs` is read.
"""


def _left_letter(qs, c, b):
    return qs.r(c, b)[0]


def _right_letter(qs, c, b):
    return qs.r(c, b)[1]


def _word_left_on_letter(qs, a, b):
    # (a_1...a_p) |> b = a_1 |> (a_2...a_p |> b)
    for letter in reversed(a):
        b = _left_letter(qs, letter, b)
    return b


def word_left_action(a, b, wa):
    """The word a acting on the word b from the left; |result| = |b|."""
    qs = wa.qs

    def act_letter(c, word):
        # c |> (b_1...b_q)
        out = []
        for letter in word:
            out.append(_left_letter(qs, c, letter))
            c = _right_letter(qs, c, letter)
        return tuple(out)

    for letter in reversed(a):
        b = act_letter(letter, b)
    return tuple(b)


def word_right_action(a, b, wa):
    """The word a acted on by the word b from the right; |result| = |a|."""
    qs = wa.qs

    def act_letter(word, u):
        # (a_1...a_p) <| u, expanding (ab) <| u = (a <| (b |> u))(b <| u)
        out = []
        for pos in range(len(word)):
            rest = word[pos + 1:]
            out.append(_right_letter(qs, word[pos], _word_left_on_letter(qs, rest, u)))
        return tuple(out)

    for letter in b:
        a = act_letter(a, letter)
    return tuple(a)
