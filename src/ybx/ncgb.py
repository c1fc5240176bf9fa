"""Noncommutative Groebner bases under deg-lex, bounded by degree.

Words are tuples of 0-based generator indices, polynomials dicts from words
to nonzero exact rationals, and rules rewrite a leading word to a smaller
polynomial.  Inside this module a word w is one integer, its code
n^|w| + sum of w_i n^(|w|-1-i) in base n = max(alphabet size, 2).  As
n^|w| <= code < 2 n^|w| <= n^(|w|+1), deg-lex order is integer order.  A
code c has prefix c // n, last letter c % n and length-k suffix
n^k + c % n^k; a lead with j letters after it rewrites to a word u as long
by adding (u - lead) n^j.  Words are encoded once on the way in (complete's
relations; the words of normal_form, normal_form_word and monoid_multiply,
whose letters must lie in the alphabet) and decoded once on the way out
(GroebnerBasis.rules, normal forms, normal words).  A basis that complete
returns keeps the code index completion grew; only a basis built another
way encodes its rules again, into its own index on first use.

Completion runs one degree at a time; the input is homogeneous, so every
lower rule is final when degree d turns its inputs and overlaps into its
rules of the reduced basis, truncated at the bound (Bergman's diamond
lemma).  An overlap is found once, when the later of its rules is added,
and waits in a bucket for its length; one past the bound only marks the
basis truncated.  When every relation is a word difference c(u - v), both
sides of each input and both reductions of each overlap are rewritten to
normal words, and union-find makes each word of a class but the least a
rule to the least: the classes are unique, so any normal words reachable
will do.  Other input runs on polynomials: the reduced S-polynomials go
through one exact echelon pass (ybx.elim) on negated codes, so the largest
word pivots first.

One lead index, grown in place, serves every lookup.  A word's normal word
grows from its prefix's, kept in the index: the last letter is appended,
and only a lead that ends the word is rewritten.  That is leftmost
rewriting, past the bound too: no lead of a returned basis lies in another,
so while z[:-1] is not normal z's leftmost lead lies in it, and then at
most one lead ends z.  Coefficients follow elim.coeff, but are Fractions
in the rules of a GroebnerBasis."""

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

from . import elim
from .errors import (InsufficientDegree, InvalidArgument, NonHomogeneousInput,
                     NonQuadraticInput, NotBinomial)

ONE = Fraction(1)


def poly(terms):
    """{word: coeff} without zeros, coefficients following elim.coeff."""
    return {w: elim.coeff(c) for w, c in terms.items() if c != 0}


def poly_add(p, q, scale=1):
    out = dict(p)
    for w, c in q.items():
        c = out.get(w, 0) + scale * c
        if c:
            out[w] = c
        else:
            out.pop(w, None)
    return out


def poly_scale(p, c):
    return {w: a * c for w, a in p.items()} if c else {}


def _encode(word, n, letters):
    """The code of word in base n; its letters must lie in range(letters)."""
    c = 1
    for x in word:
        if not 0 <= x < letters:
            raise InvalidArgument(f"letter {x} of {word} is not in 0..{letters - 1}")
        c = c * n + x
    return c


def _decode(c, n):
    word = []
    while c > 1:
        word.append(c % n)
        c //= n
    return tuple(reversed(word))


@dataclass(frozen=True)
class GroebnerBasis:
    alphabet_size: int
    rules: tuple          # ((lead word, rhs poly as tuple of (word, coeff)), ...)
    max_degree: int
    complete: bool
    binomial: bool

    @cached_property
    def index(self):
        """The rules on codes, coefficients following elim.coeff (ONE, which
        _freeze_rules writes for 1, is 1), and the word normal forms found; complete
        stores the index it grew, so only a basis built otherwise encodes its rules."""
        n, a = max(self.alphabet_size, 2), self.alphabet_size
        return LeadIndex(n, [(_encode(lead, n, a),
                              {_encode(w, n, a): 1 if c is ONE else elim.coeff(c)
                               for w, c in rhs}) for lead, rhs in self.rules])

    def __getstate__(self):
        # a pickle or a copy holds the fields alone and builds its own index
        return {k: v for k, v in vars(self).items() if k != "index"}

    @property
    def pbw(self):
        """Every lead is quadratic: quadratic relations are their own basis."""
        return all(len(lead) == 2 for lead, _ in self.rules)

    def final_through(self, d):
        """Whether the rules through degree d are final, as they are through
        max_degree: normal words and forms of length d read leads of length <= d."""
        return self.complete or d <= self.max_degree

    def require_degree(self, d, what):
        if not self.final_through(d):
            raise InsufficientDegree(f"{what} needs completion through degree {d}, "
                                     f"not {self.max_degree}")


class LeadIndex:
    """Rules on codes in base n, their leads looked up by length k in tables,
    {k: (n^k, {lead: first position})}, and by proper prefix and suffix,
    {code: [(rule, lead length)]}; powers n^0, n^1, ... past every code
    measured; memo, each word whose normal word was found, mapped to it;
    words, the same on the tuples normal_form_word was given; and steps, step's memo."""

    def __init__(self, n, rules=()):
        self.n, self.powers = n, [1]
        self.rules, self.tables, self.starts, self.ends = [], {}, {}, {}
        self.memo, self.words, self.steps = {1: 1}, {}, {}
        for rule in rules:
            self.add(rule)

    def length(self, c):
        while self.powers[-1] <= c:
            self.powers.append(self.powers[-1] * self.n)
        return bisect_right(self.powers, c) - 1

    def add(self, rule):
        lead, powers = rule[0], self.powers
        entry = rule, (k := self.length(lead))
        self.tables.setdefault(k, (powers[k], {}))[1].setdefault(lead, len(self.rules))
        self.rules.append(rule)
        self.steps.clear()
        for j in range(1, k):
            self.starts.setdefault(lead // powers[k - j], []).append(entry)
            self.ends.setdefault(powers[j] + lead % powers[j], []).append(entry)
        return k

    def find(self, word):
        """(q, i) for the leftmost lead occurrence in word, q = n^j for the j
        letters after it and i the lowest stored index there; None if none."""
        powers = self.powers
        for r in range(self.length(word), 0, -1):    # r letters from the start on
            best = None
            for k, (p, table) in self.tables.items():
                if k <= r:
                    q = powers[r - k]
                    i = table.get(p + word // q % p)
                    if i is not None and (best is None or i < best[1]):
                        best = q, i
            if best is not None:
                return best
        return None

    def step(self, state, x):
        """The state after x, None where a lead ends: the longest suffix read that
        is a proper prefix of a lead, which ends t = state x as a lead ending x does."""
        steps, t = self.steps, state * self.n + x
        if t not in steps:
            ends = any(t >= p and p + t % p in table for p, table in self.tables.values())
            steps[t] = None if ends else next((s for p in self.powers[self.length(t):0:-1]
                                               if (s := p + t % p) in self.starts), 1)
        return steps[t]


def _freeze_rules(rules, n):
    return tuple((_decode(lead, n), tuple((_decode(w, n), ONE if c == 1 else Fraction(c))
                                          for w, c in sorted(rhs.items())))
                 for lead, rhs in sorted(rules, key=lambda r: r[0]))


def _normal_form_dict(p, index):
    """Leftmost reduction of the largest word left, which makes only smaller
    words: a word found normal is met no more."""
    out, work = {}, dict(p)
    while work:
        c = work.pop(w := max(work))
        if (hit := index.find(w)) is None:
            if c:
                out[w] = c
            continue
        q, i = hit
        lead, rhs = index.rules[i]
        for u, cu in rhs.items():
            nw = w + (u - lead) * q
            if nc := work.get(nw, 0) + c * cu:
                work[nw] = nc
            else:
                work.pop(nw, None)
    return out


def normal_form(p, gb):
    """The unique normal form of p modulo the rules of gb."""
    index, p = gb.index, {p: ONE} if isinstance(p, tuple) else p
    p = {_encode(w, index.n, gb.alphabet_size): c for w, c in p.items()}
    return {_decode(w, index.n): c for w, c in _normal_form_dict(p, index).items()}


def normal_form_word(w, gb):
    """Normal form of a single word under a binomial basis."""
    if not gb.binomial:
        raise NotBinomial("word normal forms require a binomial basis")
    index = gb.index
    if (nf := index.words.get(w)) is None:
        if (c := _encode(w, index.n, gb.alphabet_size)) not in index.memo:
            _grow_normal_words([c], index)
        nf = index.words[w] = _decode(index.memo[c], index.n)
    return nf


def _register_rule(rule, index, pending, max_degree):
    """Add rule to index, and put each overlap (u, rhs_u, v, rhs_v, q) it
    forms with earlier rules and itself, u's lead ending with v's first k
    letters and q = n^(|v| - k), into pending under its length.  Returns
    whether one is longer than max_degree: those are not kept."""
    lead, powers, size, longer = rule[0], index.powers, index.add(rule), False
    for k in range(1, size):
        q = powers[size - k]
        for u, su in index.ends.get(lead // q, ()):
            if u is not rule:
                if (d := su + size - k) > max_degree:
                    longer = True
                else:
                    pending.setdefault(d, []).append((*u, *rule, q))
        p = powers[k]
        for v, sv in index.starts.get(p + lead % p, ()):
            if (d := size + sv - k) > max_degree:
                longer = True
            else:
                pending.setdefault(d, []).append((*rule, *v, powers[sv - k]))
    return longer


def _row_step(polys, overlaps, index):
    """A degree's new rules: its inputs and the S-polynomials of its overlaps
    u v[k:], of code u q + v % q, reduced by the lower rules, in one pass."""
    polys += [poly_add({w * q + v % q: c for w, c in rhs_u.items()},
                       {u * q + v % q + w - v: c for w, c in rhs_v.items()}, -1)
              for u, rhs_u, v, rhs_v, q in overlaps]
    rows = [{-w: c for w, c in _normal_form_dict(p, index).items()} for p in polys]
    red, pivots = elim.rref(rows)
    return [(-key, {-w: elim.coeff(-c) for w, c in row.items() if w != key})
            for key, row in zip(pivots, red)]


def _grow_normal_words(words, index):
    """Keep in index.memo the normal word of each of words, under rules that
    rewrite a word to a word and with the words kept there final.  z's
    prefix's normal word with z's last letter appended is normal but where a
    lead ends it, and there z's normal word is that of its rewrite y.  A
    stack of the words waiting stands in for recursion, -y marking a wait."""
    memo, rules, ends, n = index.memo, index.rules, index.ends, index.n
    tables = [index.tables[k] for k in sorted(index.tables)]
    todo = list(words)
    while todo:
        z = todo.pop()
        if z in memo:
            continue
        if z < 0:                   # the word below waits for -z, its rewrite
            memo[todo.pop()] = memo[-z]
            continue
        if (c := memo.get(z // n)) is None:
            todo += z, z // n
            continue
        c, r = c * n + z % n, None
        # shortest lead first: a suffix that ends no lead ends the search
        for p, table in tables:
            if c < p or (r := table.get(s := p + c % p)) is not None or s not in ends:
                break
        if r is not None:
            lead, (u,) = rules[r]
            if (c := memo.get(y := c + u - lead)) is None:
                todo += z, -y, y
                continue
        memo[z] = c


def _word_step(polys, overlaps, index):
    """_row_step's rules when every input is a word difference and every
    lower rule rewrites a word to a word: the echelon form of word
    differences rewrites each word of a class to its least, its root."""
    parent = {}

    def root(w):
        while w in parent:              # halving the path as it goes
            parent[w] = w = parent.get(parent[w], parent[w])
        return w

    pairs = [tuple(p) for p in polys]
    pairs += [(a * q + (t := v % q), u * q + t + b - v)
              for u, (a,), v, (b,), q in overlaps]
    memo, start = index.memo, len(index.memo)
    _grow_normal_words([w for pair in pairs for w in pair], index)
    for x, y in pairs:
        if (a := memo[x]) in parent:
            a = root(a)
        if (b := memo[y]) in parent:
            b = root(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    # later degrees read the words kept here as final prefixes
    for w, nf in islice(memo.items(), start, None):
        if nf in parent:
            memo[w] = root(nf)
    return [(w, {root(w): 1}) for w in parent]


def complete(relations, max_degree, alphabet=0):
    """Degree-bounded completion of homogeneous relations to a Groebner basis.

    alphabet may be passed explicitly when the relations do not mention
    every generator (e.g. a free algebra has no relations at all).
    Relations of degree above max_degree become rules, reduced by the
    lower rules and by each other, but form no S-polynomials.
    """
    if max_degree < 3:
        raise InvalidArgument(f"max_degree must be at least 3, not {max_degree}")
    inputs, differences = {}, True
    for p in relations:
        if not (p := poly(p)):
            continue
        if (d := len(next(iter(p)))) < 2 or any(len(w) != d for w in p):
            raise NonHomogeneousInput("relations must be homogeneous of degree >= 2")
        alphabet = max(alphabet, max(map(max, p)) + 1)
        differences = differences and len(p) == 2 and sum(p.values()) == 0
        inputs.setdefault(d, []).append(p)
    step, n = _word_step if differences else _row_step, max(alphabet, 2)
    inputs = {d: [{_encode(w, n, alphabet): c for w, c in p.items()} for p in polys]
              for d, polys in inputs.items()}
    index, pending, truncated = LeadIndex(n), {}, False
    while inputs or pending:
        d = min([*inputs, *pending])
        for rule in step(inputs.pop(d, []), pending.pop(d, []), index):
            truncated |= _register_rule(rule, index, pending, max_degree)
    binomial = all(len(rhs) == 1 and next(iter(rhs.values())) == 1
                   for _, rhs in index.rules)
    gb = GroebnerBasis(alphabet_size=alphabet, rules=_freeze_rules(index.rules, n),
                       max_degree=max_degree, complete=not truncated, binomial=binomial)
    gb.__dict__["index"] = index        # the cached index, with its codes and memo
    return gb


def normal_words(gb, d):
    """All length-d words avoiding leading words as subwords, deg-lex sorted:
    w + (x,) is normal iff the automaton steps on x from w's state, and
    extending sorted words in letter order keeps them sorted."""
    gb.require_degree(d, f"listing the words of degree {d}")
    step, n, level = gb.index.step, gb.index.n, [(1, 1)]
    for _ in range(d):
        level = [(w * n + x, t) for w, s in level for x in range(gb.alphabet_size)
                 if (t := step(s, x)) is not None]
    return [_decode(w, n) for w, _ in level]


# coefficients: normal-word counts of degrees 0..D; exact: whether all are final
HilbertPrefix = namedtuple("HilbertPrefix", "coefficients exact")


def hilbert_series(gb, D):
    """Normal-word counts of degrees 0..D, counted without listing words:
    whether w + (x,) is normal, and its state, depend only on w's state and
    x (LeadIndex.step), so a count per state is carried.  On a truncated
    basis exact is False once D passes max_degree: leads past the bound are
    missing, so counts may be too large."""
    step, coeffs, counts = gb.index.step, [], {1: 1}
    for _ in range(D + 1):
        coeffs.append(sum(counts.values()))
        nxt = {}
        for state, c in counts.items():
            for x in range(gb.alphabet_size):
                if (t := step(state, x)) is not None:
                    nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return HilbertPrefix(coefficients=tuple(coeffs), exact=gb.final_through(D))


def is_pbw(relations):
    """True iff the quadratic relations are already a Groebner basis: every
    minimal overlap of quadratic leads has length 3.  On a solution's
    canonical relations it checks the paper's claim R = G => PBW."""
    if any(len(w) != 2 for p in relations for w in poly(p)):
        raise NonQuadraticInput("relations must be homogeneous quadratic")
    return complete(relations, 3).pbw


def monoid_multiply(u, v, gb):
    """The bullet product: the normal word equal to uv in the monoid."""
    if not gb.binomial:
        raise NotBinomial("the monoid product needs a binomial basis")
    gb.require_degree(len(u) + len(v), "the monoid product")
    return normal_form_word(u + v, gb)


def left_cancellative_check(gb, d):
    """Check x * u = x * v => u = v on normal words of length <= d: on a
    solution's canonical basis, the paper's claim that the monoid S(X, r) of
    a left-nondegenerate idempotent solution is left cancellative.  Returns
    True or a counterexample (x, u, v)."""
    gb.require_degree(d + 1, "the cancellativity check")
    for length in range(1, d + 1):
        words = normal_words(gb, length)
        for x in range(gb.alphabet_size):
            seen = {}
            for u in words:
                if (v := seen.setdefault(monoid_multiply((x,), u, gb), u)) != u:
                    return (x, v, u)
    return True
