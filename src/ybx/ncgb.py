"""Noncommutative Groebner bases under deg-lex, bounded by degree.

Words are tuples of 0-based generator indices; polynomials are dicts
mapping words to nonzero exact rationals.  Rules rewrite a leading word to
a polynomial that is smaller in deg-lex.

Completion runs one degree at a time.  The input is homogeneous, so when
degree d starts every rule of lower degree is final, and degree d turns
its inputs and the overlaps of length d into the degree-d rules of the
reduced Groebner basis, truncated at the bound (Bergman's diamond lemma).
An overlap is found once, when the later of its two rules is added, and
waits in a bucket for its length; one past the bound only marks the basis
truncated.  A degree with no inputs and no overlaps does not run, so a
basis that closes early costs the same at any bound.  When every relation
is a word difference c(u - v), as a solution's are, this runs on words:
both sides of each input and the two reductions of each overlap word are
rewritten to normal words, and union-find makes each word of a class but
the least a rule to the least.  A word's normal word grows from its
prefix's, kept for the whole call: the last letter is appended, and only
a lead that ends at the end is rewritten.  Any normal word reachable from
each side will do, since the classes, and so the reduced basis, are
unique (the diamond lemma again).  Other input runs on polynomials: the
reduced S-polynomials go through one exact reduced-echelon pass (ybx.elim)
with the words as columns, largest first, and each pivot word becomes a lead.

One lead index serves every lookup, grown in place as rules are added:
each lead length k maps to a table {lead: first stored position}, and each
proper prefix and suffix of a lead to its rules.  Polynomial reduction
looks up word[pos:pos+k] for each k, leftmost first.  Word normal forms
grow from their prefixes as in completion, kept in the index, and that is
leftmost rewriting, past the bound too: no lead of a returned basis lies
in another, so while z[:-1] is not normal z's leftmost lead lies in it,
and then at most one lead ends z.  Normal words of degree d grow from
those of degree d-1 by one letter, keeping a word when no lead is its
suffix; the Hilbert series counts normal words per automaton state (the
longest suffix that is a proper prefix of a lead) instead of listing them.

Homogeneous input only.  Arithmetic is exact, on coefficients that follow
elim.coeff; the rules of a GroebnerBasis hold Fractions.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

from . import elim
from .errors import (InsufficientDegree, InvalidArgument, NonHomogeneousInput,
                     NonQuadraticInput, NotBinomial)

ONE = Fraction(1)


def deglex_key(word):
    return (len(word), word)


def poly(terms):
    """Normalize a {word: coeff} mapping, dropping zeros; coefficients
    follow elim.coeff."""
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


def is_homogeneous(p):
    return len({len(w) for w in p}) <= 1


@dataclass(frozen=True)
class GroebnerBasis:
    alphabet_size: int
    rules: tuple          # ((lead word, rhs poly as tuple of (word, coeff)), ...)
    max_degree: int
    complete: bool
    binomial: bool

    @cached_property
    def index(self):
        """The rules indexed by lead, coefficients following elim.coeff;
        the word normal forms kept there live as long as the basis."""
        return LeadIndex([(lead, {w: elim.coeff(c) for w, c in rhs})
                          for lead, rhs in self.rules])

    @property
    def pbw(self):
        """Every lead is quadratic: quadratic relations are their own basis."""
        return all(len(lead) == 2 for lead, _ in self.rules)

    def final_through(self, d):
        """Whether the rules through degree d are those of the full basis.
        Completion runs one degree at a time, so on a truncated basis this
        holds through max_degree: normal words and normal forms of words of
        length d, which read only leads of length <= d, are exact there."""
        return self.complete or d <= self.max_degree

    def require_degree(self, d, what):
        if not self.final_through(d):
            raise InsufficientDegree(f"{what} needs completion through degree {d}, "
                                     f"not {self.max_degree}")


class LeadIndex:
    """Rules whose leads are looked up by length, {k: {lead: first position}},
    and by proper prefix and suffix, {word: [rule, ...]}; and memo: each word
    whose normal word was found through it, mapped to it."""

    def __init__(self, rules=()):
        self.rules, self.tables, self.starts, self.ends = [], {}, {}, {}
        self.memo = {(): ()}
        for rule in rules:
            self.add(rule)

    def add(self, rule):
        lead = rule[0]
        self.tables.setdefault(len(lead), {}).setdefault(lead, len(self.rules))
        self.rules.append(rule)
        for k in range(1, len(lead)):
            self.starts.setdefault(lead[:k], []).append(rule)
            self.ends.setdefault(lead[-k:], []).append(rule)

    def find(self, word):
        """(pos, i) for the leftmost lead occurrence in word, and there the
        lowest stored index i; None if word is normal."""
        for pos in range(len(word)):
            best = None
            for k, table in self.tables.items():
                i = table.get(word[pos:pos + k])
                if i is not None and (best is None or i < best):
                    best = i
            if best is not None:
                return pos, best
        return None

    def ends_with_lead(self, word):
        return any(word[-k:] in table for k, table in self.tables.items())


def _freeze_rules(rules):
    frozen = []
    for lead, rhs in sorted(rules, key=lambda r: deglex_key(r[0])):
        rhs = sorted(rhs.items(), key=lambda t: deglex_key(t[0]))
        frozen.append((lead, tuple((w, ONE if c == 1 else Fraction(c)) for w, c in rhs)))
    return tuple(frozen)


def _normal_form_dict(p, index):
    out = {}
    work = dict(p)
    while work:
        w = max(work, key=deglex_key)
        c = work.pop(w)
        hit = index.find(w)
        if hit is None:
            out[w] = out.get(w, 0) + c
            if not out[w]:
                del out[w]
            continue
        pos, i = hit
        lead, rhs = index.rules[i]
        a, b = w[:pos], w[pos + len(lead):]
        for u, cu in rhs.items():
            nw = a + u + b
            nc = work.get(nw, 0) + c * cu
            if nc:
                work[nw] = nc
            else:
                work.pop(nw, None)
    return out


def normal_form(p, gb):
    """The unique normal form of p modulo the rules of gb."""
    if isinstance(p, tuple):
        p = {p: ONE}
    return _normal_form_dict(p, gb.index)


def normal_form_word(w, gb):
    """Normal form of a single word under a binomial basis."""
    if not gb.binomial:
        raise NotBinomial("word normal forms require a binomial basis")
    if w not in (memo := gb.index.memo):
        _grow_normal_words([w], gb.index)
    return memo[w]


def _desc(word):
    """The column key of a word: among words of one length the least key
    is the largest word, so elimination pivots on leading words.  The map
    is its own inverse."""
    return tuple(-x for x in word)


def _register_rule(rule, index, pending, max_degree):
    """Put each overlap (u, rhs_u, v, rhs_v, k) that rule, just added to
    index, forms with earlier rules and itself, u's lead ending with v's
    first k letters, into pending under its length.  Returns whether one is
    longer than max_degree: those are not kept."""
    lead, ks = rule[0], range(1, len(rule[0]))
    pairs = [(u, rule, k) for k in ks for u in index.ends.get(lead[:k], ())
             if u is not rule]
    pairs += [(rule, v, k) for k in ks for v in index.starts.get(lead[-k:], ())]
    longer = False
    for (u, rhs_u), (v, rhs_v), k in pairs:
        d = len(u) + len(v) - k
        if d > max_degree:
            longer = True
        else:
            pending.setdefault(d, []).append((u, rhs_u, v, rhs_v, k))
    return longer


def _row_step(polys, overlaps, index):
    """A degree's new rules: its inputs and the S-polynomials of its overlaps,
    reduced by the lower rules, in one reduced echelon pass."""
    # the two reductions of each overlap word u + v[k:]
    polys += [poly_add({w + v[k:]: c for w, c in rhs_u.items()},
                       {u[:len(u) - k] + w: c for w, c in rhs_v.items()}, -1)
              for u, rhs_u, v, rhs_v, k in overlaps]
    rows = [{_desc(w): c for w, c in _normal_form_dict(p, index).items()}
            for p in polys]
    red, pivots = elim.rref(rows)
    return [(_desc(key), {_desc(w): -c for w, c in row.items() if w != key})
            for key, row in zip(pivots, red)]


def _grow_normal_words(words, index):
    """Keep in index.memo the normal word of each of words, under rules that
    rewrite a word to a word and with the words kept there final.  The
    normal word of z[:-1] with z's last letter appended is normal but where
    a lead ends at its end, and there z's normal word is that of the word
    the lead rewrites to.  Every word met is kept; a stack of the words
    waiting stands in for recursion."""
    memo, rules, ends = index.memo, index.rules, index.ends
    tables = sorted(index.tables.items())
    todo = [(w, None) for w in words]
    while todo:
        z, y = todo.pop()
        if y is not None:           # z rewrites to y, whose normal word is kept
            memo[z] = memo[y]
        elif z not in memo:
            if (c := memo.get(z[:-1])) is None:
                todo += (z, None), (z[:-1], None)
                continue
            c, r = c + z[-1:], None
            # shortest lead first: a suffix that ends no lead ends the search
            for k, table in tables:
                s = c[-k:]
                if (r := table.get(s)) is not None or s not in ends:
                    break
            if r is not None:
                lead, (u,) = rules[r]
                y = c[:-len(lead)] + u
                if (c := memo.get(y)) is None:
                    todo += (z, y), (y, None)
                    continue
            memo[z] = c


def _word_step(polys, overlaps, index):
    """_row_step's rules when every input is a word difference and every
    lower rule rewrites a word to a word: the echelon form of word
    differences rewrites each word of a class to its least, its root."""
    parent = {}

    def root(w):
        while w in parent:
            up = parent[w]
            parent[w] = parent.get(up, up)
            w = up
        return w

    pairs = [tuple(p) for p in polys]
    pairs += [(a + v[k:], u[:len(u) - k] + b) for u, (a,), v, (b,), k in overlaps]
    memo, start = index.memo, len(index.memo)
    _grow_normal_words([w for pair in pairs for w in pair], index)
    for x, y in pairs:
        a, b = root(memo[x]), root(memo[y])
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
    inputs = {}
    for p in relations:
        p = poly(p)
        if not p:
            continue
        if not is_homogeneous(p) or min(len(w) for w in p) < 2:
            raise NonHomogeneousInput("relations must be homogeneous of degree >= 2")
        alphabet = max(alphabet, max(max(w) + 1 for w in p))
        inputs.setdefault(len(next(iter(p))), []).append(p)
    words = all(len(p) == 2 and sum(p.values()) == 0
                for polys in inputs.values() for p in polys)
    step = _word_step if words else _row_step

    index, pending, truncated = LeadIndex(), {}, False
    while inputs or pending:
        d = min([*inputs, *pending])
        for rule in step(inputs.pop(d, []), pending.pop(d, []), index):
            index.add(rule)
            truncated |= _register_rule(rule, index, pending, max_degree)
    binomial = all(len(rhs) == 1 and next(iter(rhs.values())) == 1
                   for _, rhs in index.rules)
    return GroebnerBasis(
        alphabet_size=alphabet,
        rules=_freeze_rules(index.rules),
        max_degree=max_degree,
        complete=not truncated,
        binomial=binomial,
    )


def normal_words(gb, d):
    """All length-d words avoiding leading words as subwords, deg-lex sorted.

    Each level extends the last one letter at a time: w + (x,) is normal iff
    w is and no lead is a suffix, and extending lex-sorted words in letter
    order keeps them lex-sorted.
    """
    gb.require_degree(d, f"listing the words of degree {d}")
    index, n = gb.index, gb.alphabet_size
    level = [()]
    for _ in range(d):
        level = [w for w in (v + (x,) for v in level for x in range(n))
                 if not index.ends_with_lead(w)]
    return level


@dataclass(frozen=True)
class HilbertPrefix:
    coefficients: tuple
    exact: bool


def hilbert_series(gb, D):
    """Normal-word counts of degrees 0..D, counted without listing words.

    The state of a normal word is its longest suffix that is a proper
    prefix of a lead.  Whether w + (x,) is normal, and its state, depend
    only on the state of w and on x, so one pass over the degrees carries
    a count per state.  On a truncated basis exact is False once D
    passes max_degree: leads past the bound are missing, so counts there
    may be too large.
    """
    index, n = gb.index, gb.alphabet_size
    prefixes = {(), *index.starts}
    coeffs, counts = [], {(): 1}
    for _ in range(D + 1):
        coeffs.append(sum(counts.values()))
        nxt = {}
        for state, c in counts.items():
            for x in range(n):
                t = state + (x,)
                if not index.ends_with_lead(t):
                    t = next(t[i:] for i in range(len(t) + 1) if t[i:] in prefixes)
                    nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return HilbertPrefix(coefficients=tuple(coeffs), exact=gb.final_through(D))


def is_pbw(relations):
    """True iff the quadratic relations are already a Groebner basis.

    For quadratic leading words every minimal overlap has length 3, so
    resolving degree-3 ambiguities decides the question.  On a solution's
    canonical relations it checks the paper's claim R = G => PBW.
    """
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
    """Check x * u = x * v => u = v on normal words of length <= d.

    Returns True or a counterexample (x, u, v).
    """
    gb.require_degree(d + 1, "the cancellativity check")
    for length in range(1, d + 1):
        words = normal_words(gb, length)
        for x in range(gb.alphabet_size):
            seen = {}
            for u in words:
                img = monoid_multiply((x,), u, gb)
                if img in seen and seen[img] != u:
                    return (x, seen[img], u)
                seen[img] = u
    return True
