"""The brute-force rewriting engine that ybx.ncgb replaced, kept as an oracle.

_reduce_once scans every rule at every position, and normal_words lists
all n^d words and tests each against every lead.  complete is the old
restart loop, now the only copy of it: after every new rule it
interreduces all rules and rebuilds the overlap list, where ybx.ncgb
completes one degree at a time.  complete_by_rows is ybx.ncgb's degree
loop as it was before word differences ran on words: every degree, on any
input, goes through one reduced-echelon pass, and finds the overlaps of
each degree by scanning every rule (_overlaps_of_length, ybx.ncgb's scan
before overlaps were bucketed as rules are added).  complete_by_words is
ybx.ncgb's degree loop on word differences as it was before normal words
grew from their prefixes: every degree builds a lead index of the lower
rules, and _normal_word, ybx.ncgb's old leftmost walk, rewrites each word
from its first letter.  Both run on words as tuples, as ybx.ncgb did
before it held a word as one base-n integer: deglex_key, the lead index
LeadIndex, leftmost reduction through it (_normal_form_by_index), the
column key _desc and _freeze_rules are copies of ybx.ncgb's tuple code of
that time.  Only polynomial arithmetic, GroebnerBasis and HilbertPrefix
come from ybx.ncgb; no completion, lead index or word normal-form code does.
"""

from fractions import Fraction
from itertools import product

from ybx import elim
from ybx.ncgb import ONE, GroebnerBasis, HilbertPrefix, poly, poly_add, poly_scale
from ybx.errors import InsufficientDegree, InvalidArgument, NonHomogeneousInput


def deglex_key(word):
    return (len(word), word)


def is_homogeneous(p):
    return len({len(w) for w in p}) <= 1


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


def _normal_form_by_index(p, index):
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


def _desc(word):
    """The column key of a word: among words of one length the least key
    is the largest word, so elimination pivots on leading words.  The map
    is its own inverse."""
    return tuple(-x for x in word)


def poly_lm(p):
    return max(p, key=deglex_key)


def _reduce_once(word, rules):
    """Leftmost occurrence of any leading word; rules tried in stored order."""
    for pos in range(len(word)):
        for lead, rhs in rules:
            k = len(lead)
            if word[pos:pos + k] == lead:
                return pos, lead, rhs
    return None


def _normal_form_dict(p, rules):
    out = {}
    work = dict(p)
    while work:
        w = max(work, key=deglex_key)
        c = work.pop(w)
        hit = _reduce_once(w, rules)
        if hit is None:
            out[w] = out.get(w, 0) + c
            if not out[w]:
                del out[w]
            continue
        pos, lead, rhs = hit
        a, b = w[:pos], w[pos + len(lead):]
        for u, cu in rhs.items():
            nw = a + u + b
            nc = work.get(nw, 0) + c * cu
            if nc:
                work[nw] = nc
            else:
                work.pop(nw, None)
    return out


def _interreduce(rules):
    rules = list(rules)
    changed = True
    while changed:
        changed = False
        for i in range(len(rules)):
            lead, rhs = rules[i]
            others = rules[:i] + rules[i + 1:]
            # reduce the full polynomial lead - rhs by the remaining rules
            nf = _normal_form_dict({lead: ONE}, others)
            new_p = poly_add(nf, _normal_form_dict(rhs, others), -ONE)
            if not new_p:
                del rules[i]
                changed = True
                break
            lm = poly_lm(new_p)
            c = new_p.pop(lm)
            new_rhs = poly_scale(new_p, -ONE / c)
            if (lm, new_rhs) != (lead, dict(rhs)):
                rules[i] = (lm, new_rhs)
                changed = True
                break
    return rules


def _overlaps(rules):
    """Overlap ambiguities: (overlap word, i, suffix_i, j, prefix_j).

    Rule i's lead ends with w, rule j's lead starts with w; the overlap
    word is lead_i + lead_j[len(w):].
    """
    out = []
    for i, (u, _) in enumerate(rules):
        for j, (v, _) in enumerate(rules):
            for k in range(1, min(len(u), len(v))):
                if u[len(u) - k:] == v[:k]:
                    out.append((u + v[k:], i, j, k))
    return out


def complete(relations, max_degree, alphabet=0):
    """Degree-bounded completion of homogeneous relations to a Groebner basis.

    alphabet may be passed explicitly when the relations do not mention
    every generator (e.g. a free algebra has no relations at all).
    """
    if max_degree < 3:
        raise ValueError("max_degree must be at least 3")
    rules = []
    for p in relations:
        p = poly(p)
        if not p:
            continue
        if not is_homogeneous(p) or min(len(w) for w in p) < 2:
            raise NonHomogeneousInput("relations must be homogeneous of degree >= 2")
        alphabet = max(alphabet, max((max(w) + 1 for w in p), default=0))
        lm = poly_lm(p)
        c = p.pop(lm)
        rules.append((lm, poly_scale(p, -ONE / c)))

    changed = True
    while changed:
        rules = _interreduce(rules)
        changed = False
        pending = sorted(_overlaps(rules), key=lambda o: deglex_key(o[0]))
        for overlap, i, j, k in pending:
            if len(overlap) > max_degree:
                continue
            u, rhs_u = rules[i]
            v, rhs_v = rules[j]
            tail = v[k:]
            head = u[:len(u) - k]
            # two reductions of the overlap word
            left = {w + tail: c for w, c in rhs_u.items()}
            right = {head + w: c for w, c in rhs_v.items()}
            s = poly_add(left, right, -ONE)
            nf = _normal_form_dict(s, rules)
            if nf:
                lm = poly_lm(nf)
                c = nf.pop(lm)
                rules.append((lm, poly_scale(nf, -ONE / c)))
                changed = True
                break

    skipped = any(len(o[0]) > max_degree for o in _overlaps(rules))
    binomial = all(len(rhs) == 1 and next(iter(rhs.values())) == ONE
                   for _, rhs in rules)
    return GroebnerBasis(
        alphabet_size=alphabet,
        rules=_freeze_rules(rules),
        max_degree=max_degree,
        complete=not skipped,
        binomial=binomial,
    )


def _overlaps_of_length(rules, d, starts):
    """The overlaps of length d between rules of lower degree: rule u's
    lead ends with the first k letters of rule v's lead, and u + v[k:] has
    length d.  starts maps (proper prefix, lead length) to the rules."""
    for u, rhs_u in rules:
        for k in range(1, len(u)):
            for v, rhs_v in starts.get((u[len(u) - k:], d - len(u) + k), ()):
                yield u, rhs_u, v, rhs_v, k


def complete_by_rows(relations, max_degree, alphabet=0):
    """ybx.ncgb.complete with every degree on polynomial rows: the inputs and
    the S-polynomials of the overlaps of length d, reduced by the lower
    rules, go through one reduced-echelon pass whose pivots are the leads."""
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

    rules, starts = [], {}
    top = max([max_degree, *inputs])
    for d in range(2, top + 1):
        polys = inputs.pop(d, [])
        if d <= max_degree:
            # the two reductions of each overlap word u + v[k:]
            polys += [poly_add({w + v[k:]: c for w, c in rhs_u.items()},
                               {u[:len(u) - k] + w: c for w, c in rhs_v.items()}, -1)
                      for u, rhs_u, v, rhs_v, k in _overlaps_of_length(rules, d, starts)]
        index = LeadIndex(rules)
        rows = [{_desc(w): c for w, c in _normal_form_by_index(p, index).items()}
                for p in polys]
        red, pivots = elim.rref(rows)
        for key, row in zip(pivots, red):
            lead = _desc(key)
            rule = (lead, {_desc(w): -c for w, c in row.items() if w != key})
            rules.append(rule)
            for k in range(1, d):
                starts.setdefault((lead[:k], d), []).append(rule)

    # an overlap longer than the bound was left unresolved
    skipped = any(next(_overlaps_of_length(rules, d, starts), None)
                  for d in range(max_degree + 1, 2 * top))
    binomial = all(len(rhs) == 1 and next(iter(rhs.values())) == 1
                   for _, rhs in rules)
    return GroebnerBasis(
        alphabet_size=alphabet,
        rules=_freeze_rules(rules),
        max_degree=max_degree,
        complete=not skipped,
        binomial=binomial,
    )


def normal_words(gb, d):
    """All length-d words avoiding leading words as subwords, deg-lex sorted."""
    if not (gb.complete or d + 1 <= gb.max_degree):
        raise InsufficientDegree(
            f"normal words of degree {d} need completion through {d + 1}")
    n = gb.alphabet_size
    leads = [lead for lead, _ in gb.rules]
    out = []
    for w in product(range(n), repeat=d):
        if not any(w[p:p + len(l)] == l
                   for l in leads for p in range(len(w) - len(l) + 1)):
            out.append(w)
    return out


def hilbert_series(gb, D):
    coeffs = [len(normal_words(gb, d)) for d in range(D + 1)]
    exact = gb.complete or D + 1 <= gb.max_degree
    return HilbertPrefix(coefficients=tuple(coeffs), exact=exact)


def _register_rule(rule, starts, ends, pending, max_degree):
    """Register rule's proper lead prefixes and suffixes, and put each overlap
    (u, rhs_u, v, rhs_v, k) it forms with earlier rules and itself, u's lead
    ending with v's first k letters, into pending under its length.  Returns
    whether one is longer than max_degree: those are not kept."""
    lead, ks = rule[0], range(1, len(rule[0]))
    pairs = [(u, rule, k) for k in ks for u in ends.get(lead[:k], ())]
    for k in ks:
        starts.setdefault(lead[:k], []).append(rule)
        ends.setdefault(lead[-k:], []).append(rule)
    pairs += [(rule, v, k) for k in ks for v in starts.get(lead[-k:], ())]
    longer = False
    for (u, rhs_u), (v, rhs_v), k in pairs:
        d = len(u) + len(v) - k
        if d > max_degree:
            longer = True
        else:
            pending.setdefault(d, []).append((u, rhs_u, v, rhs_v, k))
    return longer


def _normal_word(w, index):
    """The normal word of w under rules that rewrite a word to a word, by
    leftmost rewriting, kept in index.memo for every word on the way."""
    memo = index.memo
    if w in memo:
        return memo[w]
    path = [w]
    while w not in memo and (hit := index.find(w)) is not None:
        pos, i = hit
        lead, (u,) = index.rules[i]
        w = w[:pos] + u + w[pos + len(lead):]
        path.append(w)
    nf = memo.get(w, w)
    memo.update(dict.fromkeys(path, nf))
    return nf


def _word_step(polys, overlaps, index):
    """The echelon form of word differences rewrites each word of a class
    to its least, its root."""
    parent = {}

    def root(w):
        while w in parent:
            up = parent[w]
            parent[w] = parent.get(up, up)
            w = up
        return w

    pairs = [tuple(p) for p in polys]
    pairs += [(a + v[k:], u[:len(u) - k] + b) for u, (a,), v, (b,), k in overlaps]
    for pair in pairs:
        a, b = (root(_normal_word(w, index)) for w in pair)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return [(w, {root(w): 1}) for w in parent]


def complete_by_words(relations, max_degree, alphabet=0):
    """ybx.ncgb.complete on relations that are all word differences c(u - v),
    with a lead index of the lower rules built at every degree."""
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
    if not all(len(p) == 2 and sum(p.values()) == 0
               for polys in inputs.values() for p in polys):
        raise InvalidArgument("complete_by_words takes word differences only")

    rules, starts, ends, pending, truncated = [], {}, {}, {}, False
    while inputs or pending:
        d = min([*inputs, *pending])
        index = LeadIndex(rules)
        for rule in _word_step(inputs.pop(d, []), pending.pop(d, []), index):
            rules.append(rule)
            truncated |= _register_rule(rule, starts, ends, pending, max_degree)
    binomial = all(len(rhs) == 1 and next(iter(rhs.values())) == 1
                   for _, rhs in rules)
    return GroebnerBasis(
        alphabet_size=alphabet,
        rules=_freeze_rules(rules),
        max_degree=max_degree,
        complete=not truncated,
        binomial=binomial,
    )
