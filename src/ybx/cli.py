"""Command-line front end.

Solution file format (1-based indices, ASCII decimal digits):

    ybx v1
    size <n>
    permutation <f(1)> ... <f(n)>     # or: identity / flip
    map <i> <j> <k> <l>               # r(x_i, x_j) = (x_k, x_l), n^2 lines

`#` starts a comment; a permutation, identity or flip line is the whole
body.  Exit codes: 0 success, 1 property failure, 2 usage error.

Each cmd_<name> handler imports the layers it runs as it opens, so that a
command started cold loads no layer it never calls.
"""

import argparse
import functools
import json
import os
import sys
from itertools import product

from . import quadset
from .errors import (InvalidArgument, NotABijection, ParseError, PreconditionViolated,
                     YbxError)
from .quadset import MAX_SIZE


def _decimals(words, base, message, line):
    # the words as ints less base, if all are ASCII decimal numerals: int() alone
    # also reads signs, underscores and non-ASCII digits
    digits = "".join(words)
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(message, line)
    return [int(w) - base for w in words]


def parse_solution(text):
    lines = []
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((num, line))
    if not lines or lines[0][1] != "ybx v1":
        raise ParseError("expected header 'ybx v1'",
                         lines[0][0] if lines else 1)
    if len(lines) < 2 or not lines[1][1].startswith("size "):
        raise ParseError("expected 'size <n>'", lines[1][0] if len(lines) > 1 else 2)
    size = lines[1][1].removeprefix("size ").strip()
    n, = _decimals([size], 0, "bad size line", lines[1][0])
    if not 1 <= n <= MAX_SIZE:
        raise ParseError(f"size must be between 1 and {MAX_SIZE}", lines[1][0])
    body = lines[2:]
    if not body:
        raise ParseError("missing solution body", lines[1][0])
    num, first = body[0]
    kind, *parts = first.split()
    if kind in ("permutation", "identity", "flip") and len(body) > 1:
        raise ParseError(f"unexpected line after '{kind}'", body[1][0])
    if kind == "permutation":
        if len(parts) != n:
            raise ParseError(f"permutation needs {n} values", num)
        f = _decimals(parts, 1, "permutation values must be integers", num)
        try:
            return quadset.make_permutation_solution(f)
        except NotABijection:
            raise ParseError(f"{' '.join(parts)} is not a permutation of 1..{n}", num)
    if kind in ("identity", "flip"):
        if parts:
            raise ParseError(f"'{kind}' takes no values", num)
        return quadset.make_named(kind, n)
    table = [None] * (n * n)  # r(x_i, x_j) at i*n + j, each checked as it is read
    for num, line in body:
        parts = line.split()
        if parts[0] != "map" or len(parts) != 5:
            raise ParseError("expected 'map i j k l'", num)
        i, j, k, l = _decimals(parts[1:], 1, "map indices must be integers", num)
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n and 0 <= l < n):
            raise ParseError(f"map indices must be between 1 and {n}", num)
        if table[i * n + j] is not None:
            raise ParseError(f"pair ({i + 1}, {j + 1}) given twice", num)
        table[i * n + j] = (k, l)
    if None in table:
        i, j = divmod(table.index(None), n)
        raise ParseError(f"no image for pair ({i + 1}, {j + 1})", num)
    return quadset.QuadraticSet._make((n, tuple(table)))


def render_solution(qs):
    lines = ["ybx v1", f"size {qs.n}"]
    for i in range(qs.n):
        for j in range(qs.n):
            k, l = qs.r(i, j)
            lines.append(f"map {i + 1} {j + 1} {k + 1} {l + 1}")
    return "\n".join(lines) + "\n"


def _word_str(w):
    return " ".join(str(x + 1) for x in w) if w else "1"


def _pretty_word(w):
    return ".".join(f"x{x + 1}" for x in w) if w else "1"


def _pretty_poly(p):
    terms = sorted(p.items(), key=lambda t: (len(t[0]), t[0]), reverse=True)
    parts = []
    for w, c in terms:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag}*"
        parts.append((sign, f"{coeff}{_pretty_word(w)}"))
    out = ""
    for idx, (sign, body) in enumerate(parts):
        if idx == 0:
            out = ("-" if sign == "-" else "") + body
        else:
            out += f" {sign} {body}"
    return out


def _pair(p):
    return f"({p[0] + 1},{p[1] + 1})"


def _table_lines(qs, sep):
    return [f"r{_pair(p)}{sep}{_pair(qs.r(*p))}" for p in product(range(qs.n), repeat=2)]


def _pretty_tu(p, letter):
    parts = []
    for (up, lo), c in sorted(p.items()):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        coeff = "" if mag == 1 else f"{mag}*"
        parts.append(f"{sign} {coeff}{letter}^{up[0] + 1}_{up[1] + 1}"
                     f".{letter}^{lo[0] + 1}_{lo[1] + 1}")
    return " ".join(parts).lstrip("+ ")


def _emit(report, args):
    """Write a report: text as it is, a dict as JSON or as key: value lines."""
    if isinstance(report, str):
        text = report
    elif args.json:
        text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    else:
        text = "\n".join(f"{key}: {report[key]}" for key in sorted(report)) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path):
    with open(path) as fh:
        return parse_solution(fh.read())


def arg(*flags, **options):
    return flags, options


FLAG = {"action": "store_true"}
SOLUTION = (arg("solution", help="solution file"),)
JSON, MAX_DEG, OUTPUT = (arg("--json", **FLAG), arg("--max-deg", type=int),
                         arg("-o", "--output"))
# (name, handler, arguments in order); a list among them is a mutually exclusive group
COMMANDS = []
TRUNCATED = "warning: basis truncated at the degree bound"


def command(head=SOLUTION, tail=(), max_deg=True):
    """Register cmd_<name> as the subcommand <name>; its arguments are
    head, then --json, --max-deg (unless max_deg is false) and -o, then tail.
    A handler returns (report, exit code)."""
    common = (JSON, MAX_DEG, OUTPUT) if max_deg else (JSON, OUTPUT)

    def register(fn):
        COMMANDS.append((fn.__name__[len("cmd_"):], fn, head + common + tail))
        return fn
    return register


@command()
def cmd_check(args):
    rep = quadset.check_properties(_load(args.solution))._asdict()
    return rep, 0 if rep["braided"] else 1


@command()
def cmd_orbits(args):
    from . import orbits
    dec = orbits.r_orbits(_load(args.solution))
    return {"orbit_count": len(dec),
            "orbits": [sorted(map(_pair, orb.members)) for orb in dec.orbits],
            "fixed_points": [sorted(map(_pair, orb.fixed_points))
                             for orb in dec.orbits]}, 0


@command()
def cmd_relations(args):
    from . import orbits
    rels = orbits.canonical_relations(_load(args.solution)).relations
    return {"relations": [f"{_pretty_word(u)} - {_pretty_word(v)}"
                          for u, v in rels]}, 0


@command()
def cmd_groebner(args):
    from . import orbits
    gb = orbits.canonical_basis(_load(args.solution), args.max_deg)
    if not gb.complete:
        print(TRUNCATED, file=sys.stderr)
    rules = [f"{_word_str(lead)} -> {_pretty_poly(dict(rhs))}" for lead, rhs in gb.rules]
    return {"rules": rules, "complete": gb.complete, "binomial": gb.binomial,
            "max_degree": gb.max_degree}, 0


@command()
def cmd_hilbert(args):
    from . import ncgb, orbits
    gb = orbits.canonical_basis(_load(args.solution), args.max_deg)
    hp = ncgb.hilbert_series(gb, args.max_deg - 1)
    return {"coefficients": list(hp.coefficients), "exact": hp.exact}, 0


@command()
def cmd_dims(args):
    from . import growth, orbits
    gb = orbits.canonical_basis(_load(args.solution), args.max_deg)
    if not gb.complete:
        print(TRUNCATED, file=sys.stderr)
    gk = growth.gk_dimension(orbits.automaton_graph(gb)) if gb.complete else None
    gl = growth.global_dimension(orbits.basis_graphs(gb)[1]) if gb.pbw else None
    return {"gk": "Undecided" if gk is None else "Exponential" if gk.degree is None
            else f"Polynomial({gk.degree})",
            "gldim": "Undecided" if gl is None else "Infinite" if gl.value is None
            else f"Finite({gl.value})",
            "pbw": gb.pbw}, 0


@command(tail=(arg("--basepoint", type=int, default=1),))
def cmd_tournament(args):
    from . import growth, orbits
    qs = _load(args.solution)
    if not 1 <= args.basepoint <= qs.n:
        raise InvalidArgument(f"--basepoint must be in 1..{qs.n}, not {args.basepoint}")
    gb = orbits.canonical_basis(qs, args.max_deg)
    if not gb.pbw:
        raise PreconditionViolated("the tournament structure needs a PBW basis")
    result = growth.tournament_structure(orbits.basis_graphs(gb)[0], args.basepoint - 1)
    report = {"matches": result["matches"]}
    if result["relabeling"] is not None:
        report["relabeling"] = [v + 1 for v in result["relabeling"]]
    return report, 0 if result["matches"] else 1


@command(tail=(arg("-d", type=int, default=2),))
def cmd_veronese(args):
    from . import braidmon
    vs = braidmon.veronese_solution(_load(args.solution), args.d)
    return {"d": args.d, "size": vs.base.n,
            "labels": [_pretty_word(w) for w in vs.labels],
            "table": _table_lines(vs.base, " = ")}, 0


@command(tail=(arg("--max-d", type=int, default=4),))
def cmd_prolong(args):
    from . import braidmon
    qs = _load(args.solution)
    data = braidmon.prolongation_sequence(qs, args.max_d)
    return {"period": data.period, "distinct": data.distinct_count,
            "equal_to_r": [d + 1 for d, s in enumerate(data.solutions)
                           if s.base == qs]}, 0


@command(head=(arg("solution"), arg("solution_b")))
def cmd_segre(args):
    from . import verseg
    a, b = _load(args.solution), _load(args.solution_b)
    result = verseg.segre_morphism_check(a, b, max(3, min(args.max_deg - 1, 4)))
    return result, 0 if result["ok"] else 1


# the linear flags that need linr; with none of them, linear runs --ybe
LINR_FLAGS = ("frt", "bmat", "koszul", "nichols", "transpose")


@command(tail=tuple(arg(f"--{flag}", **FLAG) for flag in LINR_FLAGS + ("ybe",)))
def cmd_linear(args):
    if any(getattr(args, flag) for flag in LINR_FLAGS):
        from . import linr
    qs = _load(args.solution)
    ybe = args.ybe or not any(getattr(args, flag) for flag in LINR_FLAGS)
    if args.frt or args.bmat or args.transpose:
        _, rmat = linr.linearize(qs)
    report = {}
    if ybe:
        # Psi sends each basis pair to the pair r sends it to, so its braid
        # relation (the YBE of R = P Psi) and Psi^2 = Psi are r's own
        test = quadset.PROPERTY_TESTS
        report["braid"] = report["ybe"] = test["braided"](qs.r_table, qs.n)
        report["idempotent"] = test["idempotent"](qs.r_table, qs.n)
    if args.frt:
        report["frt"] = [_pretty_tu(p, "t") for p in linr.frt_relations(rmat)]
    if args.bmat:
        report["bmat"] = [_pretty_tu(p, "u") for p in linr.braided_matrix_relations(rmat)]
    if args.transpose:
        report["transpose"] = [
            " + ".join(f"{'' if c == 1 else str(c) + '*'}y{a + 1}.y{b + 1}"
                       for (a, b), c in sorted(p.items()))
            for p in linr.transpose_yb_relations(rmat)]
    if args.koszul:
        report["koszul"] = [" + ".join(f"y{a + 1}.y{b + 1}" for (a, b) in sorted(p))
                            for p in linr.koszul_dual_polynomials(qs)]
    if args.nichols:
        report["nichols"] = [f"theta{a + 1}.theta{b + 1} = 0"
                             for a, b in linr.nichols_monomials(qs)]
    return report, 0


@command(head=(arg("--params", default="1,0,1,0",
                   help="alpha,beta,lambda,mu as rationals"),))
def cmd_calculus(args):
    from fractions import Fraction
    from . import diffcalc
    params = [p.strip() for p in args.params.split(",")]
    if len(params) != 4:
        raise InvalidArgument("--params needs alpha,beta,lambda,mu")
    try:
        params = [Fraction(p) for p in params]
    except (ValueError, ZeroDivisionError):
        raise InvalidArgument(f"--params must be rationals, not {args.params!r}")
    gb, rho, relations = diffcalc.make_rho_family(*params)
    D = args.max_deg
    rep = diffcalc.check_rho_map(gb, rho, relations, D)
    report = {"rho_ok": rep["ok"],
              "annihilator": diffcalc.annihilator_check(rho, gb, min(D, 5)),
              "connected": diffcalc.connectedness_check(rho, gb, min(D, 5))}
    return report, 0 if rep["ok"] else 1


@command(head=(arg("-n", type=int, required=True), arg("--mask", default="")),
         max_deg=False)
def cmd_enumerate(args):
    mask = [m.strip() for m in args.mask.split(",") if m.strip()]
    sols = quadset.enumerate_solutions(args.n, mask)
    return {"count": len(sols),
            "solutions": [_table_lines(qs, "=") for qs in sols]}, 0


@command(tail=([arg("--gn", **FLAG), arg("--gw", **FLAG), arg("--orbit", **FLAG)],
               arg("--dot", **FLAG)))
def cmd_graph(args):
    from . import growth, orbits
    qs = _load(args.solution)
    if args.orbit:
        g = orbits.orbit_graph(qs)
        labels = [_pair(p) for p in product(range(qs.n), repeat=2)]
    else:
        gn, gw = orbits.basis_graphs(orbits.canonical_basis(qs, args.max_deg))
        g = gw if args.gw else gn
        labels = [f"x{i + 1}" for i in range(qs.n)]
    if args.dot:
        return growth.to_dot(g, labels=labels), 0
    return {"vertices": g.vertex_count,
            "edges": [f"{labels[u]} -> {labels[v]}" for u, v in sorted(g.edges)]}, 0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="ybx",
        description="Set-theoretic Yang-Baxter solutions and their quadratic algebras")
    sub = parser.add_subparsers(dest="command")
    for name, fn, arguments in COMMANDS:
        p = sub.add_parser(name)
        for spec in arguments:
            if isinstance(spec, list):
                group = p.add_mutually_exclusive_group()
                for flags, options in spec:
                    group.add_argument(*flags, **options)
            else:
                p.add_argument(*spec[0], **spec[1])
        p.set_defaults(fn=fn)
    return parser


def _run(argv):
    # read on every call, before parsing, so a bad value fails every invocation
    raw_deg = os.environ.get("YBX_MAX_DEG", "6")
    try:
        default_deg = int(raw_deg)
    except ValueError:
        raise InvalidArgument(f"YBX_MAX_DEG must be an integer, not {raw_deg!r}")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.command:
        parser.print_usage(sys.stderr)
        return 2
    if getattr(args, "max_deg", 0) is None:
        args.max_deg = default_deg
    report, code = args.fn(args)
    _emit(report, args)
    return code


def main(argv=None):
    try:
        code = _run(argv)
    except (YbxError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    main()
