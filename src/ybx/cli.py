"""Command-line front end.

Solution file format (1-based indices):

    ybx v1
    size <n>
    permutation <f(1)> ... <f(n)>     # or: identity / flip
    map <i> <j> <k> <l>               # r(x_i, x_j) = (x_k, x_l), n^2 lines

`#` starts a comment.  Exit codes: 0 success, 1 property failure,
2 usage error.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import braidmon, diffcalc, growth, linr, ncgb, orbits, quadset, verseg
from .errors import InvalidArgument, ParseError, YbxError

# a size-n table has n^2 entries; this caps it at 65,536
MAX_SIZE = 256


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
    try:
        n = int(lines[1][1].split()[1])
    except (IndexError, ValueError):
        raise ParseError("bad size line", lines[1][0])
    if not 1 <= n <= MAX_SIZE:
        raise ParseError(f"size must be between 1 and {MAX_SIZE}", lines[1][0])
    body = lines[2:]
    if not body:
        raise ParseError("missing solution body", lines[1][0])
    num, first = body[0]
    kind = first.split()[0]
    if kind == "permutation":
        parts = first.split()[1:]
        if len(parts) != n:
            raise ParseError(f"permutation needs {n} values", num)
        try:
            f = [int(p) - 1 for p in parts]
        except ValueError:
            raise ParseError("permutation values must be integers", num)
        return quadset.make_permutation_solution(f)
    if kind in ("identity", "flip"):
        return quadset.make_named(kind, n)
    entries = []
    for num, line in body:
        parts = line.split()
        if parts[0] != "map" or len(parts) != 5:
            raise ParseError("expected 'map i j k l'", num)
        try:
            i, j, k, l = (int(p) - 1 for p in parts[1:])
        except ValueError:
            raise ParseError("map indices must be integers", num)
        entries.append(((i, j), (k, l)))
    return quadset.make_solution(n, entries)


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


def _gb_for(qs, max_deg):
    rels = orbits.canonical_relations(qs).to_polynomials()
    return ncgb.complete(rels, max_deg, alphabet=qs.n)


def _emit(report, args):
    if args.json:
        text = json.dumps(report, sort_keys=True, indent=2, default=str)
    else:
        lines = []
        for key in sorted(report):
            lines.append(f"{key}: {report[key]}")
        text = "\n".join(lines)
    _write_out(text + "\n", args)


def _write_out(text, args):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    with open(args.solution) as fh:
        return parse_solution(fh.read())


def cmd_check(args):
    qs = _load(args)
    rep = quadset.check_properties(qs).as_dict()
    _emit(rep, args)
    return 0 if rep["braided"] else 1


def cmd_orbits(args):
    qs = _load(args)
    dec = orbits.r_orbits(qs)
    report = {
        "orbit_count": len(dec),
        "orbits": [sorted(f"({p[0] + 1},{p[1] + 1})" for p in orb.members)
                   for orb in dec.orbits],
        "fixed_points": [sorted(f"({p[0] + 1},{p[1] + 1})" for p in orb.fixed_points)
                         for orb in dec.orbits],
    }
    _emit(report, args)
    return 0


def cmd_relations(args):
    qs = _load(args)
    rels = orbits.canonical_relations(qs)
    report = {"relations": [f"{_pretty_word(u)} - {_pretty_word(v)}"
                            for u, v in rels.relations]}
    _emit(report, args)
    return 0


def cmd_groebner(args):
    qs = _load(args)
    gb = _gb_for(qs, args.max_deg)
    rules = [f"{_word_str(lead)} -> {_pretty_poly(dict(rhs))}"
             for lead, rhs in gb.rules]
    if not gb.complete:
        print("warning: basis truncated at the degree bound", file=sys.stderr)
    report = {"rules": rules, "complete": gb.complete, "binomial": gb.binomial,
              "max_degree": gb.max_degree}
    _emit(report, args)
    return 0


def cmd_hilbert(args):
    qs = _load(args)
    gb = _gb_for(qs, args.max_deg)
    hp = ncgb.hilbert_series(gb, args.max_deg - 1)
    _emit({"coefficients": list(hp.coefficients), "exact": hp.exact}, args)
    return 0


def cmd_dims(args):
    qs = _load(args)
    gb = _gb_for(qs, args.max_deg)
    n2 = ncgb.normal_words(gb, 2)
    gn = growth.normal_graph(n2, qs.n)
    gw = growth.obstruction_graph(n2, qs.n)
    gk = growth.gk_dimension(gn)
    gl = growth.global_dimension(gw)
    gk_str = "Exponential" if gk.kind == "Exponential" else f"Polynomial({gk.degree})"
    gl_str = "Infinite" if gl.kind == "Infinite" else f"Finite({gl.value})"
    _emit({"gk": gk_str, "gldim": gl_str, "pbw": all(len(l) == 2 for l, _ in gb.rules)},
          args)
    return 0


def cmd_tournament(args):
    qs = _load(args)
    gb = _gb_for(qs, args.max_deg)
    gn = growth.normal_graph(ncgb.normal_words(gb, 2), qs.n)
    result = growth.tournament_structure(gn, args.basepoint - 1)
    report = {"matches": result["matches"]}
    if result["relabeling"] is not None:
        report["relabeling"] = [v + 1 for v in result["relabeling"]]
    _emit(report, args)
    return 0 if result["matches"] else 1


def cmd_veronese(args):
    qs = _load(args)
    vs = braidmon.veronese_solution(qs, args.d)
    report = {
        "d": args.d,
        "size": vs.base.n,
        "labels": [_pretty_word(w) for w in vs.labels],
        "table": [f"r({i + 1},{j + 1}) = ({vs.base.r(i, j)[0] + 1},"
                  f"{vs.base.r(i, j)[1] + 1})"
                  for i in range(vs.base.n) for j in range(vs.base.n)],
    }
    _emit(report, args)
    return 0


def cmd_prolong(args):
    qs = _load(args)
    data = braidmon.prolongation_sequence(qs, args.max_d)
    report = {
        "period": data.period,
        "distinct": data.distinct_count,
        "equal_to_r": [d + 1 for d, s in enumerate(data.solutions)
                       if s.base == qs],
    }
    _emit(report, args)
    return 0


def cmd_segre(args):
    with open(args.solution) as fh:
        a = parse_solution(fh.read())
    with open(args.solution_b) as fh:
        b = parse_solution(fh.read())
    result = verseg.segre_morphism_check(a, b, max(3, min(args.max_deg - 1, 4)))
    _emit(result, args)
    return 0 if result["ok"] else 1


def cmd_linear(args):
    qs = _load(args)
    psi, rmat = linr.linearize(qs)
    report = {}
    if args.ybe or not any((args.frt, args.bmat, args.koszul,
                            args.nichols, args.transpose)):
        report["braid"] = linr.check_braid(psi)
        report["ybe"] = linr.check_matrix_ybe(rmat)
        report["idempotent"] = linr.check_idempotent(psi)
    gens = {"frt": "t", "bmat": "u"}

    def pretty_tu(p, letter):
        parts = []
        for (up, lo), c in sorted(p.items()):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            coeff = "" if mag == 1 else f"{mag}*"
            parts.append(f"{sign} {coeff}{letter}^{up[0] + 1}_{up[1] + 1}"
                         f".{letter}^{lo[0] + 1}_{lo[1] + 1}")
        return " ".join(parts).lstrip("+ ")

    if args.frt:
        report["frt"] = [pretty_tu(p, "t") for p in linr.frt_relations(rmat)]
    if args.bmat:
        report["bmat"] = [pretty_tu(p, "u") for p in linr.braided_matrix_relations(rmat)]
    if args.transpose:
        rels = linr.transpose_yb_relations(rmat)
        report["transpose"] = [
            " + ".join(f"{'' if c == 1 else str(c) + '*'}y{a + 1}.y{b + 1}"
                       for (a, b), c in sorted(p.items()))
            for p in rels]
    if args.koszul:
        rels = linr.koszul_dual_polynomials(qs)
        report["koszul"] = [
            " + ".join(f"y{a + 1}.y{b + 1}" for (a, b) in sorted(p))
            for p in rels]
    if args.nichols:
        report["nichols"] = [f"theta{a + 1}.theta{b + 1} = 0"
                             for a, b in linr.nichols_monomials(qs)]
    _emit(report, args)
    return 0


def cmd_calculus(args):
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
    report = {
        "rho_ok": rep["ok"],
        "annihilator": diffcalc.annihilator_check(rho, gb, min(D, 5)),
        "connected": diffcalc.connectedness_check(rho, gb, min(D, 5)),
    }
    _emit(report, args)
    return 0 if rep["ok"] else 1


def cmd_enumerate(args):
    mask = [m.strip() for m in (args.mask or "").split(",") if m.strip()]
    sols = quadset.enumerate_solutions(args.n, mask)
    report = {"count": len(sols),
              "solutions": [[f"r({i + 1},{j + 1})=({qs.r(i, j)[0] + 1},"
                             f"{qs.r(i, j)[1] + 1})"
                             for i in range(qs.n) for j in range(qs.n)]
                            for qs in sols]}
    _emit(report, args)
    return 0


def cmd_graph(args):
    qs = _load(args)
    if args.orbit:
        g = orbits.orbit_graph(qs)
        labels = [f"({i + 1},{j + 1})" for i in range(qs.n) for j in range(qs.n)]
    else:
        gb = _gb_for(qs, args.max_deg)
        n2 = ncgb.normal_words(gb, 2)
        if args.gw:
            g = growth.obstruction_graph(n2, qs.n)
        else:
            g = growth.normal_graph(n2, qs.n)
        labels = [f"x{i + 1}" for i in range(qs.n)]
    if args.dot:
        _write_out(growth.to_dot(g, labels=labels), args)
    else:
        edges = sorted(g.edges)
        _emit({"vertices": g.vertex_count,
               "edges": [f"{labels[u]} -> {labels[v]}" for u, v in edges]}, args)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ybx",
        description="Set-theoretic Yang-Baxter solutions and their quadratic algebras")
    raw_deg = os.environ.get("YBX_MAX_DEG", "6")
    try:
        default_deg = int(raw_deg)
    except ValueError:
        raise InvalidArgument(f"YBX_MAX_DEG must be an integer, not {raw_deg!r}")
    sub = parser.add_subparsers(dest="command")

    def common(p, files=(("solution", "solution file"),), max_deg=True):
        for name, text in files:
            p.add_argument(name, help=text)
        p.add_argument("--json", action="store_true")
        if max_deg:
            p.add_argument("--max-deg", type=int, default=default_deg, dest="max_deg")
        p.add_argument("-o", "--output", default=None)

    for name, fn in [("check", cmd_check), ("orbits", cmd_orbits),
                     ("relations", cmd_relations), ("groebner", cmd_groebner),
                     ("hilbert", cmd_hilbert), ("dims", cmd_dims)]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("tournament")
    common(p)
    p.add_argument("--basepoint", type=int, default=1)
    p.set_defaults(fn=cmd_tournament)

    p = sub.add_parser("veronese")
    common(p)
    p.add_argument("-d", type=int, default=2)
    p.set_defaults(fn=cmd_veronese)

    p = sub.add_parser("prolong")
    common(p)
    p.add_argument("--max-d", type=int, default=4, dest="max_d")
    p.set_defaults(fn=cmd_prolong)

    p = sub.add_parser("segre")
    common(p, files=(("solution", None), ("solution_b", None)))
    p.set_defaults(fn=cmd_segre)

    p = sub.add_parser("linear")
    common(p)
    for flag in ("frt", "bmat", "koszul", "nichols", "transpose", "ybe"):
        p.add_argument(f"--{flag}", action="store_true")
    p.set_defaults(fn=cmd_linear)

    p = sub.add_parser("calculus")
    p.add_argument("--params", default="1,0,1,0",
                   help="alpha,beta,lambda,mu as rationals")
    common(p, files=())
    p.set_defaults(fn=cmd_calculus)

    p = sub.add_parser("enumerate")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--mask", default="")
    common(p, files=(), max_deg=False)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("graph")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--gn", action="store_true")
    group.add_argument("--gw", action="store_true")
    group.add_argument("--orbit", action="store_true")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_graph)

    return parser


def _run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    return args.fn(args)


def main(argv=None):
    try:
        code = _run(argv)
    except (YbxError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    main()
