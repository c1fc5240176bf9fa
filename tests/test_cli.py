import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ybx import cli, linr, ncgb, quadset
from ybx.errors import ParseError, YbxError
from conftest import MIXED3_TABLE

CYCLE3_TEXT = "ybx v1\nsize 3\npermutation 2 3 1\n"
RID2_TEXT = "ybx v1\nsize 2\npermutation 1 2\n"


def mixed3_text():
    lines = ["ybx v1", "size 3"]
    for (i, j), (k, l) in sorted(MIXED3_TABLE.items()):
        lines.append(f"map {i + 1} {j + 1} {k + 1} {l + 1}")
    return "\n".join(lines) + "\n"


def run(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out = capsys.readouterr()
    return exc.value.code or 0, out.out


def run_error(capsys, *argv):
    """Exit code and stderr of a command that is expected to fail."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, capsys.readouterr().err


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("cycle3", CYCLE3_TEXT), ("rid2", RID2_TEXT),
                       ("mixed3", mixed3_text())]:
        p = tmp_path / f"{name}.ybx"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_parse_render_roundtrip(cycle3, mixed3, rid2):
    for qs in (cycle3, mixed3, rid2, quadset.make_named("flip", 3)):
        assert cli.parse_solution(cli.render_solution(qs)) == qs


def test_parse_forms(cycle3, rid2):
    assert cli.parse_solution(CYCLE3_TEXT) == cycle3
    assert cli.parse_solution(RID2_TEXT) == rid2
    assert cli.parse_solution("ybx v1\nsize 2\nflip\n") == \
        quadset.make_named("flip", 2)
    assert cli.parse_solution("ybx v1\nsize 2\nidentity\n") == \
        quadset.make_named("identity", 2)
    # comments and blank lines are ignored
    text = "# header\nybx v1\n\nsize 2 # two points\npermutation 1 2\n"
    assert cli.parse_solution(text) == rid2


@pytest.mark.parametrize("text", [
    "",
    "ybx v2\nsize 2\nidentity\n",
    "ybx v1\nidentity\n",
    "ybx v1\nsize two\nidentity\n",
    "ybx v1\nsize 2 junk\nidentity\n",
    "ybx v1\nsize 2\n",
    "ybx v1\nsize 2\npermutation 2\n",
    "ybx v1\nsize 2\nmap 1 1 1\n",
    "ybx v1\nsize 2\nmap 1 1 1 x\n",
    "ybx v1\nsize 2\nidentity extra\n",
    "ybx v1\nsize 2\npermutation 1 2\nmap 1 1 1 1\n",
    # values are ASCII decimal digits: no underscore, sign or other script's digit
    "ybx v1\nsize 0_2\nidentity\n",
    "ybx v1\nsize +2\nidentity\n",
    "ybx v1\nsize \uff12\nidentity\n",
    "ybx v1\nsize 2\npermutation 2 +1\n",
    "ybx v1\nsize 2\npermutation 2 0_1\n",
    "ybx v1\nsize 2\nmap 1 1 1 1\nmap 1 2 +1 2\nmap 2 1 2 1\nmap 2 2 2 2\n",
    "ybx v1\nsize 2\nmap 1 1 1 1\nmap 1 2 1 2\nmap 2 1 2 1\nmap 2 2 2 \uff12\n",
    "ybx v1\nsize 2\nmap 1 1 1 1\nmap 1 2 1 2\nmap 2 1 2 1\nmap 2 2 2 0_2\n",
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        cli.parse_solution(text)


def test_check_command(capsys, files, tmp_path):
    code, out = run(capsys, "check", files["cycle3"])
    assert code == 0
    assert "braided: True" in out and "idempotent: True" in out
    bad = tmp_path / "bad.ybx"
    bad.write_text("ybx v1\nsize 2\n" + "map 1 1 2 2\nmap 1 2 1 1\n"
                   "map 2 1 1 1\nmap 2 2 1 1\n")
    code, out = run(capsys, "check", str(bad))
    assert code == 1 and "braided: False" in out


def test_relations_command(capsys, files):
    code, out = run(capsys, "relations", files["cycle3"], "--json")
    assert code == 0
    rels = json.loads(out)["relations"]
    assert len(rels) == 6
    assert all(r.split(" - ")[1].startswith("x1.") for r in rels)


def test_hilbert_and_dims(capsys, files):
    code, out = run(capsys, "hilbert", files["cycle3"], "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["coefficients"] == [1, 3, 3, 3, 3, 3] and rep["exact"]
    code, out = run(capsys, "dims", files["cycle3"], "--json")
    rep = json.loads(out)
    assert rep == {"gk": "Polynomial(1)", "gldim": "Infinite", "pbw": True}


def test_groebner_command(capsys, files):
    code, out = run(capsys, "groebner", files["mixed3"], "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["complete"] and rep["binomial"]
    assert len(rep["rules"]) == 6
    assert all("->" in rule for rule in rep["rules"])


def test_orbits_command(capsys, files):
    code, out = run(capsys, "orbits", files["mixed3"], "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["orbit_count"] == 3
    assert sorted(len(o) for o in rep["orbits"]) == [3, 3, 3]


def test_tournament_command(capsys, files):
    code, out = run(capsys, "tournament", files["rid2"], "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["matches"] and rep["relabeling"] == [1, 2]
    code, out = run(capsys, "tournament", files["cycle3"], "--json")
    assert code == 1 and not json.loads(out)["matches"]


INVOLUTIVE2_TEXT = "ybx v1\nsize 2\nmap 1 1 2 2\nmap 1 2 1 2\nmap 2 1 2 1\nmap 2 2 1 1\n"
# an involutive class whose basis is PBW under 4 of its 6 relabelings and
# truncated at degree 6 under the other 2
INVOLUTIVE3 = quadset.QuadraticSet(3, ((0, 0), (1, 0), (2, 1), (0, 1), (1, 1), (2, 0),
                                       (1, 2), (0, 2), (2, 2)))
TRUNCATED = "warning: basis truncated at the degree bound\n"


def test_dims_and_tournament_say_only_what_the_basis_decides(capsys, tmp_path):
    path = tmp_path / "set.ybx"
    # one relation x2.x2 - x1.x1, not PBW: the algebra has GK dimension 2, and
    # its quadratic graph (the quadratic leads) would read Exponential
    path.write_text(INVOLUTIVE2_TEXT)
    code, out = run(capsys, "dims", str(path), "--json")
    assert (code, json.loads(out)) == (0, {"gk": "Polynomial(2)", "gldim": "Undecided",
                                           "pbw": False})
    assert run_error(capsys, "tournament", str(path)) == (
        2, "error: the tournament structure needs a PBW basis\n")
    # the free algebra: the start state is entered by both letters
    path.write_text("ybx v1\nsize 2\nidentity\n")
    code, out = run(capsys, "dims", str(path), "--json")
    assert json.loads(out) == {"gk": "Exponential", "gldim": "Finite(1)", "pbw": True}
    reports = []
    for sigma in permutations(range(3)):
        path.write_text(cli.render_solution(quadset.relabel(INVOLUTIVE3, sigma)))
        with pytest.raises(SystemExit) as exc:
            cli.main(["dims", str(path), "--json", "--max-deg", "6"])
        out = capsys.readouterr()
        reports.append((exc.value.code, json.loads(out.out), out.err))
    decided = {"gk": "Polynomial(3)", "gldim": "Finite(3)", "pbw": True}
    undecided = {"gk": "Undecided", "gldim": "Undecided", "pbw": False}
    want = [(0, undecided, TRUNCATED)] * 2 + [(0, decided, "")] * 4
    assert sorted(reports, key=str) == sorted(want, key=str)


@pytest.mark.parametrize("basepoint", ["0", "-1", "9"])
def test_tournament_basepoint_out_of_range(capsys, files, basepoint):
    code, err = run_error(capsys, "tournament", files["cycle3"],
                          f"--basepoint={basepoint}")
    assert code == 2
    assert err == f"error: --basepoint must be in 1..3, not {basepoint}\n"


def test_veronese_command(capsys, files):
    code, out = run(capsys, "veronese", files["mixed3"], "-d", "2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["size"] == 3
    assert rep["labels"] == ["x1.x1", "x1.x2", "x1.x3"]


def test_prolong_command(capsys, files):
    code, out = run(capsys, "prolong", files["mixed3"], "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["period"] == 2 and rep["equal_to_r"] == [1, 3]


def test_segre_command(capsys, files):
    code, out = run(capsys, "segre", files["rid2"], files["rid2"], "--json")
    assert code == 0
    assert json.loads(out)["ok"]


def test_linear_command(capsys, files):
    code, out = run(capsys, "linear", files["cycle3"], "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep == {"braid": True, "ybe": True, "idempotent": True}
    code, out = run(capsys, "linear", files["cycle3"],
                    "--koszul", "--nichols", "--json")
    rep = json.loads(out)
    assert len(rep["koszul"]) == 3 and len(rep["nichols"]) == 3
    assert rep["nichols"][0].endswith("= 0")


def test_calculus_command(capsys):
    code, out = run(capsys, "calculus", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep == {"rho_ok": True, "annihilator": True, "connected": True}
    code, _ = run(capsys, "calculus", "--params", "1,2")
    assert code == 2


def test_enumerate_command(capsys):
    code, out = run(capsys, "enumerate", "-n", "2",
                    "--mask", "braided,idempotent,left_nondegenerate", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 3 and len(rep["solutions"]) == 3


def test_graph_command(capsys, files, tmp_path):
    code, out = run(capsys, "graph", files["cycle3"], "--gn", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["vertices"] == 3
    assert rep["edges"] == ["x1 -> x1", "x1 -> x2", "x1 -> x3"]
    dest = tmp_path / "g.dot"
    code, out = run(capsys, "graph", files["cycle3"], "--gn", "--dot",
                    "-o", str(dest))
    assert code == 0
    assert dest.read_text().startswith("digraph")


def test_output_file_option(capsys, files, tmp_path):
    dest = tmp_path / "report.json"
    code, out = run(capsys, "check", files["rid2"], "--json", "-o", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["braided"]


def test_usage_and_io_errors(capsys, tmp_path):
    code, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _ = run(capsys)
    assert code == 2
    code, _ = run(capsys, "check", str(tmp_path / "missing.ybx"))
    assert code == 2
    broken = tmp_path / "broken.ybx"
    broken.write_text("not a solution\n")
    code, _ = run(capsys, "check", str(broken))
    assert code == 2


def test_degree_bound_env(monkeypatch, capsys, files):
    monkeypatch.setenv("YBX_MAX_DEG", "4")
    code, out = run(capsys, "hilbert", files["cycle3"], "--json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 3, 3, 3]


def test_degree_bound_env_is_read_at_run_time(monkeypatch, capsys, files):
    assert cli.build_parser() is cli.build_parser()
    for raw in ("4", "5"):
        monkeypatch.setenv("YBX_MAX_DEG", raw)
        code, out = run(capsys, "hilbert", files["cycle3"], "--json")
        assert code == 0 and len(json.loads(out)["coefficients"]) == int(raw)
    monkeypatch.setenv("YBX_MAX_DEG", "abc")
    for argv in (["hilbert", files["cycle3"]],
                 ["check", files["cycle3"], "--max-deg", "4"]):
        code, err = run_error(capsys, *argv)
        assert code == 2 and err == "error: YBX_MAX_DEG must be an integer, not 'abc'\n"


def test_degree_bound_below_three_is_usage_error(capsys, files):
    code, err = run_error(capsys, "hilbert", files["cycle3"], "--max-deg", "2")
    assert code == 2 and err.startswith("error: ")


def test_calculus_params_must_be_rationals(capsys):
    code, err = run_error(capsys, "calculus", "--params", "1,0,1,x")
    assert code == 2 and err.startswith("error: ")


def test_degree_bound_env_must_be_integer(monkeypatch, capsys, files):
    monkeypatch.setenv("YBX_MAX_DEG", "abc")
    code, err = run_error(capsys, "check", files["cycle3"])
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("flag", ["--nichols", "--koszul"])
def test_linear_set_level_relations_need_idempotent(capsys, tmp_path, flag):
    flip3 = tmp_path / "flip3.ybx"
    flip3.write_text("ybx v1\nsize 3\nflip\n")
    code, err = run_error(capsys, "linear", str(flip3), flag)
    assert code == 2 and "idempotent" in err


@pytest.mark.parametrize("argv", [
    ["veronese", "{mixed3}", "-d", "0"],
    ["prolong", "{mixed3}", "--max-d", "0"],
    ["enumerate", "-n", "0"],
    ["enumerate", "-n", "2", "--mask", "no_such_property"],
])
def test_degenerate_arguments_are_usage_errors(capsys, files, argv):
    code, err = run_error(capsys, *[a.format(**files) for a in argv])
    assert code == 2 and err.startswith("error: ")


def test_enumerate_over_node_budget_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(quadset, "NODE_BUDGET", 50)
    code, err = run_error(capsys, "enumerate", "-n", "3", "--mask", "involutive")
    assert code == 2
    assert err.startswith("error: ") and "budget of 50" in err


def test_enumerate_refuses_a_large_n_at_once(capsys):
    code, err = run_error(capsys, "enumerate", "-n", "11")
    assert code == 2 and err == ("error: enumeration at n=11 starts from 11! - 1 "
                                 "relabelings of 121 entries, over its budget of 200000\n")


def test_non_integer_permutation_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "perm.ybx"
    path.write_text("ybx v1\nsize 3\npermutation a b c\n")
    code, err = run_error(capsys, "check", str(path))
    assert code == 2 and err == "error: line 3: permutation values must be integers\n"


@pytest.mark.parametrize("body,line,message", [
    ("identity extra", 3, "'identity' takes no values"),
    ("flip\nmap 1 1 2 2", 4, "unexpected line after 'flip'"),
    ("permutation 1 2\n# a comment\nnonsense", 5, "unexpected line after 'permutation'"),
])
def test_trailing_body_is_a_parse_error(capsys, tmp_path, body, line, message):
    path = tmp_path / "trailing.ybx"
    path.write_text(f"ybx v1\nsize 2\n{body}\n")
    code, err = run_error(capsys, "check", str(path))
    assert code == 2 and err == f"error: line {line}: {message}\n"


MAPS_2 = ["map 1 1 1 1", "map 1 2 1 2", "map 2 1 2 1"]


@pytest.mark.parametrize("size,body,message", [
    (2, MAPS_2 + ["map 2 2 2 3"], "line 6: map indices must be between 1 and 2"),
    (2, MAPS_2 + ["map 2 3 2 2"], "line 6: map indices must be between 1 and 2"),
    (2, ["map 0 1 1 1"], "line 3: map indices must be between 1 and 2"),
    (2, ["map 1 1 1 1", "# a comment", "map 1 1 2 2"], "line 5: pair (1, 1) given twice"),
    (2, MAPS_2, "line 5: no image for pair (2, 2)"),
    (2, MAPS_2[1:] + ["map 2 2 1 1"], "line 5: no image for pair (1, 1)"),
    (3, ["permutation 1 1 2"], "line 3: 1 1 2 is not a permutation of 1..3"),
    (3, ["permutation 1 2 4"], "line 3: 1 2 4 is not a permutation of 1..3"),
    (3, ["permutation 0 1 2"], "line 3: 0 1 2 is not a permutation of 1..3"),
    ("2 junk", ["identity"], "line 2: bad size line"),
    ("0_2", ["map 0_2 +2 \uff12 2"], "line 2: bad size line"),
    (2, MAPS_2 + ["map 2 +2 2 2"], "line 6: map indices must be integers"),
    (2, ["permutation 2 +1"], "line 3: permutation values must be integers"),
])
def test_table_errors_name_the_line_and_1_based_values(capsys, tmp_path, size, body, message):
    path = tmp_path / "table.ybx"
    path.write_text("\n".join(["ybx v1", f"size {size}", *body]) + "\n")
    code, err = run_error(capsys, "check", str(path))
    assert (code, err) == (2, f"error: {message}\n")


def test_size_above_the_cap_is_a_parse_error(capsys, tmp_path):
    # checked before any table is built: identity would ask for 10^16 pairs
    path = tmp_path / "huge.ybx"
    path.write_text("ybx v1\nsize 100000000\nidentity\n")
    code, err = run_error(capsys, "check", str(path))
    assert code == 2 and err.startswith("error: line 2: size must be between 1 and")
    text = f"ybx v1\nsize {cli.MAX_SIZE}\nidentity\n"
    assert cli.parse_solution(text).n == cli.MAX_SIZE


def test_veronese_past_max_size_is_refused_at_once(capsys, tmp_path):
    # the level-6 solution of the 4-point identity has 4,096 points and a
    # 16.7 M-entry table; the refusal counts the words without listing them
    path = tmp_path / "identity4.ybx"
    path.write_text("ybx v1\nsize 4\nidentity\n")
    start = time.perf_counter()
    code, err = run_error(capsys, "veronese", str(path), "-d", "6")
    assert time.perf_counter() - start < 1
    assert (code, err) == (2, "error: the level-6 Veronese solution has 4096 points, "
                              "more than 256\n")


@pytest.mark.parametrize("flag", ["--frt", "--bmat"])
def test_relations_past_the_quadruple_bound_exit_2(tmp_path, flag):
    # n = 17 is the first size past linr.MAX_QUADRUPLES = 16^4
    path = tmp_path / "flip17.ybx"
    path.write_text("ybx v1\nsize 17\nflip\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "ybx.cli", "linear", str(path), flag],
                          env=dict(os.environ, PYTHONPATH=src_dir),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: relations of R on 17 points run over 83521 index "
                           "quadruples > 65536\n")


def test_undecodable_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "binary.ybx"
    path.write_bytes(b"ybx v1\nsize 2\n\xff\xfe\n")
    code, err = run_error(capsys, "check", str(path))
    assert code == 2 and err.startswith("error: ")


TOKENS = ["1", "2", "3", "0", "-1", "257", "10000000000", "x", "1.5", "#"]
LINES = st.one_of(
    st.sampled_from(["ybx v1", "ybx v2", "size", "identity", "flip", "map", ""]),
    st.builds(" ".join, st.lists(st.sampled_from(TOKENS), max_size=5)),
    st.builds(lambda head, rest: " ".join([head] + rest),
              st.sampled_from(["size", "permutation", "map", "identity"]),
              st.lists(st.sampled_from(TOKENS), max_size=5)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["ybx v1", "ybx v1", "ybx v2", "# c", ""]),
       st.sampled_from(["size 1", "size 2", "size 3", "size 0", "size -2",
                        "size 257", "size x", "size", "junk"]),
       st.lists(LINES, max_size=10))
def test_any_token_text_parses_or_fails_cleanly(header, size, body):
    text = "\n".join([header, size] + body) + "\n"
    try:
        cli.parse_solution(text)
    except YbxError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ybx")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                cli.main(["check", path])
    assert (exc.value.code or 0) in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# (table name, n, r_table, default `ybx linear` output); the last two are the
# flip, which is not idempotent, and an idempotent set that is not braided
LINEAR_SETS = [
    ("cycle3", None, None, "braid: True\nidempotent: True\nybe: True\n"),
    ("mixed3", None, None, "braid: True\nidempotent: True\nybe: True\n"),
    ("flip2", 2, quadset.make_named("flip", 2).r_table,
     "braid: True\nidempotent: False\nybe: True\n"),
    ("unbraided3", 3, ((0, 0), (1, 0), (2, 0), (1, 0), (0, 0), (2, 0), (2, 0), (0, 0), (1, 0)),
     "braid: False\nidempotent: True\nybe: False\n"),
]


def test_default_linear_builds_no_operator(capsys, files, tmp_path, monkeypatch):
    # Psi sends each basis pair to one basis pair, so the braid relation and
    # Psi^2 = Psi are questions about r that quadset's tests answer
    def refused(*args):
        raise AssertionError("the default mode built or checked an operator")
    for name in ("linearize", "check_braid", "check_matrix_ybe", "check_idempotent"):
        monkeypatch.setattr(linr, name, refused)
    for name, n, table, want in LINEAR_SETS:
        path = files.get(name) or tmp_path / f"{name}.ybx"
        if table is not None:
            path.write_text(cli.render_solution(quadset.QuadraticSet(n, table)))
        assert run(capsys, "linear", str(path)) == (0, want), name


def test_default_linear_matches_the_operator_checks(capsys, tmp_path):
    # the operator path is the oracle: braid and ybe are check_braid on Psi,
    # idempotent is check_idempotent on Psi
    rng = random.Random(30)
    path, seen = tmp_path / "r.ybx", set()
    for k in range(60):
        n = rng.randint(1, 4)
        pairs = [divmod(p, n) for p in range(n * n)]
        if k % 2:
            table = [rng.choice(pairs) for _ in pairs]
        else:
            # idempotent: the images are fixed points
            fixed = rng.sample(pairs, rng.randint(1, n * n))
            table = [p if p in fixed else rng.choice(fixed) for p in pairs]
        qs = quadset.QuadraticSet(n, table)
        path.write_text(cli.render_solution(qs))
        code, out = run(capsys, "linear", str(path), "--json")
        psi, _ = linr.linearize(qs)
        braid = linr.check_braid(psi)
        want = {"braid": braid, "ybe": braid, "idempotent": linr.check_idempotent(psi)}
        assert code == 0 and json.loads(out) == want, qs
        seen.add((want["braid"], want["idempotent"]))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_default_linear_on_the_64_cycle_stays_small(tmp_path):
    # a child reports its own peak RSS in KiB, as VmHWM, which exec resets:
    # ru_maxrss keeps the high-water mark of the forked pytest process.
    # Building Psi's lifts on V^(x)3 took about 170 MiB
    path = tmp_path / "cycle64.ybx"
    path.write_text("ybx v1\nsize 64\npermutation "
                    + " ".join(str(i % 64 + 1) for i in range(1, 65)) + "\n")
    code = ("import sys\n"
            "from ybx import cli\n"
            "try:\n"
            "    cli.main(['linear', sys.argv[1]])\n"
            "except SystemExit as exc:\n"
            "    print('exit', exc.code or 0)\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(line for line in fh if line.startswith('VmHWM:')))\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[:4] == ["braid: True", "idempotent: True", "ybe: True", "exit 0"]
    assert int(out[4].split()[1]) < 64 * 1024, out[4]


# the layers each command loads besides cli, errors and quadset, and which
# of dataclasses and fractions; orbits brings ncgb, elim and growth
ORBITS = {"ybx.orbits", "ybx.ncgb", "ybx.elim", "ybx.growth", "dataclasses", "fractions"}
BRAIDMON = ORBITS | {"ybx.braidmon"}
COLD_LOADS = [
    ("check {cycle3}", set()),
    ("enumerate -n 2", set()),
    ("linear {cycle3}", set()),
    ("linear {cycle3} --ybe", set()),
    ("linear {rid2} --koszul", {"ybx.linr", "ybx.elim", "fractions"}),
    ("linear {rid2} --frt", {"ybx.linr", "ybx.elim", "fractions"}),
    ("orbits {mixed3}", ORBITS),
    ("relations {cycle3}", ORBITS),
    ("groebner {mixed3}", ORBITS),
    ("hilbert {cycle3}", ORBITS),
    ("dims {mixed3}", ORBITS),
    ("tournament {rid2}", ORBITS),
    ("graph {cycle3}", ORBITS),
    ("veronese {mixed3}", BRAIDMON),
    ("prolong {mixed3}", BRAIDMON),
    ("segre {rid2} {rid2}", BRAIDMON | {"ybx.verseg"}),
    ("calculus", {"ybx.diffcalc", "ybx.ncgb", "ybx.linr", "ybx.elim",
                  "dataclasses", "fractions"}),
]


@pytest.mark.parametrize("command, loads", COLD_LOADS, ids=[c for c, _ in COLD_LOADS])
def test_a_cold_command_loads_only_the_layers_it_runs(files, command, loads):
    # a fresh interpreter, so nothing an earlier test imported is counted
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from ybx import cli\n"
            "try:\n"
            "    cli.main(sys.argv[2:])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code or 0)\n"
            "print(*sorted(m for m in sys.modules if m.startswith('ybx.')\n"
            "              or m in ('dataclasses', 'fractions')))\n")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = subprocess.run([sys.executable, "-I", "-c", code, src_dir,
                          *command.format(**files).split()],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[-2] in ("0", "1"), out
    assert set(out[-1].split()) == {"ybx.cli", "ybx.errors", "ybx.quadset"} | loads


def test_the_cold_table_runs_every_command():
    assert {c.split()[0] for c, _ in COLD_LOADS} == {name for name, _, _ in cli.COMMANDS}


@pytest.mark.parametrize("argv", [["hilbert"], ["veronese", "-d", "3"]])
def test_one_lead_index_per_basis(capsys, files, monkeypatch, argv):
    # complete grows one code index and hands it to the basis: the command
    # builds no second index from the decoded rules
    built = []

    class CountingIndex(ncgb.LeadIndex):
        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)

    def refused(gb):
        raise AssertionError("the basis encodes its rules again")
    monkeypatch.setattr(ncgb, "LeadIndex", CountingIndex)
    monkeypatch.setattr(ncgb.GroebnerBasis.index, "func", refused)
    code, _ = run(capsys, argv[0], files["cycle3"], *argv[1:])
    assert code == 0 and len(built) == 1
