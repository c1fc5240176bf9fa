"""Module layout of src/ybx: imports sit at the top of each module, but
for the layers and fractions a CLI command imports as it opens, the
package's own modules import one another without a cycle, verseg
decides its relation spaces without linr, the CLI
decides no property of a set on an operator, every function the bench
traces exists, diffcalc multiplies polynomials in one
place, one routine stores word normal forms, one automaton lists and
counts a finished basis's normal words, the ncgb oracle shares
no completion or word normal-form code with the module it checks, linr
bounds its tensor powers in one place, linr's RationalMatrix does no
operator arithmetic, and the result records are named tuples, with
ncgb.GroebnerBasis the one dataclass."""

import ast
from functools import reduce
from importlib import import_module
from pathlib import Path

import ybx

PACKAGE = Path(ybx.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(node):
    """The package modules an Import or ImportFrom node names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("ybx.")}
    if node.level == 0 and (node.module or "").split(".")[0] != "ybx":
        return set()
    if node.module and node.module != "ybx":
        return {node.module.split(".")[-1]}
    return {alias.name for alias in node.names}      # from . import a, b


def opening_imports(func):
    """The imports that open a function: its leading import statements and
    those of leading ifs that hold nothing else."""
    found = []
    for stmt in func.body:
        body = stmt.body if isinstance(stmt, ast.If) and not stmt.orelse else [stmt]
        if not all(isinstance(node, (ast.Import, ast.ImportFrom)) for node in body):
            break
        found += body
    return found


def lazy_import(node):
    """Whether node imports only ybx layers or fractions."""
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return node.module == "fractions"
    return isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module


def function_local_imports(name, tree):
    """The lines of module `name` that import inside a function, but for the
    imports of layers or fractions that open a CLI command: a cold command
    then loads no layer it never calls."""
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lazy = (opening_imports(func) if name == "cli"
                    and func.name.startswith("cmd_") else [])
            found |= {node.lineno for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))
                      and not (node in lazy and lazy_import(node))}
    return found


def test_no_import_inside_a_function():
    found = [f"{name}.py:{line}" for name, tree in MODULES.items()
             for line in sorted(function_local_imports(name, tree))]
    assert not found, f"function-local imports at {found}"


def test_only_a_command_may_open_with_a_layer_import():
    tree = ast.parse(
        "def cmd_a(args):\n"
        "    from . import linr\n"
        "    if args.x:\n"
        "        from fractions import Fraction\n"
        "    args.y = 1\n"
        "    from . import ncgb\n"                # 6: after a statement
        "def cmd_b(args):\n"
        "    import json\n"                       # 8: not a layer
        "    from .errors import YbxError\n"      # 9: a name, not a layer
        "    def inner():\n"
        "        from . import orbits\n"          # 11: not a command
        "def helper():\n"
        "    from . import orbits\n")             # 13: not a command
    assert function_local_imports("cli", tree) == {6, 8, 9, 11, 13}
    assert function_local_imports("orbits", tree) == {2, 4, 6, 8, 9, 11, 13}


def test_package_import_graph_has_no_cycle():
    graph = {name: set() for name in MODULES}
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                graph[name] |= imported_modules(node) & set(MODULES)
    # depth-first search; reaching a module on the current path closes a cycle
    state = {}

    def visit(name, path):
        state[name] = "open"
        for dep in sorted(graph[name]):
            if state.get(dep) == "open":
                raise AssertionError(" -> ".join(path[path.index(dep):] + [dep]))
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = "done"

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])


def test_verseg_imports_nothing_from_linr():
    # a set's degree-2 relation spaces are spanned by pair differences, so
    # the Segre check compares orbit partitions and builds no matrix
    found = [node.lineno for node in ast.walk(MODULES["verseg"])
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and "linr" in imported_modules(node)]
    assert not found, f"verseg imports linr at lines {found}"


# the property errors and where each may be raised: module -> the one
# function that raises it there, or None for anywhere in the module
PROPERTY_ERRORS = {"NotBraided": {"quadset": None},
                   "NotLeftNondegenerate": {"quadset": None},
                   "NotIdempotent": {"quadset": None, "linr": "require_idempotent"}}


def uses(tree, name):
    """The top-level function around each use of name; None outside one."""
    found = []
    for top in tree.body:
        where = top.name if isinstance(top, ast.FunctionDef) else None
        found += [where for node in ast.walk(top)
                  if isinstance(node, ast.Name) and node.id == name
                  or isinstance(node, ast.Attribute) and node.attr == name]
    return found


def test_property_errors_come_from_one_gate():
    stray = [f"{error} in {module}.{where}"
             for error, allowed in PROPERTY_ERRORS.items()
             for module, tree in MODULES.items() for where in uses(tree, error)
             if module not in allowed or allowed[module] not in (None, where)]
    assert not stray, "property errors raised outside the gates: " + ", ".join(stray)


def test_the_cli_decides_no_property_on_an_operator():
    # a set's properties are quadset's tests; the operator checks are for
    # R-matrices that come from no set
    found = {name: uses(MODULES["cli"], name)
             for name in ("check_braid", "check_matrix_ybe", "check_idempotent")}
    assert not any(found.values()), found


def test_only_ncgb_compares_against_the_degree_bound():
    found = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
             if name != "ncgb" for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             and any(isinstance(sub, ast.Attribute) and sub.attr == "max_degree"
                     for side in (node.left, *node.comparators) for sub in ast.walk(side))]
    assert not found, f"degree bounds compared outside ncgb at {found}"


def test_only_the_matrix_product_multiplies_polynomials():
    # diffcalc has one product over the algebra; a one-form is a one-row
    # matrix, so no other loop over _poly_mul is needed
    found = {f"{module}.{where}" for module, tree in MODULES.items()
             for where in uses(tree, "_poly_mul")}
    assert found == {"diffcalc._mat_mul"}, f"_poly_mul used in {sorted(found)}"


def test_bench_targets_resolve():
    # read TARGETS from the source, so the test imports nothing under bench/
    spans = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    targets = next(ast.literal_eval(node.value)
                   for node in ast.parse(spans.read_text()).body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    missing = []
    for target in targets:
        layer, *path = target.split(".")
        try:
            reduce(getattr, path, import_module(f"ybx.{layer}"))
        except (ImportError, AttributeError):
            missing.append(target)
    assert targets and not missing, f"bench targets missing from ybx: {missing}"


# the completion, lead index and word normal-form code the ncgb oracle
# checks, and the tuple helpers it keeps copies of; it may share only the
# helpers its docstring lists
COMPLETION_CODE = {"complete", "_word_step", "_row_step", "_register_rule",
                   "_grow_normal_words", "LeadIndex", "_normal_form_dict", "_desc",
                   "deglex_key", "_freeze_rules"}


def test_ncgb_oracle_shares_no_completion_code():
    oracle = Path(__file__).resolve().parent / "ncgb_oracle.py"
    tree = ast.parse(oracle.read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in COMPLETION_CODE
             and ast.unparse(node.value).split(".")[-1] == "ncgb"
             or isinstance(node, ast.ImportFrom) and node.module
             and node.module.split(".")[-1] == "ncgb"
             and any(alias.name in COMPLETION_CODE for alias in node.names)]
    assert not found, f"ncgb_oracle.py uses ybx.ncgb's completion at lines {found}"


def memo_stores(tree):
    """The functions that store into a mapping named memo, or into the
    words attribute of an object."""
    def is_memo(node):
        return (isinstance(node, ast.Name) and node.id == "memo"
                or isinstance(node, ast.Attribute) and node.attr in ("memo", "words"))
    return {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            and is_memo(node.value)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("update", "setdefault") and is_memo(node.func.value)}


def test_one_routine_stores_word_normal_forms():
    # _grow_normal_words computes every word normal form, on codes; _word_step
    # only maps the kept words whose normal word became a lead to its root,
    # and normal_form_word only keeps the tuple it decoded from one
    found = {f"{module}.{func}" for module, tree in MODULES.items()
             for func in memo_stores(tree)}
    assert found == {"ncgb._grow_normal_words", "ncgb._word_step",
                     "ncgb.normal_form_word"}, sorted(found)


def test_one_automaton_lists_and_counts_normal_words():
    # normal_words and hilbert_series take each transition from LeadIndex.step,
    # so no second test of whether a word is normal, or search for its state, is left
    ncgb = MODULES["ncgb"]
    assert not uses(ncgb, "ends_with_lead")
    readers = {"normal_words", "hilbert_series"}
    assert readers <= set(uses(ncgb, "step"))
    found = {(where, name) for name in ("tables", "starts", "powers", "prefixes", "tops")
             for where in uses(ncgb, name) if where in readers}
    assert not found, sorted(found)


def test_every_error_class_is_used():
    # an error class no other module names has outlived the code that raised it
    errors = [node.name for node in MODULES["errors"].body
              if isinstance(node, ast.ClassDef) and node.name != "YbxError"]
    unused = [error for error in errors
              if not any(uses(tree, error) for module, tree in MODULES.items()
                         if module != "errors")]
    assert errors and not unused, f"error classes named nowhere in ybx: {unused}"


def test_monoid_check_reads_the_public_word_actions():
    # the python -O test of check_braided_monoid_axioms patches these names
    check = next(node for node in MODULES["braidmon"].body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "check_braided_monoid_axioms")
    called = {node.func.id for node in ast.walk(check)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"word_left_action", "word_right_action"} <= called, sorted(called)


def transposes(node):
    """The transpose calls under node: _transpose(...) or x.transpose()."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and (getattr(call.func, "id", None) == "_transpose"
                 or getattr(call.func, "attr", None) == "transpose")]


def test_the_braided_factorial_is_bounded_once_and_read_as_rows():
    # one bound on n^m, read with n, which every builder of an operator on
    # V^(x)m asks for, and one on the n^4 index quadruples of the FRT and
    # braided-matrix relations; the factorial is built as rows, with Psi
    # applied in place and never lifted, and the Nichols check eliminates
    # nothing: it reads the factorial as columns through one transpose
    linr = MODULES["linr"]
    assert uses(linr, "SizeTooLarge") == ["_tensor_dim", "_relation_index"]
    funcs = {node.name: node for node in linr.body if isinstance(node, ast.FunctionDef)}
    for name in ("braided_factorial", "nichols_quadratic_check", "check_braid"):
        dims = [ast.unparse(call) for call in ast.walk(funcs[name])
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_tensor_dim"]
        assert dims in (["_tensor_dim(psi, m)"], ["_tensor_dim(psi, 3)"]), (name, dims)
    assert "_lift" not in funcs and not uses(linr, "_lift")
    assert not transposes(funcs["braided_factorial"]) and not transposes(funcs["_factorial"])
    check = funcs["nichols_quadratic_check"]
    names = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(check)}
    assert not names & {"_kernel", "_rank", "rref"}, names & {"_kernel", "_rank", "rref"}
    assert [ast.unparse(call.args[0]) for call in transposes(check)
            if "_factorial" in ast.unparse(call)] == ["_factorial(psi.vecs, n, m, -1)"]


def test_rational_matrix_is_only_the_boundary_type():
    """linr combines operators as rows, so RationalMatrix only carries a
    matrix into and out of linr: no sum, identity or Kronecker product.  mul
    and rref are kept only for the bench tracer, whose TARGETS name them."""
    cls = next(node for node in MODULES["linr"].body
               if isinstance(node, ast.ClassDef) and node.name == "RationalMatrix")
    methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert methods == {"__init__", "data", "__eq__", "transpose", "rank", "nullspace_basis",
                       "row_space_basis", "mul", "rref"}, sorted(methods)


def test_records_are_named_tuples_but_the_groebner_basis():
    # a dataclass decoration generates and execs its methods at import, and
    # dataclasses pulls in inspect; the records are named tuples instead.
    # GroebnerBasis stays a dataclass because bench/test_checks.py builds
    # broken bases from it with dataclasses.replace
    decorated = [f"{module}.{node.name}" for module, tree in MODULES.items()
                 for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                 for deco in node.decorator_list
                 if "dataclass" in ast.unparse(deco)]
    assert decorated == ["ncgb.GroebnerBasis"], decorated
    slow = [f"{module}.py:{node.lineno}" for module, tree in MODULES.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and {alias.name.split(".")[0] for alias in node.names} & {"typing", "inspect"}
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] in ("typing", "inspect")]
    assert not slow, f"typing or inspect imported at {slow}"


def test_no_assert_in_the_library():
    # python -O strips assert statements, so no verdict of the library may rest on one
    found = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements at {found}"
