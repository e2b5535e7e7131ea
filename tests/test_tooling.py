"""The benchmark's trace hooks and the demo scripts still run against the
current package, and the package source keeps its exactness rules."""

import argparse
import ast
import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    """The benchmark's `perfbench/tracing.py`, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_trace_hooks_resolve():
    # the tracer patches the bindings of the csw modules already loaded, and
    # the benchmark's workloads load these before it is installed
    for module in ("csw.analysis", "csw.cli"):
        importlib.import_module(module)
    assert _tracing().self_check() == []


def test_every_exact_lp_entry_point_is_timed():
    # a traced run counts and times the LPs by the hull function that poses
    # them, so each one the hull module poses must be a timed target
    tree = ast.parse((ROOT / "src" / "csw" / "hull.py").read_text(encoding="utf-8"))
    posing = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
              and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                      and call.func.id == "simplex_solve" for call in ast.walk(node))}
    timed = {name for module, name, _ in _tracing().TIMED if module == "hull"}
    assert sorted(posing - timed) == []
    assert "polar_support" in posing  # the scan sees a call it must see


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _readme_commands():
    """The `csw ...` lines of README's "Command line" block, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("csw ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    from csw.cli import main

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CSW_OUT_DIR", raising=False)
    commands = _readme_commands()
    assert len(commands) >= 13
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def _inexact_nodes(tree):
    """Every assert statement, float literal and call to `float` in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node, "assert statement"
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            yield node, f"float literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node, "call to float"


@pytest.mark.parametrize("source", sorted((ROOT / "src" / "csw").glob("*.py")),
                         ids=lambda path: path.stem)
def test_source_has_no_assert_or_floating_point(source):
    # `assert` is never control flow, and no floating point decides a result;
    # naming `float` (as in an isinstance refusal) stays legal
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    found = [f"{source.name}:{node.lineno}: {what}" for node, what in _inexact_nodes(tree)]
    assert found == []


def test_no_json_dumps_call_indents():
    # json's indenting encoder is pure Python; csw writes indented JSON with
    # vectors.canonical_json
    found = [f"{source.name}:{node.lineno}"
             for source in sorted((ROOT / "src" / "csw").glob("*.py"))
             for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps")
             and any(kw.arg == "indent" for kw in node.keywords)]
    assert found == []


def _set_key_spellings(tree):
    """Every f-string in `tree` that is exactly `{a}:{b}` for two names: the
    spelling of a set key "k:i"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr) and len(node.values) == 3:
            left, colon, right = node.values
            if (isinstance(colon, ast.Constant) and colon.value == ":"
                    and all(isinstance(v, ast.FormattedValue) and isinstance(v.value, ast.Name)
                            for v in (left, right))):
                yield node


def test_only_the_scheme_spells_set_keys():
    # Scheme.keyed_sets writes "k:i" and scheme_from_json reads it
    found = [f"{source.name}:{node.lineno}"
             for source in sorted((ROOT / "src" / "csw").glob("*.py"))
             if source.name != "schemes.py"
             for node in _set_key_spellings(ast.parse(source.read_text(encoding="utf-8")))]
    assert found == []


def _bijection_builds(tree):
    """Every call to `position_map`, and every dict comprehension that swaps
    the key and the value of a two-name `.items()` loop, as in
    `{q: p for p, q in m.items()}`: building or inverting a position map."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and "position_map" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield node
        elif isinstance(node, ast.DictComp) and len(node.generators) == 1:
            loop = node.generators[0]
            names = [getattr(e, "id", None) for e in getattr(loop.target, "elts", ())]
            if (len(names) == 2 and None not in names
                    and isinstance(loop.iter, ast.Call)
                    and isinstance(loop.iter.func, ast.Attribute)
                    and loop.iter.func.attr == "items"
                    and [getattr(node.key, "id", None),
                         getattr(node.value, "id", None)] == names[::-1]):
                yield node


def test_only_the_scheme_builds_increasing_bijections():
    # Scheme.piece_maps and Scheme.transport make them, and no module inverts one
    found = [f"{source.name}:{node.lineno}"
             for source in sorted((ROOT / "src" / "csw").glob("*.py"))
             if source.name != "schemes.py"
             for node in _bijection_builds(ast.parse(source.read_text(encoding="utf-8")))]
    assert found == []


def _private_imports(tree):
    """(line, name) for every `_`-prefixed name that `tree` imports from a
    csw module: relatively, or from `csw` or `csw.*`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "csw"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name


def test_no_module_imports_a_private_name_of_another():
    # what one csw module needs of another is public, as
    # NormingFamily.rank_canonical is for the coherence sweep's refusal
    found = [f"{source.name}:{line}: {name}"
             for source in sorted((ROOT / "src" / "csw").glob("*.py"))
             for line, name in _private_imports(ast.parse(source.read_text(encoding="utf-8")))]
    assert found == []


def _actions(parser, path=("csw",)):
    """(command path, action) for every action of `parser` and its subparsers."""
    for action in parser._actions:
        yield path, action
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _actions(sub, path + (name,))


def test_no_option_is_read_with_int():
    # int() reads "1_0", "+3" and non-ASCII digits; options use parse_int
    from csw.cli import build_parser

    found = [" ".join(path) + " " + "/".join(action.option_strings or [action.dest])
             for path, action in _actions(build_parser()) if action.type is int]
    assert found == []


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, node) for every module-level private function or class and
    every method of a module-level class, dunders aside: the interpreter
    calls them, as it calls a module's PEP 562 `__getattr__`."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") and not _is_dunder(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item


def _public_definitions(tree):
    """(name, node) for every module-level public function or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node


def _uses(tree, imports=False, strings=False):
    """(line, name) for every name and attribute in `tree`, with `imports`
    every imported name too, and with `strings` every string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif imports and isinstance(node, ast.alias):
            yield node.lineno, node.name
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def _unused(definitions, imports=False, outside=()):
    """name -> "file:line" for every definition of `definitions` in
    `src/csw` that no use in the package outside its own lines names (see
    `_uses` for `imports`), nor any (line, name) of `outside`."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "csw").glob("*.py"))}
    uses = [(file, line, name) for file, tree in trees.items()
            for line, name in _uses(tree, imports)]
    uses += [(None, line, name) for line, name in outside]
    return {name: f"{file}:{node.lineno}"
            for file, tree in trees.items() for name, node in definitions(tree)
            if not any(used == name.rpartition(".")[2]
                       and (other != file or not node.lineno <= line <= node.end_lineno)
                       for other, line, used in uses)}


# public methods that only callers outside the package (tests, demos) use
USED_OUTSIDE = {"ExperimentReport.claim"}


def test_every_private_name_and_method_is_used():
    # a helper or method that nothing in the package names is dead code
    unused = _unused(_definitions)
    assert {name: where for name, where in unused.items()
            if name not in USED_OUTSIDE} == {}
    assert set(unused) >= USED_OUTSIDE, "drop the names the package now uses"


# public names that only the tests call, each kept on purpose
TESTED_ONLY = {
    # the only code for the paper's threshold tau < eps/(1+eps), which a
    # command is still to reach
    "verify_eps_separation",
    # the readers and the writer that round-trip the public family, scheme
    # and vector formats
    "family_loads",
    "scheme_loads",
    "format_vector",
}


def test_every_public_name_is_used_outside_the_tests():
    # public library code that only the tests reach is dead code; the
    # benchmark's tracer names its targets as strings
    outside = [use for folder in ("demos", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))
               for use in _uses(ast.parse(path.read_text(encoding="utf-8")),
                                imports=True, strings=folder == "perfbench")]
    unused = _unused(_public_definitions, imports=True, outside=outside)
    assert {name: where for name, where in unused.items()
            if name not in TESTED_ONLY} == {}
    assert set(unused) >= TESTED_ONLY, "drop the names the package now uses"


def _unused_imports(tree):
    """(line, name) for every name that `tree` imports and never reads:
    `import a.b` binds `a`, and a `__future__` import binds nothing."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in bound if name not in read)


# imported names kept bound for a reader outside their module: the
# benchmark's tracer times `hull.norming_max` by that name
IMPORTED_FOR_OTHERS = {("src/csw/hull.py", "norming_max")}


def test_every_imported_name_is_used():
    found = {(str(path.relative_to(ROOT)), name): line
             for folder in ("src/csw", "tests", "demos")
             for path in sorted((ROOT / folder).glob("*.py"))
             for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert {key: line for key, line in found.items() if key not in IMPORTED_FOR_OTHERS} == {}
    assert set(found) >= IMPORTED_FOR_OTHERS, "drop the names their module now uses"


def test_every_error_class_is_raised():
    # an error class that no `raise` in the package names, itself or through
    # a subclass that is raised, is dead code the import rule counts as used
    raised = set()
    for path in sorted((ROOT / "src" / "csw").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    errors = ast.parse((ROOT / "src" / "csw" / "errors.py").read_text(encoding="utf-8"))
    bases = {node.name: {base.id for base in node.bases}
             for node in errors.body if isinstance(node, ast.ClassDef)}

    def is_raised(name):
        return name in raised or any(name in parents and is_raised(sub)
                                     for sub, parents in bases.items())

    assert sorted(name for name in bases if not is_raised(name)) == []
    assert "NotInSchemeError" in raised  # the scan sees a raise it must see
