"""Every name a source module imports is used in that module, every
module-level private name is used somewhere in the package, and only
lattice.decimal_to_int reads integers written as text.

There is no linter among the test dependencies, so this reads the modules
with ast. The package's __init__.py is skipped by the import check: it
imports only to re-export."""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "fwpp").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def _imported_names(tree):
    """(name bound, line) for each import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Every ast.Name loaded, which includes the base of every attribute
    chain."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_sources_found():
    assert {"lattice.py", "mutation.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_an_unused_import_is_reported():
    tree = ast.parse("from __future__ import annotations\nimport json\n"
                     "from math import gcd, prod\nprint(prod([2]))\n")
    used = _used_names(tree)
    assert [n for n, _ in _imported_names(tree) if n not in used] == ["json", "gcd"]


def _private_definitions(tree):
    """(name, line) for each module-level def, class or assignment whose
    name starts with one underscore and is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, t.lineno) for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name, line in targets:
            if name.startswith("_") and not name.endswith("__"):
                yield name, line


def _referenced_names(tree):
    """Every name loaded as an ast.Name or read as an attribute."""
    return _used_names(tree) | {node.attr for node in ast.walk(tree)
                                if isinstance(node, ast.Attribute)}


def _unreferenced_private_names(modules):
    """"module: name (line n)" for each private name of the {module: tree}
    map that no module references."""
    referenced = set().union(*map(_referenced_names, modules.values()))
    return [f"{module}: {name} (line {line})"
            for module, tree in modules.items()
            for name, line in _private_definitions(tree) if name not in referenced]


def test_every_private_name_is_referenced():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
               for p in PACKAGE}
    assert sum(len(list(_private_definitions(t))) for t in modules.values()) > 20
    assert _unreferenced_private_names(modules) == []


def test_an_unreferenced_private_name_is_reported():
    modules = {
        "a.py": ast.parse("_LIMIT = 3\n_spare: int = 4\n__all__ = []\n"
                          "def _used(): return _LIMIT\n"
                          "def _dead(): pass\nclass _Gone: pass\n"
                          "def public(): return 1\n"),
        "b.py": ast.parse("import a\nprint(a._used())\n_dead = 5\n"),
    }
    assert _unreferenced_private_names(modules) == [
        "a.py: _spare (line 2)", "a.py: _dead (line 5)",
        "a.py: _Gone (line 6)", "b.py: _dead (line 3)"]


def _stray_integer_reads(tree, module):
    """"module: line n" for each call of the builtin int, or int handed
    over as a keyword argument (argparse's type=int), outside
    lattice.decimal_to_int, and for each json.loads call without
    parse_int."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            is_int = isinstance(node.func, ast.Name) and node.func.id == "int"
            hands_int = any(isinstance(k.value, ast.Name) and k.value.id == "int"
                            for k in node.keywords)
            if (is_int or hands_int) and (module, function) != (
                    "lattice.py", "decimal_to_int"):
                found.append(f"{module}: line {node.lineno}")
            is_loads = (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "loads")
            if is_loads and "parse_int" not in {k.arg for k in node.keywords}:
                found.append(f"{module}: line {node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_integers_written_as_text_have_one_reader():
    """Only lattice.decimal_to_int turns text into an integer, and every
    JSON document hands its integer literals to it."""
    assert [line for p in PACKAGE for line in _stray_integer_reads(
        ast.parse(p.read_text(encoding="utf-8"), filename=str(p)), p.name)] == []


def test_a_stray_integer_read_is_reported():
    source = ("import json\n"
              "def decimal_to_int(t): return int(t)\n"
              "def f(t): return int(t.strip())\n"
              "p.add_argument('--n', type=int)\n"
              "json.loads(t)\n"
              "json.loads(t, parse_int=decimal_to_int)\n"
              "isinstance(t, int)\n")
    assert _stray_integer_reads(ast.parse(source), "lattice.py") == [
        "lattice.py: line 3", "lattice.py: line 4", "lattice.py: line 5"]
    assert _stray_integer_reads(ast.parse(source), "cli.py") == [
        "cli.py: line 2", "cli.py: line 3", "cli.py: line 4", "cli.py: line 5"]


def _main_guards(tree):
    """The line of each module-level `if __name__ == "__main__":`."""
    return [node.lineno for node in tree.body
            if isinstance(node, ast.If) and isinstance(test := node.test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__"
            and any(isinstance(c, ast.Constant) and c.value == "__main__"
                    for c in test.comparators)]


def test_only_dunder_main_is_an_entry_point():
    """`python -m fwpp` runs __main__.py and the console script calls
    cli.main, so no other module carries a second entry point."""
    assert [f"{p.name}: line {line}" for p in PACKAGE if p.name != "__main__.py"
            for line in _main_guards(ast.parse(p.read_text(encoding="utf-8")))] == []


def test_a_main_guard_is_reported():
    source = ("import sys\n"
              "if __name__ == '__main__':\n    sys.exit(0)\n"
              "if __name__ == 'fwpp':\n    pass\n"
              "def f():\n    if __name__ == '__main__':\n        pass\n")
    assert _main_guards(ast.parse(source)) == [2]
