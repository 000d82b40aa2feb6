"""Every name a source module imports is used in that module, every
module-level private name and every exception class is used somewhere in
the package, only
lattice.decimal_to_int reads integers written as text, each checked
type is built past its checks at one site only, one function spells
the refusal of a weight triple, and every module-level functools cache
has a literal, finite bound.

There is no linter among the test dependencies, so this reads the modules
with ast. A name that a module-level __all__ lists counts as used, so the
package's __init__.py may import its modules to export them, and an import
into it that __all__ does not name is reported."""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "fwpp").glob("*.py"))


def _imported_names(tree):
    """(name bound, line) for each import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    """The strings of a module-level __all__ list or tuple."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
            for elt in node.value.elts if isinstance(elt, ast.Constant)}


def _used_names(tree):
    """Every ast.Name loaded, which includes the base of every attribute
    chain, and every name the module exports in __all__."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            } | _exported_names(tree)


def test_sources_found():
    assert {"__init__.py", "lattice.py", "mutation.py", "cli.py"} <= {
        p.name for p in PACKAGE}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
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


def test_a_re_export_into_the_package_root_is_reported():
    tree = ast.parse('"""Doc."""\n'
                     "from . import lattice, mutation\n"
                     "from .lattice import edges\n"
                     '__all__ = ["lattice", "mutation"]\n'
                     '__version__ = "0.1.0"\n')
    used = _used_names(tree)
    assert [n for n, _ in _imported_names(tree) if n not in used] == ["edges"]


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


def _name(node):
    """The name an ast.Name loads or an ast.Attribute reads, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_builtin_exception(name):
    value = vars(builtins).get(name)
    return isinstance(value, type) and issubclass(value, BaseException)


def _exception_classes(modules):
    """(module, class statement) for each module-level class of the
    {module: tree} map whose base is a builtin exception or, by its name
    or attribute, another such class."""
    classes = [(module, node) for module, tree in modules.items()
               for node in tree.body if isinstance(node, ast.ClassDef)]
    found = []
    while True:
        names = {node.name for _, node in found}
        new = [(module, node) for module, node in classes
               if (module, node) not in found
               and any(_is_builtin_exception(base) or base in names
                       for base in map(_name, node.bases))]
        if not new:
            return found
        found += new


def _unused_exception_classes(modules):
    """"module: name (line n)" for each exception class that no module
    names, as a name or an attribute, outside its own class statement."""
    named = set()
    for tree in modules.values():
        for statement in tree.body:
            own = statement.name if isinstance(statement, ast.ClassDef) else None
            named |= set(map(_name, ast.walk(statement))) - {own}
    return [f"{module}: {node.name} (line {node.lineno})"
            for module, node in _exception_classes(modules)
            if node.name not in named]


def test_every_exception_class_is_used():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
               for p in PACKAGE}
    assert len(_exception_classes(modules)) >= 10
    assert _unused_exception_classes(modules) == []


def test_an_unused_exception_class_is_reported():
    modules = {
        "a.py": ast.parse("class Used(ValueError): pass\n"
                          "class Dead(Used):\n    def again(self): raise Dead\n"
                          "class Plain: pass\n"),
        "b.py": ast.parse("import a\nclass Gone(a.Used): pass\n"
                          "def f():\n    raise a.Plain\n"),
    }
    assert [node.name for _, node in _exception_classes(modules)] == [
        "Used", "Dead", "Gone"]
    assert _unused_exception_classes(modules) == [
        "a.py: Dead (line 2)", "b.py: Gone (line 2)"]


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


# The one site that may build each checked type without its checks.
UNCHECKED_SITES = {("mutation.py", "_mutate_core", "FanoPolygon"),
                   ("mutation.py", "_factors", "Factor")}


def _unchecked_constructions(tree, module):
    """(module, function, class) for each tuple.__new__(cls, ...) call,
    which builds an instance of cls past the checks of its own __new__."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tuple" and node.args):
            cls = node.args[0]
            found.append((module, function,
                          cls.id if isinstance(cls, ast.Name) else ast.unparse(cls)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_checked_types_are_built_unchecked_at_one_site_each():
    """Only mutation._mutate_core builds a FanoPolygon past its check, on
    the mutation of a Fano polygon, and only mutation._factors a Factor,
    on a row of an edge table."""
    sites = [site for p in PACKAGE for site in _unchecked_constructions(
        ast.parse(p.read_text(encoding="utf-8"), filename=str(p)), p.name)]
    assert set(sites) == UNCHECKED_SITES
    assert len(sites) == len(UNCHECKED_SITES)


def test_a_stray_unchecked_construction_is_reported():
    source = ("def _mutate_core(vs):\n"
              "    return tuple.__new__(FanoPolygon, vs)\n"
              "def shortcut(vs):\n"
              "    return tuple.__new__(FanoPolygon, vs)\n"
              "class Factor(tuple):\n"
              "    def __new__(cls, w):\n"
              "        return super().__new__(cls, w)\n"
              "x = tuple.__new__(lattice.FanoPolygon, ())\n")
    assert _unchecked_constructions(ast.parse(source), "mutation.py") == [
        ("mutation.py", "_mutate_core", "FanoPolygon"),
        ("mutation.py", "shortcut", "FanoPolygon"),
        ("mutation.py", None, "lattice.FanoPolygon")]


# The one function that spells the refusal of a weight triple.
REFUSAL = "are not well-formed"
REFUSAL_SITES = [("fwps.py", "_not_well_formed")]


def _refusal_sites(tree, module):
    """(module, function) for each string literal, docstrings aside, that
    holds REFUSAL, an f-string's literal parts included."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and REFUSAL in node.value and id(node) not in docstrings):
            found.append((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_refusal_of_weights_is_spelled_at_one_site():
    """Every weight function refuses a triple through fwps._not_well_formed,
    so the message cannot drift between them."""
    assert [site for p in PACKAGE for site in _refusal_sites(
        ast.parse(p.read_text(encoding="utf-8"), filename=str(p)), p.name)
    ] == REFUSAL_SITES


def test_a_second_refusal_site_is_reported():
    source = ('def _not_well_formed(w):\n'
              '    """Weights that are not well-formed."""\n'
              '    return ValueError(f"weights {w} are not well-formed")\n'
              'def descend(w):\n'
              '    raise ValueError("weights " + str(w) + " are not well-formed")\n'
              'MESSAGE = "{} are not well-formed"\n')
    assert _refusal_sites(ast.parse(source), "fwps.py") == [
        ("fwps.py", "_not_well_formed"), ("fwps.py", "descend"),
        ("fwps.py", None)]


CACHES = {"lru_cache", "cache"}


def _unbounded_caches(tree, module):
    """"module: line n" for each functools cache outside a function body
    whose maxsize is not a literal integer: @cache, a bare @lru_cache (its
    bound of 128 is written nowhere), lru_cache(maxsize=None) or a bound
    held in a name. A cache made inside a function, such as a per-call
    memo, lives as long as its caller and is not counted."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for alias in node.names if alias.name in CACHES}
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "functools"}

    def cache_name(node):
        if isinstance(node, ast.Name) and node.id in aliases:
            return node.id
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            return node.attr
        return None

    def literal_bound(call):
        bound = call.args[0] if call.args else next(
            (k.value for k in call.keywords if k.arg == "maxsize"), None)
        return (isinstance(bound, ast.Constant) and type(bound.value) is int
                and bound.value >= 0)

    found = []

    def check(expr):
        callees = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Call) and cache_name(node.func):
                callees.add(id(node.func))
                if cache_name(node.func) == "cache" or not literal_bound(node):
                    found.append(f"{module}: line {node.lineno}")
        for node in ast.walk(expr):
            if cache_name(node) and id(node) not in callees:
                found.append(f"{module}: line {node.lineno}")

    def visit(statements):
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    check(decorator)
                if isinstance(node, ast.ClassDef):
                    visit(node.body)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                check(node)

    visit(tree.body)
    return found


def test_module_level_caches_have_a_literal_bound():
    """A module-level memo lives as long as the process, so its size is
    bounded by a constant written at its site."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert any("@lru_cache(maxsize=" in text for text in sources.values())
    assert [line for name, text in sources.items()
            for line in _unbounded_caches(ast.parse(text), name)] == []


def test_an_unbounded_cache_is_reported():
    source = "from functools import lru_cache\nroots = lru_cache(maxsize=None)(abs)\n"
    assert _unbounded_caches(ast.parse(source), "a.py") == ["a.py: line 2"]
    source = ("import functools\n"
              "from functools import cache, lru_cache as memo\n"
              "BOUND = 64\n"
              "@memo(maxsize=256)\ndef a(x): return x\n"
              "@memo(128)\ndef b(x): return x\n"
              "@memo\ndef c(x): return x\n"
              "@cache\ndef d(x): return x\n"
              "@functools.lru_cache(maxsize=BOUND)\ndef e(x): return x\n"
              "class K:\n"
              "    @functools.lru_cache(maxsize=None)\n    def f(self): pass\n"
              "def g():\n    return memo(maxsize=None)(abs)\n")
    assert _unbounded_caches(ast.parse(source), "a.py") == [
        "a.py: line 8", "a.py: line 10", "a.py: line 12", "a.py: line 15"]
