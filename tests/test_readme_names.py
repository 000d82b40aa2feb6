"""Every name README.md puts in backticks exists: a name of fwpp (a module
attribute, a field or method of a record class, a parameter of a function,
a CLI subcommand), a builtin, a name of the standard library, a file of the
repository, or one of a short list of outside names. A rename or removal in
the library that the README still quotes fails here.

Spans that are not names (commands, options, literals, expressions) are
skipped; a call such as `edges(P)` is checked by the name before its
parenthesis, and `fwpp <word>` by its subcommand."""

import argparse
import builtins
import importlib
import inspect
import re
import sys
from pathlib import Path

import fwpp
from fwpp import cli

ROOT = Path(__file__).parent.parent
MODULES = [fwpp] + [importlib.import_module(f"fwpp.{m}") for m in
                    ("lattice", "mutation", "fwps", "diophantine", "pell357",
                     "cli")]
# Outside names the README quotes: sympy's factorint and json.loads's
# parse_int keyword.
ALLOWED = {"factorint", "parse_int"}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_SPAN = re.compile(r"`([^`]+)`")


def _subcommands():
    parser = cli.build_parser()
    return {name for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
            for name in action.choices}


def _fwpp_names():
    """Module attributes, record fields and methods, and parameters."""
    names = set()
    for mod in MODULES:
        for value in vars(mod).values():
            if inspect.isclass(value) and hasattr(value, "_fields"):
                names.update(dir(value))
            elif inspect.isfunction(value) and value.__module__.startswith("fwpp"):
                names.update(inspect.signature(value).parameters)
        names.update(vars(mod))
    return names


def _resolve(name):
    """True iff a dotted name is an attribute chain from a name of a fwpp
    module, from fwpp itself or from a module of the standard library."""
    head, *rest = name.split(".")
    starts = [vars(mod)[head] for mod in MODULES if head in vars(mod)]
    if head == "fwpp" or head in sys.stdlib_module_names:
        starts.append(importlib.import_module(head))
    for obj in starts:
        for attr in rest:
            obj = getattr(obj, attr, None)
        if obj is not None:
            return True
    return False


def _is_file(span):
    """A path from the root of the repository, or a bare file name found
    anywhere in it; path::name also needs a def of the name in the file."""
    path, _, test = span.partition("::")
    target = ROOT / path
    if "/" not in path:
        target = next(ROOT.rglob(path), target)
    if not target.exists():
        return False
    return not test or f"def {test}(" in target.read_text(encoding="utf-8")


def unresolved_names(text):
    """The backticked names of the text that name nothing, in order."""
    local = _fwpp_names() | set(dir(builtins)) | ALLOWED
    commands = _subcommands()
    missing = []
    for span in _SPAN.findall(_FENCE.sub("", text)):
        span = " ".join(span.split())
        if "/" in span or re.fullmatch(r"[\w.]+\.(py|toml|md)", span):
            ok = _is_file(span)
        elif span.startswith("fwpp ") and " " not in span[5:]:
            ok = span[5:] in commands
        elif (m := _DOTTED.match(span)) and (
                m.end() == len(span) or span[m.end()] == "("):
            name = m.group()
            ok = name in local or name in commands or _resolve(name)
        else:
            continue
        if not ok:
            missing.append(span)
    return missing


def test_readme_names_exist():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unresolved_names(text) == []


def test_a_missing_name_is_reported():
    text = ("`canon_weights` and `fwps` `_positive_weights`, `edges(P)`,"
            " `lattice.no_such`, `fwpp nope`, `tests/none.py`, `+3`,"
            " `json.dumps(...)`, `fwpp tree`, `tests/test_cli.py::nope`,"
            " `fwpp`, `__init__.py`, `typing`, `fwpp\n  nope`\n"
            "```sh\nfwpp nope\n```\n")
    assert unresolved_names(text) == [
        "canon_weights", "_positive_weights", "lattice.no_such", "fwpp nope",
        "tests/none.py", "tests/test_cli.py::nope", "fwpp nope"]
