import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import fwpp
from fwpp import pell357

# The names `from fwpp import *` gives: the five library modules. Each
# public name lives in one of them, so the root restates none.
PUBLIC_NAMES = ["diophantine", "fwps", "lattice", "mutation", "pell357"]


def test_public_names_are_pinned():
    assert fwpp.__all__ == PUBLIC_NAMES


# The public names each module defines itself.
MODULE_NAMES = {
    "fwpp.lattice": [
        "FanoPolygon", "LatticeError", "MalformedPolygon", "NonPrimitiveVertex",
        "OriginNotInterior", "bezout", "canonical_cycle", "convex_hull",
        "decimal_to_int", "degree", "det", "dual_polygon", "edges",
        "format_ints", "int_to_decimal", "is_primitive", "make_fano_triangle",
        "pairing", "polygon_from_obj", "polygon_to_obj", "polygon_vertices",
        "triangle_from_json", "triangle_to_json",
    ],
    "fwpp.mutation": [
        "Factor", "InvalidFactor", "InvalidMutationData", "admissible_widths",
        "canonical_form", "enumerate_one_step", "find_factors", "mutate_with",
        "unimodular_equivalent",
    ],
    "fwpp.fwps": [
        "DegenerateCone", "FwpsInvariants", "NotDivisible", "QuotientSingularity",
        "cone_singularity", "is_T_singularity", "is_well_formed",
        "mutate_weights", "one_step_targets", "quotient_singularity",
        "vertex_weights", "weights_of", "wps_triangle",
    ],
    "fwpp.diophantine": [
        "DiophantineEquation", "GeneralDerivation", "MutationTree", "NonIntegral",
        "SquareFreeDecomposition", "TreeNode", "build_mutation_tree",
        "derive_equation", "descend_to_minimal", "height", "minimal_solutions",
        "mutate_solution", "slice_roots", "square_free_decompose", "tree_to_dot",
        "tree_to_json", "verify_solution",
    ],
    "fwpp.pell357": [
        "Component", "NotASolution", "component_of", "family_a1_fixed",
        "family_a2_fixed", "is_solution", "scan_components", "solution_weights",
    ],
}


def defined_names(module):
    """The sorted public names that the module defines: no leading
    underscore, and a __module__ naming the module, so that imported names
    and instances of other modules' types (pell357.EQUATION) are left
    out."""
    return sorted(name for name, value in vars(module).items()
                  if not name.startswith("_")
                  and getattr(value, "__module__", None) == module.__name__)


MODULES = [importlib.import_module(name) for name in MODULE_NAMES]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_are_pinned(module):
    assert defined_names(module) == MODULE_NAMES[module.__name__]


def test_every_library_module_is_pinned():
    # cli and __main__ are the command, not the library
    found = {f"fwpp.{m.name}" for m in pkgutil.iter_modules(fwpp.__path__)}
    assert found - {"fwpp.cli", "fwpp.__main__"} == set(MODULE_NAMES)


def test_an_added_name_is_reported(monkeypatch):
    def added():
        pass

    added.__module__ = pell357.__name__
    monkeypatch.setattr(pell357, "added", added, raising=False)
    assert defined_names(pell357) == sorted(MODULE_NAMES["fwpp.pell357"] + ["added"])


def test_a_removed_name_is_reported(monkeypatch):
    monkeypatch.delattr(pell357, "is_solution")
    assert "is_solution" not in defined_names(pell357)
    assert defined_names(pell357) != MODULE_NAMES["fwpp.pell357"]


def test_a_bare_import_reaches_every_name():
    """In a fresh interpreter, `import fwpp` alone reaches each pinned name
    as fwpp.<module>.<name>."""
    script = """if True:
        import json, sys
        import fwpp
        names = json.loads(sys.argv[1])
        missing = [f"{m}.{n}" for m, ns in names.items() for n in ns
                   if not hasattr(getattr(fwpp, m.split(".")[1], None), n)]
        print(json.dumps(missing))
    """
    src = os.path.dirname(os.path.dirname(fwpp.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(MODULE_NAMES)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
