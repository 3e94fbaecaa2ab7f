"""The package namespace: every re-exported name and public module resolves
from a fresh interpreter, where ``import plurican`` has loaded nothing yet.

The names are listed here, not read from the package, so that a name dropped
from its table fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plurican

SRC = str(Path(plurican.__file__).resolve().parents[1])

EXPORTS = {
    "errors": ["DomainError", "HypothesisError", "MalformedInputError", "ValidationError"],
    "f2geom": ["F2Point", "Hyperplane", "PointSet", "is_totally_even"],
    "glgroup": ["F2Matrix", "OrbitCensus", "act", "canonical_form", "orbit_census"],
    "evenclass": ["EvenSetTag", "EvenSetType", "classify_type", "enumerate_totally_even",
                  "verify_lemma_ev"],
    "invariants": ["CATALOG", "CatalogEntry", "CoveringParams", "SurfaceInvariants",
                   "branch_curve_genus", "catalog_entry", "composed_canonical_degree",
                   "covering_invariants", "generic_pluricanonical_smooth", "moduli_dimension",
                   "moduli_dimension_lower_bound"],
    "torsion": ["AutAction", "FiniteAbelianGroup", "cnew_component_count", "covering_count",
                "cplus_total", "orbit_count", "theorem_mod_component_bound", "tor_d_order"],
    "arrangements": ["LabeledArrangement", "ProjLine", "analyze_extension", "check_campedelli",
                     "compute_incidences"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def fresh(code: str):
    """The JSON that `code` prints, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          check=True)
    return json.loads(proc.stdout)


def test_each_name_resolves_to_its_module():
    # each name is the object of the module that defines it
    resolved = fresh(
        "import importlib, json, plurican\n"
        f"exports = {EXPORTS!r}\n"
        "print(json.dumps({name: getattr(plurican, name) is getattr(\n"
        "    importlib.import_module('plurican.' + module), name)\n"
        "    for module, names in exports.items() for name in names}))"
    )
    assert resolved == dict.fromkeys(NAMES, True)


def test_version_needs_no_module():
    assert fresh("import json, sys, plurican\n"
                 "print(json.dumps([plurican.__version__, sorted(\n"
                 "    m for m in sys.modules if m.startswith('plurican'))]))"
                 ) == ["0.1.0", ["plurican"]]


def test_modules_resolve_without_import():
    names = fresh(
        "import json, plurican\n"
        f"print(json.dumps([getattr(plurican, m).__name__ for m in {list(EXPORTS)!r}]))"
    )
    assert names == [f"plurican.{m}" for m in EXPORTS]


def test_star_import_binds_names_and_modules():
    bound = fresh(
        "import json\n"
        "from plurican import *\n"
        "print(json.dumps(sorted(k for k in dir() if not k.startswith('__') and k != 'json')))"
    )
    assert bound == sorted(NAMES + list(EXPORTS))
    assert len(bound) == 42 + 7


def test_dir_lists_every_export():
    assert set(NAMES) | set(EXPORTS) <= set(dir(plurican))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        plurican.frobnicate
    with pytest.raises(ImportError):
        from plurican import frobnicate  # noqa: F401


def test_arrangements_all_resolves():
    resolved = fresh(
        "import json, plurican.arrangements as arr\n"
        "print(json.dumps({name: callable(getattr(arr, name)) for name in arr.__all__}))"
    )
    assert all(resolved.values())
    with pytest.raises(AttributeError):
        plurican.arrangements.frobnicate
