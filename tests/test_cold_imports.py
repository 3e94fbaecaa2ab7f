"""Each command, run in a fresh interpreter, loads only the modules it runs.

The golden suite runs in process, after every module is loaded, so it cannot
catch a handler that works only because another command imported its module
first.  Here each command line runs in a new ``python -c`` through
`plurican.cli.main`: its stdout must match the golden capture where one
exists, and the ``plurican`` modules in ``sys.modules`` at exit must be
exactly the listed ones, and no command may load ``dataclasses`` (about 13 ms
of a cold start) or ``fractions`` and the ``decimal`` it loads (line
arrangements read JSON coefficients as integer pairs; `Fraction` is for
library callers only).  ``array`` is watched too: only a command that builds
an automorphism action loads it, with the lane helpers of ``plurican._lanes``.
Structural only: nothing is timed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import plurican
from plurican.cli import RECIPES
from test_golden import CASES, GOLDEN

SRC = str(Path(plurican.__file__).resolve().parents[1])

# runs argv through main; stderr gets the loaded modules of interest, sorted
CHILD = """
import sys
from plurican.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(" ".join(sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("plurican", "dataclasses", "array", "fractions", "decimal"))))
sys.exit(code)
"""

CLI = {"plurican", "plurican.cli", "plurican.errors"}
TORSION = {"plurican.torsion"}
ACTIONS = TORSION | {"plurican._lanes", "array"}
INVARIANTS = {"plurican.invariants", "plurican.torsion"}
ARRANGEMENTS = {"plurican.arrangements", "plurican.f2geom"}
CENSUS = {"plurican._pool", "plurican.evenclass", "plurican.f2geom", "plurican.glgroup"}

# golden case -> the modules it loads besides CLI
GOLDEN_LOADS = {
    "catalog": INVARIANTS,
    "invariants-pa37-k2-333": INVARIANTS,
    "components-aut": ACTIONS,
    "components-d0": TORSION,
    "incidences-dual-hesse": ARRANGEMENTS,
    "check-arrangement-campedelli-generic": ARRANGEMENTS,
    "check-arrangement-extension-type1": ARRANGEMENTS | {"plurican.evenclass"},
    "verify-lemma-ev": CENSUS,
    "reproduce-lemma-ev": CENSUS,
    "reproduce-camp1-moduli": CENSUS | INVARIANTS,
    "reproduce-cplus": INVARIANTS,
    "reproduce-campedelli-cover": INVARIANTS,
    "reproduce-burniat-cover": INVARIANTS,
    "reproduce-mlp-cover": INVARIANTS,
}

# command lines without a capture: (argv, exit code, modules besides CLI)
OTHER_LOADS = [
    (["components", "--group", "2,2,2", "--d", "2"], 0, TORSION),
    (["invariants", "--surface", "campedelli", "--d", "2", "--m", "1"], 0, INVARIANTS),
    (["frobnicate"], 2, set()),
    (["components", "--group", "2,x", "--d", "2"], 2, TORSION),
    (["incidences", str(GOLDEN / "missing.json")], 2, ARRANGEMENTS),
]


def fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


def test_every_command_and_recipe_is_covered():
    commands = {argv[0] for argv, _ in map(CASES.get, GOLDEN_LOADS)}
    commands |= {argv[0] for argv, _, _ in OTHER_LOADS}
    assert commands >= {"verify-lemma-ev", "invariants", "components", "check-arrangement",
                        "incidences", "catalog", "reproduce"}
    assert {f"reproduce-{r}" for r in RECIPES} <= set(GOLDEN_LOADS)


def test_import_plurican_loads_no_submodule():
    proc = fresh("-c", "import sys, plurican; "
                       "print(sorted(m for m in sys.modules if m.startswith('plurican')))")
    assert proc.stdout.decode().strip() == "['plurican']"


@pytest.mark.parametrize("case", sorted(GOLDEN_LOADS))
def test_cold_golden_command(case):
    argv, code = CASES[case]
    proc = fresh("-c", CHILD, *argv)
    assert proc.returncode == code
    assert proc.stdout == (GOLDEN / f"{case}.json").read_bytes()
    assert proc.stderr.decode().split() == sorted(CLI | GOLDEN_LOADS[case])


@pytest.mark.parametrize("argv,code,loads", OTHER_LOADS)
def test_cold_command(argv, code, loads):
    proc = fresh("-c", CHILD, *argv)
    assert proc.returncode == code
    assert proc.stdout.decode().startswith('{\n  "')
    assert proc.stderr.decode().split() == sorted(CLI | loads)
