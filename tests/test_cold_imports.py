"""Each command, run in a fresh interpreter, loads only the modules it runs.

The golden suite runs in process, after every module is loaded, so it cannot
catch a handler that works only because another command imported its module
first.  Here each command line runs in a new ``python -c`` through
`plurican.cli.main`: its stdout must match the golden capture where one
exists, and the ``plurican`` modules in ``sys.modules`` at exit must be
exactly the listed ones: `cli` and `errors`, the command's own module of
`plurican.commands` and the modules it runs, and no other command's module.
No command may load ``dataclasses`` (about 13 ms of a cold start) or
``fractions`` and the ``decimal`` it loads (line arrangements read JSON
coefficients as integer pairs; `Fraction` is for library callers only).
``array`` is watched too: only ``components --aut`` loads it, with the
automorphism actions of ``plurican._actions`` and the lanes of
``plurican._lanes``, which ``import plurican.torsion`` does not load.
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


def command(name: str) -> set[str]:
    """The modules that dispatching to the command module ``name`` loads."""
    return {"plurican.commands", f"plurican.commands.{name}"}


TORSION = {"plurican.torsion"}
ACTIONS = TORSION | {"plurican._actions", "plurican._lanes", "array"}
INVARIANTS = {"plurican.invariants", "plurican.torsion"}
ARRANGEMENTS = {"plurican.arrangements", "plurican.f2geom"}
CENSUS = {"plurican.evenclass", "plurican.f2geom", "plurican.glgroup"}

# golden case -> the modules it loads besides CLI
GOLDEN_LOADS = {
    "catalog": command("catalog") | INVARIANTS,
    "invariants-pa37-k2-333": command("invariants") | INVARIANTS,
    "components-aut": command("components") | ACTIONS,
    "components-d0": command("components") | TORSION,
    "incidences-dual-hesse": command("incidences") | ARRANGEMENTS,
    "check-arrangement-campedelli-generic": command("check_arrangement") | ARRANGEMENTS,
    "check-arrangement-extension-type1":
        command("check_arrangement") | ARRANGEMENTS | {"plurican.evenclass"},
    "verify-lemma-ev": command("verify_lemma_ev") | CENSUS,
    "reproduce-lemma-ev": command("reproduce") | CENSUS,
    "reproduce-camp1-moduli": command("reproduce") | CENSUS | INVARIANTS,
    "reproduce-cplus": command("reproduce") | INVARIANTS,
    "reproduce-campedelli-cover": command("reproduce") | INVARIANTS,
    "reproduce-burniat-cover": command("reproduce") | INVARIANTS,
    "reproduce-mlp-cover": command("reproduce") | INVARIANTS,
}

# command lines without a capture: (argv, exit code, modules besides CLI)
OTHER_LOADS = [
    (["components", "--group", "2,2,2", "--d", "2"], 0, command("components") | TORSION),
    (["components", "--group", "5,5,5,5,5,5,5", "--d", "2", "--m", "3"], 0,
     command("components") | TORSION),
    (["invariants", "--surface", "campedelli", "--d", "2", "--m", "1"], 0,
     command("invariants") | INVARIANTS),
    (["frobnicate"], 2, set()),
    (["components", "--group", "2,x", "--d", "2"], 2, command("components") | TORSION),
    (["incidences", str(GOLDEN / "missing.json")], 2, command("incidences") | ARRANGEMENTS),
]

ACTION_CODE = {"plurican._actions", "plurican._lanes", "array"}


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


def test_import_torsion_loads_no_action_code():
    proc = fresh("-c", "import sys, plurican.torsion; "
                       "print(sorted(m for m in sys.modules "
                       "if m.split('.')[0] in ('plurican', 'array')))")
    assert proc.stdout.decode().strip() == "['plurican', 'plurican.errors', 'plurican.torsion']"


def test_aut_action_is_one_class_under_every_name():
    proc = fresh("-c", "import plurican, plurican.torsion as torsion\n"
                       "from plurican.torsion import AutAction\n"
                       "from plurican._actions import AutAction as defined\n"
                       "print(AutAction is defined is torsion.AutAction is plurican.AutAction)")
    assert proc.stdout.decode().strip() == "True"


def check_loads(argv: list[str], loaded: list[str], expected: set[str]) -> None:
    assert loaded == sorted(expected)
    if "--aut" not in argv:
        assert not ACTION_CODE & set(loaded)


@pytest.mark.parametrize("case", sorted(GOLDEN_LOADS))
def test_cold_golden_command(case):
    argv, code = CASES[case]
    proc = fresh("-c", CHILD, *argv)
    assert proc.returncode == code
    assert proc.stdout == (GOLDEN / f"{case}.json").read_bytes()
    check_loads(argv, proc.stderr.decode().split(), CLI | GOLDEN_LOADS[case])


@pytest.mark.parametrize("argv,code,loads", OTHER_LOADS)
def test_cold_command(argv, code, loads):
    proc = fresh("-c", CHILD, *argv)
    assert proc.returncode == code
    assert proc.stdout.decode().startswith('{\n  "')
    check_loads(argv, proc.stderr.decode().split(), CLI | loads)
