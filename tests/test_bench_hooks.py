"""The benchmark's tracer still finds every name it hooks in the package.

`perfbench/tracing.py` wraps plurican's public functions and a few methods
by name, and derives its counters from their arguments.  A package change
that drops or reshapes one of them passes the rest of the suite and breaks
only the benchmark run.  Here a fresh interpreter installs the tracer, runs
one command per benchmark workload through `plurican.cli.main` and
uninstalls it: the command must exit as its golden capture says, print the
same bytes, and leave spans behind.  Nothing under `perfbench/` is edited.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plurican
from test_golden import CASES, GOLDEN

SRC = Path(plurican.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"

CHILD = """
import contextlib, io, json, sys
import tracing
import plurican.cli

tracer = tracing.Tracer()
tracer.install()
out = io.StringIO()
try:
    with contextlib.redirect_stdout(out):
        code = plurican.cli.main(sys.argv[1:])  # install rebinds main
finally:
    tracer.uninstall()
print(json.dumps({"code": code, "stdout": out.getvalue(), "spans": len(tracer.span_name),
                  "names": tracer.names, "layers": sorted(tracer.per_op())}))
"""


@pytest.mark.parametrize("case", ["verify-lemma-ev", "incidences-dual-hesse", "components-aut"])
def test_traced_command_runs(case):
    argv, code = CASES[case]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), str(PERFBENCH), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          env=env, check=True)
    result = json.loads(proc.stdout)
    assert result["code"] == code
    assert result["stdout"].encode() == (GOLDEN / f"{case}.json").read_bytes()
    assert result["spans"] > 0
    assert "cli.main" in result["names"]
    assert "cli.main.busy_s" in result["layers"]
