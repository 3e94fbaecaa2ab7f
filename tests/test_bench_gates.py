"""The benchmark's correctness gates, run with the package's tests.

A benchmark run counts an op only when its output passes the op's gate in
`perfbench/workloads.py`, and the seeded generators of `perfbench/inputs.py`
state their expected outputs by construction; `perfbench/selfcheck.py`
checks those statements against brute force.  A broken generator or gate
would otherwise show only in a benchmark run.  Here the self-checks run on a
few seeds, each gate is applied to the golden capture of the command line
that a benchmark op shares with it, and the ops of the `incidence` and
`torsion` workloads, whose inputs are generated per seed, run in process
through their gates.
Nothing under `perfbench/` is edited.
"""

import json
import random
import sys
from importlib import resources
from pathlib import Path

import pytest

from plurican import cli
from test_golden import CASES, GOLDEN, run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import selfcheck  # noqa: E402
import workloads  # noqa: E402

# golden case -> the gate of the benchmark op with the same command line
GATES = {
    "verify-lemma-ev": workloads.check_census,
    "reproduce-lemma-ev": workloads.check_lemma_ev,
    "reproduce-camp1-moduli": workloads.check_camp1,
    "check-arrangement-extension-type1": workloads.check_extension,
    "reproduce-cplus": workloads.check_cplus,
    "catalog": workloads.check_catalog,
    "reproduce-burniat-cover": workloads.check_burniat,
    "reproduce-campedelli-cover": workloads.degree_check(16),
    "reproduce-mlp-cover": workloads.degree_check(4),
    "invariants-pa37-k2-333": workloads.y_check(333, 37, 2, 3),
}


@pytest.mark.parametrize("case", sorted(GATES))
def test_gate_accepts_the_golden_capture(case):
    assert CASES[case][1] == 0  # every op of these succeeds
    GATES[case](json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8")))


@pytest.mark.parametrize("seed", range(3))
def test_generators_agree_with_brute_force(seed):
    # a mismatch prints MISMATCH and exits 1, which fails the test
    rng = random.Random(seed)
    selfcheck.check_incidence(rng)
    selfcheck.check_campedelli(rng)
    selfcheck.check_torsion(rng)


def test_incidence_ops_pass_their_gates(tmp_path):
    # the op list of `perfbench/run.py --workload incidence --seed 0`
    ops = workloads.build("incidence", 0, tmp_path, resources.files("plurican") / "data")
    assert {"tangents-q", "pencils-qw"} <= {op.name for op in ops}
    for op in ops:
        code, out = run(op.argv)
        assert code == op.rc, op.name
        op.check(json.loads(out))


def test_torsion_ops_pass_their_gates(tmp_path, monkeypatch):
    # the op list of `perfbench/run.py --workload torsion --seed 0`; the
    # benchmark's permutation table must be read by the slice walk, so the
    # general parser is made to fail for it (a table that fell back to the
    # parser would pass every gate at twice the cost)
    def refuse(path, text=None):
        raise AssertionError(f"{path} went to the general parser")

    ops = workloads.build("torsion", 0, tmp_path, resources.files("plurican") / "data")
    assert "components-table" in {op.name for op in ops}
    for op in ops:
        with monkeypatch.context() as mp:
            if op.name == "components-table":
                mp.setattr(cli, "_load_json", refuse)
            code, out = run(op.argv)
        assert code == op.rc, op.name
        op.check(json.loads(out))
