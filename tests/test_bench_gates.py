"""The benchmark's correctness gates, run with the package's tests.

A benchmark run counts an op only when its output passes the op's gate in
`perfbench/workloads.py`, and the seeded generators of `perfbench/inputs.py`
state their expected outputs by construction; `perfbench/selfcheck.py`
checks those statements against brute force.  A broken generator or gate
would otherwise show only in a benchmark run.  Here the self-checks run on a
few seeds, and each gate is applied to the golden capture of the command
line that a benchmark op shares with it.  Nothing under `perfbench/` is
edited.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from test_golden import CASES, GOLDEN

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
