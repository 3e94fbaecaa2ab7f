"""CLI stdout compared byte for byte with a committed capture.

Each case is one command line; ``tests/golden/<case>.json`` holds its exact
stdout and ``CASES`` its exit code.  The capture pins the output across
refactors, not just across runs of one build.  To rewrite the capture from
the code on the path (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from plurican.cli import RECIPES, main

GOLDEN = Path(__file__).parent / "golden"
# bundled fixture -> exit code of check-arrangement on it
FIXTURES = {
    "campedelli-fourfold": 1,
    "campedelli-generic": 0,
    "campedelli-zero-sum-triple": 1,
    "dual-hesse": 2,  # 9 lines: no default mode
    "extension-type1": 0,
}


# aut-table-<name>.json -> group and exit code of components on it
TABLE_ERRORS = [
    ("not-total", "5", 1),
    ("not-bijection", "5", 1),
    ("moves-zero", "5", 1),
    ("not-additive", "5", 1),  # witness "at"
    ("basis-order", "2,4", 1),  # witness "basis" and "image"
    ("bool", "5", 2),
    ("float", "5", 2),
    ("wrong-rank", "5", 1),
    ("non-array", "5", 2),
    # bad image in pair 1 (wrong rank), bad key in pair 2 (a bool): pair 1 wins
    ("precedence", "5", 1),
    # one pair with a bad key (a float) and a bad image (wrong rank): the key wins
    ("precedence-in-pair", "5", 2),
]


def _fixture(name: str) -> str:
    return str(resources.files("plurican").joinpath("data", f"{name}.json"))


CASES = {
    "verify-lemma-ev": (["verify-lemma-ev"], 0),
    **{f"reproduce-{r}": (["reproduce", r], 0) for r in RECIPES},
    "catalog": (["catalog"], 0),
    "incidences-dual-hesse": (["incidences", _fixture("dual-hesse")], 0),
    "incidences-campedelli-generic": (["incidences", _fixture("campedelli-generic")], 0),
    "incidences-extension-type1": (["incidences", _fixture("extension-type1")], 0),
    # rational: a 4-fold point, 3-fold points (one at infinity), negative and
    # fractional coordinates
    "incidences-q-folds": (["incidences", str(GOLDEN / "lines-q-folds.json")], 0),
    # Q(omega) with rational lines, one of them entered as omega times a
    # rational line; each 4-fold point is met by rational and by omega pairs
    "incidences-qw-rational": (["incidences", str(GOLDEN / "lines-qw-rational.json")], 0),
    **{
        f"check-arrangement-{f}": (["check-arrangement", _fixture(f)], code)
        for f, code in FIXTURES.items()
    },
    "invariants-pa37-k2-333": (
        ["invariants", "--pa", "37", "--k2", "333", "--d", "2", "--m", "3"], 0),
    "components-aut": (
        ["components", "--group", "3,3", "--d", "2", "--m", "3",
         "--aut", str(GOLDEN / "aut-z3-squared.json")], 0),
    # mixed cyclic orders: only the table form applies
    "components-aut-z2-z4": (
        ["components", "--group", "2,4", "--d", "2", "--m", "3",
         "--aut", str(GOLDEN / "aut-z2-z4.json")], 0),
    # permutation-table errors: message and witness pinned, one case each
    **{
        f"components-table-{name}": (
            ["components", "--group", group, "--d", "2",
             "--aut", str(GOLDEN / f"aut-table-{name}.json")], code)
        for name, group, code in TABLE_ERRORS
    },
    # parameter errors: one JSON error object each, message pinned
    "components-d0": (["components", "--group", "2,2", "--d", "0"], 1),
    "components-d1": (["components", "--group", "2,2", "--d", "1"], 1),
    "components-group1": (["components", "--group", "1", "--d", "2"], 1),
    "invariants-d1": (
        ["invariants", "--pa", "37", "--k2", "333", "--d", "1", "--m", "3"], 1),
    "invariants-m0": (
        ["invariants", "--pa", "37", "--k2", "333", "--d", "2", "--m", "0"], 1),
    "invariants-pa1-k2-0": (
        ["invariants", "--pa", "1", "--k2", "0", "--d", "2", "--m", "1"], 1),
    "reproduce-cplus-d1": (["reproduce", "cplus", "--d", "1"], 1),
    "reproduce-cplus-m0": (["reproduce", "cplus", "--m", "0"], 1),
}


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_capture(case):
    argv, expected_code = CASES[case]
    code, out = run(argv)
    assert code == expected_code
    assert out == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("workers,hash_seed", [("1", "0"), ("2", "1"), ("4", "2")])
def test_census_matches_capture_across_workers_and_hash_seeds(workers, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "-m", "plurican", "verify-lemma-ev", "--workers", workers],
        capture_output=True, env=env, check=True,
    )
    assert proc.stdout == (GOLDEN / "verify-lemma-ev.json").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    for case, (argv, expected_code) in sorted(CASES.items()):
        code, out = run(argv)
        if code != expected_code:
            sys.exit(f"{case}: exit code {code}, expected {expected_code}")
        (GOLDEN / f"{case}.json").write_text(out, encoding="utf-8")
        print(f"wrote {case}.json")
