"""Each stage of a command runs once: fixed command lines run in process with
the stage functions wrapped by a call counter.

A stage run twice doubles the work and leaves the output as it was, so the
golden captures cannot see it; `components --aut --m` once ran the orbit
count twice.  The stdout is still compared with the capture.
"""

import pytest

from plurican import glgroup, torsion
from test_golden import CASES, GOLDEN, run


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` for the test; the list gets one entry per call."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def run_case(case: str) -> None:
    argv, expected_code = CASES[case]
    code, out = run(argv)
    assert code == expected_code
    assert out == (GOLDEN / f"{case}.json").read_text(encoding="utf-8")


def test_components_with_an_automorphism_counts_orbits_once(monkeypatch):
    # --group 3,3 --d 2 --m 3 --aut: the component count is the orbit count
    assert "--m" in CASES["components-aut"][0]
    calls = count_calls(monkeypatch, torsion, "orbit_count")
    run_case("components-aut")
    assert len(calls) == 1


@pytest.mark.parametrize("case", ["verify-lemma-ev", "reproduce-lemma-ev"])
def test_census_runs_one_orbit_pass_and_one_burnside_recount(monkeypatch, case):
    census = count_calls(monkeypatch, glgroup, "_orbit_census")
    burnside = count_calls(monkeypatch, glgroup, "_burnside_orbit_count")
    run_case(case)
    assert (len(census), len(burnside)) == (1, 1)
