"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints a single [PASS] line (visible with pytest -s or on demand);
a failing assertion marks the criterion red.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources

from _oracles import (
    _qw_add,
    _qw_mul,
    brute_tor_d_order,
    enumerate_gl,
    null_space_count_by_weight,
)
from plurican.arrangements import (
    LabeledArrangement,
    ProjLine,
    check_campedelli,
    compute_incidences,
    load_arrangement,
)
from plurican.errors import HypothesisError
from plurican.evenclass import EvenSetTag, classify_type, verify_lemma_ev
from plurican.glgroup import act
from plurican.invariants import (
    CoveringParams,
    SurfaceInvariants,
    catalog_entry,
    composed_canonical_degree,
    covering_invariants,
    moduli_dimension,
    moduli_dimension_lower_bound,
)
from plurican.torsion import (
    FiniteAbelianGroup,
    cnew_component_count,
    covering_count,
    cplus_total,
    theorem_mod_component_bound,
    tor_d_order,
)


def _ok(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_lemma_ev_census():
    start = time.perf_counter()
    report = verify_lemma_ev()
    elapsed = time.perf_counter() - start

    assert report.orbit_count == 2
    assert report.burnside_orbit_count == 2
    by_type = dict(zip(report.orbit_types, report.census.orbits))
    assert by_type[EvenSetTag.TYPE_I].size == 15
    assert report.profile_separates_orbits

    oracle_count = null_space_count_by_weight(4).get(8, 0)
    assert report.total_count == oracle_count == 435

    # classification constant on orbits, rechecked from the representatives
    group = enumerate_gl(4)
    for orbit, tag in zip(report.census.orbits, report.orbit_types):
        tags = {classify_type(act(m, orbit.representative)).tag for m in group[::101]}
        assert tags == {tag}

    assert elapsed < 10.0, f"census took {elapsed:.1f}s, budget is 10s"
    _ok(1, f"2 orbits (15 + 420) of 435 totally even 8-sets, Burnside and "
           f"null-space oracle agree, {elapsed:.1f}s")


def test_criterion_2_campedelli_covering_invariants():
    X = SurfaceInvariants(p_g=0, q=0, K2=2)
    assert (X.p_a, X.q, X.K2) == (1, 0, 2)
    Y = covering_invariants(X, CoveringParams(2, 1))
    assert Y.K2 == 16
    assert Y.p_a == 4
    assert Y.p_g == 3
    _ok(2, "Campedelli base (pa=1, q=0, K2=2) with d=2, m=1 gives "
           "K2=16, pa=4, pg=3 exactly")


def test_criterion_3_canonical_map_degree_chain():
    chain = {
        "campedelli": 16,
        "burniat-6": 8,
        "mendes-lopes-pardini": 4,
    }
    for name, expected in chain.items():
        base = catalog_entry(name).bicanonical_map_degree
        assert composed_canonical_degree(base) == expected
    _ok(3, "composed canonical degrees 8->16, 4->8, 2->4 exact")


def test_criterion_4_covering_formula_consistency():
    rng = random.Random(20260809)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        p_a = rng.randint(1, 50)
        k2 = rng.randint(1, 400)
        d = rng.randint(2, 7)
        m = rng.randint(1, 6)
        if d * (d - 1) * m * ((2 * d - 1) * m + 3) * k2 % 12:
            continue  # precondition not satisfied (never happens for integers)
        X = SurfaceInvariants.from_pa(p_a, 0, k2)
        Y = covering_invariants(X, CoveringParams(d, m))
        assert Y.K2 + Y.e == 12 * Y.p_a
        assert Y.K2 == d * (d * m - m + 1) ** 2 * k2
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"consistency suite took {elapsed:.2f}s, budget is 1s"
    _ok(4, f"{checked} random covering tuples satisfy K2 + e = 12*pa exactly "
           f"in {elapsed:.2f}s")


def test_criterion_5_torsion_oracle_suite():
    rng = random.Random(4651)
    start = time.perf_counter()
    checked = 0
    while checked < 500:
        rank = rng.randint(0, 4)
        orders = []
        size = 1
        for _ in range(rank):
            n = rng.randint(2, 12)
            if size * n > 10_000:
                break
            orders.append(n)
            size *= n
        G = FiniteAbelianGroup(tuple(orders))
        d = rng.randint(1, 12)
        assert tor_d_order(G, d) == brute_tor_d_order(orders, d)
        checked += 1
    elapsed = time.perf_counter() - start
    assert covering_count(FiniteAbelianGroup((2, 2, 2)), 2) == 8
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s, budget is 30s"
    _ok(5, f"{checked} random (G, d) agree with element-by-element brute "
           f"force in {elapsed:.1f}s; (Z/2)^3 has 8 double coverings")


def test_criterion_6_component_counts():
    assert theorem_mod_component_bound(FiniteAbelianGroup((2, 2, 2)), 2) == 2
    assert cplus_total(2, 3) == 46875 == 3 * 5**6
    G = FiniteAbelianGroup((5,) * 6)
    for d in (6, 11, 16):
        try:
            cnew_component_count(G, [], d, 1)
        except HypothesisError:
            pass
        else:
            raise AssertionError(f"d={d} with gcd(d-1, 5^6) != 1 was not rejected")
    _ok(6, "component bound 2 for (Z/2)^3, 3*5^6 = 46875 components, and "
           "degrees with gcd(d-1, 5^6) != 1 rejected")


def test_criterion_7_moduli_dimensions():
    rng = random.Random(135)
    for _ in range(100):
        m = rng.randint(3, 10)
        X = SurfaceInvariants.from_pa(rng.randint(1, 40), 0, rng.randint(1, 400))
        assert moduli_dimension(m, X) == moduli_dimension_lower_bound(
            CoveringParams(2, m), X
        )
    fpp = catalog_entry("fake-projective-plane").invariants
    assert moduli_dimension(3, fpp) == 135
    _ok(7, "dimension formula and lower bound coincide for d=2 on 100 random "
           "inputs; fake projective plane m=3 gives 135")


def _random_invertible_matrix(rng) -> list[list[Fraction]]:
    while True:
        mat = [[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
        det = (
            mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
            - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
            + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
        )
        if det != 0:
            return mat


def test_criterion_8_dual_hesse_exactness():
    start = time.perf_counter()
    data = json.loads(
        resources.files("plurican").joinpath("data", "dual-hesse.json").read_text()
    )
    arr = load_arrangement(data)
    report = compute_incidences(arr)
    assert report.histogram == ((3, 12),)
    pair_sum = sum(len(lines) * (len(lines) - 1) // 2 for _, lines in report.points)
    assert pair_sum == 36 == 12 * 3

    rng = random.Random(9)
    for _ in range(20):
        mat = _random_invertible_matrix(rng)
        moved = []
        for line in arr.lines:
            coeffs = []
            for row in mat:
                total = (0, 0)
                for entry, c in zip(row, line.coeffs):
                    total = _qw_add(total, _qw_mul((entry, 0), c))
                coeffs.append(total)
            moved.append(ProjLine(coeffs))
        assert compute_incidences(LabeledArrangement(tuple(moved))).histogram == ((3, 12),)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"arrangement suite took {elapsed:.2f}s, budget is 1s"
    _ok(8, f"dual Hesse configuration: 12 triple points, pair identity 36, "
           f"histogram invariant under 20 random projective maps, {elapsed:.2f}s")


def test_criterion_9_campedelli_checker_fixtures():
    def arr(name):
        return load_arrangement(
            json.loads(resources.files("plurican").joinpath("data", name).read_text())
        )

    good = check_campedelli(arr("campedelli-generic.json"))
    assert good.passed and good.violations == ()

    fourfold = check_campedelli(arr("campedelli-fourfold.json"))
    assert not fourfold.passed
    assert [v["kind"] for v in fourfold.violations] == ["multiple-point"]
    assert fourfold.violations[0]["multiplicity"] == 4
    assert fourfold.violations[0]["lines"] == [0, 1, 2, 3]
    assert fourfold.violations[0]["point"] == [[[0, 1]], [[0, 1]], [[1, 1]]]

    zero_sum = check_campedelli(arr("campedelli-zero-sum-triple.json"))
    assert not zero_sum.passed
    assert [v["kind"] for v in zero_sum.violations] == ["zero-sum-triple"]
    assert zero_sum.violations[0]["lines"] == [0, 1, 2]
    assert zero_sum.violations[0]["labels"] == [[1, 0, 0], [0, 1, 0], [1, 1, 0]]
    _ok(9, "generic 7-line fixture passes; 4-fold point and zero-sum-triple "
           "fixtures fail with the right witnesses")


def _run_cli(args, hash_seed: str) -> bytes:
    import os

    env = os.environ.copy()
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "plurican", *args],
        capture_output=True, env=env,
    )
    assert proc.returncode in (0, 1), proc.stderr.decode()
    return proc.stdout


def test_criterion_10_cli_determinism():
    fixture_dir = resources.files("plurican").joinpath("data")
    commands = [
        ["catalog"],
        ["invariants", "--surface", "campedelli", "--d", "2", "--m", "1"],
        ["components", "--group", "2,2,2", "--d", "2"],
        ["incidences", str(fixture_dir.joinpath("dual-hesse.json"))],
        ["check-arrangement", str(fixture_dir.joinpath("campedelli-generic.json"))],
        ["reproduce", "cplus", "--d", "2", "--m", "3"],
    ]
    for cmd in commands:
        outputs = {_run_cli(cmd, hash_seed=str(seed)) for seed in (0, 1, 2)}
        assert len(outputs) == 1, f"non-deterministic output for {cmd}"

    census = [
        _run_cli(["verify-lemma-ev", "--workers", "1"], hash_seed="0"),
        _run_cli(["verify-lemma-ev", "--workers", "1"], hash_seed="1"),
        _run_cli(["verify-lemma-ev", "--workers", "4"], hash_seed="2"),
    ]
    assert len(set(census)) == 1, "census output varies across runs or worker counts"
    _ok(10, "all CLI commands byte-identical across 3 runs and worker counts {1, 4}")
