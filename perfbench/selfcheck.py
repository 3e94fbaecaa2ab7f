"""Check the benchmark's input generators against brute force at small sizes.

    python3 perfbench/selfcheck.py

Each generator states its expected output by construction (a formula or a
fixture's known verdict); here that statement is compared with an
exhaustive count on small instances.  Exits 1 on the first mismatch.
Deliberately not named test_*.py: it is not part of the package's test suite.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import product
from math import comb
from pathlib import Path

import inputs

DATA = Path(__file__).resolve().parent.parent / "src" / "plurican" / "data"
SEEDS = 20


def fail(what: str) -> None:
    print(f"MISMATCH {what}")
    sys.exit(1)


def campedelli_verdict(lines, labels) -> list[str]:
    """Violation kinds of labeled 7-line covering data, by brute force."""
    kinds = []
    codes = [int("".join(map(str, lab)), 2) for lab in labels]
    if sorted(codes) != list(range(1, 8)):
        kinds.append("labels-not-complete")
    for idx in sorted(inputs.oracle_incidences(lines).values(), key=sorted):
        if len(idx) >= 4:
            kinds.append("multiple-point")
        elif len(idx) == 3:
            s = 0
            for i in idx:
                s ^= codes[i]
            if s == 0:
                kinds.append("zero-sum-triple")
    return kinds


def brute_orbit_count(orders, maps) -> int:
    """Orbits on Z/n_1 x ... x Z/n_r of the group generated by `maps`."""
    seen: set[tuple] = set()
    orbits = 0
    for e in product(*(range(n) for n in orders)):
        if e in seen:
            continue
        orbits += 1
        seen.add(e)
        frontier = [e]
        while frontier:
            x = frontier.pop()
            for f in maps:
                y = f(x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return orbits


def matrix_map(m, p: int):
    return lambda x: tuple(sum(r * xi for r, xi in zip(row, x)) % p for row in m)


def check_incidence(rng: random.Random) -> None:
    n = rng.randint(3, 9)
    arr, expected = inputs.tangent_arrangement(rng, n)
    got = inputs.histogram_of(inputs.oracle_incidences(inputs.lines_from_json(arr)))
    if got != expected or inputs.pair_sum(got) != comb(n, 2):
        fail(f"tangents n={n}: {got} != {expected}")

    side = rng.randint(2, 6)
    arr, expected = inputs.grid_arrangement(rng, side)
    got = inputs.histogram_of(inputs.oracle_incidences(inputs.lines_from_json(arr)))
    if got != expected or inputs.pair_sum(got) != comb(3 * side, 2):
        fail(f"pencil grid side={side}: {got} != {expected}")

    # the histogram formula on uneven families, before any map
    xs, ys, ss = (rng.sample(range(-6, 7), rng.randint(2, 6)) for _ in range(3))
    lines = ([(inputs.qw(1), inputs.qw(0), inputs.qw(-i)) for i in xs]
             + [(inputs.qw(0), inputs.qw(1), inputs.qw(-j)) for j in ys]
             + [(inputs.qw(1), inputs.qw(1), inputs.qw(-k)) for k in ss])
    got = inputs.histogram_of(inputs.oracle_incidences(lines))
    if got != inputs.grid_histogram(xs, ys, ss):
        fail(f"grid formula {xs} {ys} {ss}: {got}")


def check_campedelli(rng: random.Random) -> None:
    for fixture, kinds in inputs.CAMPEDELLI_FIXTURES.items():
        raw = json.loads((DATA / fixture).read_text())
        image = inputs.campedelli_image(rng, raw)
        for arr in (raw, image):
            got = campedelli_verdict(inputs.lines_from_json(arr), arr["labels"])
            if got != kinds:
                fail(f"{fixture}: violations {got} != {kinds}")
        before = inputs.histogram_of(inputs.oracle_incidences(inputs.lines_from_json(raw)))
        after = inputs.histogram_of(inputs.oracle_incidences(inputs.lines_from_json(image)))
        if before != after:
            fail(f"{fixture}: map changed the histogram {before} -> {after}")


def check_torsion(rng: random.Random) -> None:
    p, rank = rng.choice([(3, 3), (5, 3), (5, 4), (7, 2)])
    gens, expected = inputs.shift_scalar_generators(rng, p, rank)
    got = brute_orbit_count((p,) * rank, [matrix_map(g, p) for g in gens])
    if got != expected:
        fail(f"shift and scalar on (Z/{p})^{rank}: {got} != {expected}")

    orders = rng.choice([(4, 9, 5), (8, 3), (16, 7), (9, 25)])
    pairs, expected = inputs.diagonal_unit_table(rng, orders)
    table = {tuple(a): tuple(b) for a, b in pairs}
    got = brute_orbit_count(orders, [table.__getitem__])
    if got != expected:
        fail(f"unit table on {orders}: {got} != {expected}")


def main() -> int:
    for seed in range(SEEDS):
        rng = random.Random(seed)
        check_incidence(rng)
        check_campedelli(rng)
        check_torsion(rng)
    print(f"ok: generators agree with brute force on {SEEDS} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
