"""The three workloads: seeded inputs, op lists and per-op correctness gates.

An op is one `plurican` command line.  Its gate checks the exit code and the
parsed JSON against values known independently of the program: the paper's
fixed numbers, or the expected outputs that `inputs` derives by
construction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import inputs

WORKLOADS = ("census", "incidence", "torsion")

TANGENT_LINES = 150
GRID_SIDE = 40  # three pencils of 40 lines: 120 lines over Q(omega)
IMAGES_PER_FIXTURE = 2
MATRIX_GROUP = (5,) * 7
TABLE_GROUP = (16, 27, 25, 7)


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    name: str
    argv: list[str]  # arguments after `python -m plurican`
    check: Callable[[dict], None]
    rc: int = 0
    same_as: str | None = None  # stdout must equal this op's stdout


# --- census ----------------------------------------------------------------


def check_census(report: dict) -> None:
    orbits = sorted(report["orbits"], key=lambda o: o["size"])
    expect(report["total_count"] == 435, "435 totally even 8-sets")
    expect(report["group_order"] == 20160, "|GL(4, 2)| = 20160")
    expect(report["orbit_count"] == 2, "2 orbits")
    expect(report["burnside_orbit_count"] == 2, "Burnside recount 2")
    expect([o["size"] for o in orbits] == [15, 420], "orbits of 15 + 420")
    expect([o["stabilizer_order"] for o in orbits] == [1344, 48], "stabilizers 1344, 48")
    expect([o["type"] for o in orbits] == ["type-I", "type-II"], "type I orbit has 15 sets")


def check_camp1(out: dict) -> None:
    res = out["results"]
    expect(res["components"] == 2, "two components")
    expect(res["moduli_space"] == {"K2": 16, "pa": 4}, "K2 = 16, pa = 4")
    check_census(res["census"])


def check_lemma_ev(out: dict) -> None:
    expect(out["inputs"] == {"space": "PG(3, F2)", "set_size": 8}, "PG(3, F2), size 8")
    check_census(out["results"])


def check_extension(out: dict) -> None:
    # the labels of extension-type1.json are the affine chart x4 = 1: a
    # plane complement, hence totally even of type I and summing to zero
    expect(out["passed"] is True and out["mode"] == "extension", "extension passes")
    rep = out["report"]
    expect(rep["totally_even"] and rep["sum_zero"] and rep["type"] == "type-I",
           "type I labels")


def census_ops(data: Path) -> list[Op]:
    return [
        Op("verify-lemma-ev", ["verify-lemma-ev"], check_census),
        Op("verify-lemma-ev-w2", ["verify-lemma-ev", "--workers", "2"], check_census,
           same_as="verify-lemma-ev"),
        Op("lemma-ev", ["reproduce", "lemma-ev"], check_lemma_ev),
        Op("camp1-moduli", ["reproduce", "camp1-moduli"], check_camp1),
        Op("extension-type1", ["check-arrangement", str(data / "extension-type1.json")],
           check_extension),
    ]


# --- incidence -------------------------------------------------------------


def _histogram(out: dict) -> dict[int, int]:
    return {m: c for m, c in out["histogram"]}


def incidence_check(expected: dict[int, int], lines: int) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        hist = _histogram(out)
        expect(out["line_count"] == lines, f"{lines} lines")
        expect(inputs.pair_sum(hist) == comb(lines, 2), "sum C(m, 2) * count = C(n, 2)")
        expect(hist == expected, f"histogram {expected}")
        expect(out["point_count"] == sum(expected.values()), "point count")
        expect(len(out["points"]) == out["point_count"], "one entry per point")

    return check


def campedelli_check(kinds: list[str], hist: dict[int, int]) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        rep = out["report"]
        expect(out["passed"] is (not kinds), f"verdict {'fail' if kinds else 'pass'}")
        expect([v["kind"] for v in rep["violations"]] == kinds, f"violations {kinds}")
        expect(_histogram(rep) == hist, f"histogram {hist}")

    return check


def incidence_ops(rng: random.Random, work: Path, data: Path) -> list[Op]:
    ops = []
    for name, (arr, hist) in (
        ("tangents-q", inputs.tangent_arrangement(rng, TANGENT_LINES)),
        ("pencils-qw", inputs.grid_arrangement(rng, GRID_SIDE)),
    ):
        path = work / f"{name}.json"
        path.write_text(json.dumps(arr))
        ops.append(Op(name, ["incidences", str(path)],
                      incidence_check(hist, len(arr["lines"]))))
    for fixture, kinds in inputs.CAMPEDELLI_FIXTURES.items():
        raw = json.loads((data / fixture).read_text())
        hist = inputs.histogram_of(inputs.oracle_incidences(inputs.lines_from_json(raw)))
        for k in range(IMAGES_PER_FIXTURE):
            path = work / f"image{k}-{fixture}"
            path.write_text(json.dumps(inputs.campedelli_image(rng, raw)))
            ops.append(Op(f"image{k}-{fixture[:-5]}", ["check-arrangement", str(path)],
                          campedelli_check(kinds, hist), rc=1 if kinds else 0))
    return ops


# --- torsion ---------------------------------------------------------------


def orbit_check(order: int, orbits: int, cnew: bool) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        expect(out["group"]["order"] == order, f"group order {order}")
        expect(out["orbit_count"] == orbits, f"{orbits} orbits")
        if cnew:
            expect(out["cnew_count"] == orbits, f"{orbits} components")

    return check


def covering_k2_pa(k2: int, pa: int, d: int, m: int) -> tuple[int, int]:
    """K2 and pa (= chi(O)) of a degree-d cyclic cover branched in d*m*K."""
    k2_y = d * (1 + (d - 1) * m) ** 2 * k2
    pa_y = d * pa + k2 * sum(i * m * (i * m + 1) // 2 for i in range(1, d))
    return k2_y, pa_y


def y_check(k2: int, pa: int, d: int, m: int, path=("Y",)) -> Callable[[dict], None]:
    k2_y, pa_y = covering_k2_pa(k2, pa, d, m)

    def check(out: dict) -> None:
        y = out
        for key in path:
            y = y[key]
        expect((y["K2"], y["pa"]) == (k2_y, pa_y), f"Y: K2 = {k2_y}, pa = {pa_y}")

    return check


def check_cplus(out: dict) -> None:
    expect(out["results"]["components"] == 3 * 5**6 == 46875, "3 * 5^6 = 46875")
    expect(out["results"]["orbit_count_per_surface"] == 5**6, "5^6 per surface")


def check_catalog(out: dict) -> None:
    names = [e["name"] for e in out["entries"]]
    expect(len(names) == 9 and "campedelli" in names and "miyaoka-yau-333-2" in names,
           "nine catalogue surfaces")


def degree_check(degree: int) -> Callable[[dict], None]:
    def check(out: dict) -> None:
        expect(out["results"]["canonical_map_degree"] == degree, f"degree {degree}")

    return check


def check_burniat(out: dict) -> None:
    for k2, s in zip((6, 5, 4, 3), out["results"]["surfaces"]):
        expect(s["canonical_map_degree"] == 8, "degree 8")
        expect(s["Y"]["K2"] == covering_k2_pa(k2, 1, 2, 1)[0], f"Burniat K2 = {k2}")


def check_z2cubed(out: dict) -> None:
    # every element of (Z/2)^3 is 2-torsion and only 0 is twice something
    expect((out["covering_count"], out["tor_d_order"], out["theorem_mod_bound"])
           == (8, 8, 2), "8 coverings, bound 2")


def torsion_ops(rng: random.Random, work: Path) -> list[Op]:
    gens, matrix_orbits = inputs.shift_scalar_generators(rng, MATRIX_GROUP[0],
                                                         len(MATRIX_GROUP))
    mat = work / "aut-matrix.json"
    mat.write_text(json.dumps(
        {"generators": [{"kind": "matrix", "entries": g} for g in gens]}))
    pairs, table_orbits = inputs.diagonal_unit_table(rng, TABLE_GROUP)
    tab = work / "aut-table.json"
    tab.write_text(json.dumps({"generators": [{"kind": "permutation", "pairs": pairs}]}))
    group = ",".join(map(str, MATRIX_GROUP))
    k2_333, pa_333 = 333, 37
    return [
        Op("components-matrix",
           ["components", "--group", group, "--d", "2", "--m", "3", "--aut", str(mat)],
           orbit_check(5**7, matrix_orbits, cnew=True)),
        Op("components-table",
           ["components", "--group", ",".join(map(str, TABLE_GROUP)), "--d", "2",
            "--aut", str(tab)],
           orbit_check(16 * 27 * 25 * 7, table_orbits, cnew=False)),
        Op("cplus", ["reproduce", "cplus"], check_cplus),
        Op("catalog", ["catalog"], check_catalog),
        Op("invariants-surface",
           ["invariants", "--surface", "campedelli", "--d", "2", "--m", "1"],
           y_check(2, 1, 2, 1)),
        Op("invariants-raw",
           ["invariants", "--pa", str(pa_333), "--k2", str(k2_333), "--d", "2", "--m", "3"],
           y_check(k2_333, pa_333, 2, 3)),
        Op("campedelli-cover", ["reproduce", "campedelli-cover"], degree_check(16)),
        Op("burniat-cover", ["reproduce", "burniat-cover"], check_burniat),
        Op("mlp-cover", ["reproduce", "mlp-cover"], degree_check(4)),
        Op("components-z2cubed", ["components", "--group", "2,2,2", "--d", "2"],
           check_z2cubed),
    ]


def build(workload: str, seed: int, work: Path, data: Path) -> list[Op]:
    """Write the workload's inputs for `seed` under `work`; return its op list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return census_ops(data)
    if workload == "incidence":
        return incidence_ops(rng, work, data)
    if workload == "torsion":
        return torsion_ops(rng, work)
    raise ValueError(f"unknown workload {workload!r}")
