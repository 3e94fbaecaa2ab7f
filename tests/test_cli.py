import argparse
import errno
import gc
import importlib
import json
import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from plurican import arrangements, cli, torsion
from plurican.cli import MAX_DIGITS, RECIPES, main
from plurican.commands import catalog, reproduce
from plurican.errors import MalformedInputError
from test_arrangements import tangent_lines

GOLDEN_AUT = Path(__file__).parent / "golden" / "aut-z3-squared.json"


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def fixture_path(name: str) -> str:
    return str(resources.files("plurican").joinpath("data", name))


def test_invariants_campedelli(capsys):
    code, data = run_cli(
        capsys, "invariants", "--surface", "campedelli", "--d", "2", "--m", "1"
    )
    assert code == 0
    assert data["schema"] == "plurican/1"
    assert data["Y"] == {"K2": 16, "pa": 4, "pg": 3, "q": 0, "e": 32}
    assert data["branch_curve_genus"] == 7
    assert data["generic_smooth"] is False
    assert "moduli_dim" not in data


def test_invariants_raw_surface(capsys):
    code, data = run_cli(
        capsys, "invariants", "--pa", "37", "--k2", "333", "--d", "2", "--m", "3"
    )
    assert code == 0
    assert data["Y"]["K2"] == 10656 and data["Y"]["pa"] == 2072
    assert data["generic_smooth"] is True
    # Miyaoka-Yau input with 2m >= 5: the exact dimension is reported
    assert data["moduli_dim"] == 5031
    assert data["moduli_dim_lower_bound"] == 5031


def test_invariants_input_validation(capsys):
    code, data = run_cli(capsys, "invariants", "--d", "2", "--m", "1")
    assert code == 2
    assert data["error"]["kind"] == "malformed-input"
    code, data = run_cli(
        capsys, "invariants", "--surface", "campedelli", "--pa", "1",
        "--k2", "2", "--d", "2", "--m", "1",
    )
    assert code == 2
    code, data = run_cli(
        capsys, "invariants", "--surface", "nope", "--d", "2", "--m", "1"
    )
    assert code == 1
    assert data["error"]["kind"] == "validation"


def test_invariants_refuses_q_with_a_catalogue_surface(capsys):
    # the catalogue fixes q; --q applies only to --pa/--k2
    data = run_cli_malformed(capsys, "invariants", "--surface", "campedelli",
                             "--d", "2", "--m", "1", "--q", "3")
    assert data["error"]["message"] == "--q applies to --pa/--k2, not to --surface"
    assert data["error"]["details"] == {"option": "--q"}
    code, data = run_cli(capsys, "invariants", "--pa", "37", "--k2", "333", "--q", "3",
                         "--d", "2", "--m", "3")
    assert code == 0 and data["input"]["X"]["q"] == 3


def test_components_campedelli_torsion(capsys):
    code, data = run_cli(capsys, "components", "--group", "2,2,2", "--d", "2")
    assert code == 0
    assert data["tor_d_order"] == 8
    assert data["covering_count"] == 8
    assert data["theorem_mod_bound"] == 2
    assert "orbit_count" not in data


def test_components_with_automorphisms(capsys, tmp_path):
    aut = tmp_path / "aut.json"
    aut.write_text(
        json.dumps({"generators": [{"kind": "matrix", "entries": [[-1]]}]}),
        encoding="utf-8",
    )
    code, data = run_cli(
        capsys, "components", "--group", "5", "--d", "2", "--m", "3",
        "--aut", str(aut),
    )
    assert code == 0
    assert data["orbit_count"] == 3
    assert data["cnew_count"] == 3


def test_components_hypothesis_violation(capsys, tmp_path):
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps({"generators": []}), encoding="utf-8")
    code, data = run_cli(
        capsys, "components", "--group", "5,5,5,5,5,5", "--d", "6", "--m", "1",
        "--aut", str(aut),
    )
    assert code == 1
    assert data["error"]["kind"] == "hypothesis-violation"


def test_components_malformed_group(capsys):
    code, data = run_cli(capsys, "components", "--group", "2,x", "--d", "2")
    assert code == 2
    assert data["error"]["kind"] == "malformed-input"


@pytest.mark.parametrize(
    "group", ["3_0", " 3", "3 ", "+3", "2, 2", "2,,2", "\u0663", "9" * 5000, "2," + "9" * 5000]
)
def test_components_group_orders_are_ascii_digits(capsys, group):
    # int() would read these as 30, 3, 3, 3, (2, 2), an error and 3, and
    # raise ValueError past its digit limit; the last two are past the cap
    run_cli_malformed(capsys, "components", "--group", group, "--d", "2")


def test_group_digit_cap(capsys):
    # the order is the product of the factors: their digits are capped in all
    code, data = run_cli(capsys, "components", "--group", "9" * MAX_DIGITS, "--d", "2")
    assert code == 0 and data["group"]["order"] == 10**MAX_DIGITS - 1
    group = ",".join(["9" * (MAX_DIGITS // 2), "9" * (MAX_DIGITS // 2 + 1)])
    data = run_cli_malformed(capsys, "components", "--group", group, "--d", "2")
    assert data["error"]["details"] == {"digits": MAX_DIGITS + 1, "limit": MAX_DIGITS}


def test_integer_option_digit_cap(capsys):
    # every option at the cap: K2 of the cover has ~6 * MAX_DIGITS digits and
    # still prints (json.loads, like json.dumps, refuses past 4300 digits),
    # in the result or, with K2 < 0, in the message about p_g of the cover
    top = "9" * MAX_DIGITS
    for k2, expected_code in [(top, 0), ("-" + top, 1)]:
        code, data = run_cli(capsys, "invariants", "--pa", top, "--k2", k2, "--q", top,
                             "--d", top, "--m", top)
        assert code == expected_code
        text = str(data["Y"]["K2"]) if code == 0 else data["error"]["message"]
        assert len(max(re.findall("[0-9]+", text), key=len)) > 6 * MAX_DIGITS - 10
    data = run_cli_malformed(capsys, "invariants", "--pa", "1", "--k2", "1",
                             "--d", "9" * (MAX_DIGITS + 1), "--m", "1")
    assert "invalid integer value" in data["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["components", "--group", "2", "--d", "1_0"],
    ["components", "--group", "2", "--d", "+2"],
    ["components", "--group", "2", "--d", " 2"],
    ["invariants", "--surface", "campedelli", "--d", "2", "--m", "0_1"],
    ["reproduce", "cplus", "--m", "\u0663"],
    ["verify-lemma-ev", "--workers", "1_0"],
    ["components", "--group", "2", "--d", "9" * 5000],
])
def test_integer_options_are_strict_decimals(capsys, argv):
    data = run_cli_malformed(capsys, *argv)
    assert "invalid integer value" in data["error"]["message"]


def run_cli_malformed(capsys, *argv) -> dict:
    """Run a command on bad input: exit 2, one JSON error document, no stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    data = json.loads(captured.out)
    assert data["schema"] == "plurican/1"
    assert data["error"]["kind"] == "malformed-input"
    return data


@pytest.mark.parametrize("spec", [
    {"kind": "permutation", "pairs": [[1]]},
    {"kind": "permutation", "pairs": "x"},
    {"kind": "permutation", "pairs": {}},  # an object, even an empty one, is no table
    {"kind": "permutation", "pairs": [[[1.5], [1]]]},
    {"kind": "permutation", "pairs": [[[0], [True]]]},
    {"kind": "matrix", "entries": [[1.5]]},
    {"kind": "matrix", "entries": [[True]]},
    {"kind": "matrix", "entries": "x"},
    {"kind": "matrix", "entries": ["x"]},
])
def test_components_malformed_automorphism(capsys, tmp_path, spec):
    aut = tmp_path / "aut.json"
    aut.write_text(json.dumps({"generators": [spec]}), encoding="utf-8")
    run_cli_malformed(capsys, "components", "--group", "5", "--d", "2", "--aut", str(aut))


def test_components_counts_orbits_once(capsys, monkeypatch):
    calls = []
    real = torsion.orbit_count

    def counted(G, generators):
        calls.append(G)
        return real(G, generators)

    monkeypatch.setattr(torsion, "orbit_count", counted)
    code, data = run_cli(
        capsys, "components", "--group", "3,3", "--d", "2", "--m", "3",
        "--aut", str(GOLDEN_AUT),
    )
    assert code == 0 and data["orbit_count"] == data["cnew_count"]
    assert len(calls) == 1


def test_components_group_too_large_for_automorphisms(capsys, tmp_path):
    # 10^12 elements: refused before any per-element list is allocated
    aut = tmp_path / "aut.json"
    aut.write_text(
        json.dumps({"generators": [{"kind": "matrix", "entries": [[1, 0], [0, 1]]}]}),
        encoding="utf-8",
    )
    code = main(["components", "--group", "1000000,1000000", "--d", "2", "--aut", str(aut)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    data = json.loads(captured.out)
    assert data["schema"] == "plurican/1"
    assert data["error"]["kind"] == "validation"
    assert data["error"]["details"] == {"order": 10**12, "limit": torsion.MAX_ACTION_ORDER}


def test_components_refuses_many_generators_before_building_any(capsys, tmp_path, monkeypatch):
    # five 20 x 20 identities, ~4 KB: five actions of 2^20 entries on (Z/2)^20
    identity = [[int(i == j) for j in range(20)] for i in range(20)]
    aut = tmp_path / "many.json"
    aut.write_text(json.dumps({"generators": [{"kind": "matrix", "entries": identity}] * 5},
                              separators=(",", ":")), encoding="utf-8")
    assert aut.stat().st_size < 5000
    # on (Z/4)^20, above the action cap, the first generator meets that cap
    code, data = run_cli(capsys, "components", "--group", ",".join(["4"] * 20), "--d", "3",
                         "--aut", str(aut))
    assert code == 1
    assert data["error"]["details"] == {"order": 1 << 40, "limit": torsion.MAX_ACTION_ORDER}

    def no_action(*args):
        raise AssertionError("an action was built")

    monkeypatch.setattr(torsion.AutAction, "from_matrix", no_action)
    limit = torsion.MAX_ACTION_ENTRIES
    assert limit >= 2 * 5**7  # the benchmark's two matrices on (Z/5)^7
    code, data = run_cli(capsys, "components", "--group", ",".join(["2"] * 20), "--d", "3",
                         "--aut", str(aut))
    assert code == 1
    assert data["error"]["kind"] == "validation"
    assert data["error"]["details"] == {"entries": 5 << 20, "limit": limit}


def test_components_generator_cap_counts_every_entry(capsys, monkeypatch):
    # two generators on the 9 elements of Z/3 x Z/3: 18 entries
    argv = ["components", "--group", "3,3", "--d", "2", "--aut", str(GOLDEN_AUT)]
    monkeypatch.setattr(torsion, "MAX_ACTION_ENTRIES", 18)
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(torsion, "MAX_ACTION_ENTRIES", 17)
    code, data = run_cli(capsys, *argv)
    assert code == 1
    assert data["error"]["details"] == {"entries": 18, "limit": 17}


def test_components_singular_matrix_with_huge_entries(capsys, tmp_path):
    # det = 10^8000 has more digits than an int may print; it is reported mod n
    aut = tmp_path / "m.json"
    aut.write_text(json.dumps({"generators": [
        {"kind": "matrix", "entries": [[10**4000, 0], [0, 10**4000]]}]}), encoding="utf-8")
    code, data = run_cli(capsys, "components", "--group", "5,5", "--d", "2", "--aut", str(aut))
    assert code == 1
    assert data["error"]["kind"] == "validation"
    assert data["error"]["details"] == {"det": 0, "n": 5}


@pytest.mark.parametrize("enabled", [True, False])
def test_json_input_leaves_the_collector_as_it_found_it(capsys, tmp_path, enabled):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"generators": [{"kind": "matrix", "entries": [[2]]}]}),
                    encoding="utf-8")
    bad.write_text("{", encoding="utf-8")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for path, code in ((good, 0), (bad, 2), (tmp_path / "missing.json", 2)):
            argv = ["components", "--group", "5", "--d", "2", "--aut", str(path)]
            assert run_cli(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_only_the_own_command_line_freezes_what_is_left(capsys, monkeypatch):
    # a process that runs its own command line exits next, so the objects
    # left are frozen for the collections at exit; a caller that passes the
    # arguments keeps its collector as it was
    frozen = gc.get_freeze_count()
    assert main(["catalog"]) == 0
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr(sys, "argv", ["plurican", "catalog"])
    try:
        assert main() == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert capsys.readouterr().out.count('"command": "catalog"') == 2


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["invariants", "--surface", "campedelli", "--d", "2", "--m", "1"],
    ["components", "--group", "2,2,2", "--d", "2"],
])
def test_a_second_command_leaves_no_parser_garbage(capsys, argv):
    # the parser holds hundreds of objects in reference cycles; it is built
    # once per process, so a command leaves none of them for the collector
    assert main(argv) == 0
    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # what a collection finds goes to gc.garbage
    try:
        assert main(argv) == 0
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage
                if isinstance(o, argparse.ArgumentParser) or type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
    assert left == []


@pytest.mark.parametrize("label", [[True, 0, 0], [1.0, 0, 0], [0, 0.0, 1]])
def test_check_arrangement_rejects_non_integer_label_bits(capsys, tmp_path, label):
    data = json.loads(Path(fixture_path("campedelli-generic.json")).read_text(encoding="utf-8"))
    data["labels"][3] = label
    arr = tmp_path / "arr.json"
    arr.write_text(json.dumps(data), encoding="utf-8")
    run_cli_malformed(capsys, "check-arrangement", str(arr))


@pytest.mark.parametrize("coeff", [True, [1, True], [False], [[1, True]], [[1, 1], [True, 1]]])
def test_incidences_rejects_boolean_coefficients(capsys, tmp_path, coeff):
    arr = tmp_path / "arr.json"
    arr.write_text(
        json.dumps({"field": "Q(omega)", "lines": [[coeff, 0, 1], [0, 1, 0]]}),
        encoding="utf-8",
    )
    run_cli_malformed(capsys, "incidences", str(arr))


@pytest.mark.parametrize("command", [["incidences"], ["components", "--group", "5", "--d", "2", "--aut"]])
@pytest.mark.parametrize("content", [
    b'{"field": "Q", "lines": [[1, 0, 0], [0, 1, 0]], "note": "\xff"}',
    b'{"field": "Q", "lines": [[' + b"9" * 5001 + b', 0, 0], [0, 1, 0]]}',
    b"[" * 100000,
], ids=["not-utf8", "5001-digit-integer", "deep-nesting"])
def test_unreadable_json_files_are_malformed_input(capsys, tmp_path, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    run_cli_malformed(capsys, *command, str(path))


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_malformed_input(capsys, workers):
    code, data = run_cli(capsys, "verify-lemma-ev", "--workers", workers)
    assert code == 2
    assert data["error"]["kind"] == "malformed-input"


def test_check_arrangement_pass_and_fail(capsys):
    code, data = run_cli(
        capsys, "check-arrangement", fixture_path("campedelli-generic.json")
    )
    assert code == 0 and data["passed"] is True
    code, data = run_cli(
        capsys, "check-arrangement", fixture_path("campedelli-fourfold.json")
    )
    assert code == 1 and data["passed"] is False
    assert data["report"]["violations"][0]["kind"] == "multiple-point"


def test_check_arrangement_extension_mode_inferred(capsys):
    code, data = run_cli(
        capsys, "check-arrangement", fixture_path("extension-type1.json")
    )
    assert code == 0
    assert data["mode"] == "extension"
    assert data["report"]["type"] == "type-I"


def test_check_arrangement_missing_file(capsys, tmp_path):
    code, data = run_cli(capsys, "check-arrangement", str(tmp_path / "nope.json"))
    assert code == 2


def test_check_arrangement_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, data = run_cli(capsys, "check-arrangement", str(bad))
    assert code == 2
    assert data["error"]["kind"] == "malformed-input"


def test_check_arrangement_one_labelled_line(capsys, tmp_path):
    # a labelled arrangement of one line builds; no mode fits one line
    data = {"field": "Q", "lines": [[1, 2, 3]], "labels": [[1, 0, 1]]}
    arr = arrangements.load_arrangement(data)
    assert len(arr.lines) == 1 and [lab.coords for lab in arr.labels] == [(1, 0, 1)]
    path = tmp_path / "one.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    error = run_cli_malformed(capsys, "check-arrangement", str(path))["error"]
    assert error["message"] == "cannot infer mode for 1 lines; pass --mode"
    assert error["details"] == {"lines": 1}


def test_incidences_dual_hesse(capsys):
    code, data = run_cli(capsys, "incidences", fixture_path("dual-hesse.json"))
    assert code == 0
    assert data["histogram"] == [[3, 12]]
    assert data["point_count"] == 12


def test_incidences_over_the_line_cap_are_refused_before_any_pair(capsys, tmp_path, monkeypatch):
    # the benchmark's 150 lines stay far below the documented limit
    limit = arrangements.MAX_INCIDENCE_LINES
    assert limit >= 4 * 150
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"field": "Q", "lines": [[1, i, 0] for i in range(limit + 1)]}),
                    encoding="utf-8")
    code, data = run_cli(capsys, "incidences", str(path))
    assert code == 1
    assert data["error"]["kind"] == "validation"
    assert data["error"]["details"] == {"lines": limit + 1, "limit": limit}
    # the 9 lines of the dual Hesse arrangement: refused above the cap, not at it
    monkeypatch.setattr(arrangements, "MAX_INCIDENCE_LINES", 9)
    assert run_cli(capsys, "incidences", fixture_path("dual-hesse.json"))[0] == 0
    monkeypatch.setattr(arrangements, "MAX_INCIDENCE_LINES", 8)
    code, data = run_cli(capsys, "incidences", fixture_path("dual-hesse.json"))
    assert code == 1
    assert data["error"]["details"] == {"lines": 9, "limit": 8}


def test_incidences_over_the_coefficient_cap_are_refused(capsys, tmp_path):
    # the benchmark's inputs reach 17 bits and the bundled fixtures 6
    limit = arrangements.MAX_COEFFICIENT_BITS
    assert limit >= 4 * 17
    path = tmp_path / "lines.json"

    def run(lines, field="Q"):
        path.write_text(json.dumps({"field": field, "lines": lines}), encoding="utf-8")
        return run_cli(capsys, "incidences", str(path))

    assert run([[1, 0, 0], [0, 1, 0], [1, 1, 2**limit - 1]])[0] == 0
    assert run([[1, 0, 0], [0, 1, 0], [1, 1, 1 - 2**limit]])[0] == 0
    code, data = run([[1, 0, 0], [0, 1, 0], [1, 1, 2**limit]])
    assert (code, data["error"]["kind"]) == (1, "validation")
    assert data["error"]["details"] == {"bits": limit + 1, "limit": limit}
    # the canonical vector counts, not the input: over Q(omega) the leading
    # 1 + 2^e omega becomes its norm 1 - 2^e + 2^(2e), of 2e bits
    e = limit // 2 + 1
    code, data = run([[[[1, 1], [2**e, 1]], 1, 0], [0, 1, 0], [0, 0, 1]], "Q(omega)")
    assert (code, data["error"]["details"]) == (1, {"bits": 2 * e, "limit": limit})


def test_catalog_lists_entries(capsys):
    code, data = run_cli(capsys, "catalog")
    assert code == 0
    names = [e["name"] for e in data["entries"]]
    assert "campedelli" in names and "fake-projective-plane" in names
    assert len(names) == len(set(names)) == 9


def test_reproduce_cplus(capsys):
    code, data = run_cli(capsys, "reproduce", "cplus", "--d", "2", "--m", "3")
    assert code == 0
    assert data["results"]["components"] == 46875


@pytest.mark.parametrize("recipe", ["lemma-ev", "camp1-moduli", "campedelli-cover"])
@pytest.mark.parametrize("option", ["--d", "--m"])
def test_reproduce_refuses_d_and_m_outside_cplus(capsys, recipe, option):
    data = run_cli_malformed(capsys, "reproduce", recipe, option, "9")
    assert data["error"]["message"] == f"{option} applies to recipe cplus only, not to {recipe}"
    assert data["error"]["details"] == {"option": option}


def test_reproduce_cplus_rejects_bad_degree(capsys):
    code, data = run_cli(capsys, "reproduce", "cplus", "--d", "6", "--m", "1")
    assert code == 1
    assert data["error"]["kind"] == "hypothesis-violation"


def test_reproduce_cover_chains(capsys):
    code, data = run_cli(capsys, "reproduce", "campedelli-cover")
    assert code == 0
    assert data["results"]["canonical_map_degree"] == 16
    assert data["results"]["Y"]["pg"] == 3
    code, data = run_cli(capsys, "reproduce", "mlp-cover")
    assert code == 0
    assert data["results"]["canonical_map_degree"] == 4
    code, data = run_cli(capsys, "reproduce", "burniat-cover")
    assert code == 0
    degrees = {s["canonical_map_degree"] for s in data["results"]["surfaces"]}
    assert degrees == {8}


def test_unknown_command_exits_2(capsys):
    data = run_cli_malformed(capsys, "frobnicate")
    assert "invalid choice: 'frobnicate'" in data["error"]["message"]


@pytest.mark.parametrize("argv,fragment", [
    (["invariants", "--surface", "campedelli", "--d", "x", "--m", "1"],
     "argument --d: invalid integer value: 'x'"),
    (["components", "--d", "2"], "the following arguments are required: --group"),
    (["catalog", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_are_one_json_document(capsys, argv, fragment):
    # run_cli_malformed: exit 2, empty stderr, exactly one JSON document
    data = run_cli_malformed(capsys, *argv)
    assert fragment in data["error"]["message"]


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["components", "--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: plurican components")


def test_every_command_and_recipe_resolves_to_a_run():
    # `_run` imports "plurican.commands." + the command's name with "-" as
    # "_", and `reproduce` looks its recipe up in `_RECIPES`
    subparsers = next(action for action in cli._parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    modules = {path.stem for path in Path(catalog.__file__).parent.glob("*.py")}
    assert modules - {"__init__"} == {name.replace("-", "_") for name in subparsers.choices}
    for name in subparsers.choices:
        module = importlib.import_module("plurican.commands." + name.replace("-", "_"))
        assert callable(module.run), name
    assert tuple(reproduce._RECIPES) == RECIPES
    assert all(map(callable, reproduce._RECIPES.values()))


def test_internal_error_is_one_json_document(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(catalog, "run", broken)
    code = main(["catalog"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "schema": "plurican/1",
        "error": {"kind": "internal", "message": "internal error: RuntimeError: boom",
                  "details": {"type": "RuntimeError"}},
    }


def test_usage_error_ignores_out(capsys, tmp_path):
    # --out is not parsed yet when the command line is rejected: stdout
    out = tmp_path / "report.json"
    data = run_cli_malformed(capsys, "components", "--out", str(out), "--d", "x")
    assert "argument --d: invalid integer value: 'x'" in data["error"]["message"]
    assert not out.exists()


def test_incidences_print_at_the_lowest_digit_limit(capsys, tmp_path):
    # MAX_COEFFICIENT_BITS keeps every key entry of a point below about
    # 2^521, at most 157 digits (here 251 bits, 76 digits), so even at the
    # lowest int/str limit, 640 digits, `incidences` prints every number and
    # `_points_json` never meets its own digit check
    rng = random.Random(7)
    lines = [[[[rng.randrange(1 << 62, 1 << 63), 1], [rng.randrange(1 << 62, 1 << 63), 1]]
              for _ in range(3)] for _ in range(6)]
    data = {"field": "Q(omega)", "lines": lines}
    bits = max(x.bit_length() for line in arrangements.load_arrangement(data).lines
               for x in line.vec)
    assert 125 <= bits <= arrangements.MAX_COEFFICIENT_BITS
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["incidences", str(path)]) == 0
    text = capsys.readouterr().out
    assert len(max(re.findall("[0-9]+", text), key=len)) > 70
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert main(["incidences", str(path)]) == 0
    finally:
        sys.set_int_max_str_digits(limit)
    assert capsys.readouterr().out == text


def test_integer_too_long_to_print_is_malformed_input(capsys, tmp_path, monkeypatch):
    # every coefficient has ~2200 digits; the coordinates of the
    # intersection points pass the 4300-digit int/str limit
    big = 10**2200
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"field": "Q", "lines": [
        [1, 0, big + 7], [0, 1, big + 9], [big + 12, 1, 3]]}), encoding="utf-8")
    # the coefficient cap refuses them first; above it the writer refuses
    assert run_cli(capsys, "incidences", str(path))[0] == 1
    monkeypatch.setattr(arrangements, "MAX_COEFFICIENT_BITS", 10**6)
    error = run_cli_malformed(capsys, "incidences", str(path))["error"]
    assert error["details"] == {"limit": sys.get_int_max_str_digits()}
    assert len(max(re.findall("[0-9]+", error["message"]), key=len)) < 10


def test_stdout_is_written_in_chunks_of_one_whole_document(capsys, tmp_path, monkeypatch):
    # one part per chunk: stdout gets one write per chunk, the same bytes as
    # before, and a digit-limit error found after many chunks still prints
    # only the error document
    monkeypatch.setattr(arrangements, "_CHUNK_POINTS", 1)
    writes = []
    real = type(sys.stdout).write
    monkeypatch.setattr(type(sys.stdout), "write",
                        lambda self, text: writes.append(text) or real(self, text))
    assert main(["incidences", fixture_path("dual-hesse.json")]) == 0
    golden = (Path(__file__).parent / "golden" / "incidences-dual-hesse.json").read_text()
    assert capsys.readouterr().out == golden
    # the points array streams one point per chunk, so each of the 12 points
    # is a write of its own
    assert len(writes) > 12
    assert [text.count('"coords"') for text in writes if '"coords"' in text] == [1] * 12
    big = 10**2200
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"field": "Q", "lines": [
        [1, 0, 1], [0, 1, 1], [1, 1, 3], [1, 0, big + 7], [0, 1, big + 9], [big + 12, 1, 3]]}))
    monkeypatch.setattr(arrangements, "MAX_COEFFICIENT_BITS", 10**6)
    error = run_cli_malformed(capsys, "incidences", str(path))["error"]
    assert error["details"] == {"limit": sys.get_int_max_str_digits()}


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["catalog", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["command"] == "catalog"


def test_unwritable_out_is_malformed_input(capsys, tmp_path):
    out = tmp_path / "missing" / "report.json"
    data = run_cli_malformed(capsys, "catalog", "--out", str(out))
    assert data["schema"] == "plurican/1"
    assert data["error"]["message"].startswith(f"cannot write {out}: ")
    assert not out.exists()
    # an error document that cannot be written to --out goes to stdout
    code = main(["components", "--group", "2,2", "--d", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert json.loads(captured.out)["error"] == {
        "kind": "validation", "message": "d must be a positive integer, got 0",
        "details": {"value": 0, "lo": 1}}
    data = run_cli_malformed(capsys, "components", "--group", "x", "--d", "2",
                             "--out", str(tmp_path))  # a directory
    assert data["error"]["message"].startswith("cannot parse group 'x'")


def test_out_failing_partway_is_not_written_again(capsys, tmp_path, monkeypatch):
    # a full disk: the report stops partway, and the short error document
    # would fit, but it goes to stdout and the partial report stays as it is
    out = tmp_path / "report.json"
    calls = []

    class FullDisk:
        """A file that takes the first 10 characters, then fails."""

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, text):
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text[:10])
            raise OSError(errno.ENOSPC, "No space left on device")

    real_open = Path.open

    def open_full(self, mode="r", *args, **kwargs):
        if mode != "w":
            return real_open(self, mode, *args, **kwargs)
        calls.append(self)
        return FullDisk()

    monkeypatch.setattr(Path, "open", open_full)
    data = run_cli_malformed(capsys, "catalog", "--out", str(out))
    assert calls == [out]
    assert data["error"]["message"] == f"cannot write {out}: [Errno 28] No space left on device"
    assert out.read_text() == '{\n  "comma'  # the first 10 characters of the report


def test_out_streams_the_same_bytes_as_stdout(capsys, tmp_path):
    path = tmp_path / "tangents.json"
    path.write_text(json.dumps(tangent_lines(150)), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["incidences", str(path)]) == 0
    stdout = capsys.readouterr().out
    assert main(["incidences", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
    assert stdout.count('"coords"') == 150 * 149 // 2


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "plurican", "components", "--group", "2,2,2", "--d", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["covering_count"] == 8


def plurican_env(unbuffered: bool) -> dict:
    """The environment of a ``python -m plurican`` child, stdout buffered or
    not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("case", ["dev-full", "closed", "early-reader"])
def test_unwritable_stdout_ends_quietly(tmp_path, case, unbuffered):
    # catalog > /dev/full, catalog >&- and incidences ... | head -c 10
    env = plurican_env(unbuffered)
    command = [sys.executable, "-m", "plurican"]
    if case == "dev-full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(command + ["catalog"], stdout=full, stderr=subprocess.PIPE,
                                  env=env)
        code, err = proc.returncode, proc.stderr
    elif case == "closed":
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *command, "catalog"],
                              stderr=subprocess.PIPE, env=env)
        code, err = proc.returncode, proc.stderr
    else:
        # 4950 points, about 1.7 MB, more than a pipe holds
        path = tmp_path / "tangents.json"
        path.write_text(json.dumps(tangent_lines(100)))
        proc = subprocess.Popen(command + ["incidences", str(path)], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait()
    assert (code, err) == (cli.STDOUT_UNWRITABLE, b"")
