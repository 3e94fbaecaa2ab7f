"""`components --aut` reads a file of permutation tables of the common
shape with `_lanes.table_positions`, a slice of the pairs array at a time
through a window of the file, and any other file with `cli._load_json`.
Both must give the same actions, or the same error document and exit
code: each case here runs through both, the second with `table_positions`
patched to return None.  The slice and read sizes are patched down too, so
small files meet every cut and every read boundary."""

import contextlib
import gc
import io
import json
import os
import re
import tempfile
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurican import _lanes, cli
from plurican.errors import DomainError, MalformedInputError
from plurican.torsion import AutAction, FiniteAbelianGroup
from test_golden import CASES

SLICES = (1, 7, _lanes._SLICE)
READS = (1, 3, _lanes._READ)


def unit_table(orders, units) -> list:
    """The pairs of x -> (u_1 x_1, ..., u_r x_r) in lexicographic order."""
    return [[list(x), [u * c % n for u, c, n in zip(units, x, orders)]]
            for x in product(*map(range, orders))]


def permutation(pairs) -> dict:
    return {"kind": "permutation", "pairs": pairs}


def document(*specs) -> str:
    return json.dumps({"generators": list(specs)})


def outcome(group: str, path: Path) -> tuple:
    """(exit code, stdout) of `components --aut`, and the perm arrays of
    `_load_generators`, or its error's type, message and details."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["components", "--group", group, "--d", "2", "--aut", str(path)])
    try:
        gens = [g.perm for g in cli._load_generators(cli._parse_group(group), path)]
    except DomainError as exc:
        gens = (type(exc), str(exc), exc.details)
    return code, out.getvalue(), gens


def both_paths(group: str, text: str, slice_size: int, read_size: int = _lanes._READ) -> tuple:
    """The outcome of a file holding ``text`` (as UTF-8, line ends as
    given) through the walk; it must equal the outcome through the
    general parser."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "aut.json"
        path.write_bytes(text.encode("utf-8"))
        mp.setattr(_lanes, "_SLICE", slice_size)
        mp.setattr(_lanes, "_READ", read_size)
        walked = outcome(group, path)
        mp.setattr(_lanes, "table_positions", lambda fh, orders: None)
        parsed = outcome(group, path)
    assert walked == parsed
    return walked


Z2Z3 = "2,3"
PAIRS = unit_table((2, 3), (1, 2))
BASE = document(permutation(PAIRS))
NOT_BIJECTION = [[a, [0, 0]] for a, _ in PAIRS]


def with_coordinate(value, pair: int = 3, side: int = 1, at: int = 1) -> str:
    """BASE with one coordinate's text replaced by ``value``."""
    pairs = json.loads(BASE)["generators"][0]["pairs"]
    pairs[pair][side][at] = "@"
    return document(permutation(pairs)).replace('"@"', value)


# pair 3 of BASE, (1, 0) -> (1, 0)
PAIR3 = "[[1, 0], [1, 0]]"
assert BASE.count(PAIR3) == 1
# BASE with each ", " between two pairs spaced as "] ]\t,\n" around its
# comma, which a slice cut takes in
CUT_SPACING = BASE.replace("]], [[", "] ]\t,\n[[")
TAB_INDENT = json.dumps(json.loads(BASE), indent="\t")
RANK_0 = document(permutation([[[], []]] * 3))

FIXED = {
    "base": (Z2Z3, BASE),
    "nbsp-after-brace": (Z2Z3, "{\u00a0" + BASE[1:]),
    "nbsp-between-pairs": (Z2Z3, BASE.replace("]], [[", "]],\u00a0[[", 1)),
    "vt-before-colon": (Z2Z3, BASE.replace('"generators":', '"generators"\x0b:')),
    "fs-in-pair": (Z2Z3, BASE.replace("], [", "],\x1c[", 1)),
    "fs-at-end": (Z2Z3, BASE + "\x1c"),
    "bom": (Z2Z3, "\ufeff" + BASE),
    "crlf": (Z2Z3, json.dumps(json.loads(BASE), indent=2).replace("\n", "\r\n")),
    "cr": (Z2Z3, json.dumps(json.loads(BASE), indent=1).replace("\n", "\r")),
    "bool": (Z2Z3, with_coordinate("true")),
    "float": (Z2Z3, with_coordinate("2.0")),
    "exponent": (Z2Z3, with_coordinate("2e0")),
    "nan": (Z2Z3, with_coordinate("NaN")),
    "nested": (Z2Z3, with_coordinate("[2]")),
    "string": (Z2Z3, with_coordinate('"2"')),
    "negative": (Z2Z3, with_coordinate("-1")),
    "minus-zero": (Z2Z3, with_coordinate("-0")),
    "leading-zero": (Z2Z3, with_coordinate("01")),
    "minus-space": (Z2Z3, with_coordinate("- 1")),
    "two-numbers": (Z2Z3, with_coordinate("1 2")),
    "plus": (Z2Z3, with_coordinate("+1")),
    "capital-exponent": (Z2Z3, with_coordinate("1E0")),
    "infinity": (Z2Z3, with_coordinate("Infinity")),
    "minus-infinity": (Z2Z3, with_coordinate("-Infinity")),
    "empty-token": (Z2Z3, with_coordinate("", at=0)),
    "letter-d": (Z2Z3, with_coordinate("d")),
    "empty-element": (Z2Z3, BASE.replace(PAIR3, "[[1, 0], []]")),
    # a number outside its element's array, its place in the array left empty
    "number-before-element": (Z2Z3, BASE.replace(PAIR3, "[1[, 0], [1, 0]]")),
    "number-after-element": (Z2Z3, BASE.replace(PAIR3, "[[1, 0], [1, ]0]")),
    "number-between-elements": (Z2Z3, BASE.replace(PAIR3, "[[1, ]0, [1, 0]]")),
    "number-before-pair": (Z2Z3, BASE.replace(PAIR3, "1[[, 0], [1, 0]]")),
    "number-after-pair": (Z2Z3, BASE.replace(PAIR3, "[[1, 0], [1, ]]0")),
    "spaced-cuts": (Z2Z3, CUT_SPACING),
    "tab-indent": (Z2Z3, TAB_INDENT),
    "past-2^32": (Z2Z3, with_coordinate(str(2**32 + 2))),
    "4300-digits": (Z2Z3, with_coordinate("3" * 4300)),
    # the numbers a slice holds one a byte run to 99; 100, and a leading
    # zero, are left to ``json.loads``
    "99": (Z2Z3, with_coordinate("99")),
    "100": (Z2Z3, with_coordinate("100")),
    "05": (Z2Z3, with_coordinate("05")),
    "00": (Z2Z3, with_coordinate("00")),
    # 100 = 1 mod 3: the table is unchanged, but its last slice holds 3 digits
    "three-digits-last": (Z2Z3, with_coordinate("100", pair=len(PAIRS) - 1)),
    # two numbers in a slot next to an empty one: as many digit runs as slots
    "split-beside-empty-slot": (Z2Z3, BASE.replace(PAIR3, "[[1 2, ], [1, 0]]")),
    "lf-indent": (Z2Z3, json.dumps(json.loads(BASE), indent=2)),
    "4301-digits": (Z2Z3, with_coordinate("3" * 4301)),
    "wrong-rank": (Z2Z3, BASE.replace("[1, 2]]", "[1, 2, 0]]", 1)),
    "short-pair": (Z2Z3, BASE.replace("[[1, 2], [1, 1]], ", "[[1, 2]], ")),
    "extra-key": (Z2Z3, BASE.replace("]]]}", ']]], "note": 1}')),
    "duplicate-key": (Z2Z3, BASE.replace("]]]}", ']]], "pairs": []}')),
    "reordered-keys": (Z2Z3, json.dumps(
        {"generators": [{"pairs": PAIRS, "kind": "permutation"}]})),
    "extra-top-key": (Z2Z3, BASE[:-1] + ', "more": []}'),
    "duplicate-generators": (Z2Z3, BASE[:-1] + ', "generators": []}'),
    "trailing-garbage": (Z2Z3, BASE + "x"),
    "trailing-bracket": (Z2Z3, BASE + "]"),
    "truncated": (Z2Z3, BASE[:-1]),
    "truncated-in-pairs": (Z2Z3, BASE[:len(BASE) // 2]),
    "two-permutations": (Z2Z3, document(permutation(PAIRS), permutation(PAIRS[::-1]))),
    "second-not-bijection": (Z2Z3, document(permutation(PAIRS), permutation(NOT_BIJECTION))),
    "matrix-then-permutation": (
        "3,3", document({"kind": "matrix", "entries": [[0, 1], [1, 0]]},
                        permutation(unit_table((3, 3), (2, 2))))),
    "permutation-then-matrix": (
        "3,3", document(permutation(unit_table((3, 3), (2, 2))),
                        {"kind": "matrix", "entries": [[0, 1], [1, 0]]})),
    "empty-pairs": (Z2Z3, document(permutation([]))),
    "no-generators": (Z2Z3, document()),
    "top-level-list": (Z2Z3, json.dumps([permutation(PAIRS)])),
    "trivial-group": ("", document(permutation([[[], []]]))),
    "rank-0-pairs": ("", RANK_0),
    "rank-0-number": ("", document(permutation([[[], []], [[0], []]]))),
    # 5 x 2^20 entries, above MAX_ACTION_ENTRIES = 2^22
    "over-the-entry-cap": (",".join(["2"] * 20), document(*[permutation([])] * 5)),
    "over-the-order-cap": ("2097152", document(permutation([[[0], [0]]]))),
    # x -> 2x on Z/5, the images 1 -> 7, 3 -> 6, 4 -> 8 written past the order
    "images-past-the-order": ("5", document(permutation(
        [[[x], [y]] for x, y in enumerate([0, 7, 4, 6, 8])]))),
}


@pytest.mark.parametrize("read_size", READS)
@pytest.mark.parametrize("slice_size", SLICES)
@pytest.mark.parametrize("case", sorted(FIXED))
def test_walk_matches_the_general_parser(case, slice_size, read_size):
    group, text = FIXED[case]
    both_paths(group, text, slice_size, read_size)


GOLDEN_TABLES = sorted(name for name, (argv, _) in CASES.items()
                       if name.startswith("components-") and "--aut" in argv)


@pytest.mark.parametrize("slice_size", SLICES)
@pytest.mark.parametrize("case", GOLDEN_TABLES)
def test_walk_matches_the_general_parser_on_golden_files(case, slice_size):
    argv, code = CASES[case]
    group, path = argv[argv.index("--group") + 1], Path(argv[argv.index("--aut") + 1])
    assert both_paths(group, path.read_text(encoding="utf-8"), slice_size)[0] == code


@pytest.mark.parametrize("case", ["nbsp-after-brace", "vt-before-colon", "fs-at-end"])
def test_non_json_whitespace_is_malformed_input(case):
    code, out, _ = both_paths(*FIXED[case], _lanes._SLICE)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "malformed-input"


@pytest.mark.parametrize("slice_size", SLICES)
def test_images_past_the_order_are_reduced(slice_size):
    code, _, gens = both_paths(*FIXED["images-past-the-order"], slice_size)
    assert code == 0
    assert [tuple(perm) for perm in gens] == [(0, 2, 4, 1, 3)]


@pytest.mark.parametrize("read_size", READS)
@pytest.mark.parametrize("slice_size", SLICES)
def test_valid_cases_take_the_walk(monkeypatch, slice_size, read_size):
    monkeypatch.setattr(_lanes, "_SLICE", slice_size)
    monkeypatch.setattr(_lanes, "_READ", read_size)
    for case in ["base", "crlf", "cr", "lf-indent", "negative", "minus-zero", "past-2^32",
                 "4300-digits", "99", "100", "three-digits-last", "spaced-cuts", "tab-indent",
                 "two-permutations", "trivial-group", "rank-0-pairs", "images-past-the-order"]:
        group, text = FIXED[case]
        orders = cli._parse_group(group).cyclic_orders
        assert _lanes.table_positions(io.BytesIO(text.encode("utf-8")), orders) is not None, case


def walk(text: str, read_size: int, slice_size: int = _lanes._SLICE) -> list | None:
    """`table_positions` of ``text`` on Z/2 x Z/3, read ``read_size``
    bytes at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_lanes, "_READ", read_size)
        mp.setattr(_lanes, "_SLICE", slice_size)
        return _lanes.table_positions(io.BytesIO(text.encode("utf-8")), (2, 3))


# JSON whitespace, longer than any window of the walks below
LONG_RUN = " \n\t\r" * 100


def _in_run(text: str, before: str) -> tuple[str, int]:
    """``text`` with `LONG_RUN` put just before the first ``before``, and
    an offset in the middle of the run."""
    at = text.index(before)
    return text[:at] + LONG_RUN + text[at:], at + len(LONG_RUN) // 2


INDENTED = json.dumps(json.loads(BASE), indent=2)

# a file of BASE's table, and an offset a read boundary is put around
BOUNDARIES = {
    "pair-cut": (BASE, BASE.index("]], [[") + 1),
    "pair-cut-comma": (BASE, BASE.index("]], [[") + 2),
    "closing-brackets": (BASE, BASE.index("]]]") + 1),
    "closing-last-bracket": (BASE, BASE.index("]]]") + 2),
    "trailing-brace": (BASE, len(BASE) - 1),
    "eof": (BASE, len(BASE)),
    "run-in-head": _in_run(BASE, ":"),
    "run-between-pairs": _in_run(BASE, "[[1, 0]"),
    "run-in-a-cut": _in_run(BASE, ", [[1, 0]"),
    "run-after-the-array": _in_run(BASE, "}]}"),
    "run-before-eof": (BASE + LONG_RUN, len(BASE) + len(LONG_RUN) // 2),
    "indented": (INDENTED, INDENTED.index("]\n        ],\n") + 1),
    "indented-closing": (INDENTED, INDENTED.index("]\n      ]\n    }") + 1),
}


@pytest.mark.parametrize("slice_size", SLICES)
@pytest.mark.parametrize("case", sorted(BOUNDARIES))
def test_read_boundaries_leave_the_positions_as_a_whole_read(case, slice_size):
    text, at = BOUNDARIES[case]
    whole = walk(text, len(text) + 1, slice_size)  # the whole file in one read
    assert whole is not None and whole == walk(BASE, len(BASE) + 1)
    for read_size in {1, 2, 3, *range(max(at - 2, 1), at + 3)}:
        assert walk(text, read_size, slice_size) == whole, read_size


def test_read_boundaries_leave_the_slices_as_a_whole_read(monkeypatch):
    # BASE has no run of two whitespace bytes, so the window cuts none
    # short: a cut is found where a whole read finds it, even when a read
    # boundary falls inside it
    parts = []
    real = _lanes._pair_count
    monkeypatch.setattr(_lanes, "_pair_count",
                        lambda part, rank: parts.append(part) or real(part, rank))
    walk(BASE, len(BASE) + 1, 7)
    whole, parts[:] = parts[:], []
    assert len(whole) > 3
    for read_size in range(1, len(BASE) + 1):
        walk(BASE, read_size, 7)
        assert parts == whole, read_size
        parts.clear()


def test_a_long_whitespace_run_keeps_the_window_small(monkeypatch):
    # 100 KB of whitespace in a cut and 100 KB before the end of the file,
    # read 64 bytes at a time: the window cuts each run short as it reads
    # on, so it never holds more than a few reads
    run = LONG_RUN * 250
    text = BASE.replace("]], [[", "]]" + run + ", [[", 1) + run
    sizes = []
    real = _lanes._Window.more
    monkeypatch.setattr(_lanes._Window, "more",
                        lambda window: sizes.append(len(window.data)) or real(window))
    assert walk(text, 64, 7) == walk(BASE, len(BASE) + 1)
    assert len(sizes) > len(text) // 64
    assert max(sizes) < 4 * 64


@pytest.mark.parametrize("text", [BASE[:-1], BASE[:BASE.index("]]]") + 2], BASE[:len(BASE) // 2],
                                  BASE + "x", BASE + LONG_RUN + "x"])
def test_truncated_or_trailing_bytes_are_refused_at_every_read_size(text):
    for read_size in [*range(1, 9), len(text) + 1]:
        assert walk(text, read_size) is None, read_size


@pytest.mark.parametrize("missing", [True, False])
def test_an_unreadable_path_cannot_be_read(tmp_path, missing):
    # a missing file, or a directory, which opens on neither path
    path = tmp_path / "missing.json" if missing else tmp_path
    walked = outcome(Z2Z3, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_lanes, "table_positions", lambda fh, orders: None)
        assert outcome(Z2Z3, path) == walked
    code, out, (kind, message, _) = walked
    assert code == 2 and kind is MalformedInputError
    assert message.startswith(f"cannot read {path}: ")
    assert json.loads(out)["error"]["message"] == message


def _stdout(group: str, path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["components", "--group", group, "--d", "2", "--aut", str(path)])
    return code, out.getvalue().replace(str(path), "PATH")


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="pipes are opened through /dev/fd")
@pytest.mark.parametrize("case", ["base", "two-permutations", "matrix-then-permutation",
                                  "trailing-garbage", "truncated"])
def test_a_pipe_reads_as_a_file(tmp_path, case):
    # a pipe cannot be read twice, so the walk and the general parser read
    # one copy of it, and it gives what the same bytes in a file give
    group, text = FIXED[case]
    path = tmp_path / "aut.json"
    path.write_bytes(text.encode("utf-8"))
    r, w = os.pipe()
    try:
        os.write(w, text.encode("utf-8"))
        os.close(w)
        assert _stdout(group, f"/dev/fd/{r}") == _stdout(group, path)
    finally:
        os.close(r)


GROUPS = [(2, 3), (4,), (3, 3), (2, 2, 2), ()]
SNIPPETS = [" ", "\t", "\n", "\r\n", "\u00a0", "\x0b", "\x1c", "\ufeff", ",", "[", "]",
            "{", "}", ":", "0", "-", "1.5", "true", '"x"', "[0]", "]]", "]],", "]]]",
            "99", "100", "05"]
ODD_VALUES = [True, False, 1.0, -1, 2**32 + 3, 10**30, [0], None, "0"]


@st.composite
def table_files(draw):
    orders = draw(st.sampled_from(GROUPS))
    specs = []
    for _ in range(draw(st.integers(0, 3))):
        if orders and draw(st.integers(0, 5)) == 0:
            specs.append({"kind": "matrix", "entries": [
                [int(i == j) for j in range(len(orders))] for i in range(len(orders))]})
            continue
        units = [draw(st.sampled_from([u for u in range(1, n) if u % 2 or n % 2]))
                 for n in orders]
        pairs = unit_table(orders, units)
        pairs = draw(st.permutations(pairs)) if draw(st.booleans()) else pairs
        edit = draw(st.sampled_from(["none", "none", "value", "rank", "drop", "swap"]))
        if pairs and orders and edit != "none":
            k = draw(st.integers(0, len(pairs) - 1))
            side = draw(st.integers(0, 1))
            if edit == "value":
                pairs[k][side][0] = draw(st.sampled_from(ODD_VALUES))
            elif edit == "rank":
                pairs[k][side].append(0)
            elif edit == "drop":
                del pairs[k]
            else:
                pairs[k][1], pairs[0][1] = pairs[0][1], pairs[k][1]
        specs.append(permutation(pairs))
    text = json.dumps({"generators": specs},
                      indent=draw(st.sampled_from([None, 0, 2, "\t"])),
                      separators=draw(st.sampled_from([None, (",", ":"), (" , ", " : ")])))
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["insert", "insert", "delete", "truncate", "move", "move"]))
        numbers = [m.span() for m in re.finditer(r"-?[0-9]+", text)]
        if how == "move" and numbers:  # a number taken out and put back nearby
            a, b = draw(st.sampled_from(numbers))
            number, text = text[a:b], text[:a] + text[b:]
            at = min(max(a + draw(st.sampled_from([-2, -1, 1, 2])), 0), len(text))
            text = text[:at] + number + text[at:]
            continue
        at = draw(st.integers(0, len(text)))
        if how == "insert":
            text = text[:at] + draw(st.sampled_from(SNIPPETS)) + text[at:]
        elif how == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at]
    return ",".join(map(str, orders)), text


@settings(max_examples=150, deadline=None)
@given(table_files(), st.sampled_from(SLICES), st.sampled_from(READS))
def test_walk_matches_the_general_parser_on_any_file(file, slice_size, read_size):
    both_paths(*file, slice_size, read_size)


def _walked(monkeypatch, group: str, path: Path) -> list:
    """The perms `_load_generators` reads from ``path`` with `_load_json`
    made to fail, so only the walk can read it."""
    def refuse(path):
        raise AssertionError("the general parser was called")

    monkeypatch.setattr(cli, "_load_json", refuse)
    return [g.perm for g in cli._load_generators(cli._parse_group(group), path)]


@pytest.mark.parametrize("slice_size", [1000, _lanes._SLICE, 1 << 22])
def test_two_large_tables_take_the_walk(tmp_path, monkeypatch, slice_size):
    # the cut after a slice must not be sought past the end of the first
    # array, in the pairs of the next spec
    orders = (16, 27, 25)
    tables = [unit_table(orders, (5, 2, 3)), unit_table(orders, (3, 5, 7))[::-1]]
    path = tmp_path / "two.json"
    path.write_text(document(*map(permutation, tables)), encoding="utf-8")
    assert path.stat().st_size > 2 * _lanes._SLICE
    monkeypatch.setattr(_lanes, "_SLICE", slice_size)
    G = FiniteAbelianGroup(orders)
    assert _walked(monkeypatch, "16,27,25", path) == [
        AutAction.from_table(G, pairs).perm for pairs in tables]


def test_small_coordinates_are_read_without_json(tmp_path, monkeypatch):
    # coordinates of at most 2 digits are decoded a byte a number, so the
    # walk reads them with `json.loads` made to fail inside `_lanes`
    def refuse(text):
        raise AssertionError("json.loads was called")

    pairs = unit_table((16, 27, 25), (5, 2, 3))
    path = tmp_path / "small.json"
    path.write_text(document(permutation(pairs)), encoding="utf-8")
    monkeypatch.setattr(_lanes, "json", SimpleNamespace(loads=refuse))
    assert _walked(monkeypatch, "16,27,25", path) == [
        AutAction.from_table(FiniteAbelianGroup((16, 27, 25)), pairs).perm]


def test_three_digit_coordinates_take_the_walk(tmp_path, monkeypatch):
    pairs = unit_table((125, 9, 7), (2, 5, 3))
    path = tmp_path / "three-digits.json"
    path.write_text(document(permutation(pairs)), encoding="utf-8")
    assert path.stat().st_size > 2 * _lanes._SLICE
    assert _walked(monkeypatch, "125,9,7", path) == [
        AutAction.from_table(FiniteAbelianGroup((125, 9, 7)), pairs).perm]


def test_small_numbers_match_json_on_every_short_string():
    # every string of up to 6 characters over digits, commas and
    # whitespace, its slots counted by its commas: the lane decode gives
    # the numbers ``json.loads`` gives, or None, and None only where some
    # number is past 99 or ``json.loads`` refuses the string
    for size in range(7):
        for chars in product("0159, \n", repeat=size):
            s = "".join(chars)
            got = _lanes._small_numbers(s.encode(), s.count(",") + 1)
            try:
                want = json.loads("[" + s + "]")
            except ValueError:
                want = None
            if want is not None and (len(want) != s.count(",") + 1 or max(want) > 99):
                want = None
            assert (None if got is None else list(got)) == want, s


def test_indented_table_takes_the_walk(tmp_path, monkeypatch):
    pairs = unit_table((4, 3, 5), (3, 2, 2))
    path = tmp_path / "indented.json"
    path.write_text(json.dumps({"generators": [permutation(pairs)]}, indent=2), encoding="utf-8")
    assert _walked(monkeypatch, "4,3,5", path) == [
        AutAction.from_table(FiniteAbelianGroup((4, 3, 5)), pairs).perm]


@pytest.mark.parametrize("enabled", [True, False])
def test_walk_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    path = tmp_path / "aut.json"
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for text, code in ((BASE, 0), (BASE + "x", 2)):  # walked, and refused partway
            path.write_text(text, encoding="utf-8")
            assert cli.main(["components", "--group", "2,3", "--d", "2", "--aut", str(path),
                             "--out", str(tmp_path / "out.json")]) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
