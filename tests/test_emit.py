"""`plurican.cli._emit`, which writes every document with one
``json.dumps(indent=2, sort_keys=True)``: the streamed text it splices in,
the digit limit, the peak memory of a streamed `incidences`, an `ast` guard
that this call is the package's only JSON writer, and one that `cli._run`
alone pauses the cyclic collector."""

import ast
import json
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import GeneratorType

import pytest

import plurican
from plurican import arrangements, cli
from plurican.arrangements import _key_json, _points_json, compute_incidences, load_arrangement
from plurican.cli import _emit, main
from plurican.errors import MalformedInputError
from test_arrangements import tangent_lines


class Recorder:
    """A stdout that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def emitted(monkeypatch, payload) -> str:
    """The text `_emit` writes to stdout for ``payload``."""
    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    _emit(payload, None)
    return "".join(stdout.writes)


def dumped(payload) -> str:
    """The document of ``payload`` as ``json.dumps`` writes it, and a newline."""
    return json.dumps({"schema": "plurican/1", **payload}, indent=2, sort_keys=True) + "\n"


def points_dicts(points) -> list:
    return [{"coords": _key_json(key), "lines": list(lines), "multiplicity": len(lines)}
            for key, lines in points]


ONE_POINT = [((1, 0, 0, 0, 0, 0), (0, 1))]


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, [(), {}, []], "", 0, True, None,
    {"b": [1, (2, [3])], "a": {"é\t\ud800": [True, False, None]}},
])
def test_fixed_values_match_json_dumps(value, monkeypatch):
    # each value on both sides of a spliced stream
    text = emitted(monkeypatch, {"a": value, "points": _points_json(ONE_POINT), "z": value})
    assert text == dumped({"a": value, "points": points_dicts(ONE_POINT), "z": value})


def test_integer_past_the_digit_limit_is_malformed_input(monkeypatch):
    limit = sys.get_int_max_str_digits()
    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(MalformedInputError) as err:
        _emit({"points": [[1, 10**limit]]}, None)
    assert stdout.writes == []
    assert err.value.details == {"limit": limit}
    assert not re.search("[0-9]{10}", str(err.value))  # the integer is not quoted
    # one digit fewer still prints
    assert emitted(monkeypatch, {"n": [10**limit - 1]}) == dumped({"n": [10**limit - 1]})


def test_points_writer_past_the_digit_limit_is_malformed_input():
    # MAX_COEFFICIENT_BITS keeps real keys far below the limit; a key built
    # by hand still meets the writer's own check
    limit = sys.get_int_max_str_digits()
    key = (1, 0, 10**limit, 0, 0, 0)
    with pytest.raises(MalformedInputError) as err:
        list(_points_json([(key, (0, 1))]))
    assert err.value.details == {"limit": limit}
    assert not re.search("[0-9]{10}", str(err.value))
    one_fewer = [((1, 0, 10**limit - 1, 0, 0, 0), (0, 1))]
    assert len("".join(_points_json(one_fewer))) > limit


def test_written_value_is_spliced_between_keys(monkeypatch):
    text = emitted(monkeypatch, {"a": [1], "points": _points_json(ONE_POINT), "z": "end"})
    assert text == dumped({"a": [1], "points": [
        {"coords": [[[1, 1]], [[0, 1]], [[0, 1]]], "lines": [0, 1], "multiplicity": 2}
    ], "z": "end"})
    assert emitted(monkeypatch, {"points": _points_json(())}) == dumped({"points": []})


def test_marker_text_without_a_written_value_is_not_split(monkeypatch):
    payload = {"error": {"message": cli._MARK}}
    assert emitted(monkeypatch, payload) == dumped(payload)


def test_points_past_the_digit_limit_raise_before_any_write(monkeypatch):
    limit = sys.get_int_max_str_digits()
    points = [((1, 0, 0, 0, 0, 0), (0, 1)), ((1, 0, 10**limit, 0, 0, 0), (0, 2))]
    # `_points_json` raises when called, not when its parts are read, so
    # `commands.incidences.run` fails before it hands `_emit` anything to write
    with pytest.raises(MalformedInputError) as err:
        _points_json(points)
    assert err.value.details == {"limit": limit}
    # the dict form meets the same error in json.dumps, before any write
    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(MalformedInputError) as again:
        _emit({"command": "incidences", "points": points_dicts(points)}, None)
    assert stdout.writes == []
    assert (str(again.value), again.value.details) == (str(err.value), err.value.details)


def test_deferred_points_give_the_whole_text(monkeypatch):
    points = [((1, 0, 0, 0, 0, 0), (0, 1)), ((0, 0, 3, 0, 1, -2), (0, 2, 3)),
              ((1, 0, 2, 0, 5, 0), (1, 2)), ((3, 0, 1, 1, 0, 0), (2, 3))]
    for chunk_points in (1, 2, 3, 4, 256):  # batches that split the points, or not
        monkeypatch.setattr(arrangements, "_CHUNK_POINTS", chunk_points)
        assert type(_points_json(points)) is GeneratorType
        value = {"a": [1], "points": _points_json(points), "z": "end"}
        assert emitted(monkeypatch, value) == dumped(
            {"a": [1], "points": points_dicts(points), "z": "end"})
        assert emitted(monkeypatch, {"points": _points_json(points)}) == dumped(
            {"points": points_dicts(points)})


def test_points_with_a_largest_entry_past_the_limit_raise():
    # the largest entry p q does not print, though the reduced p and q would:
    # the check is on the key entries, before any text is made
    limit = sys.get_int_max_str_digits()
    p, q = 10 ** (limit - 1), 10 ** (limit - 1) + 1
    with pytest.raises(MalformedInputError) as err:
        _points_json([((p * q, 0, p, 0, q, 0), (0, 1))])
    assert err.value.details == {"limit": limit}


def deep_size(obj, seen) -> int:
    """``sys.getsizeof`` summed over ``obj`` and the tuples and ints it
    holds, each object once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if type(obj) is tuple:
        size += sum(deep_size(item, seen) for item in obj)
    return size


# The tracemalloc peak of `incidences` on 150 tangents (11175 points, 3.8 MB
# of text) over the size of its report, as this test measures it (Python
# 3.11): 2.09 (5.50 MB over 2.64 MB) when a 4096-point batch of text and a
# list of six shifted ints per point to sort by set the peak, 1.32 (3.48 MB)
# with 256-point batches, one int per point and the points' line lists freed
# as their tuples are made.
PEAK_RATIO_BOUND = 1.8


def test_incidences_peak_is_a_small_multiple_of_its_report(tmp_path, monkeypatch):
    data = tangent_lines(150)
    path = tmp_path / "tangents.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    report = compute_incidences(load_arrangement(data))
    kept = deep_size(report.points, set())
    del report
    with tempfile.TemporaryFile("w+", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            assert main(["incidences", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tell() > 3_500_000
    assert peak < PEAK_RATIO_BOUND * kept, f"peak {peak / 1e6:.2f} MB, report {kept / 1e6:.2f} MB"


def _json_writes(tree: ast.AST):
    """Yield (line, name) for every json.dump/json.dumps call or attribute,
    and for every import of either from json."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            yield node.lineno, node.attr
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            for alias in node.names:
                if alias.name in ("dump", "dumps"):
                    yield node.lineno, alias.name


def test_guard_finds_every_spelling():
    src = ("json.dumps(x)\njson.dump(x, fh)\nfrom json import dumps\n"
           "from json import load, dump as d\nf = json.dumps\n")
    assert sorted(_json_writes(ast.parse(src))) == [
        (1, "dumps"), (2, "dump"), (3, "dumps"), (4, "dump"), (5, "dumps")]
    assert not list(_json_writes(ast.parse(
        "json.load(fh)\njson.loads(s)\nfrom json.encoder import encode_basestring_ascii\n")))


def test_json_dumps_is_the_only_writer():
    # one JSON writer: a single json.dumps, in `cli._emit`, and no json.dump
    package = Path(plurican.__file__).parent
    found = [
        (path.name, name)
        for path in sorted(package.rglob("*.py"))
        for _, name in _json_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("cli.py", "dumps")]


def _collector_pauses(tree: ast.Module):
    """Yield (top-level definition or None, name) for every gc.disable or
    gc.freeze attribute, and for every import of either from gc."""
    for top in tree.body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in ("disable", "freeze")
                    and isinstance(node.value, ast.Name) and node.value.id == "gc"):
                yield where, node.attr
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                for alias in node.names:
                    if alias.name in ("disable", "freeze"):
                        yield where, alias.name


def test_collector_guard_finds_every_spelling():
    src = ("gc.freeze()\ndef f():\n    gc.disable()\nclass C:\n    off = gc.disable\n"
           "from gc import enable, disable as d\n")
    assert list(_collector_pauses(ast.parse(src))) == [
        (None, "freeze"), ("f", "disable"), ("C", "disable"), (None, "disable")]
    assert not list(_collector_pauses(ast.parse("gc.enable()\ngc.isenabled()\ngc.collect()\n")))


def test_only_run_pauses_the_collector():
    # one collector policy: `cli._run` pauses it for the whole command and,
    # before the process exits, freezes what is left
    package = Path(plurican.__file__).parent
    found = [
        (path.name, where, name)
        for path in sorted(package.rglob("*.py"))
        for where, name in _collector_pauses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("cli.py", "_run", "disable"), ("cli.py", "_run", "freeze")]
