"""`plurican.cli._emit`, which writes every document with one
``json.dumps(indent=2, sort_keys=True)``: the `_Written` text it splices in,
the digit limit, and an `ast` guard that this call is the package's only
JSON writer."""

import ast
import json
import re
import sys
from pathlib import Path
from types import GeneratorType

import pytest

import plurican
from plurican import cli
from plurican.arrangements import _key_json, _points_json
from plurican.cli import _emit, _Written
from plurican.errors import MalformedInputError


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


def written_points(points) -> _Written:
    """The `points` array of ``points`` as the `incidences` command writes it."""
    return _Written(_points_json(points))


def points_dicts(points) -> list:
    return [{"coords": _key_json(key), "lines": list(lines), "multiplicity": len(lines)}
            for key, lines in points]


ONE_POINT = [((1, 0, 0, 0, 0, 0), (0, 1))]


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, [(), {}, []], "", 0, True, None,
    {"b": [1, (2, [3])], "a": {"é\t\ud800": [True, False, None]}},
])
def test_fixed_values_match_json_dumps(value, monkeypatch):
    # each value on both sides of a spliced `_Written` value
    text = emitted(monkeypatch, {"a": value, "points": written_points(ONE_POINT), "z": value})
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
    text = emitted(monkeypatch, {"a": [1], "points": written_points(ONE_POINT), "z": "end"})
    assert text == dumped({"a": [1], "points": [
        {"coords": [[[1, 1]], [[0, 1]], [[0, 1]]], "lines": [0, 1], "multiplicity": 2}
    ], "z": "end"})
    assert emitted(monkeypatch, {"points": written_points(())}) == dumped({"points": []})


def test_marker_text_without_a_written_value_is_not_split(monkeypatch):
    payload = {"error": {"message": cli._MARK}}
    assert emitted(monkeypatch, payload) == dumped(payload)


def test_points_past_the_digit_limit_raise_before_any_write(monkeypatch):
    limit = sys.get_int_max_str_digits()
    points = [((1, 0, 0, 0, 0, 0), (0, 1)), ((1, 0, 10**limit, 0, 0, 0), (0, 2))]
    # `_points_json` raises when called, not when its parts are read, so
    # `cmd_incidences` fails before it hands `_emit` anything to write
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
    monkeypatch.setattr(cli, "_CHUNK_PARTS", 1)
    limit = sys.get_int_max_str_digits()
    p, q = 10 ** (limit - 1), 10 ** (limit - 1) + 1
    for points, parts in [
        ([((1, 0, 0, 0, 0, 0), (0, 1)), ((0, 0, 3, 0, 1, -2), (0, 2, 3))], GeneratorType),
        # the largest entry p q does not print, but the reduced p and q do:
        # the parts are made in full before any is written
        ([((p * q, 0, p, 0, q, 0), (0, 1))], list),
    ]:
        assert type(_points_json(points)) is parts
        value = {"a": [1], "points": written_points(points), "z": "end"}
        assert emitted(monkeypatch, value) == dumped(
            {"a": [1], "points": points_dicts(points), "z": "end"})
        assert emitted(monkeypatch, {"points": written_points(points)}) == dumped(
            {"points": points_dicts(points)})


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
