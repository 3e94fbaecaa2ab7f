"""`plurican.cli.json_text` against its oracle, ``json.dumps(indent=2,
sort_keys=True)``: the same text for every value the package can print; and
an `ast` guard that it is the package's only JSON writer."""

import ast
import json
import re
import sys
from enum import Enum, IntEnum
from pathlib import Path
from types import GeneratorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plurican
from plurican import cli
from plurican.arrangements import _key_json, _points_json
from plurican.cli import _emit, _Written, json_text
from plurican.errors import MalformedInputError
from plurican.evenclass import EvenSetTag


class Name(str):
    pass


class Count(int):
    pass


class Colour(str, Enum):
    RED = "réd"


class Level(IntEnum):
    HIGH = 10**30


characters = st.one_of(
    st.characters(),  # any code point but surrogates: non-ASCII, controls
    st.characters(max_codepoint=0x1F),
    st.characters(categories=["Cs"]),  # lone surrogates
)
strings = st.one_of(
    st.text(characters, max_size=6),
    st.builds(Name, st.text(characters, max_size=3)),
    st.sampled_from([*EvenSetTag, *Colour]),
)
integers = st.one_of(
    st.integers(-(10**6), 10**6),
    st.integers(-(10**4000), 10**4000),
    st.builds(Count, st.integers(-5, 5)),
    st.sampled_from([*Level]),
)
scalars = st.one_of(strings, integers, st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(characters, max_size=4), children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(values)
def test_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, [(), {}, []], "", 0, True, None,
    {"b": [1, (2, [3])], "a": {"é\t\ud800": [True, False, None]}},
])
def test_fixed_values_match_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, [0.0], {"a": float("nan")}, {1: 2}, {None: 0}, [object()],
                                   {1, 2}])
def test_floats_non_str_keys_and_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_integer_past_the_digit_limit_is_malformed_input():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(MalformedInputError) as err:
        json_text({"points": [[1, 10**limit]]})
    assert err.value.details == {"limit": limit}
    assert not re.search("[0-9]{10}", str(err.value))  # the integer is not quoted
    # one digit fewer still prints
    assert json_text([10**limit - 1]) == json.dumps([10**limit - 1], indent=2)


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


def test_written_text_only_at_its_depth():
    points = [((1, 0, 0, 0, 0, 0), (0, 1))]
    text = json_text({"points": _Written(_points_json(points), depth=1)})
    assert text == json.dumps({"points": [
        {"coords": [[[1, 1]], [[0, 1]], [[0, 1]]], "lines": [0, 1], "multiplicity": 2}
    ]}, indent=2)
    with pytest.raises(TypeError):
        json_text({"report": {"points": _Written(_points_json(points), depth=1)}})
    empty = _Written(_points_json(()), depth=1)
    assert json_text({"points": empty}) == '{\n  "points": []\n}'


def written_points(points) -> _Written:
    """The `points` array of ``points`` as the `incidences` command writes it."""
    return _Written(_points_json(points), depth=1)


def points_dicts(points) -> list:
    return [{"coords": _key_json(key), "lines": list(lines), "multiplicity": len(lines)}
            for key, lines in points]


class Recorder:
    """A stdout that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def test_points_past_the_digit_limit_leave_no_partial_document(monkeypatch):
    limit = sys.get_int_max_str_digits()
    points = [((1, 0, 0, 0, 0, 0), (0, 1)), ((1, 0, 10**limit, 0, 0, 0), (0, 2))]
    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(MalformedInputError) as err:
        _emit({"command": "incidences", "points": written_points(points)}, None)
    assert stdout.writes == []
    assert err.value.details == {"limit": limit}
    with pytest.raises(MalformedInputError) as again:
        json_text({"command": "incidences", "points": written_points(points)})
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
        assert json_text(value) == json.dumps(
            {"a": [1], "points": points_dicts(points), "z": "end"}, indent=2, sort_keys=True)
        stdout = Recorder()
        monkeypatch.setattr(sys, "stdout", stdout)
        _emit({"points": written_points(points)}, None)
        assert "".join(stdout.writes) == json_text(
            {"schema": "plurican/1", "points": points_dicts(points)}) + "\n"


def _json_writes(tree: ast.AST):
    """Yield the line of every json.dump/json.dumps call or attribute, and of
    every import of either from json."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            yield node.lineno
        if (isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(alias.name in ("dump", "dumps") for alias in node.names)):
            yield node.lineno


def test_guard_finds_every_spelling():
    src = ("json.dumps(x)\njson.dump(x, fh)\nfrom json import dumps\n"
           "from json import load, dump as d\nf = json.dumps\n")
    assert sorted(_json_writes(ast.parse(src))) == [1, 2, 3, 4, 5]
    assert not list(_json_writes(ast.parse(
        "json.load(fh)\njson.loads(s)\nfrom json.encoder import encode_basestring_ascii\n")))


def test_json_text_is_the_only_writer():
    package = Path(plurican.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.rglob("*.py"))
        for line in _json_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
