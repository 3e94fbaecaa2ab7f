"""Fuzz of the CLI exit-code contract on near-valid input files.

Each example takes a valid arrangement or automorphism file and changes one
to three of its nodes: a node is replaced by a bool, float, null, string,
integer or small container, dropped, or wrapped in a list.  Whatever the
input, `plurican.cli.main` must exit 0, 1 or 2, print exactly one
`plurican/1` JSON document and write nothing to stderr.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plurican.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _load(path) -> object:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _fixture(name: str) -> object:
    return _load(resources.files("plurican").joinpath("data", f"{name}.json"))


# (command line before the file argument, valid document)
BASES = [
    (["check-arrangement"], _fixture("campedelli-generic")),
    (["check-arrangement"], _fixture("extension-type1")),
    (["incidences"], _fixture("dual-hesse")),
    (["components", "--group", "3,3", "--d", "2", "--m", "3", "--aut"],
     _load(GOLDEN / "aut-z3-squared.json")),
    (["components", "--group", "2,4", "--d", "2", "--aut"], _load(GOLDEN / "aut-z2-z4.json")),
]

scalars = st.one_of(
    st.booleans(), st.none(), st.floats(), st.text(max_size=3),
    st.integers(-3, 3), st.sampled_from([10**20, -(10**20)]),
)
junk = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "entries", "pairs", "lines", "field"]),
                    scalars, max_size=2),
)


def _paths(node, path=()):
    yield path
    if isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))
    elif isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(junk)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    action = data.draw(st.sampled_from(["replace", "drop", "wrap"]))
    if action == "drop":
        del parent[key]
    elif action == "wrap":
        parent[key] = [parent[key]]
    else:
        parent[key] = data.draw(junk)
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(range(len(BASES))), st.integers(1, 3), st.data())
def test_cli_contract_on_near_valid_files(tmp_path_factory, base, mutations, data):
    argv, doc = BASES[base]
    doc = copy.deepcopy(doc)
    for _ in range(mutations):
        doc = _mutate(doc, data)
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, str(path)])
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    assert json.loads(out.getvalue())["schema"] == "plurican/1"
