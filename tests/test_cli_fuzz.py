"""Fuzz of the CLI exit-code contract on near-valid input files and on
whole command lines.

Each file example takes a valid arrangement or automorphism file and changes one
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

import pytest
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


# --- command lines ----------------------------------------------------------
#
# Every subcommand, its options in any order and any subset, each value a
# valid one or junk: underscores, whitespace, signs, non-ASCII digits, floats,
# 700- and 701-digit integers (`cli.MAX_DIGITS` is 700), and files that are
# valid, missing, a directory or malformed.  Whatever the command line, main
# must exit 0, 1 or 2 (never 3, an internal error such as a missing import),
# with one `plurican/1` document and nothing on stderr.

BIG = "9" * 700
NUMBERS = ["0", "1", "2", "3", "5", "-1", "-3", BIG, "-" + BIG, "9" * 701, "1" + "0" * 699]
JUNK = ["", " ", "x", "1_0", " 2", "2 ", "+2", "\u0663", "2.0", "nan", "0x10", "--", "-",
        "--bogus", "-x", "--workers"]
FILES = {  # name -> content; "missing" and "directory" are paths only
    "empty": "",
    "not-json": "{",
    "not-utf8": b"\xff\xfe\x00",
    "deep": "[" * 100_000,
    "long-int": "[" + "9" * 5000 + "]",
    "null": "null",
    "wrong-shape": '{"field": "Q", "lines": 3, "generators": 3}',
    "bad-generator": '{"generators": [{"kind": "matrix", "entries": [[1, 2], [3]]}]}',
}
VALID_FILES = [
    *(str(resources.files("plurican").joinpath("data", f"{name}.json"))
      for name in ("dual-hesse", "campedelli-generic", "extension-type1")),
    str(GOLDEN / "aut-z3-squared.json"),
    str(GOLDEN / "aut-z2-z4.json"),
]

numbers = st.sampled_from(NUMBERS * 2 + JUNK)  # mostly numbers, so that some commands run
groups = st.one_of(
    st.lists(st.sampled_from(["1", "2", "3", "4", "5", "0", BIG, "9" * 701]),
             max_size=3).map(",".join),
    st.sampled_from(JUNK + ["2,,2", "2, 2", "3_0", ","]),
)


def files(root: Path):
    names = list(FILES) + ["missing", "directory"]
    return st.one_of(st.sampled_from(VALID_FILES),
                     st.sampled_from([str(root / n) for n in names]), st.sampled_from(JUNK))


def command_lines(root: Path, commands: list[str], recipes: list[str]) -> st.SearchStrategy:
    """argv for one of `commands`: its required options (each left out with
    probability 1/8) and optional ones (each given with probability 1/2), in
    any order, its positional arguments and maybe one junk word."""
    report, unwritable = str(root / "report.json"), str(root / "missing" / "report.json")
    common = {"--workers": st.sampled_from(["1", "2", "4"] * 4 + NUMBERS + JUNK),
              "--out": st.sampled_from([report] * 3 + [unwritable])}
    specs = {  # command -> (required options, optional options, positional)
        "verify-lemma-ev": ({}, {}, []),
        "invariants": ({"--d": numbers, "--m": numbers},
                       {"--pa": numbers, "--k2": numbers, "--q": numbers,
                        "--surface": st.sampled_from(["campedelli", "burniat-3", "nope", ""])},
                       []),
        "components": ({"--group": groups, "--d": numbers},
                       {"--m": numbers, "--aut": files(root)}, []),
        "check-arrangement": ({}, {"--mode": st.sampled_from(["campedelli", "extension", "x"])},
                              [files(root)]),
        "incidences": ({}, {}, [files(root)]),
        "catalog": ({}, {}, []),
        "reproduce": ({}, {"--d": numbers, "--m": numbers}, [st.sampled_from(recipes + ["nope"])]),
    }

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(commands))
        required, optional, positional = specs[command]
        words = [[opt, draw(value)] for opt, value in required.items()
                 if draw(st.sampled_from([True] * 7 + [False]))]
        words += [[opt, draw(value)] for opt, value in {**common, **optional}.items()
                  if draw(st.booleans())]
        words += [[draw(p)] for p in positional]
        if draw(st.sampled_from([False] * 3 + [True])):
            words.append([draw(st.sampled_from(JUNK))])
        words = draw(st.permutations(words))
        return [command] + [w for group in words for w in group]

    return argv()


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("argv-fuzz")
    for name, content in FILES.items():
        path = root / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
    (root / "directory").mkdir()
    return root


def _run_one_document(root: Path, argv: list[str]) -> None:
    report = root / "report.json"
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert err.getvalue() == ""
    text = out.getvalue()
    if not text:  # written to --out instead
        text = report.read_text(encoding="utf-8")
    assert json.loads(text)["schema"] == "plurican/1"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_contract_on_any_command_line(fuzz_root, data):
    argv = data.draw(command_lines(
        fuzz_root, ["invariants", "components", "check-arrangement", "incidences", "catalog",
                    "reproduce"], ["cplus", "campedelli-cover", "burniat-cover", "mlp-cover"]))
    _run_one_document(fuzz_root, argv)


# a command line that runs the census costs ~0.1 s: few examples
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_contract_on_census_command_lines(fuzz_root, data):
    argv = data.draw(command_lines(
        fuzz_root, ["verify-lemma-ev", "reproduce"], ["lemma-ev", "camp1-moduli"]))
    _run_one_document(fuzz_root, argv)
