"""No check in the package may vanish under ``python -O``.

``-O`` strips every ``assert`` statement, so a consistency check written as
one would silently stop running; checks in `src/plurican` raise instead.
"""

import ast
import subprocess
import sys
from pathlib import Path

import plurican

GOLDEN = Path(__file__).parent / "golden"


def _assert_lines(tree: ast.AST) -> list[int]:
    """The line of every assert statement."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert))


def test_guard_finds_asserts():
    src = "assert x\nif y:\n    assert y, 'message'\ndef f():\n    assert z\n"
    assert _assert_lines(ast.parse(src)) == [1, 3, 5]
    assert _assert_lines(ast.parse("x = 'assert'\nassertion = 1\nself.assertEqual(a, b)\n")) == []


def test_no_assert_in_package():
    package = Path(plurican.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.rglob("*.py"))
        for line in _assert_lines(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_census_output_is_unchanged_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "plurican", "verify-lemma-ev"],
        capture_output=True, check=True,
    )
    assert proc.stdout == (GOLDEN / "verify-lemma-ev.json").read_bytes()
