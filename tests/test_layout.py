"""Only files under ``tests/`` are named ``test_*.py``.

The Tier-1 command collects every ``test_*.py`` under the repository root,
so a bench or tool script of that name would run as a test.  Hidden
directories are left out, as pytest leaves them out.  Structural only:
nothing is imported.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_test_files_live_in_tests():
    stray = [
        path.relative_to(ROOT).as_posix() for path in ROOT.rglob("test_*.py")
        if path.relative_to(ROOT).parts[0] != "tests"
        and not any(part.startswith(".") for part in path.relative_to(ROOT).parts)
    ]
    assert stray == []
