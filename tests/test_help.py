"""``--help`` of the parser and of each subcommand compared byte for byte
with a committed capture.

``tests/help/<name>.txt`` holds the usage text of ``plurican --help``
(``plurican.txt``) or of ``plurican <name> --help`` at ``COLUMNS=80``, as
Python 3.11's argparse formats it.  The help text is the documentation of
every option, so a refactor of the parser must leave it as it was.  The
captures live outside ``tests/golden/``, whose JSON documents
``tools/golden_details_diff.py`` reads.  To rewrite them (only when a help
change is intended):

    PYTHONPATH=src python tests/test_help.py --write
"""

import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from plurican.cli import main

HELP = Path(__file__).parent / "help"
COMMANDS = ["verify-lemma-ev", "invariants", "components", "check-arrangement",
            "incidences", "catalog", "reproduce"]
CASES = {"plurican": [], **{name: [name] for name in COMMANDS}}


def help_text(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit) as exit_:
        main([*argv, "--help"])
    assert exit_.value.code == 0
    return buf.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_help_matches_capture(monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    assert help_text(CASES[case]) == (HELP / f"{case}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.environ["COLUMNS"] = "80"
    HELP.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        (HELP / f"{case}.txt").write_text(help_text(argv), encoding="utf-8")
        print(f"wrote {case}.txt")
