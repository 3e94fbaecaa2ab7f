"""`tools/golden_details_diff.py`, which gates every golden re-capture, on a
scratch repository.

A temporary git repository holds a copy of the script under ``tools/`` and
one committed error capture under ``tests/golden/``; each case edits the
working tree and runs the copy against ``HEAD``.  The script in the
repository is only read.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "golden_details_diff.py"
ERROR = {"error": {"kind": "validation", "message": "d must be a positive integer, got 0"},
         "schema": "plurican/1"}
# git reads no configuration of the machine or the user
GIT_ENV = {"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1",
           "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.org",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.org"}


def write(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture
def repo(tmp_path, monkeypatch):
    for name, value in GIT_ENV.items():
        monkeypatch.setenv(name, value)
    (tmp_path / "tools").mkdir()
    shutil.copy(SCRIPT, tmp_path / "tools")
    (tmp_path / "tests" / "golden").mkdir(parents=True)
    write(tmp_path / "tests" / "golden" / "d0.json", ERROR)
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "captures"]):
        subprocess.run(["git", *argv], cwd=tmp_path, check=True)
    return tmp_path


def run_diff(repo: Path) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(repo / "tools" / SCRIPT.name), "HEAD"],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_a_new_details_key_alone_passes(repo):
    details = {"lo": 1, "value": 0}
    write(repo / "tests" / "golden" / "d0.json",
          {**ERROR, "error": {**ERROR["error"], "details": details}})
    assert run_diff(repo) == (0, f"details only: tests/golden/d0.json: {json.dumps(details)}\n")


def test_a_changed_message_fails(repo):
    write(repo / "tests" / "golden" / "d0.json",
          {**ERROR, "error": {**ERROR["error"], "message": "d must be >= 1, got 0",
                              "details": {"value": 0}}})
    code, out = run_diff(repo)
    assert (code, out.split(":")[0]) == (1, "DIFFERS")


@pytest.mark.parametrize("change", ["added", "deleted"])
def test_an_added_or_deleted_capture_fails(repo, change):
    golden = repo / "tests" / "golden"
    if change == "added":
        write(golden / "d1.json", ERROR)
        subprocess.run(["git", "add", "-A"], cwd=repo, check=True)  # an untracked file is unseen
    else:
        (golden / "d0.json").unlink()
    code, out = run_diff(repo)
    assert (code, out.split(":")[0]) == (1, "DIFFERS")
