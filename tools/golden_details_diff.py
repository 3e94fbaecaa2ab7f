"""Show that each golden capture changed since a git revision differs from
its old capture only by a new error ``details`` key.

    python tools/golden_details_diff.py <revision>

Every file under ``tests/golden/`` that differs between <revision> and the
working tree is read both ways.  It passes when the new document is an error
whose ``details`` the old one lacks, and equals the old document once that
key is taken out; a file that differs in any other way, or is added or
deleted, fails.  Prints one line per changed file and exits 1 if any fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def main(revision: str) -> int:
    failed = 0
    changed = git("diff", "--name-status", revision, "--", "tests/golden").splitlines()
    for status, name in (line.split("\t", 1) for line in changed):
        details, ok = None, status == "M"
        if ok:
            old = json.loads(git("show", f"{revision}:{name}"))
            new = json.loads((ROOT / name).read_text(encoding="utf-8"))
            details = new.get("error", {}).pop("details", None)
            ok = details is not None and "details" not in old.get("error", {}) and new == old
        failed += not ok
        print(f"{'details only' if ok else 'DIFFERS'}: {name}: {json.dumps(details)}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
