"""``plurican check-arrangement``: validate labeled line-arrangement covering data."""

from __future__ import annotations

from .. import arrangements
from ..cli import _load_json
from ..errors import MalformedInputError


def run(args) -> tuple[dict, int]:
    arr = arrangements.load_arrangement(_load_json(args.file))
    mode = args.mode
    if mode is None:
        if len(arr.lines) == 7:
            mode = "campedelli"
        elif len(arr.lines) == 8:
            mode = "extension"
        else:
            raise MalformedInputError(
                f"cannot infer mode for {len(arr.lines)} lines; pass --mode",
                lines=len(arr.lines),
            )
    if mode == "campedelli":
        report = arrangements.check_campedelli(arr)
        passed = report.passed
    else:
        report = arrangements.analyze_extension(arr)
        passed = report.totally_even
    payload = {
        "command": "check-arrangement",
        "mode": mode,
        "passed": passed,
        "report": report.as_json(),
    }
    return payload, 0 if passed else 1
