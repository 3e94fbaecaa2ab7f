"""``plurican catalog``: the embedded base surfaces."""

from __future__ import annotations

from .. import invariants


def run(args) -> tuple[dict, int]:
    return {
        "command": "catalog",
        "entries": [entry.as_json() for entry in invariants.CATALOG],
    }, 0
