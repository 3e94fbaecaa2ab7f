"""``plurican verify-lemma-ev``: the census of totally even 8-point sets."""

from __future__ import annotations

from .. import evenclass


def run(args) -> tuple[dict, int]:
    report = evenclass.verify_lemma_ev()
    return {"command": "verify-lemma-ev", **report.as_json()}, 0
