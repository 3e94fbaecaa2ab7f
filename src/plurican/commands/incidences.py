"""``plurican incidences``: exact intersection points and multiplicities of an arrangement."""

from __future__ import annotations

from .. import arrangements
from ..cli import _load_json


def run(args) -> tuple[dict, int]:
    arr = arrangements.load_arrangement(_load_json(args.file))
    report = arrangements.compute_incidences(arr)
    # the points array, the bulk of the document, is written from its
    # integers as it goes out (a digit-limit error is raised here, first)
    points = arrangements._points_json(report.points)
    return {"command": "incidences", **report.as_json(points)}, 0
