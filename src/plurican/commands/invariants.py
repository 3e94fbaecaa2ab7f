"""``plurican invariants``: the invariants of a cyclic covering of a surface."""

from __future__ import annotations

from .. import invariants
from ..errors import MalformedInputError


def _surface_input(args) -> tuple[str | None, invariants.SurfaceInvariants]:
    if args.surface is not None:
        if args.pa is not None or args.k2 is not None:
            raise MalformedInputError("give either --surface or --pa/--k2, not both")
        if args.q is not None:
            raise MalformedInputError("--q applies to --pa/--k2, not to --surface",
                                      option="--q")
        entry = invariants.catalog_entry(args.surface)
        return entry.name, entry.invariants
    if args.pa is None or args.k2 is None:
        raise MalformedInputError("need --surface NAME or both --pa and --k2")
    q = 0 if args.q is None else args.q
    return None, invariants.SurfaceInvariants.from_pa(args.pa, q, args.k2)


def run(args) -> tuple[dict, int]:
    name, X = _surface_input(args)
    c = invariants.CoveringParams(args.d, args.m)
    Y = invariants.covering_invariants(X, c)
    payload = {
        "command": "invariants",
        "input": {"surface": name, "X": X.as_json(), "d": c.d, "m": c.m},
        "Y": Y.as_json(),
        "branch_curve_genus": invariants.branch_curve_genus(X.K2, c),
        "generic_smooth": invariants.generic_pluricanonical_smooth(c.d, X.K2, c.m),
        "moduli_dim_lower_bound": invariants.moduli_dimension_lower_bound(c, X),
    }
    if c.d == 2 and 2 * c.m >= 5 and X.is_miyaoka_yau:
        payload["moduli_dim"] = invariants.moduli_dimension(c.m, X)
    return payload, 0
