"""``plurican components``: torsion-group covering counts and component bounds.

The automorphism code, `_actions` and `_lanes`, is imported only for ``--aut``.
"""

from __future__ import annotations

from .. import torsion
from ..cli import MAX_DIGITS, _decimal
from ..errors import MalformedInputError


def _parse_group(spec: str) -> torsion.FiniteAbelianGroup:
    """Comma-separated decimal orders, each ASCII digits only, with at most
    ``MAX_DIGITS`` digits in all; "" is trivial."""
    if not spec:
        return torsion.FiniteAbelianGroup(())
    parts = spec.split(",")
    orders = tuple(_decimal(part, signed=False) for part in parts)
    if None in orders:
        raise MalformedInputError(
            f"cannot parse group {spec!r}: expected comma-separated decimal orders"
        )
    digits = sum(map(len, parts))
    if digits > MAX_DIGITS:
        raise MalformedInputError(
            f"group orders have {digits} digits in all, above the limit {MAX_DIGITS}",
            digits=digits, limit=MAX_DIGITS,
        )
    return torsion.FiniteAbelianGroup(orders)


def run(args) -> tuple[dict, int]:
    G = _parse_group(args.group)
    payload = {
        "command": "components",
        "group": G.as_json(),
        "d": args.d,
        "tor_d_order": torsion.tor_d_order(G, args.d),
        "covering_count": torsion.covering_count(G, args.d),
        "theorem_mod_bound": torsion.theorem_mod_component_bound(G, args.d),
    }
    if args.aut is not None:
        from .._actions import load_generators

        gens = load_generators(G, args.aut)
        if args.m is None:
            payload["orbit_count"] = torsion.orbit_count(G, gens)
        else:
            # the component count is the orbit count, once its hypotheses hold
            count = torsion.cnew_component_count(G, gens, args.d, args.m)
            payload.update(orbit_count=count, m=args.m, cnew_count=count)
    return payload, 0
