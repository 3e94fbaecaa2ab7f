"""``plurican reproduce RECIPE``: a named headline computation, end to end.

Each recipe is a function here, named in `_RECIPES` after its entry in
`cli.RECIPES`, and imports only the modules it runs.
"""

from __future__ import annotations

from ..errors import MalformedInputError


def run(args) -> tuple[dict, int]:
    if args.recipe != "cplus":
        for option, value in (("--d", args.d), ("--m", args.m)):
            if value is not None:
                raise MalformedInputError(f"{option} applies to recipe cplus only, "
                                          f"not to {args.recipe}", option=option)
    payload = _RECIPES[args.recipe](args)
    return {"command": "reproduce", "recipe": args.recipe, **payload}, 0


def _lemma_ev(args) -> dict:
    from .. import evenclass

    report = evenclass.verify_lemma_ev()
    return {
        "claim": "eight-point subsets of PG(3, F2) meeting every plane in an "
                 "even number of points fall into exactly two classes under "
                 "GL(4, 2): plane complements and one exceptional configuration",
        "inputs": {"space": "PG(3, F2)", "set_size": 8},
        "results": report.as_json(),
    }


def _camp1_moduli(args) -> dict:
    from .. import evenclass, invariants, torsion

    entry = invariants.catalog_entry("campedelli")
    cover = invariants.covering_invariants(entry.invariants, invariants.CoveringParams(2, 1))
    report = evenclass.verify_lemma_ev()
    return {
        "claim": "double covers of Campedelli surfaces branched along smooth "
                 "bicanonical curves fill exactly two connected components of "
                 "the moduli space of surfaces with K2 = 16, p_a = 4",
        "inputs": {"surface": entry.name, "d": 2, "m": 1},
        "results": {
            "components": report.orbit_count,
            "moduli_space": {"K2": cover.K2, "pa": cover.p_a},
            "coverings_per_branch_curve": torsion.covering_count(entry.torsion, 2),
            "census": report.as_json(),
        },
    }


def _cplus(args) -> dict:
    from .. import invariants, torsion

    d = args.d if args.d is not None else 2
    m = args.m if args.m is not None else 3
    total = torsion.cplus_total(d, m)
    entry = invariants.catalog_entry("miyaoka-yau-333-1")
    return {
        "claim": "for admissible degrees the moduli space receiving the "
                 "coverings of the rigid K2 = 333 surfaces has at least "
                 f"3 * 5^6 = {total} connected components",
        "inputs": {"d": d, "m": m, "surfaces": [entry.name, "miyaoka-yau-333-2"]},
        "results": {
            "components": total,
            "orbit_count_per_surface": torsion.orbit_count(entry.torsion, []),
            "surface_count_factor": 3,
        },
    }


def _covering_chain(name: str) -> dict:
    from .. import invariants, torsion

    entry = invariants.catalog_entry(name)
    cover = invariants.covering_invariants(entry.invariants, invariants.CoveringParams(2, 1))
    degree = invariants.composed_canonical_degree(entry.bicanonical_map_degree)
    out = {
        "inputs": {"surface": entry.name, "d": 2, "m": 1},
        "results": {
            "base_bicanonical_degree": entry.bicanonical_map_degree,
            "canonical_map_degree": degree,
            "Y": cover.as_json(),
            "canonical_image_ambient_dim": cover.p_g - 1,
        },
    }
    if entry.torsion is not None:
        out["results"]["coverings_per_branch_curve"] = torsion.covering_count(entry.torsion, 2)
    return out


def _campedelli_cover(args) -> dict:
    out = _covering_chain("campedelli")
    out["claim"] = (
        "the canonical map of a double cover of a Campedelli surface branched "
        "in a bicanonical curve is a degree 16 morphism onto the plane"
    )
    return out


def _burniat_cover(args) -> dict:
    surfaces = []
    for k2 in (6, 5, 4, 3):
        cover = _covering_chain(f"burniat-{k2}")
        surfaces.append({"surface": f"burniat-{k2}", **cover["results"]})
    return {
        "claim": "the canonical map of a double cover of a Burniat surface "
                 "branched in a bicanonical curve is a degree 8 morphism onto "
                 "a Del Pezzo surface of degree K2",
        "inputs": {"d": 2, "m": 1},
        "results": {"surfaces": surfaces},
    }


def _mlp_cover(args) -> dict:
    out = _covering_chain("mendes-lopes-pardini")
    out["claim"] = (
        "the canonical map of a double cover of a Mendes Lopes-Pardini "
        "surface branched in a bicanonical curve is a degree 4 map onto a "
        "sextic Enriques surface in P^3"
    )
    return out


_RECIPES = {
    "lemma-ev": _lemma_ev,
    "camp1-moduli": _camp1_moduli,
    "cplus": _cplus,
    "campedelli-cover": _campedelli_cover,
    "burniat-cover": _burniat_cover,
    "mlp-cover": _mlp_cover,
}
