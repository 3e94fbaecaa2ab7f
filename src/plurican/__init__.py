"""Exact-arithmetic toolkit for cyclic coverings of surfaces of general type.

Modules by theme:

- :mod:`plurican.f2geom`: points, hyperplanes and point sets of PG(k-1, F2)
- :mod:`plurican.glgroup`: GL(k, F2) as one flat table of point
  permutations, a row of 2^k bytes per element: orbits, canonical forms and
  the Burnside recount
- :mod:`plurican.evenclass`: census of totally even 8-point sets in PG(3, F2)
- :mod:`plurican.invariants`: covering invariants, canonical-map degrees,
  moduli dimensions, and the catalogue of base surfaces
- :mod:`plurican.torsion`: finite abelian torsion groups, covering counts and
  component bounds; its automorphism actions, `AutAction`, live in
  ``plurican._actions``, which only action-building code loads
- :mod:`plurican.arrangements`: exact line arrangements over Q and Q(omega)
- :mod:`plurican.cli`: the ``plurican`` command's parser, JSON writer and
  error plumbing; each command is a module of :mod:`plurican.commands`,
  and a command loads only its own module and the modules it runs

``import plurican`` loads none of them.  A module loads on first use: when
it is imported, or when one of its names below is read from the package
(``plurican.verify_lemma_ev``, ``from plurican import *``; PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the names the package re-exports from it
_EXPORTS = {
    "errors": ("DomainError", "HypothesisError", "MalformedInputError", "ValidationError"),
    "f2geom": ("F2Point", "Hyperplane", "PointSet", "is_totally_even"),
    "glgroup": ("F2Matrix", "OrbitCensus", "act", "canonical_form", "orbit_census"),
    "evenclass": ("EvenSetTag", "EvenSetType", "classify_type", "enumerate_totally_even",
                  "verify_lemma_ev"),
    "invariants": ("CATALOG", "CatalogEntry", "CoveringParams", "SurfaceInvariants",
                   "branch_curve_genus", "catalog_entry", "composed_canonical_degree",
                   "covering_invariants", "generic_pluricanonical_smooth", "moduli_dimension",
                   "moduli_dimension_lower_bound"),
    "torsion": ("AutAction", "FiniteAbelianGroup", "cnew_component_count", "covering_count",
                "cplus_total", "orbit_count", "theorem_mod_component_bound", "tor_d_order"),
    "arrangements": ("LabeledArrangement", "ProjLine", "analyze_extension", "check_campedelli",
                     "compute_incidences"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
