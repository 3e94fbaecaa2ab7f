"""Exact arithmetic of surface and covering invariants.

All quantities are exact integers; divisibility conditions are checked and
never truncated, since a non-integral value signals inputs that no actual
covering can realize.

For a totally ramified cyclic covering Y -> X of degree d branched along a
smooth curve numerically equivalent to d*m times the canonical class:

    K2(Y)  = d * (d*m - m + 1)^2 * K2(X)
    p_a(Y) = d * p_a(X) + d*(d-1)*m*((2d-1)*m + 3) / 12 * K2(X)
    e(Y)   = 12*d*p_a(X) + d*((d-1)*(d*m+1)*m - 1) * K2(X)
    q(Y)   = q(X)

and the three formulas are mutually consistent with Noether's identity
K2 + e = 12 * p_a, which is checked on every output.
"""

from __future__ import annotations

from .errors import HypothesisError, Record, ValidationError, check_int
from .torsion import FiniteAbelianGroup


class SurfaceInvariants(Record):
    """Numerical invariants of a surface: geometric genus, irregularity and
    the self-intersection of the canonical class.

    The arithmetic genus p_a = p_g - q + 1 and the topological Euler number
    e = 12 * p_a - K2 (Noether) are derived, so the identities binding the
    five classical invariants hold by construction.
    """

    p_g: int
    q: int
    K2: int

    def __post_init__(self):
        for name in self._fields:
            check_int(getattr(self, name), f"{name} must be an integer")
        if self.p_g < 0 or self.q < 0:
            raise ValidationError(
                f"p_g and q must be non-negative, got p_g={self.p_g}, q={self.q}"
            )

    @classmethod
    def from_pa(cls, p_a: int, q: int, K2: int) -> "SurfaceInvariants":
        check_int(p_a, "p_a must be an integer")
        return cls(p_g=p_a + q - 1, q=q, K2=K2)

    @property
    def p_a(self) -> int:
        return self.p_g - self.q + 1

    @property
    def e(self) -> int:
        return 12 * self.p_a - self.K2

    @property
    def is_miyaoka_yau(self) -> bool:
        return self.K2 == 3 * self.e

    def as_json(self) -> dict:
        return {"pg": self.p_g, "q": self.q, "K2": self.K2, "pa": self.p_a, "e": self.e}


class CoveringParams(Record):
    """Degree d and canonical multiple m of a covering branched along a curve
    numerically equivalent to d*m times the canonical class."""

    d: int
    m: int

    def __post_init__(self):
        check_int(self.d, "covering degree must be an integer >= 2", lo=2)
        check_int(self.m, "canonical multiple must be an integer >= 1", lo=1)


def covering_invariants(X: SurfaceInvariants, c: CoveringParams) -> SurfaceInvariants:
    """Invariants of the covering surface for base X and parameters (d, m)."""
    d, m = c.d, c.m
    num = d * (d - 1) * m * ((2 * d - 1) * m + 3) * X.K2
    if num % 12:
        raise ValidationError(
            f"d(d-1)m((2d-1)m+3)K2 = {num} is not divisible by 12; no covering "
            "realizes these inputs",
            d=d, m=m, K2=X.K2,
        )
    p_a_Y = d * X.p_a + num // 12
    K2_Y = d * (d * m - m + 1) ** 2 * X.K2
    e_Y = 12 * d * X.p_a + d * ((d - 1) * (d * m + 1) * m - 1) * X.K2
    if K2_Y + e_Y != 12 * p_a_Y:
        raise ValidationError(
            "covering formulas violate Noether's identity K2 + e = 12 p_a",
            K2=K2_Y, e=e_Y, pa=p_a_Y,
        )
    return SurfaceInvariants(p_g=p_a_Y + X.q - 1, q=X.q, K2=K2_Y)


def branch_curve_genus(K2: int, c: CoveringParams) -> int:
    """Genus of a smooth branch curve numerically equivalent to d*m*K:
    g = 1 + d*m*(d*m + 1)*K2 / 2 by adjunction."""
    t = c.d * c.m * (c.d * c.m + 1) * K2
    if t % 2:  # dm(dm+1) is even
        raise ValidationError("adjunction gives a non-integral genus", K2=K2, d=c.d, m=c.m)
    return 1 + t // 2


def composed_canonical_degree(base_degree: int) -> int:
    """Degree of the canonical map of the double cover: twice the degree of
    the bicanonical-type map of the base onto its image."""
    check_int(base_degree, "base degree must be a positive integer", lo=1)
    return 2 * base_degree


def generic_pluricanonical_smooth(d: int, K2: int, m: int) -> bool:
    """Whether a generic curve numerically equivalent to d*m*K is smooth and
    irreducible on a minimal surface of general type.

    True whenever d*m >= 5; for m = 1 the low-degree cases d = 4, 3, 2 hold
    under K2 >= 2, 3, 5 respectively.
    """
    check_int(d, "d must be an integer >= 2", lo=2)
    check_int(m, "m must be an integer >= 1", lo=1)
    check_int(K2, "K2 must be an integer >= 1", lo=1)
    if d * m >= 5:
        return True
    if m == 1:
        return (d == 4 and K2 >= 2) or (d == 3 and K2 >= 3) or (d == 2 and K2 >= 5)
    return False


def moduli_dimension(m: int, X: SurfaceInvariants) -> int:
    """Dimension of the connected moduli component containing double covers
    of a rigid (Miyaoka-Yau) surface: m(2m-1)*K2 + p_g.

    Requires 2m >= 5; rigidity of X is the caller's responsibility.
    """
    check_int(m, "m must be an integer")
    if 2 * m < 5:
        raise HypothesisError(f"2m >= 5 required, got m = {m}", m=m)
    return m * (2 * m - 1) * X.K2 + X.p_g


def moduli_dimension_lower_bound(c: CoveringParams, X: SurfaceInvariants) -> int:
    """Lower bound dm(dm-1)/2 * K2 + p_g for the dimension of the moduli
    component containing degree-d coverings of a rigid surface."""
    t = c.d * c.m * (c.d * c.m - 1)
    return t // 2 * X.K2 + X.p_g


class CatalogEntry(Record):
    """A named base surface with its invariants and covering-relevant data.

    ``torsion`` records the torsion subgroup used by the component-count
    computations (None when the construction pins no torsion data);
    ``bicanonical_map_degree`` is the degree of the bicanonical-type map of
    the base onto its image, the input of :func:`composed_canonical_degree`.
    """

    name: str
    aliases: tuple[str, ...]
    invariants: SurfaceInvariants
    torsion: FiniteAbelianGroup | None
    bicanonical_map_degree: int | None
    miyaoka_yau: bool
    kl_equals_aut: bool | None
    notes: str

    def __post_init__(self):
        if self.miyaoka_yau != self.invariants.is_miyaoka_yau:
            raise ValidationError(
                f"catalog entry {self.name}: Miyaoka-Yau flag disagrees with K2 = 3e"
            )

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "aliases": list(self.aliases),
            "invariants": self.invariants.as_json(),
            "torsion": self.torsion.as_json() if self.torsion else None,
            "bicanonical_map_degree": self.bicanonical_map_degree,
            "miyaoka_yau": self.miyaoka_yau,
            "kl_equals_aut": self.kl_equals_aut,
            "notes": self.notes,
        }


def _burniat(k2: int) -> CatalogEntry:
    return CatalogEntry(
        name=f"burniat-{k2}",
        aliases=(),
        invariants=SurfaceInvariants(p_g=0, q=0, K2=k2),
        torsion=None,
        bicanonical_map_degree=4,
        miyaoka_yau=False,
        kl_equals_aut=None,
        notes=(
            "General type, p_g = 0, built as a (Z/2)^2-cover of the plane "
            "branched along a special line arrangement with "
            f"{9 - k2} points of multiplicity >= 3; the bicanonical map has "
            f"degree 4 onto a Del Pezzo surface of degree {k2}."
        ),
    )


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry(
        name="campedelli",
        aliases=(),
        invariants=SurfaceInvariants(p_g=0, q=0, K2=2),
        torsion=FiniteAbelianGroup((2, 2, 2)),
        bicanonical_map_degree=8,
        miyaoka_yau=False,
        kl_equals_aut=None,
        notes=(
            "General type, p_g = 0, K2 = 2, fundamental group (Z/2)^3, "
            "constructed from a labeled arrangement of 7 plane lines; the "
            "bicanonical map has degree 8 onto the plane."
        ),
    ),
    _burniat(6),
    _burniat(5),
    _burniat(4),
    _burniat(3),
    CatalogEntry(
        name="mendes-lopes-pardini",
        aliases=("mlp",),
        invariants=SurfaceInvariants(p_g=0, q=0, K2=3),
        torsion=None,
        bicanonical_map_degree=2,
        miyaoka_yau=False,
        kl_equals_aut=None,
        notes=(
            "Member of a six-dimensional family of general type surfaces "
            "with p_g = 0 and K2 = 3; the bicanonical map has degree 2 onto "
            "a sextic Enriques surface in P^3."
        ),
    ),
    CatalogEntry(
        name="fake-projective-plane",
        aliases=("fpp",),
        invariants=SurfaceInvariants(p_g=0, q=0, K2=9),
        torsion=None,
        bicanonical_map_degree=None,
        miyaoka_yau=True,
        kl_equals_aut=True,
        notes=(
            "Rigid ball quotient with the Betti numbers of the plane: "
            "p_g = 0, K2 = 9, e = 3; carries no anti-holomorphic "
            "automorphisms, so all its automorphisms are holomorphic."
        ),
    ),
    CatalogEntry(
        name="miyaoka-yau-333-1",
        aliases=("rigid-333-1",),
        invariants=SurfaceInvariants.from_pa(37, 0, 333),
        torsion=FiniteAbelianGroup((5,) * 6),
        bicanonical_map_degree=None,
        miyaoka_yau=True,
        kl_equals_aut=True,
        notes=(
            "Rigid ball quotient with K2 = 333 and e = 111, obtained by "
            "resolving a (Z/5)^2-cover of the plane branched along the nine "
            "lines dual to the inflection points of a smooth cubic; its "
            "torsion contains a (Z/5)^6 subgroup on which every automorphism "
            "acts trivially, and it has no anti-holomorphic automorphisms."
        ),
    ),
    CatalogEntry(
        name="miyaoka-yau-333-2",
        aliases=("rigid-333-2",),
        invariants=SurfaceInvariants.from_pa(37, 0, 333),
        torsion=FiniteAbelianGroup((5,) * 6),
        bicanonical_map_degree=None,
        miyaoka_yau=True,
        kl_equals_aut=False,
        notes=(
            "Companion rigid ball quotient with K2 = 333 and e = 111 from "
            "the same branched-cover construction; it does carry an "
            "anti-holomorphic automorphism, and its coverings are "
            "distinguished from those of the first surface by the outer "
            "automorphism groups of the fundamental groups."
        ),
    ),
)


def catalog_entry(name: str) -> CatalogEntry:
    """Look up a catalogue entry by name or alias."""
    wanted = name.strip().lower()
    for entry in CATALOG:
        if entry.name == wanted or wanted in entry.aliases:
            return entry
    known = ", ".join(e.name for e in CATALOG)
    raise ValidationError(f"unknown surface {name!r}; known: {known}", name=name)
