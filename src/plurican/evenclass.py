"""Exhaustive enumeration and classification of totally even subsets of PG(3, F2).

A subset is totally even when it meets every hyperplane in an even number of
points.  Among the 8-point totally even subsets there are exactly two
GL(4, 2)-orbits: the complements of hyperplanes (type I) and one exceptional
configuration (type II).  The enumeration here iterates over all C(15, 8)
subsets and filters; the equivalent linear-algebra route (null space of the
point-hyperplane incidence matrix) is reserved for the test suite as an
independent oracle, so the two cross-check each other.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from itertools import combinations, compress, repeat
from operator import not_, xor
from typing import TYPE_CHECKING

from .errors import Record, ValidationError, check_int
from .f2geom import (
    Hyperplane,
    PointSet,
    _hyperplane_masks,
    _sections,
    num_points,
    pointset_to_json,
)

if TYPE_CHECKING:
    from .glgroup import OrbitCensus

K = 4
_EVEN_SIZES = frozenset(range(0, 16, 2))


class EvenSetTag(str, Enum):
    TYPE_I = "type-I"
    TYPE_II = "type-II"
    NOT_TOTALLY_EVEN = "not-totally-even"


class EvenSetType(Record):
    """Classification of an 8-point set, with the witnessing hyperplane.

    For type I the witness is the hyperplane disjoint from the set, for
    type II the unique hyperplane meeting the set in 6 points.
    """

    tag: EvenSetTag
    witness: Hyperplane | None


def enumerate_totally_even(size: int) -> list[PointSet]:
    """All totally even subsets of PG(3, F2) of the given cardinality.

    Brute force over all point subsets of that size, bit-sliced over the
    hyperplanes: bit h of the parity word of point p is set when p lies on
    the hyperplane with normal h, so a subset is totally even exactly when
    the XOR of its points' parity words is 0.  Bit masks are built only for
    the subsets kept; the result is sorted by ascending bit-set encoding.
    """
    n = num_points(K)
    check_int(size, f"size must be an integer in 0..{n}", lo=0, hi=n)
    masks = _hyperplane_masks(K)
    parity = [
        sum(1 << h for h in range(1, n + 1) if masks[h] >> p & 1)
        for p in range(1, n + 1)
    ]
    # both combination streams run in the same order, one candidate per step
    odd = map(reduce, repeat(xor), combinations(parity, size), repeat(0))
    kept = compress(combinations(range(1, n + 1), size), map(not_, odd))
    return [PointSet(K, mask) for mask in sorted(sum(1 << p for p in comb) for comb in kept)]


def classify_type(s: PointSet) -> EvenSetType:
    """Classify an 8-point subset of PG(3, F2).

    Type I sets avoid some hyperplane entirely; type II sets meet every
    hyperplane, exactly one of them in 6 points.  The type is constant on
    GL(4, 2)-orbits.
    """
    if s.k != K:
        raise ValidationError(f"classification lives in PG(3, F2); got k={s.k}")
    if s.size != 8:
        raise ValidationError(f"expected a set of size 8, got size {s.size}", size=s.size)
    tag, normal = _type_of(s.mask, _sections(K, s.mask))
    return EvenSetType(tag, normal and Hyperplane(K, normal))


def _type_of(mask: int, sections: list[int]) -> tuple[EvenSetTag, int | None]:
    """The type of the 8-point set ``mask`` from its hyperplane sections
    (:func:`f2geom._sections`), with the normal of its witness hyperplane:
    the first disjoint one for type I, the unique 6-point section for
    type II, none for a set that is not totally even."""
    if not _EVEN_SIZES.issuperset(sections):
        return EvenSetTag.NOT_TOTALLY_EVEN, None
    if 0 in sections:
        return EvenSetTag.TYPE_I, sections.index(0) + 1
    if sections.count(6) != 1:
        raise ValidationError(
            "classification dichotomy failed: no disjoint hyperplane and no "
            "unique 6-point section",
            set=pointset_to_json(PointSet(K, mask)),
            six_point_normals=[normal for normal, size in enumerate(sections, 1) if size == 6],
        )
    return EvenSetTag.TYPE_II, sections.index(6) + 1


class LemmaEvReport(Record):
    """Outcome of the full census of totally even 8-point sets."""

    total_count: int
    census: OrbitCensus
    orbit_types: tuple[EvenSetTag, ...]
    burnside_orbit_count: int
    profile_separates_orbits: bool

    @property
    def orbit_count(self) -> int:
        return self.census.orbit_count

    def as_json(self) -> dict:
        out = self.census.as_json()
        for orbit, tag in zip(out["orbits"], self.orbit_types):
            orbit["type"] = tag.value
        out.update(total_count=self.total_count, burnside_orbit_count=self.burnside_orbit_count,
                   profile_separates_orbits=self.profile_separates_orbits)
        return out


def _fail(message: str, **details):
    raise ValidationError("totally even census check failed: " + message, **details)


def verify_lemma_ev() -> LemmaEvReport:
    """Run the census of totally even 8-point sets and check its shape.

    Asserts that there are exactly two orbits, that the type I orbit has
    size 15, that the classification is constant on orbits, and that the
    independent Burnside recount agrees with the partition.  Both read the
    GL(4, 2) permutation table in place.  One pass over the sets takes each
    set's 15 hyperplane sections once: from them the constancy check
    compares the set's type with that of its orbit, looked up in the
    census's orbit index, and ``profile_separates_orbits`` reports whether
    the hyperplane profile, the sorted section sizes, is constant on each
    orbit and differs between orbits.  The pass builds no record per set.
    """
    # only the census needs the group: classify_type alone does not load it
    from . import glgroup

    sets = enumerate_totally_even(8)
    masks = [s.mask for s in sets]
    census, orbit_of = glgroup._orbit_census(K, masks)
    burnside = glgroup._burnside_orbit_count(K, masks)

    if census.orbit_count != 2:
        _fail(f"expected 2 orbits, found {census.orbit_count}", found=census.orbit_count)
    if burnside != census.orbit_count:
        _fail(
            f"Burnside recount {burnside} disagrees with census {census.orbit_count}",
            burnside=burnside, census=census.orbit_count,
        )

    orbit_types = tuple(classify_type(orbit.representative).tag for orbit in census.orbits)
    for orbit, rep_tag in zip(census.orbits, orbit_types):
        if rep_tag is EvenSetTag.NOT_TOTALLY_EVEN:
            _fail(
                "orbit representative is not totally even",
                representative=pointset_to_json(orbit.representative),
            )

    # one pass over the sets, through each set's 15 hyperplane sections:
    # its type against that of its orbit, and its hyperplane profile.  The
    # profile separates the orbits when the (orbit, profile) pairs match one
    # profile to each orbit and one orbit to each profile.
    profiles = set()
    for s in sets:
        sections = _sections(K, s.mask)
        tag = _type_of(s.mask, sections)[0]
        idx = orbit_of[s.mask]
        if tag is not orbit_types[idx]:
            _fail(
                "classification is not constant on an orbit",
                representative=pointset_to_json(census.orbits[idx].representative),
                tags=sorted({tag.value, orbit_types[idx].value}),
            )
        profiles.add((idx, tuple(sorted(sections))))
    separates = len(profiles) == len({i for i, _ in profiles}) == len({p for _, p in profiles})

    type_i = [o for o, tag in zip(census.orbits, orbit_types) if tag is EvenSetTag.TYPE_I]
    if len(type_i) != 1 or type_i[0].size != 15:
        _fail(
            "expected a single type I orbit of size 15",
            sizes=[o.size for o in type_i],
        )

    return LemmaEvReport(
        total_count=len(sets),
        census=census,
        orbit_types=orbit_types,
        burnside_orbit_count=burnside,
        profile_separates_orbits=separates,
    )
