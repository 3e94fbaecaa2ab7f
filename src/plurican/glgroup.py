"""The group GL(k, F2) = PGL(k, F2) for k <= 4, acting on PG(k-1, F2).

The whole group is one table per k, built once per process: a dict from
the packed rows of every invertible matrix (at most 20160; one byte per
row, row 0 most significant) to the permutation it induces on point codes,
stored as a ``bytes`` of length 2^k whose byte c is the image of code c.
The table is built by linearity, one basis image at a time: the image of
basis code 2^b is picked outside the span of the earlier ones, and the
images of the codes below 2^(b+1) follow as XORs of basis images (one
``bytes.translate`` per permutation), so no singular candidate is ever
tried.  The table is in build order; :func:`enumerate_gl` sorts it into
ascending packed-row order.
Orbit partitioning, canonical forms and stabilizer orders apply every
permutation of the group, which at these sizes is the most auditable
approach.  Canonical forms are lexicographic minima of orbits under the
integer encoding of point-set bit masks, so they are independent of
traversal order.  The Burnside recount is a different algorithm: it forms
no orbit and no image set.  The family is bit-sliced into one integer per
point; the XOR of the integers of every pair of points is taken once, and
per group element one of them per point marks every set of the family that
the element moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter, or_

from .errors import ValidationError, is_int
from .f2geom import PointSet, _check_dim, pointset_to_json


def _rows_invertible(rows: tuple[int, ...]) -> bool:
    """Gaussian elimination on packed rows over F2."""
    basis: list[int] = []
    for row in rows:
        cur = row
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur == 0:
            return False
        basis.append(cur)
        basis.sort(reverse=True)
    return True


@dataclass(frozen=True)
class F2Matrix:
    """An invertible k x k matrix over F2; row i is packed like a point code."""

    k: int
    rows: tuple[int, ...]

    def __post_init__(self):
        _check_dim(self.k)
        object.__setattr__(self, "rows", tuple(self.rows))  # hashable and frozen
        if len(self.rows) != self.k:
            raise ValidationError(f"expected {self.k} rows, got {len(self.rows)}")
        top = 1 << self.k
        if any(not is_int(r) or not 0 <= r < top for r in self.rows):
            raise ValidationError(f"row out of range for k={self.k}", rows=self.rows)
        if not _rows_invertible(self.rows):
            raise ValidationError("matrix is singular over F2", rows=self.rows)

    @classmethod
    def identity(cls, k: int) -> "F2Matrix":
        return cls(k, tuple(1 << (k - 1 - i) for i in range(k)))

    def apply_code(self, code: int) -> int:
        out = 0
        for i, row in enumerate(self.rows):
            if (row & code).bit_count() & 1:
                out |= 1 << (self.k - 1 - i)
        return out

    def point_permutation(self) -> tuple[int, ...]:
        """Image of every code 0 .. 2^k - 1 (index 0 maps to 0), by linearity."""
        perm = b"\0"
        for b in range(self.k):
            perm = _extend(perm, self.apply_code(1 << b))
        return tuple(perm)


# _XOR_BY[v] is the byte translation c -> c ^ v of the point codes c < 16
_CODES = bytes(range(16))
_XOR_BY = [bytes.maketrans(_CODES, bytes([c ^ v for c in _CODES])) for v in range(16)]


def _extend(perm: bytes, image: int) -> bytes:
    """Images of the codes below 2m from those below m = 2^b and the image
    of 2^b: code m + c maps to the XOR of the images of m and c."""
    return perm + perm.translate(_XOR_BY[image])


def _pack(rows: tuple[int, ...]) -> int:
    """Rows as one integer, one byte per row, row 0 most significant: the
    table key.  Keys ascend in the lexicographic order of the rows."""
    return int.from_bytes(bytes(rows), "big")


@lru_cache(maxsize=None)
def _gl_table(k: int) -> dict[int, bytes]:
    """Packed rows (see :func:`_pack`) -> point permutation for every matrix
    of GL(k, F2), in build order."""
    _check_dim(k)
    # bit j of the image of basis code 2^b is bit b of row k-1-j, which
    # sits at bit 8*j + b of the packed rows
    spread = [sum(((x >> j) & 1) << (8 * j) for j in range(k)) for x in range(1 << k)]
    entries = [(0, b"\0")]
    for b in range(k):
        # the images so far are exactly the span of the basis images so far
        entries = [
            (packed | spread[image] << b, _extend(perm, image))
            for packed, perm in entries
            for image in range(1, 1 << k)
            if image not in perm
        ]
    return dict(entries)


@dataclass(frozen=True)
class Orbit:
    representative: PointSet
    size: int
    stabilizer_order: int


@dataclass(frozen=True)
class OrbitCensus:
    """Orbit partition of a family of point sets under a full matrix group."""

    orbits: tuple[Orbit, ...]
    group_order: int

    def __post_init__(self):
        reps = [o.representative.mask for o in self.orbits]
        if len(set(reps)) != len(reps):
            raise ValidationError("orbit representatives are not pairwise distinct")
        for o in self.orbits:
            if o.size * o.stabilizer_order != self.group_order:
                raise ValidationError(
                    "orbit-stabilizer identity violated",
                    orbit_size=o.size,
                    stabilizer_order=o.stabilizer_order,
                    group_order=self.group_order,
                )

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)

    def as_json(self) -> dict:
        return {
            "group_order": self.group_order,
            "orbit_count": self.orbit_count,
            "orbits": [
                {
                    "representative": pointset_to_json(o.representative),
                    "size": o.size,
                    "stabilizer_order": o.stabilizer_order,
                }
                for o in self.orbits
            ],
        }


def enumerate_gl(k: int) -> list[F2Matrix]:
    """All invertible k x k matrices over F2, in ascending packed row order
    (row 0 most significant), hence deterministic."""
    return [F2Matrix(k, tuple(packed.to_bytes(k, "big"))) for packed in sorted(_gl_table(k))]


def _act_mask(perm: bytes, mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def act(m: F2Matrix, s: PointSet) -> PointSet:
    """Image point set {m * p : p in s}; cardinality is preserved."""
    if m.k != s.k:
        raise ValidationError(f"dimension mismatch: matrix k={m.k}, set k={s.k}")
    return PointSet(s.k, _act_mask(_gl_table(m.k)[_pack(m.rows)], s.mask))


def _group_permutations(group: list[F2Matrix]) -> list[bytes]:
    if not group:
        raise ValidationError("empty matrix group")
    k = group[0].k
    if any(m.k != k for m in group):
        raise ValidationError("matrices of mixed dimensions in group")
    table = _gl_table(k)
    return [table[_pack(m.rows)] for m in group]


def _set_masks(sets: list[PointSet], group: list[F2Matrix]) -> list[int]:
    """Bit sets of ``sets``, after checking them against a nonempty group."""
    if any(s.k != group[0].k for s in sets):
        raise ValidationError("dimension mismatch between sets and group")
    return [s.mask for s in sets]


def orbit_masks(s: PointSet, group: list[F2Matrix]) -> list[int]:
    """Bit set of the image of s under each element of ``group``, in order."""
    perms = _group_permutations(group)
    (mask,) = _set_masks([s], group)
    return [_act_mask(perm, mask) for perm in perms]


def canonical_form(s: PointSet, group: list[F2Matrix]) -> PointSet:
    """Minimum bit-set encoding over the orbit of s; constant on orbits."""
    return PointSet(s.k, min(orbit_masks(s, group)))


def orbit_census(sets: list[PointSet], group: list[F2Matrix]) -> OrbitCensus:
    """Partition ``sets`` into orbits under ``group``.

    The caller guarantees that ``sets`` is closed under the action; a
    computed orbit element outside ``sets`` raises a closure violation.
    """
    perms = _group_permutations(group)
    return _orbit_census(group[0].k, _set_masks(sets, group), perms)[0]


def _orbit_census(
    k: int, masks: list[int], perms: list[bytes]
) -> tuple[OrbitCensus, dict[int, int]]:
    """:func:`orbit_census` on set bit masks and point permutations; also
    maps every mask of the family to the index of its orbit in the census."""
    codes = sorted(set(masks))
    code_set = set(codes)
    orbits: list[Orbit] = []
    orbit_of: dict[int, int] = {}
    # itemgetter returns a tuple from two indices on: sets of fewer points
    # are padded with point 0, which no set holds, every permutation fixes
    # and bit[0] = 0 leaves out of the union
    bit = [0] + [1 << p for p in range(1, 1 << k)]
    for code in codes:
        if code in orbit_of:
            continue
        points = [p for p in range(1 << k) if code >> p & 1]
        image_points = itemgetter(*points, *[0, 0][len(points):])
        # the images of distinct points are distinct bits: sum is union
        images = [sum(map(bit.__getitem__, image_points(perm))) for perm in perms]
        orbit, stab = set(images), images.count(code)
        stray = orbit - code_set
        if stray:
            raise ValidationError(
                "input family is not closed under the group action",
                missing_mask=min(stray),
            )
        if len(orbit) * stab != len(perms):
            raise ValidationError(
                "orbit-stabilizer identity violated; is the group a full group "
                "without duplicates?",
                orbit_size=len(orbit),
                stabilizer_order=stab,
            )
        # codes ascend and the family is closed, so code is the least mask
        # of its orbit and the orbits come out in representative order
        orbit_of.update(dict.fromkeys(orbit, len(orbits)))
        orbits.append(Orbit(PointSet(k, code), len(orbit), stab))
    return OrbitCensus(tuple(orbits), len(perms)), orbit_of


def gl_orbit_census(k: int, masks: list[int]) -> tuple[OrbitCensus, dict[int, int], int]:
    """Census of a family of set bit masks under the whole of GL(k, F2), read
    straight from the permutation table (no :class:`F2Matrix` is built): the
    :func:`orbit_census`, the orbit index of every mask of the family, and
    the independent :func:`burnside_orbit_count` recount."""
    perms = list(_gl_table(k).values())
    census, orbit_of = _orbit_census(k, masks, perms)
    return census, orbit_of, _burnside_orbit_count(masks, perms)


def burnside_orbit_count(sets: list[PointSet], group: list[F2Matrix]) -> int:
    """Orbit count as the average number of fixed sets per group element.

    The family is bit-sliced: bit i of column[p] is set when set i contains
    point p.  An element g fixes set i exactly when no point p has column[p]
    and column[g p] differing at bit i, so the union over the points of
    column[p] ^ column[g p], read from a table of the XORs of all pairs of
    points, marks every set that g moves.  Independent recount for
    cross-checking :func:`orbit_census`; requires the family to be closed
    under the action.
    """
    perms = _group_permutations(group)
    return _burnside_orbit_count(_set_masks(sets, group), perms)


def _burnside_orbit_count(masks: list[int], perms: list[bytes]) -> int:
    """:func:`burnside_orbit_count` on set bit masks and point permutations."""
    family = sorted(set(masks))
    column = [
        sum(1 << i for i, mask in enumerate(family) if mask >> p & 1)
        for p in range(len(perms[0]))
    ]
    # bit i of differ[p][q] is set when points p and q differ in membership of set i
    differ = [[cp ^ cq for cq in column] for cp in column]
    total_fixed = 0
    for perm in perms:
        # bit i is set when some point and its image differ in membership of set i
        moved = reduce(or_, map(list.__getitem__, differ, perm))
        total_fixed += len(family) - moved.bit_count()
    count, rem = divmod(total_fixed, len(perms))
    if rem:
        raise ValidationError(
            "total fixed-set count is not a multiple of the group order; "
            "the family is not closed under the action",
            total_fixed=total_fixed, group_order=len(perms),
        )
    return count
