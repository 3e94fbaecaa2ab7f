"""Projective geometry over F2: points, hyperplanes and point sets of PG(k-1, F2).

Since F2 has a trivial scalar group, nonzero vectors and projective points
coincide.  A point of PG(k-1, F2) with coordinates (a_1, ..., a_k) is encoded
as the integer a_1 * 2^(k-1) + ... + a_k * 2^0, so the first coordinate sits
in the most significant bit and the encodings run over 1 .. 2^k - 1.  This
ordering is the canonical point enumeration used everywhere in the package.

Hyperplanes reuse the same encoding through their normal vector, and a point
lies on a hyperplane exactly when the F2 dot product of the two encodings is
zero, i.e. when popcount(code & normal) is even.  A point set is a bit set
indexed by point encoding, which makes incidence counting, symmetric
difference and group actions cheap integer arithmetic.

Only k in {2, 3, 4} is supported; that keeps every exhaustive enumeration in
the package trivially small.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from .errors import Record, ValidationError, is_int

SUPPORTED_DIMS = (2, 3, 4)


def _check_dim(k: int) -> None:
    if not is_int(k) or k not in SUPPORTED_DIMS:
        raise ValidationError(
            f"unsupported dimension parameter k={k}; supported: {SUPPORTED_DIMS}",
            k=k,
        )


def num_points(k: int) -> int:
    """Number of points (= number of hyperplanes) of PG(k-1, F2)."""
    _check_dim(k)
    return (1 << k) - 1


class F2Point(Record):
    """A point of PG(k-1, F2), encoded as a nonzero integer in 1 .. 2^k - 1."""

    k: int
    code: int

    def __post_init__(self):
        _check_dim(self.k)
        if not is_int(self.code) or not 1 <= self.code <= num_points(self.k):
            raise ValidationError(
                f"point code {self.code} out of range for k={self.k}",
                code=self.code, k=self.k,
            )

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "F2Point":
        k = len(coords)
        _check_dim(k)
        code = 0
        for bit in coords:
            if not is_int(bit) or bit not in (0, 1):
                raise ValidationError(f"coordinate {bit!r} is not an F2 value")
            code = (code << 1) | bit
        return cls(k, code)

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple((self.code >> (self.k - 1 - i)) & 1 for i in range(self.k))

    def __repr__(self) -> str:
        return f"F2Point{self.coords}"


class Hyperplane(Record):
    """A hyperplane of PG(k-1, F2), encoded by its nonzero normal vector."""

    k: int
    normal: int

    def __post_init__(self):
        _check_dim(self.k)
        if not is_int(self.normal) or not 1 <= self.normal <= num_points(self.k):
            raise ValidationError(
                f"hyperplane normal {self.normal} out of range for k={self.k}",
                normal=self.normal, k=self.k,
            )

    @property
    def coords(self) -> tuple[int, ...]:
        return F2Point(self.k, self.normal).coords

    def __repr__(self) -> str:
        return f"Hyperplane{self.coords}"


class PointSet(Record):
    """A subset of the points of PG(k-1, F2), stored as a bit set over codes."""

    k: int
    mask: int

    def __post_init__(self):
        _check_dim(self.k)
        limit = 1 << (num_points(self.k) + 1)
        if not is_int(self.mask) or self.mask & 1 or not 0 <= self.mask < limit:
            raise ValidationError(
                f"mask {self.mask} is not a valid point bit set for k={self.k}",
                mask=self.mask, k=self.k,
            )

    @classmethod
    def from_codes(cls, k: int, codes: Iterable[int]) -> "PointSet":
        mask = 0
        for c in codes:
            if not is_int(c) or not 1 <= c <= num_points(k):
                raise ValidationError(f"point code {c} out of range for k={k}")
            mask |= 1 << c
        return cls(k, mask)

    @classmethod
    def from_points(cls, points: Iterable[F2Point]) -> "PointSet":
        points = list(points)
        if not points:
            raise ValidationError("cannot infer dimension from an empty point list")
        k = points[0].k
        for p in points:
            if p.k != k:
                raise ValidationError("points of mixed dimensions", dims=[k, p.k])
        return cls.from_codes(k, (p.code for p in points))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def codes(self) -> tuple[int, ...]:
        return tuple(c for c in range(1, num_points(self.k) + 1) if (self.mask >> c) & 1)

    def points(self) -> tuple[F2Point, ...]:
        return tuple(F2Point(self.k, c) for c in self.codes())

    def __repr__(self) -> str:
        return f"PointSet(k={self.k}, {{{', '.join(str(c) for c in self.codes())}}})"


@lru_cache(maxsize=None)
def _hyperplane_masks(k: int) -> tuple[int, ...]:
    """For each normal code, the bit set of point codes on that hyperplane.

    Index 0 is unused (there is no hyperplane with zero normal).
    """
    n = num_points(k)
    masks = [0]
    for normal in range(1, n + 1):
        m = 0
        for p in range(1, n + 1):
            if (p & normal).bit_count() % 2 == 0:
                m |= 1 << p
        masks.append(m)
    return tuple(masks)


def _sections(k: int, mask: int) -> list[int]:
    """Intersection sizes |mask & H| over the hyperplanes H of PG(k-1, F2),
    by ascending normal."""
    return [(mask & m).bit_count() for m in _hyperplane_masks(k)[1:]]


def is_totally_even(s: PointSet) -> bool:
    """True iff s meets every hyperplane in an even number of points."""
    masks = _hyperplane_masks(s.k)
    return all((s.mask & m).bit_count() % 2 == 0 for m in masks[1:])


def pointset_to_json(s: PointSet) -> list[list[int]]:
    """Coordinate arrays of the members, ascending encoding order."""
    return [list(p.coords) for p in s.points()]
