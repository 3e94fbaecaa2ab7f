"""The group GL(k, F2) = PGL(k, F2) for k <= 4, acting on PG(k-1, F2).

The whole group is one table per k, built once per process: one ``bytes``
holding a row of 2^k bytes per element (at most 20160), byte c of a row
being the image of code c under that element.  Every orbit function acts by
the whole table of the dimension it is given.  The table is built by
linearity, one basis image at a time: the image of basis code 2^b is picked
outside the span of the earlier ones, and the images of the codes below
2^(b+1) follow as XORs of basis images, so no singular candidate is ever
tried.  The last basis image only adds the upper half of a row, so the
2^(k-1) rows of each block share their lower half.
Orbit partitioning, canonical forms and stabilizer orders apply every
permutation of the group, which at these sizes is the most auditable
approach.  A set is applied column by column: column c of the table, the
image of point c under every element, is translated by a 256-byte table
that marks the points of the set, which gives for every element whether it
maps c into the set.  The columns together give the mask of every inverse
image, and over the whole group the inverse images are the images, each as
often.  Canonical forms are lexicographic minima of orbits under the
integer encoding of point-set bit masks, so they are independent of
traversal order.  The Burnside recount is a different algorithm: it forms
no orbit and no image set.  The family is bit-sliced into one integer per
point.  Points are paired (0 and 1, 2 and 3, ...), and the table is read in
place as native 16-bit words, each holding the images of one pair; per pair
a dict maps the word to the union of the two points' XORs with their
images, and per element the OR of one entry per pair marks every set of the
family that it moves.  The words of a block's shared lower half are looked
up once per block.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import lru_cache, partial, reduce
from itertools import chain, repeat
from operator import or_

from .errors import Record, ValidationError, is_int
from .f2geom import PointSet, _check_dim, pointset_to_json


class F2Matrix(Record):
    """An invertible k x k matrix over F2; row i is packed like a point code."""

    k: int
    rows: tuple[int, ...]

    def __post_init__(self):
        _check_dim(self.k)
        object.__setattr__(self, "rows", tuple(self.rows))  # hashable and frozen
        if len(self.rows) != self.k:
            raise ValidationError(f"expected {self.k} rows, got {len(self.rows)}",
                                  expected=self.k, got=len(self.rows))
        top = 1 << self.k
        if any(not is_int(r) or not 0 <= r < top for r in self.rows):
            raise ValidationError(f"row out of range for k={self.k}", rows=self.rows)
        # invertible exactly when the images of the 2^k codes are distinct
        if len(set(self.point_permutation())) != top:
            raise ValidationError("matrix is singular over F2", rows=self.rows)

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
            perm += perm.translate(_XOR_BY[self.apply_code(1 << b)])
        return tuple(perm)


# _XOR_BY[v] is the byte translation c -> c ^ v of the point codes c < 16.
# With the images perm of the codes below m = 2^b, perm.translate(_XOR_BY[v])
# is the images of the codes m + c when code m maps to v (linearity).
_CODES = bytes(range(16))
_XOR_BY = [bytes.maketrans(_CODES, bytes([c ^ v for c in _CODES])) for v in range(16)]


@lru_cache(maxsize=None)
def _gl_table(k: int) -> bytes:
    """The point permutations of the elements of GL(k, F2), one row of 2^k
    bytes per element in build order: bytes [e 2^k, (e + 1) 2^k) are the
    images of the codes 0 .. 2^k - 1 under element e."""
    _check_dim(k)
    n, half = 1 << k, 1 << (k - 1)
    points = _CODES[1:n]
    rows = [b"\0"]
    for _ in range(k - 1):
        # the images so far are exactly the span of the basis images so far,
        # and translate(None, p) deletes them from the candidates
        rows = [p + p.translate(_XOR_BY[image])
                for p in rows for image in points.translate(None, p)]
    # Each row p, the lower half, heads one block of `half` rows, one for
    # each image of code `half` outside its span: `last` holds that image,
    # one byte per element.  The upper halves follow by linearity, one
    # column of the table at a time: image(c) = image(c - half) ^ image(half).
    last = int.from_bytes(b"".join([points.translate(None, p) for p in rows]), "little")
    lower = b"".join(rows)
    del rows
    order = len(lower)
    table = bytearray(order << k)
    for c in range(half):
        column = lower[c::half]
        for j in range(c, half * n, n):  # code c of each row of a block
            table[j::half * n] = column
    for c in range(half, n):
        image = int.from_bytes(table[c - half::n], "little") ^ last
        table[c::n] = image.to_bytes(order, "little")
    return bytes(table)


class Orbit(Record):
    """One orbit of a census: its least member, its size and the order of
    the stabilizer of that member."""

    representative: PointSet
    size: int
    stabilizer_order: int


class OrbitCensus(Record):
    """Orbit partition of a family of point sets under GL(k, F2)."""

    orbits: tuple[Orbit, ...]
    group_order: int

    def __post_init__(self):
        seen = set()
        for o in self.orbits:
            if o.representative.mask in seen:
                raise ValidationError(
                    "orbit representatives are not pairwise distinct",
                    representative=pointset_to_json(o.representative),
                )
            seen.add(o.representative.mask)
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


def act(m: F2Matrix, s: PointSet) -> PointSet:
    """Image point set {m * p : p in s}; cardinality is preserved."""
    if m.k != s.k:
        raise ValidationError(f"dimension mismatch: matrix k={m.k}, set k={s.k}")
    perm = m.point_permutation()
    return PointSet(s.k, sum(1 << perm[p] for p in range(len(perm)) if s.mask >> p & 1))


# the byte of a native 16-bit word that holds its low 8 bits
_LOW = int(sys.byteorder == "big")


def _orbit(mask: int, k: int, table: bytes) -> dict[int, int]:
    """Every set T of the orbit of the set ``mask`` under the group whose
    permutation table is ``table``, with the number of elements g such that
    g^-1 mask = T (for T = mask, the stabilizer order).

    Column c of the table, ``table[c::2^k]``, holds the image of point c
    under each element.  Translated by the set's table that maps each point
    of the set to 2^(c % 8) and every other point to 0, it marks the
    elements that map c into the set; ORed over the columns, byte e of the
    points below 8 and of the points from 8 are the two bytes of the mask of
    g_e^-1 mask, which land in the 16-bit lanes of ``lanes``.  The inverses
    run over the same elements as the permutations only in a whole group,
    so this holds only for the whole table.
    """
    n = 1 << k
    order = len(table) >> k
    # bit_at[b]: byte q is 2^b when point q is in the set, else 0
    bit_at = [bytes((mask >> q & 1) << b for q in range(n)).ljust(256, b"\0")
              for b in range(8)]
    low_high = [0, 0]
    for c in range(1, n):
        low_high[c >> 3] |= int.from_bytes(table[c::n].translate(bit_at[c & 7]), "little")
    lanes = bytearray(2 * order)
    lanes[_LOW::2] = low_high[0].to_bytes(order, "little")
    lanes[1 - _LOW::2] = low_high[1].to_bytes(order, "little")
    return dict(Counter(memoryview(lanes).cast("H")))


def canonical_form(s: PointSet) -> PointSet:
    """Minimum bit-set encoding over the GL(k, F2)-orbit of s; constant on
    orbits."""
    return PointSet(s.k, min(_orbit(s.mask, s.k, _gl_table(s.k))))


def orbit_census(k: int, sets: list[PointSet]) -> OrbitCensus:
    """Partition ``sets``, point sets of PG(k-1, F2), into GL(k, F2)-orbits.

    The caller guarantees that ``sets`` is closed under the action; a
    computed orbit element outside ``sets`` raises a closure violation.
    """
    _check_dim(k)
    for s in sets:
        if s.k != k:
            raise ValidationError(f"dimension mismatch: group k={k}, set k={s.k}")
    return _orbit_census(k, [s.mask for s in sets])[0]


def _orbit_census(k: int, masks: list[int]) -> tuple[OrbitCensus, dict[int, int]]:
    """:func:`orbit_census` on set bit masks; also maps every mask of the
    family to the index of its orbit in the census."""
    table = _gl_table(k)
    order = len(table) >> k
    codes = sorted(set(masks))
    code_set = set(codes)
    orbits: list[Orbit] = []
    orbit_of: dict[int, int] = {}
    for code in codes:
        if code in orbit_of:
            continue
        orbit = _orbit(code, k, table)
        stray = orbit.keys() - code_set
        if stray:
            raise ValidationError(
                "input family is not closed under the group action",
                missing_mask=min(stray),
            )
        # codes ascend and the family is closed, so code is the least mask
        # of its orbit and the orbits come out in representative order
        orbit_of.update(dict.fromkeys(orbit, len(orbits)))
        orbits.append(Orbit(PointSet(k, code), len(orbit), orbit[code]))
    return OrbitCensus(tuple(orbits), order), orbit_of


def _burnside_orbit_count(k: int, masks: list[int]) -> int:
    """Number of GL(k, F2)-orbits of the sets with bit masks ``masks``, as
    the average number of fixed sets per group element.

    The family is bit-sliced: bit i of column[p] is set when set i contains
    point p.  An element g fixes set i exactly when no point p has column[p]
    and column[g p] differing at bit i, so the union over the points of
    column[p] ^ column[g p], read two points at a time from tables keyed by
    the images of a pair of points, marks every set that g moves.  Every
    per-element step is a C-level ``map``.  Independent recount for
    cross-checking :func:`orbit_census`; requires the family to be closed
    under the action.
    """
    table = _gl_table(k)
    n = 1 << k
    order = len(table) >> k
    family = sorted(set(masks))
    column = [
        sum(1 << i for i, mask in enumerate(family) if mask >> p & 1)
        for p in range(n)
    ]
    # The table is read as native 16-bit words, w = n/2 per element: word j
    # holds the images q0, q1 of points 2j and 2j + 1, and
    # pair[j][word] = (column[2j] ^ column[q0]) | (column[2j + 1] ^ column[q1]).
    pair = [
        {
            int.from_bytes(bytes((q0, q1)), sys.byteorder):
                column[p] ^ column[q0] | column[p + 1] ^ column[q1]
            for q0 in range(n) for q1 in range(n) if q0 != q1
        }
        for p in range(0, n, 2)
    ]
    words = memoryview(table).cast("H")
    w = n // 2
    # The n/2 rows of a block share their lower half, words 0 .. w/2 - 1, so
    # those are looked up once per block (stride w n/2) and the upper half
    # once per row (stride w); each half ORs its words' values elementwise.
    lower = reduce(partial(map, or_), [map(pair[j].__getitem__, words[j::w * n // 2])
                                       for j in range(w // 2)])
    upper = reduce(partial(map, or_), [map(pair[j].__getitem__, words[j::w])
                                       for j in range(w // 2, w)])
    moved = map(or_, chain.from_iterable(map(repeat, lower, repeat(n // 2))), upper)
    # bit i of an element's value is set when some point and its image differ
    # in membership of set i, that is when the element moves set i
    total_fixed = len(family) * order - sum(map(int.bit_count, moved))
    count, rem = divmod(total_fixed, order)
    if rem:
        raise ValidationError(
            "total fixed-set count is not a multiple of the group order; "
            "the family is not closed under the action",
            total_fixed=total_fixed, group_order=order,
        )
    return count
