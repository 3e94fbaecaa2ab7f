"""Exact projective line arrangements over Q and Q(omega).

Scalars are elements a + b*omega of the cyclotomic field Q(omega), omega a
primitive cube root of unity (omega^2 = -1 - omega), with exact rational
components; setting b = 0 recovers plain rationals.  No floating point is
used anywhere: intersection multiplicities are discontinuous, so incidence
must be grouped exactly.

Lines and points have one representation: the canonical primitive vector
over the Eisenstein integers Z[omega], 6 integers (a, b) per coordinate
(see `_canonical`).  A rational vector is the case where every b is 0, and
it keeps that one representation: two lines meet in the point whose key is
the canonical form of their cross product, and no field division happens
per line pair.  When both lines are rational the cross product takes 3
integers and the key is its primitive multiple, with every b written as 0;
any other pair takes the product over Z[omega].  Genericity is never
assumed: the incidence report states the actual multiplicities.

Every key has one shape: the coordinates before its lead are 0 and the
lead coordinate is (L, 0) with L > 0, so b0 is always 0.  Points are ordered
by lead position (a2, then a1, then a0), then by the entries after the lead
coordinate: the lexicographic order of their leading-1 coordinates.  Keys
are unique per line and `LabeledArrangement` refuses equal lines, so no two
lines of an arrangement have a zero cross product, and none is checked.

A coefficient a + b*omega appears as such only at input and in the
derived leading-1 `ProjLine.coeffs`; no field arithmetic is done on it.
JSON coefficients are read as integer (num, den) pairs, which `_line_vec`
scales by the lcm of their denominators into an integer vector.  `Fraction`
appears only at the library boundary, and `fractions` is imported only
there: `ProjLine(coeffs)` takes an (a, b) pair of ints or Fractions (or a
plain a), and `ProjLine.coeffs` returns (a, b) pairs of Fractions.  An
incidence report is a value: its points are (key, lines) pairs of integer
tuples, and JSON output is written from those integers directly
(`_key_json`, and `_points_json` for the `points` array of the command
line).
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from math import gcd, lcm
from typing import TYPE_CHECKING

from .errors import MalformedInputError, Record, ValidationError, digit_limit_error, is_int
from .f2geom import F2Point, PointSet, is_totally_even

if TYPE_CHECKING:
    from fractions import Fraction

    from .evenclass import EvenSetType

__all__ = [
    "ProjLine",
    "LabeledArrangement",
    "IncidenceReport",
    "CampedelliReport",
    "ExtensionReport",
    "compute_incidences",
    "check_campedelli",
    "analyze_extension",
    "load_arrangement",
]


def _rational(x) -> tuple[int, int]:
    """A component of a library coefficient, an int or a Fraction, as its
    (numerator, denominator) pair."""
    if is_int(x):
        return x, 1
    from fractions import Fraction

    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise ValidationError(f"coefficient components must be integers or Fractions, got {x!r}")


def _line_vec(parts) -> tuple[int, ...]:
    """The canonical key of the line whose six components a0, b0, a1, b1,
    a2, b2 are the rationals num / den of ``parts``, (num, den) integer
    pairs with den != 0, reduced or not: the components times the lcm of
    the denominators, an integer vector, made canonical."""
    den = lcm(*(d for _, d in parts))
    vec = _canonical([n * (den // d) for n, d in parts])
    if vec is None:
        raise ValidationError("coefficient vector is zero")
    return vec


def _canonical(vec) -> tuple[int, ...] | None:
    """The canonical key of a projective vector over Z[omega], or None for
    the zero vector.

    The vector is multiplied by the conjugate (p - q) - q*omega of its
    leading coordinate p + q*omega, which becomes the norm p^2 - pq + q^2 > 0,
    and (a, b) becomes (a(p - q) + bq, bp - aq); the integers are then
    divided by their gcd.  Proportional vectors get the same key.  A
    rational vector keeps every b = 0 and gets its primitive integer
    multiple with first nonzero entry positive.  A lead at a2 always gives
    the key of (0 : 0 : 1).
    """
    a0, b0, a1, b1, a2, b2 = vec
    if a0 or b0:
        c = a0 - b0
        n, x1, y1 = a0 * c + b0 * b0, a1 * c + b1 * b0, b1 * a0 - a1 * b0
        x2, y2 = a2 * c + b2 * b0, b2 * a0 - a2 * b0
        g = gcd(n, x1, y1, x2, y2)
        return (n // g, 0, x1 // g, y1 // g, x2 // g, y2 // g)
    if a1 or b1:
        c = a1 - b1
        n, x2, y2 = a1 * c + b1 * b1, a2 * c + b2 * b1, b2 * a1 - a2 * b1
        g = gcd(n, x2, y2)
        return (0, 0, n // g, 0, x2 // g, y2 // g)
    if a2 or b2:
        return (0, 0, 0, 0, 1, 0)
    return None


class ProjLine(Record):
    """A projective line, stored as the canonical key of its coefficients.

    Each of the three coefficients a + b*omega is an int or Fraction a, or
    an (a, b) pair of them."""

    vec: tuple[int, ...]

    def __init__(self, coeffs):
        pairs = tuple(c if isinstance(c, tuple) and len(c) == 2 else (c, 0) for c in coeffs)
        parts = [_rational(x) for c in pairs for x in c]
        if len(pairs) != 3:
            raise ValidationError(f"expected 3 coefficients, got {len(pairs)}")
        super().__init__(_line_vec(parts))

    @classmethod
    def _of_parts(cls, parts) -> ProjLine:
        """The line of the six (num, den) integer pairs of `_line_vec`."""
        line = cls.__new__(cls)
        Record.__init__(line, _line_vec(parts))
        return line

    @property
    def coeffs(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The coefficients normalized so that the first nonzero one is 1,
        as (a, b) pairs: key / lead, the lead coordinate of the key (lead, 0)."""
        from fractions import Fraction

        key = self.vec
        lead = key[0] or key[2] or key[4]
        return tuple((Fraction(a, lead), Fraction(b, lead)) for a, b in zip(key[::2], key[1::2]))

    def __repr__(self):
        return f"ProjLine{self.coeffs}"


class IncidenceReport(Record):
    """All pairwise intersection points of an arrangement, grouped exactly:
    each point is the pair (key, lines) of its canonical key and the sorted
    indices of the lines through it, and the histogram holds the sorted
    (multiplicity, count) pairs."""

    points: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    histogram: tuple[tuple[int, int], ...]
    line_count: int

    def __post_init__(self):
        pairs = sum(m * (m - 1) // 2 * c for m, c in self.histogram)
        if pairs != self.line_count * (self.line_count - 1) // 2:
            raise ValidationError(
                "intersection grouping lost pairs: sum C(mult, 2) != C(lines, 2)",
                pair_sum=pairs, line_count=self.line_count,
            )

    def as_json(self, points=None) -> dict:
        """The JSON form; ``points``, when given, stands for the array of
        point objects (the command line passes the chunks of `_points_json`)."""
        if points is None:
            points = [
                {"coords": _key_json(key), "lines": list(lines), "multiplicity": len(lines)}
                for key, lines in self.points
            ]
        return {
            "line_count": self.line_count,
            "point_count": len(self.points),
            "histogram": [[m, c] for m, c in reversed(self.histogram)],
            "points": points,
        }


class LabeledArrangement(Record):
    """Distinct projective lines, optionally labeled by points over F2."""

    lines: tuple[ProjLine, ...]
    labels: tuple[F2Point, ...]

    def __init__(self, lines, labels=()):
        super().__init__(tuple(lines), tuple(labels))

    def __post_init__(self):
        seen: dict[ProjLine, int] = {}
        for i, line in enumerate(self.lines):
            if line in seen:
                raise ValidationError(
                    f"lines {seen[line]} and {i} coincide", indices=[seen[line], i]
                )
            seen[line] = i
        if self.labels and len(self.labels) != len(self.lines):
            raise ValidationError(
                f"{len(self.labels)} labels for {len(self.lines)} lines"
            )
        if self.labels:
            k = self.labels[0].k
            if any(lab.k != k for lab in self.labels):
                raise ValidationError("labels of mixed dimensions")


# Peak memory grows with the number of line pairs, by about 0.5 KB per pair
# for generic rational lines with 7-bit coefficients (peak RSS of a cold
# `plurican incidences`, Python 3.11: 300 lines 41 MB, 400 lines 58 MB), so
# more lines than this are refused before any pair is formed; at the cap,
# 179700 pairs take about 0.11 GB.
MAX_INCIDENCE_LINES = 600

# Each bit of the longest canonical line entry adds about 2.5 bytes of peak
# RSS per pair (cold `plurican incidences`, generic lines, 300 / 400 lines:
# over Q 7 bits 41 / 58 MB, 127 bits 57 / 82 MB; over Q(omega) 126 bits
# 90 / 134 MB, the points array written as it is made), so longer entries
# are refused before any pair is formed; at both caps, 600 generic lines
# with 127-128-bit entries (each drawn from +-[2^126, 2^128), the first
# coordinate rational) take about 0.13 GB over Q and 0.28 GB over Q(omega)
# (134 and 279 MB, Python 3.11).
MAX_COEFFICIENT_BITS = 128


def compute_incidences(arr: LabeledArrangement) -> IncidenceReport:
    """Intersect all line pairs and group equal points exactly.

    Points are grouped by the canonical key of the lines' cross product
    (see `_canonical`), over Q and Q(omega) alike.  A pair of rational
    lines, every b 0, meets by the 3-integer cross product: the key is its
    primitive multiple with first nonzero entry positive, every b written
    as 0.  Any other pair meets by the product over Z[omega] and
    `_canonical`.  The leading-1 coordinates of a point are key / lead,
    lead > 0 the first nonzero entry of the key (b0 = 0, and the lead
    coordinate is (lead, 0)).  Points are listed in lexicographic order of
    those coordinates, (a, b) per coordinate: by lead position, then by the
    entries after the lead coordinate.  The lines are distinct, so no pair
    is checked for a zero cross product.

    An arrangement of more than `MAX_INCIDENCE_LINES` lines, or whose
    canonical line vectors hold an entry of more than `MAX_COEFFICIENT_BITS`
    bits, is refused first.
    """
    lines = arr.lines
    if len(lines) > MAX_INCIDENCE_LINES:
        raise ValidationError(
            f"{len(lines)} lines are above the limit {MAX_INCIDENCE_LINES} for incidences",
            lines=len(lines), limit=MAX_INCIDENCE_LINES,
        )
    vecs = [line.vec for line in lines]
    bits = max((x.bit_length() for vec in vecs for x in vec), default=0)
    if bits > MAX_COEFFICIENT_BITS:
        raise ValidationError(f"{bits}-bit coefficients are above the limit {MAX_COEFFICIENT_BITS}",
                              bits=bits, limit=MAX_COEFFICIENT_BITS)
    if len(lines) < 2:
        raise ValidationError("need at least two lines to intersect")
    # the lines through each point, ascending: pairs come in lexicographic
    # order, so at a point through l1 < l2 < ... the pairs (l1, x) come
    # first, (l1, l2) first of all, and a later pair (l2, y) adds no line
    by_key: dict[tuple[int, ...], list[int]] = {}
    # (index, vector, whether every b is 0) per line; the lists of line
    # indices share these index objects instead of holding one int per pair
    rows = [(i, vec, not (vec[3] or vec[5])) for i, vec in enumerate(vecs)]
    # A canonical key has b0 = 0, so only b1 and b2 are read.  The lines are
    # distinct and a key is unique per line, so no cross product is 0 and
    # none is checked: were one 0, the division by g = 0 or the None key
    # would end in exit 3, a fault of the program, not a verdict on input.
    for i, (u0, _, u1, u1b, u2, u2b), u_rational in rows:
        for j, (v0, _, v1, v1b, v2, v2b), v_rational in rows[i + 1:]:
            # the cross product over Z[omega], omega^2 = -1 - omega: x, y, z
            # are its a parts when every b is 0
            x = u1 * v2 - u2 * v1
            y = u2 * v0 - u0 * v2
            z = u0 * v1 - u1 * v0
            if u_rational and v_rational:
                # `_canonical` of (x, 0, y, 0, z, 0): the primitive multiple
                # whose first nonzero entry is positive
                g = gcd(x, y, z)
                if (x or y or z) < 0:
                    g = -g
                key = (x // g, 0, y // g, 0, z // g, 0)
            else:
                key = _canonical((
                    x - u1b * v2b + u2b * v1b,
                    u1 * v2b + u1b * v2 - u1b * v2b - u2 * v1b - u2b * v1 + u2b * v1b,
                    y, u2b * v0 - u0 * v2b, z, u0 * v1b - u1b * v0,
                ))
            through = by_key.get(key)
            if through is None:
                by_key[key] = [i, j]
            elif through[0] == i:
                through.append(j)
    # Distinct fractions x / L and y / M with L, M <= max lead differ by at
    # least 1 / max_lead^2, so floor(x * 2^shift / L) with 2^shift >
    # 2 * max_lead^2 orders the coordinates exactly, using integers only.
    # The lead of a key, at a0, a1 or a2, leads the coordinate (lead, 0)
    # after zeros only, so keys sort by lead position, a2 before a1 before
    # a0, then by the entries after the lead coordinate.
    shift = 2 * max(key[0] or key[2] or key[4] for key in by_key).bit_length() + 1
    # Each key sorts as one int: its lead position's rank (0 for a2, 1 for
    # a1, 2 for a0) above the fields of the entries after its lead
    # coordinate, from the top, each floor(x * 2^shift / lead) + 2^(width -
    # 1) in `width` bits, and 0 where a key has fewer entries; a b field
    # takes no bits when every line is rational, as every b is then 0.  Here
    # x / lead is a component of P_i / P_k, for the cross product P = u x v
    # over Z[omega], k the lead position and i > k, so P_i = +-(u0 v_j -
    # u_j v0) for some j.  With T = 2^bits - 1: |u0|, |v0| <= T (b0 = 0),
    # |u_j|, |v_j| <= sqrt(3) T, so |P_i| <= 2 sqrt(3) T^2; |P_k| >= 1; and
    # a component of a + b*omega is at most 2 / sqrt(3) times its absolute
    # value.  So |x / lead| <= 4 T^2 < 2^R for R = 2 bits + 2, and <= 2 T^2
    # < 2^R for R = 2 bits + 1 when every line is rational; a field lies in
    # [0, 2^width) for width = R + shift + 1, and comparing the ints compares
    # rank, then fields, lexicographically.
    rational = all(u_rational for *_, u_rational in rows)
    width = 2 * bits + (2 if rational else 3) + shift
    half = 1 << (width - 1)
    b_width, b_half = (0, 0) if rational else (width, half)
    # the lowest bit of each field of an a0 lead, b2 at 0; an a1 lead puts
    # its a2 and b2 where an a0 lead puts a1 and b1
    at_a2 = b_width
    at_b1 = at_a2 + width
    at_a1 = at_b1 + b_width
    rank = at_a1 + width
    top1 = (1 << rank) + (half << at_a1) + (b_half << at_b1)
    top0 = (2 << rank) + (half << at_a1) + (b_half << at_b1) + (half << at_a2) + b_half

    def sort_key(key):
        a0, _, a1, b1, a2, b2 = key
        if a0:
            return (top0 + ((a1 << shift) // a0 << at_a1) + ((b1 << shift) // a0 << at_b1)
                    + ((a2 << shift) // a0 << at_a2) + (b2 << shift) // a0)
        if a1:
            return top1 + ((a2 << shift) // a1 << at_a1) + ((b2 << shift) // a1 << at_b1)
        return 0

    order = sorted(by_key, key=sort_key)
    # each list of line indices is freed as its tuple is made
    points = tuple((key, tuple(by_key.pop(key))) for key in order)
    histogram = tuple(sorted(Counter(len(lines) for _, lines in points).items()))
    return IncidenceReport(points=points, histogram=histogram, line_count=len(lines))


class CampedelliReport(Record):
    """Validity report for 7-line covering data with (Z/2)^3 labels."""

    passed: bool
    violations: tuple[dict, ...]
    histogram: tuple[tuple[int, int], ...]

    def as_json(self) -> dict:
        return {
            "passed": self.passed,
            "histogram": [[m, c] for m, c in reversed(self.histogram)],
            "violations": list(self.violations),
        }


def check_campedelli(arr: LabeledArrangement) -> CampedelliReport:
    """Check the three covering-data conditions for a labeled 7-line
    arrangement: labels exhaust the nonzero vectors of (Z/2)^3, no point has
    multiplicity 4 or more, and the labels at every triple point sum to a
    nonzero vector.  Every violation is reported with its witness.
    """
    if len(arr.lines) != 7:
        raise ValidationError(f"expected 7 lines, got {len(arr.lines)}")
    if len(arr.labels) != 7 or any(lab.k != 3 for lab in arr.labels):
        raise ValidationError("expected 7 labels over (Z/2)^3")
    violations: list[dict] = []
    codes = sorted(lab.code for lab in arr.labels)
    if codes != list(range(1, 8)):
        violations.append(
            {
                "kind": "labels-not-complete",
                "labels": [list(lab.coords) for lab in arr.labels],
            }
        )
    report = compute_incidences(arr)
    for key, lines in report.points:
        if len(lines) >= 4:
            violations.append(
                {
                    "kind": "multiple-point",
                    "multiplicity": len(lines),
                    "point": _key_json(key),
                    "lines": list(lines),
                }
            )
        elif len(lines) == 3:
            s = 0
            for i in lines:
                s ^= arr.labels[i].code
            if s == 0:
                violations.append(
                    {
                        "kind": "zero-sum-triple",
                        "point": _key_json(key),
                        "lines": list(lines),
                        "labels": [list(arr.labels[i].coords) for i in lines],
                    }
                )
    return CampedelliReport(
        passed=not violations, violations=tuple(violations), histogram=report.histogram
    )


class ExtensionReport(Record):
    """Label analysis of an 8-line extension of 7-line covering data."""

    sum_zero: bool
    totally_even: bool
    even_type: EvenSetType

    def as_json(self) -> dict:
        out = {
            "sum_zero": self.sum_zero,
            "totally_even": self.totally_even,
            "type": self.even_type.tag.value,
        }
        if self.even_type.witness is not None:
            out["witness_hyperplane"] = list(self.even_type.witness.coords)
        return out


def analyze_extension(arr: LabeledArrangement) -> ExtensionReport:
    """Analyze the (Z/2)^4 labels of an 8-line arrangement: whether they sum
    to zero, whether they form a totally even set, and of which type."""
    if len(arr.lines) != 8:
        raise ValidationError(f"expected 8 lines, got {len(arr.lines)}")
    if len(arr.labels) != 8 or any(lab.k != 4 for lab in arr.labels):
        raise ValidationError("expected 8 labels over (Z/2)^4")
    if len({lab.code for lab in arr.labels}) != 8:
        raise ValidationError(
            "labels must be pairwise distinct",
            labels=[list(lab.coords) for lab in arr.labels],
        )
    from .evenclass import classify_type

    total = 0
    for lab in arr.labels:
        total ^= lab.code
    point_set = PointSet.from_points(arr.labels)
    return ExtensionReport(
        sum_zero=(total == 0),
        totally_even=is_totally_even(point_set),
        even_type=classify_type(point_set),
    )


# --- JSON schema -----------------------------------------------------------
#
# {"field": "Q" | "Q(omega)",
#  "lines": [[coeff, coeff, coeff], ...],
#  "labels": [[bit, ...], ...]}          (labels optional)
#
# A coefficient is [[a_num, a_den]] over Q and
# [[a_num, a_den], [b_num, b_den]] over Q(omega); bare integers and
# [num, den] pairs are accepted on input.  Every number is a JSON integer
# (errors.is_int): booleans and floats are rejected, not coerced.


def _rational_from_json(value) -> tuple[int, int]:
    if is_int(value):
        return value, 1
    if isinstance(value, list) and len(value) == 2 and all(map(is_int, value)):
        if value[1] == 0:
            raise MalformedInputError(f"zero denominator in {value!r}")
        return value[0], value[1]
    raise MalformedInputError(f"cannot parse rational {value!r}")


_ZERO = (0, 1)


def _scalar_from_json(value, allow_omega: bool) -> tuple[tuple[int, int], tuple[int, int]]:
    if is_int(value):
        return (value, 1), _ZERO
    if not isinstance(value, list):
        raise MalformedInputError(f"cannot parse coefficient {value!r}")
    if len(value) == 2 and all(map(is_int, value)):
        return _rational_from_json(value), _ZERO
    if len(value) == 1:
        return _rational_from_json(value[0]), _ZERO
    if len(value) == 2:
        if not allow_omega:
            raise MalformedInputError(
                "omega component present but field is Q; use field Q(omega)"
            )
        return _rational_from_json(value[0]), _rational_from_json(value[1])
    raise MalformedInputError(f"cannot parse coefficient {value!r}")


def _key_json(key) -> list:
    """The leading-1 coordinates key / lead of a canonical vector, each
    [[a_num, a_den]] or, when b != 0, [[a_num, a_den], [b_num, b_den]]."""
    lead = key[0] or key[2] or key[4]  # the leading coordinate is (lead, 0)

    def part(x: int) -> list[int]:
        g = gcd(x, lead)
        return [x // g, lead // g]

    return [[part(a), part(b)] if b else [part(a)] for a, b in zip(key[::2], key[1::2])]


# The text of one point object of the `points` array, which sits at depth 1
# of the `incidences` document, as `json.dumps(indent=2, sort_keys=True)`
# writes it: a coordinate [[a_num, a_den]] when b == 0, else
# [[a_num, a_den], [b_num, b_den]], each number reduced as in `_key_json`.
_PART = "[\n            %d,\n            %d\n          ]"
_COORD_A = "[\n          " + _PART + "\n        ]"
_COORD_AB = "[\n          " + _PART + ",\n          " + _PART + "\n        ]"
_POINT = (
    '{\n      "coords": [\n        %s,\n        %s,\n        %s\n      ],\n'
    '      "lines": [\n        %s\n      ],\n      "multiplicity": %d\n    }'
)
# a point whose three b's are 0: `_COORD_A` in each coordinate slot
_POINT_A = _POINT.replace("%s", _COORD_A, 3)


# points joined into one chunk of `_points_json`; a chunk of the 150
# benchmark tangents is about 85 KB of text, held as a list, a joined string
# and encoded bytes at once, which stays below the peak of `compute_incidences`
_CHUNK_POINTS = 256


def _points_json(points):
    """The text of ``[{"coords": ..., "lines": ..., "multiplicity": ...},
    ...]``, the `points` array of `IncidenceReport.as_json`, indented for
    depth 1 of a JSON document, as an iterator of chunks made as they are
    read: the opening bracket, then ``_CHUNK_POINTS`` points at a time with
    the separator between two batches as a chunk of its own, then the
    closing bracket.

    Each point is written from the (key, lines) integers with fixed-shape
    ``%d`` templates, so no per-point dict is built.  A key entry past the
    interpreter's int/str digit limit is a MalformedInputError raised here,
    before any text is made: no reduced x // g or lead // g is longer than
    the largest |key entry|, and a line index or multiplicity, below
    `MAX_INCIDENCE_LINES`, has 3 digits against a limit of at least 640.
    """
    keys = [key for key, _ in points]
    top = max(max(map(max, keys), default=0), -min(map(min, keys), default=0))
    try:
        int.__repr__(top)
    except ValueError:  # more digits than the int/str limit
        raise digit_limit_error() from None
    return _point_chunks(points)


def _point_chunks(points):
    if not points:
        yield "[]"
        return
    texts = _point_texts(points)
    # no chunk is bound to a name, so one batch and its text are alive at once
    yield "[\n    "
    yield ",\n    ".join(islice(texts, _CHUNK_POINTS))
    for _ in range(_CHUNK_POINTS, len(points), _CHUNK_POINTS):
        yield ",\n    "
        yield ",\n    ".join(islice(texts, _CHUNK_POINTS))
    yield "\n  ]"


def _point_texts(points):
    for key, lines in points:
        indices = ",\n        ".join(map(str, lines))
        a0, _, a1, b1, a2, b2 = key  # b0 is 0
        lead = a0 or a1 or a2  # as in `compute_incidences` and `_key_json`
        if b1 or b2:
            coords = []
            for a, b in ((a0, 0), (a1, b1), (a2, b2)):
                g = gcd(a, lead)
                if b:
                    h = gcd(b, lead)
                    coords.append(_COORD_AB % (a // g, lead // g, b // h, lead // h))
                else:
                    coords.append(_COORD_A % (a // g, lead // g))
            yield _POINT % (*coords, indices, len(lines))
        else:
            g0, g1, g2 = gcd(a0, lead), gcd(a1, lead), gcd(a2, lead)
            yield _POINT_A % (a0 // g0, lead // g0, a1 // g1, lead // g1,
                              a2 // g2, lead // g2, indices, len(lines))


def load_arrangement(data: dict) -> LabeledArrangement:
    """Parse an arrangement from its JSON object form."""
    if not isinstance(data, dict):
        raise MalformedInputError("arrangement must be a JSON object")
    fld = data.get("field", "Q")
    if fld not in ("Q", "Q(omega)"):
        raise MalformedInputError(f"unknown field {fld!r}; use 'Q' or 'Q(omega)'")
    raw_lines = data.get("lines")
    if not isinstance(raw_lines, list) or not raw_lines:
        raise MalformedInputError("arrangement needs a non-empty 'lines' array")
    lines = []
    for raw in raw_lines:
        if not isinstance(raw, list) or len(raw) != 3:
            raise MalformedInputError(f"line must have 3 coefficients, got {raw!r}")
        parts = [x for c in raw for x in _scalar_from_json(c, fld == "Q(omega)")]
        lines.append(ProjLine._of_parts(parts))
    labels: list[F2Point] = []
    if data.get("labels") is not None:
        if not isinstance(data["labels"], list):
            raise MalformedInputError("'labels' must be an array of coordinate arrays")
        for raw in data["labels"]:
            if not isinstance(raw, list):
                raise MalformedInputError(f"label must be a coordinate array, got {raw!r}")
            try:
                labels.append(F2Point.from_coords(raw))
            except ValidationError as exc:
                raise MalformedInputError(f"bad label {raw!r}: {exc}") from exc
    return LabeledArrangement(tuple(lines), tuple(labels))
