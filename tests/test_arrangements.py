import io
import json
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from importlib import resources
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from _oracles import (
    TYPE_II_REPRESENTATIVE, _qw_add, _qw_inv, _qw_mul, _qw_sub, arrangement_to_json,
    is_rational, leading_one_incidences, whole_key_order,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plurican.errors import MalformedInputError, ValidationError
from plurican.evenclass import EvenSetTag
from plurican.f2geom import F2Point
from plurican.arrangements import (
    MAX_COEFFICIENT_BITS,
    LabeledArrangement,
    ProjLine,
    _canonical,
    analyze_extension,
    check_campedelli,
    compute_incidences,
    load_arrangement,
)
from plurican.cli import main

# scalars a + b*omega of Q(omega) as (a, b) pairs, with the oracle's arithmetic
ONE, OMEGA = (1, 0), (0, 1)

rationals = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 7)
)
scalars = st.tuples(rationals, rationals)


def fixture(name: str) -> dict:
    path = resources.files("plurican").joinpath("data", name)
    return json.loads(path.read_text(encoding="utf-8"))


def moment_lines(count: int) -> list[ProjLine]:
    return [ProjLine(((i, 0), (-1, 0), (i * i, 0))) for i in range(count)]


def labels3(codes) -> list[F2Point]:
    return [F2Point(3, c) for c in codes]


# --- the scalar field -------------------------------------------------------


def test_omega_relations():
    assert _qw_mul(OMEGA, OMEGA) == (-1, -1)
    assert _qw_mul(_qw_mul(OMEGA, OMEGA), OMEGA) == ONE
    assert _qw_mul(_qw_inv(OMEGA), OMEGA) == ONE


def test_rationals_embed():
    x = (Fraction(3, 4), 0)
    assert _qw_add(x, (Fraction(1, 4), 0)) == ONE
    assert _qw_mul(x, (4, 0)) == (3, 0)
    assert _qw_inv(x) == (Fraction(4, 3), 0)
    # a rational coefficient is a pair with b = 0, or its a alone
    assert ProjLine((x, ONE, (0, 0))) == ProjLine((Fraction(3, 4), 1, 0)) == ProjLine((3, 4, 0))
    assert is_rational(ProjLine((x, ONE, (0, 0))))


@settings(max_examples=200)
@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert _qw_add(_qw_add(x, y), z) == _qw_add(x, _qw_add(y, z))
    assert _qw_mul(_qw_mul(x, y), z) == _qw_mul(x, _qw_mul(y, z))
    assert _qw_mul(x, _qw_add(y, z)) == _qw_add(_qw_mul(x, y), _qw_mul(x, z))
    assert _qw_add(x, y) == _qw_add(y, x)
    assert _qw_mul(x, y) == _qw_mul(y, x)
    assert _qw_sub(_qw_add(x, y), y) == x


@settings(max_examples=200)
@given(scalars)
def test_multiplicative_inverse(x):
    if x != (0, 0):
        assert _qw_mul(x, _qw_inv(x)) == ONE
        assert _qw_inv(_qw_inv(x)) == x


# --- lines and incidence ----------------------------------------------------


rational_scalars = st.tuples(rationals, st.just(Fraction(0)))
nonzero_scalars = scalars.filter(lambda x: x != (0, 0))


@st.composite
def coefficient_triples(draw) -> tuple[tuple[tuple[Fraction, Fraction], ...], bool]:
    """A nonzero triple over Q or Q(omega), and whether it was drawn over Q."""
    rational = draw(st.booleans())
    triple = st.tuples(*[rational_scalars if rational else scalars] * 3)
    return draw(triple.filter(lambda t: any(c != (0, 0) for c in t))), rational


@settings(max_examples=200, deadline=None)
@given(coefficient_triples(), nonzero_scalars)
@example((((2, 0), (4, 0), (-6, 0)), True), OMEGA)
@example(((OMEGA, (0, 2), (0, -3)), False), (-1, 0))
def test_line_normalization_identifies_scalings(drawn, scale):
    coeffs, rational = drawn
    line = ProjLine(coeffs)
    scaled = ProjLine(tuple(_qw_mul(scale, c) for c in coeffs))
    assert scaled == line and hash(scaled) == hash(line)
    assert ProjLine(line.coeffs) == line
    assert next(c for c in line.coeffs if c != (0, 0)) == ONE
    assert_canonical_shape(line.vec)
    # a triple drawn over Q(omega) may still be a multiple of a rational one
    inverse = _qw_inv(next(c for c in coeffs if c != (0, 0)))
    assert is_rational(line) == all(_qw_mul(c, inverse)[1] == 0 for c in coeffs)
    if rational:
        assert is_rational(line)


def leading_one_json(coeffs) -> list:
    """The JSON form of a coefficient triple divided by its first nonzero
    entry, computed on (a, b) Fraction pairs."""
    inverse = _qw_inv(next(c for c in coeffs if c != (0, 0)))
    out = []
    for c in coeffs:
        qa, qb = _qw_mul(c, inverse)
        out.append([[qa.numerator, qa.denominator]] + ([[qb.numerator, qb.denominator]] if qb else []))
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(coefficient_triples(), min_size=1, max_size=6))
def test_arrangement_json_lines_match_leading_one_oracle(drawn):
    raw, lines = [], []
    for coeffs, _ in drawn:
        line = ProjLine(coeffs)
        if line not in lines:
            raw.append(coeffs)
            lines.append(line)
    data = arrangement_to_json(LabeledArrangement(tuple(lines)))
    assert data["lines"] == [leading_one_json(c) for c in raw]
    assert data["field"] == ("Q" if all(map(is_rational, lines)) else "Q(omega)")


def test_zero_line_rejected():
    with pytest.raises(ValidationError):
        ProjLine(((0, 0), (0, 0), (0, 0)))
    with pytest.raises(ValidationError):
        ProjLine((0, Fraction(0), (0, 0)))


def test_intersection_of_axes():
    x_axis = ProjLine(((0, 0), (1, 0), (0, 0)))  # y = 0
    y_axis = ProjLine(((1, 0), (0, 0), (0, 0)))  # x = 0
    report = compute_incidences(LabeledArrangement((x_axis, y_axis)))
    ((key, lines),) = report.points
    assert key == (0, 0, 0, 0, 1, 0)  # the point (0 : 0 : 1)
    assert lines == (0, 1)
    assert report.as_json()["points"][0]["coords"] == [[[0, 1]], [[0, 1]], [[1, 1]]]


def test_three_concurrent_lines():
    lines = [
        ProjLine(((1, 0), (0, 0), (0, 0))),
        ProjLine(((0, 0), (1, 0), (0, 0))),
        ProjLine(((1, 0), (1, 0), (0, 0))),
    ]
    report = compute_incidences(LabeledArrangement(tuple(lines)))
    assert report.histogram == ((3, 1),)
    assert report.points[0][1] == (0, 1, 2)


def test_three_generic_lines():
    report = compute_incidences(LabeledArrangement(tuple(moment_lines(3))))
    assert report.histogram == ((2, 3),)


# a line and a multiple of it: by 2, and by 1 + omega
@pytest.mark.parametrize("coeffs,scaled", [
    ((1, 2, 3), (2, 4, 6)),
    ((OMEGA, 1, 0), (-1, (1, 1), 0)),
])
def test_duplicate_lines_rejected(coeffs, scaled):
    # the only place equal lines are refused: the pair loop does not check
    with pytest.raises(ValidationError) as info:
        LabeledArrangement((ProjLine(coeffs), ProjLine(scaled)))
    assert info.value.details == {"indices": [0, 1]}


def test_dual_hesse_configuration():
    arr = load_arrangement(fixture("dual-hesse.json"))
    assert len(arr.lines) == 9
    report = compute_incidences(arr)
    assert report.histogram == ((3, 12),)
    assert len(report.points) == 12
    assert sum(len(lines) * (len(lines) - 1) // 2 for _, lines in report.points) == 36


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_identity_on_random_arrangements(data):
    n = data.draw(st.integers(2, 6))
    coeffs = st.tuples(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
    ).filter(lambda t: any(t))
    raw = data.draw(st.lists(coeffs, min_size=n, max_size=n))
    lines = []
    for t in raw:
        line = ProjLine(tuple((c, 0) for c in t))
        if line not in lines:
            lines.append(line)
    if len(lines) < 2:
        return
    report = compute_incidences(LabeledArrangement(tuple(lines)))
    pairs = sum(len(lines) * (len(lines) - 1) // 2 for _, lines in report.points)
    assert pairs == len(lines) * (len(lines) - 1) // 2


def dot(u, v):
    """The sum of u[i] * v[i] over Q(omega)."""
    return _qw_add(_qw_add(_qw_mul(u[0], v[0]), _qw_mul(u[1], v[1])), _qw_mul(u[2], v[2]))


def apply_matrix(matrix, line: ProjLine) -> ProjLine:
    """The line with coefficient column vector ``matrix`` times ``line.coeffs``."""
    return ProjLine(tuple(dot([(x, 0) for x in row], line.coeffs) for row in matrix))


def test_projective_invariance_of_histogram():
    arr = load_arrangement(fixture("dual-hesse.json"))
    base = compute_incidences(arr).histogram
    matrices = [
        [[1, 2, 0], [0, 1, 0], [3, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        [[2, 0, 1], [1, 1, 0], [0, 1, 1]],
    ]
    for matrix in matrices:
        moved = LabeledArrangement(tuple(apply_matrix(matrix, l) for l in arr.lines))
        assert compute_incidences(moved).histogram == base


def cross(u, v):
    return (
        _qw_sub(_qw_mul(u[1], v[2]), _qw_mul(u[2], v[1])),
        _qw_sub(_qw_mul(u[2], v[0]), _qw_mul(u[0], v[2])),
        _qw_sub(_qw_mul(u[0], v[1]), _qw_mul(u[1], v[0])),
    )


def move(matrix, coeffs) -> ProjLine:
    """The line with coefficient row vector ``coeffs`` times ``matrix``, both
    of (a, b) pairs."""
    return ProjLine(tuple(dot(coeffs, [row[j] for row in matrix]) for j in range(3)))


def oracle_json(arr: LabeledArrangement) -> dict:
    return leading_one_incidences([line.coeffs for line in arr.lines])


@st.composite
def moved_arrangements(draw, omega: bool) -> LabeledArrangement:
    """Free lines and concurrent pencils with small (Eisenstein) integer
    coefficients, moved by a random invertible map with fractional entries."""
    ints = st.integers(-3, 3)
    planted_scalar = st.tuples(ints, ints if omega else st.just(0))
    triple = st.tuples(planted_scalar, planted_scalar, planted_scalar)
    planted = draw(st.lists(triple, max_size=4))
    for _ in range(draw(st.integers(0, 3))):
        centre = draw(triple)
        planted += [cross(centre, draw(triple)) for _ in range(draw(st.integers(2, 4)))]
    fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    entry = st.tuples(fractions, fractions if omega else st.just(0))
    row = st.lists(entry, min_size=3, max_size=3)
    matrix = draw(st.lists(row, min_size=3, max_size=3))
    assume(dot(cross(matrix[1], matrix[2]), matrix[0]) != (0, 0))
    lines: list[ProjLine] = []
    for coeffs in planted:
        if any(c != (0, 0) for c in coeffs):
            line = move(matrix, coeffs)
            if line not in lines:
                lines.append(line)
    assume(len(lines) >= 2)
    return LabeledArrangement(tuple(lines))


@pytest.mark.parametrize("omega", [False, True])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_incidences_match_leading_one_oracle(omega, data):
    arr = data.draw(moved_arrangements(omega))
    assert compute_incidences(arr).as_json() == oracle_json(arr)


def coords_of(key) -> tuple[tuple[Fraction, Fraction], ...]:
    """The leading-1 coordinates key / lead of a point key, lead its first
    nonzero entry."""
    lead = next(x for x in key if x)
    return tuple((Fraction(a, lead), Fraction(b, lead)) for a, b in zip(key[::2], key[1::2]))


def conjugate(coords) -> tuple[tuple[Fraction, Fraction], ...]:
    """Complex conjugation, omega -> omega^2: a + b*omega -> (a - b) - b*omega."""
    return tuple((a - b, -b) for a, b in coords)


def assert_conjugation_invariant(arr: LabeledArrangement) -> None:
    """The conjugate arrangement has the same histogram, and the conjugate
    of each point lies on the lines with the same indices."""
    report = compute_incidences(arr)
    mirror = compute_incidences(
        LabeledArrangement(tuple(ProjLine(conjugate(line.coeffs)) for line in arr.lines))
    )
    assert mirror.histogram == report.histogram
    assert {coords_of(key): lines for key, lines in mirror.points} == {
        conjugate(coords_of(key)): lines for key, lines in report.points
    }


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_conjugate_arrangement_has_conjugate_points(data):
    assert_conjugation_invariant(data.draw(moved_arrangements(omega=True)))


def test_conjugate_dual_hesse():
    arr = load_arrangement(fixture("dual-hesse.json"))
    assert_conjugation_invariant(arr)
    assert compute_incidences(arr).histogram == ((3, 12),)


def test_point_reached_as_v_and_omega_v():
    # four lines through (1 : 1 : 0); pair (0, 1) gives the cross product v,
    # pair (2, 3) gives omega * v
    coeffs = [(0, 0, 1), (1, -1, 0), (1, -1, (1, 1)), (1, -1, 1), (1, 1, 1)]
    lines = tuple(ProjLine(t) for t in coeffs)
    v = cross(lines[0].coeffs, lines[1].coeffs)
    assert cross(lines[2].coeffs, lines[3].coeffs) == tuple(_qw_mul(OMEGA, c) for c in v)
    arr = LabeledArrangement(lines)
    report = compute_incidences(arr)
    assert report.histogram == ((2, 4), (4, 1))
    ((key, lines),) = [p for p in report.points if len(p[1]) == 4]
    assert key == (1, 0, 1, 0, 0, 0)  # the point (1 : 1 : 0)
    assert lines == (0, 1, 2, 3)
    assert report.as_json() == oracle_json(arr)


def cli_text(arr: LabeledArrangement) -> str:
    """The stdout of ``plurican incidences`` on ``arr``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.json"
        path.write_text(json.dumps(arrangement_to_json(arr)), encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["incidences", str(path)]) == 0
    return out.getvalue()


def as_json_text(report) -> str:
    """The document of ``report.as_json()`` written by ``json.dumps``."""
    document = {"schema": "plurican/1", "command": "incidences", **report.as_json()}
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# a 4-fold point, and a point whose coordinates mix b == 0 and b != 0
MIXED = LabeledArrangement(tuple(
    ProjLine(t) for t in [(0, 0, 1), (1, -1, 0), (1, -1, (1, 1)), (1, -1, 1), (1, 1, 1)]
))


def test_points_writer_shapes():
    report = compute_incidences(MIXED)
    assert max(len(lines) for _, lines in report.points) == 4
    assert any(any(key[1::2]) and not all(key[1::2]) for key, _ in report.points)
    assert cli_text(MIXED) == as_json_text(report)


@settings(max_examples=40, deadline=None)
@example(arr=MIXED)
@given(arr=st.one_of(moved_arrangements(omega=False), moved_arrangements(omega=True)))
def test_points_writer_matches_json_dumps(arr):
    assert cli_text(arr) == as_json_text(compute_incidences(arr))


def raw_arrangement(*vecs) -> LabeledArrangement:
    """Lines whose vectors are ``vecs`` as given, not canonical: leads may be
    0 or negative, and equal lines are not refused, though the pair loop of
    `compute_incidences` assumes distinct lines."""
    lines = []
    for vec in vecs:
        line = object.__new__(ProjLine)
        object.__setattr__(line, "vec", vec)
        lines.append(line)
    arr = object.__new__(LabeledArrangement)
    object.__setattr__(arr, "lines", tuple(lines))
    object.__setattr__(arr, "labels", ())
    return arr


def pairs(vec):
    return tuple(zip(vec[::2], vec[1::2]))


# the 128-bit cap on line entries: |x| <= 2^128 - 1
TOP = 2**128 - 1
rational_entries = st.one_of(
    st.integers(-3, 3),
    st.integers(-TOP, TOP),
    st.sampled_from([TOP, -TOP, 2**127, -(2**127), TOP - 1, -(TOP - 1)]),
)
rational_vectors = st.tuples(rational_entries, rational_entries, rational_entries).map(
    lambda t: (t[0], 0, t[1], 0, t[2], 0)
)


@settings(max_examples=300)
@example(u=(0, 0, 0, 0, 1, 0), v=(0, 0, 1, 0, 5, 0))  # zero leads; product (-1, 0, 0)
@example(u=(-2, 0, 3, 0, 0, 0), v=(-4, 0, 5, 0, 0, 0))  # negative leads
@example(u=(TOP, 0, -TOP, 0, 2**127, 0), v=(-TOP, 0, TOP - 1, 0, -(2**127), 0))
@given(u=rational_vectors, v=rational_vectors)
def test_rational_pair_key_is_canonical_cross_product(u, v):
    product = tuple(x for c in cross(pairs(u), pairs(v)) for x in c)
    assume(any(product))
    ((key, lines),) = compute_incidences(raw_arrangement(u, v)).points
    assert key == _canonical(product)
    assert lines == (0, 1)


def test_only_pairs_with_an_omega_line_call_canonical(monkeypatch):
    rational = LabeledArrangement(tuple(moment_lines(7)))
    calls = 0

    def counted(vec):
        nonlocal calls
        calls += 1
        return _canonical(vec)

    monkeypatch.setattr("plurican.arrangements._canonical", counted)
    assert compute_incidences(rational).histogram == ((2, 21),)
    assert calls == 0
    expected = sum(
        not (is_rational(u) and is_rational(v)) for u, v in combinations(MIXED.lines, 2)
    )
    compute_incidences(MIXED)
    assert 0 < calls == expected


def assert_canonical_shape(key):
    """b0 is 0, and the first nonzero entry is a positive a whose b is 0."""
    k = next(i for i, x in enumerate(key) if x)
    assert key[1] == 0 and k % 2 == 0 and key[k] > 0 and key[k + 1] == 0, key


# lines x = 0 and y = 0, which meet in (0 : 0 : 1), the only point whose lead
# is at a2; x = 0 meets the others in points with the lead at a1
AXES = (ProjLine((1, 0, 0)), ProjLine((0, 1, 0)))
# all three lead positions, rational and Q(omega) points mixed
LEADS = LabeledArrangement(AXES + tuple(ProjLine(t) for t in [
    (1, 1, -1), (1, -1, OMEGA), (OMEGA, 1, 2), (0, 1, (1, 1)), (1, 2, 3), (3, (-2, 1), -1),
]))


@st.composite
def lead_arrangements(draw) -> LabeledArrangement:
    """A moved arrangement over Q or Q(omega), with the lines x = 0 and
    y = 0 added to some draws."""
    arr = draw(st.one_of(moved_arrangements(omega=False), moved_arrangements(omega=True)))
    if draw(st.booleans()):
        arr = LabeledArrangement(arr.lines + tuple(a for a in AXES if a not in arr.lines))
    return arr


def test_fixed_arrangement_has_every_lead_position():
    keys = [key for key, _ in compute_incidences(LEADS).points]
    assert {next(i for i, x in enumerate(key) if x) for key in keys} == {0, 2, 4}
    assert (0, 0, 0, 0, 1, 0) in keys
    assert any(key[1::2] == (0, 0, 0) for key in keys) and any(any(key[1::2]) for key in keys)


@settings(max_examples=60, deadline=None)
@example(arr=LEADS)
@example(arr=MIXED)
@given(arr=lead_arrangements())
def test_keys_have_the_canonical_shape(arr):
    for line in arr.lines:
        assert_canonical_shape(line.vec)
    for key, _ in compute_incidences(arr).points:
        assert_canonical_shape(key)


@settings(max_examples=60, deadline=None)
@example(arr=LEADS)
@example(arr=MIXED)
@given(arr=lead_arrangements())
def test_points_sort_as_by_whole_keys(arr):
    keys = [key for key, _ in compute_incidences(arr).points]
    assert keys == whole_key_order(keys)


# Arrangements at the 128-bit cap on line entries, T = 2^128 - 1, with the
# axes x = 0 and y = 0 for points whose lead is at a1 and a2.  Over Q, two
# pairs of lines meet in points (1 : -2T : 2T^2 - T) and (1 : -(2T^2 - T) :
# -2T), whose entries after the lead reach 2^(2 * 128) (the largest an entry
# over its lead can be is 2 T^2); over Q(omega), the pairs meet where
# an entry over the lead is about +4 T^2 and -4 T^2, the largest there is.
T = 2**128 - 1
CAP_LINES = {
    "Q": [(1, 0, 0), (0, 1, 0), (T, -(T - 1), -1), (T, T, 1), (T, 1, -(T - 1)), (T, -1, T),
          (2**127, -T, T - 2)],
    "Q(omega)": [(1, 0, 0), (0, 1, 0), (T, -1, (-T, T)), (T, 1, (T, -T + 1)),
                 (T, (-T, T), 1), (T, (T, -T + 1), -1), (2**127, (-T, 1), (T - 2, T))],
}


@pytest.mark.parametrize("field,bound", [("Q", 2 * 128), ("Q(omega)", 2 * 128 + 1)])
def test_points_sort_as_by_whole_keys_at_the_caps(field, bound):
    arr = LabeledArrangement(tuple(map(ProjLine, CAP_LINES[field])))
    assert max(x.bit_length() for line in arr.lines for x in line.vec) == MAX_COEFFICIENT_BITS
    assert all(is_rational(line) for line in arr.lines) == (field == "Q")
    keys = [key for key, _ in compute_incidences(arr).points]
    assert {next(i for i, x in enumerate(key) if x) for key in keys} == {0, 2, 4}
    # entries after the lead, over the lead: negative ones, and some past
    # 2^bound, the top binade of what the sort key's fields hold
    ratios = [x / (key[0] or key[2] or key[4]) for key in keys for x in key]
    assert min(ratios) < -(2**bound) and max(ratios) > 2**bound
    assert keys == whole_key_order(keys)


def test_reports_are_values():
    arr = load_arrangement(fixture("dual-hesse.json"))
    report = compute_incidences(arr)
    with pytest.raises(AttributeError):
        report.points.append(None)
    with pytest.raises(TypeError):
        report.histogram[0] = (7, 1)
    assert report == compute_incidences(arr)
    assert hash(report) == hash(compute_incidences(arr))
    assert report.as_json() == oracle_json(arr)
    failed = check_campedelli(load_arrangement(fixture("campedelli-zero-sum-triple.json")))
    with pytest.raises(AttributeError):
        failed.violations.append(None)
    generic = load_arrangement(fixture("campedelli-generic.json"))
    assert hash(check_campedelli(generic)) == hash(check_campedelli(generic))


def tangent_lines(count: int) -> dict:
    """Tangents 2t x - y - t^2 = 0 to the parabola y = x^2 at t = 1..count:
    no three meet, so every pair gives its own point."""
    return {"field": "Q", "lines": [[2 * t, -1, -t * t] for t in range(1, count + 1)]}


@pytest.mark.parametrize("omega", [False, True])
def test_incidences_do_no_per_pair_field_arithmetic(monkeypatch, omega):
    # pencils x = i, y = j, x + y = k of 14 lines each: 861 pairs, 297 points
    side = range(14)
    planted = (
        [(1, 0, -i) for i in side] + [(0, 1, -j) for j in side]
        + [(1, 1, -k - 7) for k in side]
    )
    entry = OMEGA if omega else (Fraction(1, 2), 0)
    matrix = [[(1, 0), (2, 0), (0, 0)], [(0, 0), ONE, entry], [(3, 0), (0, 0), ONE]]
    arr = LabeledArrangement(tuple(move(matrix, [(x, 0) for x in t]) for t in planted))
    calls = 0

    def counted(method):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return method(*args)
        return wrapper

    # the rational arithmetic a field path would run on the components
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, name, counted(getattr(Fraction, name)))
    report = compute_incidences(arr)
    budget = len(arr.lines) + len(report.points)
    assert 2 * budget < comb(len(arr.lines), 2)
    assert calls <= budget


# --- covering-data checks ---------------------------------------------------


def test_campedelli_generic_fixture_passes():
    arr = load_arrangement(fixture("campedelli-generic.json"))
    report = check_campedelli(arr)
    assert report.passed and report.violations == ()
    assert report.histogram == ((2, 21),)


def test_campedelli_fourfold_fixture_fails():
    arr = load_arrangement(fixture("campedelli-fourfold.json"))
    report = check_campedelli(arr)
    assert not report.passed
    kinds = [v["kind"] for v in report.violations]
    assert kinds == ["multiple-point"]
    assert report.violations[0]["multiplicity"] == 4
    assert report.violations[0]["lines"] == [0, 1, 2, 3]


def test_campedelli_zero_sum_fixture_fails():
    arr = load_arrangement(fixture("campedelli-zero-sum-triple.json"))
    report = check_campedelli(arr)
    assert not report.passed
    kinds = [v["kind"] for v in report.violations]
    assert kinds == ["zero-sum-triple"]
    assert report.violations[0]["lines"] == [0, 1, 2]
    assert report.violations[0]["labels"] == [[1, 0, 0], [0, 1, 0], [1, 1, 0]]


def test_campedelli_incomplete_labels_fail():
    arr = LabeledArrangement(
        tuple(moment_lines(7)), tuple(labels3([1, 1, 2, 3, 4, 5, 6]))
    )
    report = check_campedelli(arr)
    assert not report.passed
    assert report.violations[0]["kind"] == "labels-not-complete"


def test_campedelli_shape_validation():
    with pytest.raises(ValidationError, match="expected 7 lines, got 6") as err:
        check_campedelli(LabeledArrangement(tuple(moment_lines(6)), tuple(labels3(range(1, 7)))))
    assert err.value.details == {"lines": 6}
    with pytest.raises(ValidationError, match=r"expected 7 labels over \(Z/2\)\^3") as err:
        check_campedelli(
            LabeledArrangement(
                tuple(moment_lines(7)), tuple(F2Point(4, c) for c in range(1, 8))
            )
        )
    assert err.value.details == {"index": 0, "k": 4}
    with pytest.raises(ValidationError, match=r"expected 7 labels over \(Z/2\)\^3") as err:
        check_campedelli(LabeledArrangement(tuple(moment_lines(7))))
    assert err.value.details == {"labels": 0}


@pytest.mark.parametrize("labels,message,details", [
    (labels3([1, 2]), "2 labels for 3 lines", {"labels": 2, "lines": 3}),
    ([F2Point(3, 1), F2Point(3, 2), F2Point(4, 3)], "labels of mixed dimensions",
     {"index": 2, "dims": [3, 4]}),
])
def test_label_shape_errors_name_their_witness(labels, message, details):
    with pytest.raises(ValidationError, match=message) as err:
        LabeledArrangement(tuple(moment_lines(3)), tuple(labels))
    assert err.value.details == details


def test_extension_type1_fixture():
    arr = load_arrangement(fixture("extension-type1.json"))
    report = analyze_extension(arr)
    assert report.sum_zero and report.totally_even
    assert report.even_type.tag is EvenSetTag.TYPE_I
    assert report.even_type.witness.coords == (0, 0, 0, 1)


def test_extension_type2_labels():
    labels = TYPE_II_REPRESENTATIVE.points()
    arr = LabeledArrangement(tuple(moment_lines(8)), labels)
    report = analyze_extension(arr)
    assert report.sum_zero and report.totally_even
    assert report.even_type.tag is EvenSetTag.TYPE_II


def test_extension_not_totally_even_labels():
    labels = tuple(F2Point(4, c) for c in range(1, 9))
    arr = LabeledArrangement(tuple(moment_lines(8)), labels)
    report = analyze_extension(arr)
    assert not report.totally_even
    assert report.even_type.tag is EvenSetTag.NOT_TOTALLY_EVEN


def test_extension_duplicate_labels_rejected():
    labels = tuple(F2Point(4, c) for c in [1, 1, 2, 3, 4, 5, 6, 7])
    arr = LabeledArrangement(tuple(moment_lines(8)), labels)
    with pytest.raises(ValidationError):
        analyze_extension(arr)


def test_extension_line_count_enforced():
    labels = tuple(F2Point(4, c) for c in range(1, 8))
    with pytest.raises(ValidationError, match="expected 8 lines, got 7") as err:
        analyze_extension(LabeledArrangement(tuple(moment_lines(7)), labels))
    assert err.value.details == {"lines": 7}


def test_extension_label_shape_enforced():
    with pytest.raises(ValidationError, match=r"expected 8 labels over \(Z/2\)\^4") as err:
        analyze_extension(
            LabeledArrangement(tuple(moment_lines(8)), tuple(labels3([1, 2, 3, 4, 5, 6, 7, 1])))
        )
    assert err.value.details == {"index": 0, "k": 3}
    with pytest.raises(ValidationError, match=r"expected 8 labels over \(Z/2\)\^4") as err:
        analyze_extension(LabeledArrangement(tuple(moment_lines(8))))
    assert err.value.details == {"labels": 0}


# --- JSON -------------------------------------------------------------------


def test_arrangement_json_roundtrip():
    for name in (
        "campedelli-generic.json",
        "campedelli-fourfold.json",
        "campedelli-zero-sum-triple.json",
        "dual-hesse.json",
        "extension-type1.json",
    ):
        arr = load_arrangement(fixture(name))
        data = arrangement_to_json(arr)
        assert load_arrangement(data) == arr


def test_arrangement_json_accepts_bare_integers():
    arr = load_arrangement({"field": "Q", "lines": [[1, 0, 0], [0, 1, 0]]})
    assert len(arr.lines) == 2


def test_arrangement_json_rejections():
    with pytest.raises(MalformedInputError):
        load_arrangement({"field": "Q(tau)", "lines": [[1, 0, 0], [0, 1, 0]]})
    with pytest.raises(MalformedInputError):
        load_arrangement({"field": "Q", "lines": []})
    with pytest.raises(MalformedInputError):
        load_arrangement({"field": "Q", "lines": [[1, 0], [0, 1, 0]]})
    with pytest.raises(MalformedInputError):
        # omega component in a rational arrangement
        load_arrangement({"field": "Q", "lines": [[[[1, 1], [1, 1]], 0, 1], [0, 1, 0]]})
    with pytest.raises(MalformedInputError):
        load_arrangement({"field": "Q", "lines": [[[[1, 0]], 1, 0], [0, 1, 0]]})
    with pytest.raises(MalformedInputError):
        load_arrangement({"field": "Q", "lines": [[1, 0, 0], [0, 1, 0]], "labels": [[1, 2, 0], [0, 1, 0]]})
    # booleans are not integers, whatever the coefficient form
    for field, coeff in (
        ("Q", True), ("Q", False), ("Q", [1, True]), ("Q", [True]), ("Q", [[True, 1]]),
        ("Q(omega)", [1, True]), ("Q(omega)", [[1, 1], [False, 1]]),
        ("Q(omega)", [[1, 1], True]),
    ):
        with pytest.raises(MalformedInputError):
            load_arrangement({"field": field, "lines": [[coeff, 0, 1], [0, 1, 0]]})


@pytest.mark.parametrize("pair", [[1, -2], [2, 4], [-3, -6]])
def test_json_rationals_give_the_lines_of_library_fractions(pair):
    # a negative or unreduced denominator in JSON, read as an integer pair,
    # gives the line that ProjLine gives for the same Fraction
    value = Fraction(*pair)
    third = Fraction(5, 7)
    for field, coeff, scalar in (
        ("Q", pair, (value, 0)),
        ("Q", [pair], (value, 0)),
        ("Q(omega)", [[1, 3], pair], (Fraction(1, 3), value)),
        ("Q(omega)", [pair, pair], (value, value)),
    ):
        for raw, coeffs in (
            ([1, coeff, [[5, 7]]], (1, scalar, third)),
            ([coeff, 2, [5, 7]], (scalar, 2, third)),
        ):
            line = load_arrangement({"field": field, "lines": [raw, [0, 1, 0]]}).lines[0]
            assert line == ProjLine(coeffs)
            assert all(type(x) is Fraction for c in line.coeffs for x in c)
    line = load_arrangement({"field": "Q", "lines": [[1, pair, [5, 7]], [0, 1, 0]]}).lines[0]
    assert line.coeffs == ((1, 0), (value, 0), (third, 0))
