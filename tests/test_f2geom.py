import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import complement_masks, incidence_rows, null_space_masks, parity
from plurican.errors import ValidationError
from plurican.f2geom import (
    F2Point,
    PointSet,
    _hyperplane_masks,
    hyperplane_profile,
    is_totally_even,
    num_points,
    pointset_to_json,
)

AFFINE_CHART = PointSet.from_codes(4, [c for c in range(1, 16) if c & 1])
TYPE_II_SET = PointSet.from_points(
    [
        F2Point.from_coords(c)
        for c in [
            (1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0),
            (0, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 1),
        ]
    ]
)

masks_k4 = st.integers(min_value=0, max_value=(1 << 16) - 1).map(lambda x: x & ~1)
COMPLEMENTS = [PointSet(4, mask) for mask in complement_masks(4)]


def test_point_codes_k2_explicit():
    pts = [F2Point(2, c) for c in range(1, num_points(2) + 1)]
    assert [p.coords for p in pts] == [(0, 1), (1, 0), (1, 1)]
    assert [F2Point.from_coords(p.coords).code for p in pts] == [1, 2, 3]


@pytest.mark.parametrize("k,count", [(2, 3), (3, 7), (4, 15)])
def test_point_counts(k, count):
    assert num_points(k) == count
    assert len(_hyperplane_masks(k)) == count + 1  # index 0 is unused


@pytest.mark.parametrize("k", [0, 1, 5, 6])
def test_unsupported_dimension(k):
    with pytest.raises(ValidationError):
        num_points(k)


def test_incidence_examples():
    def on(point, normal):
        mask = _hyperplane_masks(4)[F2Point.from_coords(normal).code]
        return bool(mask >> F2Point.from_coords(point).code & 1)

    assert on((1, 1, 1, 1), (1, 1, 0, 0))
    assert not on((1, 0, 0, 0), (1, 0, 0, 0))


def test_symmetric_difference_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimension mismatch"):
        PointSet.from_codes(3, [1]) ^ PointSet.from_codes(4, [1])


def test_points_of_mixed_dimensions_name_the_first_two():
    points = [F2Point(4, 1), F2Point(4, 2), F2Point(3, 1), F2Point(2, 1)]
    with pytest.raises(ValidationError, match="points of mixed dimensions") as err:
        PointSet.from_points(points)
    assert err.value.details == {"dims": [4, 3]}


def test_every_hyperplane_is_a_fano_plane():
    for mask in _hyperplane_masks(4)[1:]:
        assert mask.bit_count() == 7


def test_every_point_on_seven_hyperplanes():
    for p in range(1, 16):
        assert sum(mask >> p & 1 for mask in _hyperplane_masks(4)[1:]) == 7


def test_profile_of_hyperplane_complement():
    for comp in COMPLEMENTS:
        assert comp.size == 8
        assert hyperplane_profile(comp) == (4,) * 14 + (0,)
        assert is_totally_even(comp)


def test_profile_of_type_ii_set():
    profile = hyperplane_profile(TYPE_II_SET)
    assert profile.count(6) == 1
    assert set(profile) == {6, 4, 2}


def test_profile_of_empty_set():
    assert hyperplane_profile(PointSet(4, 0)) == (0,) * 15


def test_totally_even_examples():
    assert is_totally_even(TYPE_II_SET)
    assert is_totally_even(AFFINE_CHART)
    for c in range(1, 16):
        assert not is_totally_even(PointSet.from_codes(4, [c]))


def test_fifteen_hyperplane_complements_are_totally_even():
    assert len({comp.mask for comp in COMPLEMENTS}) == 15


@settings(max_examples=300)
@given(masks_k4)
def test_totally_even_matches_nullspace_oracle(mask):
    rows = incidence_rows(4)
    expected = all(parity(row & mask) == 0 for row in rows)
    assert is_totally_even(PointSet(4, mask)) == expected


def test_nullspace_oracle_full_agreement():
    oracle = set(null_space_masks(4))
    mine = {m for m in range(0, 1 << 16, 2) if is_totally_even(PointSet(4, m))}
    assert mine == oracle


@settings(max_examples=200)
@given(masks_k4, masks_k4)
def test_symmetric_difference_closure(m1, m2):
    s1, s2 = PointSet(4, m1), PointSet(4, m2)
    if is_totally_even(s1) and is_totally_even(s2):
        assert is_totally_even(s1 ^ s2)


@settings(max_examples=200)
@given(masks_k4)
def test_profile_sum_is_seven_times_size(mask):
    s = PointSet(4, mask)
    assert sum(hyperplane_profile(s)) == 7 * s.size


def test_pointset_json_roundtrip():
    data = pointset_to_json(TYPE_II_SET)
    assert data == [list(p.coords) for p in TYPE_II_SET.points()]


def test_pointset_validation():
    with pytest.raises(ValidationError):
        PointSet(4, 1)  # bit 0 unused
    with pytest.raises(ValidationError):
        PointSet.from_codes(4, [16])
    with pytest.raises(ValidationError):
        F2Point(4, 0)
