import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import incidence_rows, null_space_masks, parity
from plurican.errors import ValidationError
from plurican.f2geom import (
    F2Point,
    Hyperplane,
    PointSet,
    all_hyperplanes,
    all_points,
    hyperplane_profile,
    incident,
    is_totally_even,
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


def test_all_points_k2_explicit():
    pts = all_points(2)
    assert [p.coords for p in pts] == [(0, 1), (1, 0), (1, 1)]
    assert [p.code for p in pts] == [1, 2, 3]


@pytest.mark.parametrize("k,count", [(2, 3), (3, 7), (4, 15)])
def test_all_points_counts(k, count):
    assert len(all_points(k)) == count
    assert len(all_hyperplanes(k)) == count


@pytest.mark.parametrize("k", [0, 1, 5, 6])
def test_unsupported_dimension(k):
    with pytest.raises(ValidationError):
        all_points(k)


def test_incident_examples():
    p = F2Point.from_coords((1, 1, 1, 1))
    h = Hyperplane.from_coords((1, 1, 0, 0))
    assert incident(p, h)
    p2 = F2Point.from_coords((1, 0, 0, 0))
    h2 = Hyperplane.from_coords((1, 0, 0, 0))
    assert not incident(p2, h2)


def test_incident_dimension_mismatch():
    with pytest.raises(ValidationError):
        incident(F2Point(3, 1), Hyperplane(4, 1))


def test_every_hyperplane_is_a_fano_plane():
    for h in all_hyperplanes(4):
        assert sum(incident(p, h) for p in all_points(4)) == 7


def test_every_point_on_seven_hyperplanes():
    for p in all_points(4):
        assert sum(incident(p, h) for h in all_hyperplanes(4)) == 7


def test_profile_of_hyperplane_complement():
    for h in all_hyperplanes(4):
        comp = PointSet.from_codes(4, [p.code for p in all_points(4) if not incident(p, h)])
        assert comp.size == 8
        assert hyperplane_profile(comp) == (4,) * 14 + (0,)
        assert is_totally_even(comp)


def test_profile_of_type_ii_set():
    profile = hyperplane_profile(TYPE_II_SET)
    assert profile.count(6) == 1
    assert set(profile) == {6, 4, 2}


def test_profile_of_empty_set():
    assert hyperplane_profile(PointSet.empty(4)) == (0,) * 15


def test_totally_even_examples():
    assert is_totally_even(TYPE_II_SET)
    assert is_totally_even(AFFINE_CHART)
    for p in all_points(4):
        assert not is_totally_even(PointSet.from_points([p]))


def test_fifteen_hyperplane_complements_are_totally_even():
    comps = {
        PointSet.from_codes(4, [p.code for p in all_points(4) if not incident(p, h)]).mask
        for h in all_hyperplanes(4)
    }
    assert len(comps) == 15


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
