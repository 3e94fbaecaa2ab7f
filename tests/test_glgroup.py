from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import fixed_set_total, matrix_apply
from plurican.errors import ValidationError
from plurican.evenclass import TYPE_I_REPRESENTATIVE, TYPE_II_REPRESENTATIVE
from plurican.f2geom import F2Point, PointSet, all_hyperplanes, all_points, incident, is_totally_even
from plurican.glgroup import (
    F2Matrix,
    _gl_table,
    _group_permutations,
    burnside_orbit_count,
    act,
    canonical_form,
    enumerate_gl,
    orbit_census,
)


def hyperplane_complements():
    return [
        PointSet.from_codes(4, [p.code for p in all_points(4) if not incident(p, h)])
        for h in all_hyperplanes(4)
    ]


@pytest.mark.parametrize("k,order", [(2, 6), (3, 168), (4, 20160)])
def test_group_orders(k, order, gl4):
    group = gl4 if k == 4 else enumerate_gl(k)
    assert len(group) == order
    assert len(set(group)) == order


def test_unsupported_dimension():
    with pytest.raises(ValidationError):
        enumerate_gl(5)


def test_enumeration_order_is_ascending_packed(gl4):
    for k in (2, 3, 4):
        group = gl4 if k == 4 else enumerate_gl(k)
        packed = [
            sum(m.rows[i] << (k * (k - 1 - i)) for i in range(k)) for m in group
        ]
        assert all(a < b for a, b in zip(packed, packed[1:]))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_table_invariants(k):
    table = _gl_table(k)
    assert len(table) == prod((1 << k) - (1 << i) for i in range(k))
    perms = list(table.values())
    assert len(set(perms)) == len(perms)
    for perm in perms:
        assert perm[0] == 0
        assert sorted(perm) == list(range(1 << k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_point_permutations_by_linearity_match_apply_code(k, gl3, gl4):
    group = {2: enumerate_gl(2), 3: gl3, 4: gl4}[k]
    table = _group_permutations(group)
    for m, from_table in zip(group, table):
        direct = tuple(m.apply_code(c) for c in range(1 << k))
        assert m.point_permutation() == tuple(from_table) == direct
        assert sorted(direct) == list(range(1 << k))
    # any list of matrices reads the same table, in its own order
    assert _group_permutations(group[::-7]) == table[::-7]


def test_singular_matrix_rejected():
    with pytest.raises(ValidationError):
        F2Matrix(2, (1, 1))
    with pytest.raises(ValidationError):
        F2Matrix(4, (0, 1, 2, 4))


def test_identity_action():
    ident = F2Matrix.identity(4)
    s = TYPE_II_REPRESENTATIVE
    assert act(ident, s) == s
    for p in all_points(4):
        assert matrix_apply(ident, p) == p


def test_swap_matrix_action():
    # swap the first two coordinates of PG(3, F2)
    swap = F2Matrix(4, (0b0100, 0b1000, 0b0010, 0b0001))
    src = PointSet.from_points([F2Point.from_coords((1, 0, 0, 0))])
    dst = PointSet.from_points([F2Point.from_coords((0, 1, 0, 0))])
    assert act(swap, src) == dst
    assert act(F2Matrix(4, list(swap.rows)), src) == dst  # rows given as a list


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_action_preserves_size_and_evenness(gl3, data):
    m = data.draw(st.sampled_from(gl3))
    mask = data.draw(st.integers(0, (1 << 8) - 1).map(lambda x: x & ~1))
    s = PointSet(3, mask)
    image = act(m, s)
    assert image.size == s.size
    assert is_totally_even(image) == is_totally_even(s)


def test_canonical_form_orbit_invariance(gl3):
    s = PointSet.from_codes(3, [1, 2, 4])
    base = canonical_form(s, gl3)
    for m in gl3[::17]:
        assert canonical_form(act(m, s), gl3) == base
    assert canonical_form(base, gl3) == base  # idempotent


def test_canonical_form_of_empty_set(gl3):
    assert canonical_form(PointSet.empty(3), gl3) == PointSet.empty(3)


def test_complements_share_one_canonical_form(gl4):
    comps = hyperplane_complements()
    forms = {canonical_form(s, gl4).mask for s in comps}
    assert len(forms) == 1


def test_census_of_hyperplane_complements(gl4):
    census = orbit_census(hyperplane_complements(), gl4)
    assert census.orbit_count == 1
    orbit = census.orbits[0]
    assert orbit.size == 15
    assert orbit.stabilizer_order == 1344
    assert orbit.size * orbit.stabilizer_order == census.group_order


def test_census_closure_violation(gl4):
    with pytest.raises(ValidationError):
        orbit_census([TYPE_II_REPRESENTATIVE], gl4)
    # Burnside: the lone set is fixed 48 times, not a multiple of 20160
    with pytest.raises(ValidationError):
        burnside_orbit_count([TYPE_II_REPRESENTATIVE], gl4)


def test_burnside_matches_census_on_complements(gl4):
    assert burnside_orbit_count(hyperplane_complements(), gl4) == 1


def test_burnside_matches_census_on_totally_even_family(te8, gl4, lemma_report):
    assert burnside_orbit_count(te8, gl4) == lemma_report.census.orbit_count


def test_burnside_matches_census_on_mixed_sizes(gl3):
    # every subset of PG(2, F2): orbits of all sizes 0..7 at once
    family = [PointSet(3, mask) for mask in range(0, 1 << 8, 2)]
    assert burnside_orbit_count(family, gl3) == orbit_census(family, gl3).orbit_count
    assert burnside_orbit_count([], gl3) == 0


def test_orbit_sizes_divide_group_order(lemma_report):
    census = lemma_report.census
    for orbit in census.orbits:
        assert census.group_order % orbit.size == 0
        assert orbit.size * orbit.stabilizer_order == census.group_order


def test_census_representatives_are_minima(te8, gl4, lemma_report):
    for orbit in lemma_report.census.orbits:
        assert canonical_form(orbit.representative, gl4) == orbit.representative


def test_census_json_shape(lemma_report):
    data = lemma_report.census.as_json()
    assert data["group_order"] == 20160
    assert data["orbit_count"] == len(data["orbits"])
    for orbit in data["orbits"]:
        assert set(orbit) == {"representative", "size", "stabilizer_order"}


def orbit_union(masks, perms) -> list[int]:
    """Every image of every mask, by brute force."""
    return sorted({
        sum(1 << perm[p] for p in range(len(perm)) if mask >> p & 1)
        for mask in masks for perm in perms
    })


def assert_burnside_matches_oracle(family, group, perms, closed):
    sets = [PointSet(group[0].k, mask) for mask in family]
    total = fixed_set_total(family, perms)
    count, rem = divmod(total, len(group))
    if rem:
        assert not closed
        with pytest.raises(ValidationError) as err:
            burnside_orbit_count(sets, group)
        assert err.value.details == {"total_fixed": total, "group_order": len(group)}
    else:  # a non-closed family can reach a multiple of |G| by chance
        assert burnside_orbit_count(sets, group) == count
    if closed:
        assert count == orbit_census(sets, group).orbit_count


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_burnside_matches_fixed_set_oracle_gl3(gl3, data):
    masks = data.draw(st.lists(st.integers(0, 255).map(lambda x: x & ~1), max_size=6))
    closed = data.draw(st.booleans())
    perms = [m.point_permutation() for m in gl3]
    family = orbit_union(masks, perms) if closed else masks
    assert_burnside_matches_oracle(family, gl3, perms, closed)


# a point, a line, a plane and a plane complement of PG(3, F2): orbits of 15,
# 35, 15 and 15 sets, small enough for the brute force over 20160 elements
GL4_SEEDS = [0b10, 0b1110, sum(1 << c for c in range(2, 16, 2)), TYPE_I_REPRESENTATIVE.mask]


@pytest.fixture(scope="module")
def gl4_perms(gl4):
    return [m.point_permutation() for m in gl4]


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_burnside_matches_fixed_set_oracle_gl4(gl4, gl4_perms, data):
    seeds = data.draw(st.lists(st.sampled_from(GL4_SEEDS), min_size=1, max_size=2, unique=True))
    family = orbit_union(seeds, gl4_perms)
    closed = data.draw(st.booleans())
    if not closed:  # a partial orbit
        family = data.draw(st.lists(st.sampled_from(family), min_size=1, unique=True))
    assert_burnside_matches_oracle(family, gl4, gl4_perms, closed)


# GL(k, 2) is transitive on the empty set, on the points and on the pairs of
# points of PG(k-1, F2): (orbit size, stabilizer order) by k and set size
SMALL_SET_ORBITS = {
    (2, 0): (1, 6), (2, 1): (3, 2), (2, 2): (3, 2),
    (3, 0): (1, 168), (3, 1): (7, 24), (3, 2): (21, 8),
    (4, 0): (1, 20160), (4, 1): (15, 1344), (4, 2): (105, 192),
}


@pytest.mark.parametrize("k,size", sorted(SMALL_SET_ORBITS))
def test_census_of_small_sets(k, size, gl3, gl4, gl4_perms):
    group = {2: enumerate_gl(2), 3: gl3, 4: gl4}[k]
    perms = gl4_perms if k == 4 else [m.point_permutation() for m in group]
    family = [PointSet.from_codes(k, c) for c in combinations(range(1, 1 << k), size)]
    masks = sorted(s.mask for s in family)
    census = orbit_census(family, group)
    assert [(o.size, o.stabilizer_order) for o in census.orbits] == [SMALL_SET_ORBITS[k, size]]
    rep = census.orbits[0].representative.mask
    assert rep == masks[0]
    # brute force on permutations built from apply_code, not from the table
    images = [sum(1 << perm[p] for p in range(len(perm)) if rep >> p & 1) for perm in perms]
    assert sorted(set(images)) == masks
    assert images.count(rep) == census.orbits[0].stabilizer_order
    assert fixed_set_total(masks, perms) == len(group)
    assert burnside_orbit_count(family, group) == 1
    for s in family[::max(1, len(family) // 7)]:
        assert canonical_form(s, group).mask == rep


@pytest.mark.parametrize("k", [2, 3, 4])
def test_census_of_small_sets_together(k, gl3, gl4):
    # 0-, 1- and 2-point sets in one family: three orbits
    group = {2: enumerate_gl(2), 3: gl3, 4: gl4}[k]
    family = [PointSet.from_codes(k, c)
              for size in (0, 1, 2) for c in combinations(range(1, 1 << k), size)]
    census = orbit_census(family, group)
    assert [(o.size, o.stabilizer_order) for o in census.orbits] == [
        SMALL_SET_ORBITS[k, size] for size in (0, 1, 2)]
    assert burnside_orbit_count(family, group) == 3
