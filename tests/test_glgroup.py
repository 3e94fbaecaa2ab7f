import tracemalloc
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    TYPE_I_REPRESENTATIVE,
    TYPE_II_REPRESENTATIVE,
    complement_masks,
    enumerate_gl,
    fixed_set_total,
    matrix_apply,
)
from plurican import glgroup
from plurican.errors import ValidationError
from plurican.evenclass import verify_lemma_ev
from plurican.f2geom import F2Point, PointSet, is_totally_even, pointset_to_json
from plurican.glgroup import (
    F2Matrix,
    Orbit,
    OrbitCensus,
    _gl_table,
    act,
    burnside_orbit_count,
    canonical_form,
    orbit_census,
)


def hyperplane_complements():
    return [PointSet(4, mask) for mask in complement_masks(4)]


@pytest.mark.parametrize("k,order", [(2, 6), (3, 168), (4, 20160)])
def test_group_orders(k, order):
    assert len(_gl_table(k)) == order << k
    assert orbit_census(k, [PointSet(k, 0)]).group_order == order


def test_unsupported_dimension():
    for k in (1, 5, 4.0, True):
        with pytest.raises(ValidationError, match="unsupported dimension"):
            orbit_census(k, [])
        with pytest.raises(ValidationError, match="unsupported dimension"):
            burnside_orbit_count(k, [])


def test_sets_of_another_dimension_rejected():
    s = PointSet.from_codes(3, [1, 2])
    for call in (orbit_census, burnside_orbit_count):
        with pytest.raises(ValidationError, match="dimension mismatch: group k=4, set k=3"):
            call(4, [TYPE_I_REPRESENTATIVE, s])


def test_act_on_a_set_of_another_dimension_rejected():
    m = F2Matrix(4, (0b0100, 0b1000, 0b0010, 0b0001))
    with pytest.raises(ValidationError, match="dimension mismatch: matrix k=4, set k=3"):
        act(m, PointSet.from_codes(3, [1, 2]))


def test_enumeration_order_is_ascending_packed(gl4):
    for k in (2, 3, 4):
        group = gl4 if k == 4 else enumerate_gl(k)
        packed = [
            sum(m.rows[i] << (k * (k - 1 - i)) for i in range(k)) for m in group
        ]
        assert all(a < b for a, b in zip(packed, packed[1:]))


def table_rows(k: int) -> list[bytes]:
    """The rows of the table of GL(k, F2), one point permutation each."""
    n = 1 << k
    table = _gl_table(k)
    return [table[i:i + n] for i in range(0, len(table), n)]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_table_invariants(k):
    # one bytes, one row of 2^k bytes per element: distinct permutations of
    # the codes that fix 0
    table = _gl_table(k)
    assert type(table) is bytes
    assert len(table) == prod((1 << k) - (1 << i) for i in range(k)) << k
    rows = table_rows(k)
    assert len(set(rows)) == len(rows)
    for row in rows:
        assert row[0] == 0
        assert sorted(row) == list(range(1 << k))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_table_blocks_share_their_lower_half(k):
    # the Burnside recount reads the lower half once per block: the 2^(k-1)
    # rows of a block share their first 2^(k-1) bytes, one block per lower
    # half, and its rows differ in their upper halves
    half = 1 << (k - 1)
    rows = table_rows(k)
    blocks = [rows[i:i + half] for i in range(0, len(rows), half)]
    for block in blocks:
        assert len({row[:half] for row in block}) == 1
        assert len({row[half:] for row in block}) == half
    assert len({block[0][:half] for block in blocks}) == len(blocks)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_point_permutations_by_linearity_match_apply_code(k, gl3, gl4):
    # the brute-force matrices induce exactly the permutations of the table
    oracle = {2: enumerate_gl(2), 3: gl3, 4: gl4}[k]
    assert len(oracle) == {2: 6, 3: 168, 4: 20160}[k]
    direct = [tuple(m.apply_code(c) for c in range(1 << k)) for m in oracle]
    assert set(direct) == {tuple(row) for row in table_rows(k)}
    for m, perm in zip(oracle, direct):
        assert m.point_permutation() == perm


def test_singular_matrix_rejected():
    with pytest.raises(ValidationError):
        F2Matrix(2, (1, 1))
    with pytest.raises(ValidationError):
        F2Matrix(4, (0, 1, 2, 4))


def test_identity_action():
    ident = F2Matrix(4, (0b1000, 0b0100, 0b0010, 0b0001))
    s = TYPE_II_REPRESENTATIVE
    assert act(ident, s) == s
    for c in range(1, 16):
        assert matrix_apply(ident, F2Point(4, c)) == F2Point(4, c)


def test_swap_matrix_action():
    # swap the first two coordinates of PG(3, F2)
    swap = F2Matrix(4, (0b0100, 0b1000, 0b0010, 0b0001))
    src = PointSet.from_points([F2Point.from_coords((1, 0, 0, 0))])
    dst = PointSet.from_points([F2Point.from_coords((0, 1, 0, 0))])
    assert act(swap, src) == dst
    assert act(F2Matrix(4, list(swap.rows)), src) == dst  # rows given as a list


def test_act_is_the_forward_image():
    # a 3-cycle of the coordinates is no involution: m s and m^-1 s differ,
    # and act gives m s
    m = F2Matrix(3, (0b001, 0b100, 0b010))
    s = PointSet.from_codes(3, [0b100, 0b110])
    forward = PointSet.from_points([matrix_apply(m, p) for p in s.points()])
    inverse = PointSet.from_codes(3, [c for c in range(1, 8) if m.apply_code(c) in s.codes()])
    assert forward != inverse
    assert act(m, s) == forward


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
    base = canonical_form(s)
    for m in gl3[::17]:
        assert canonical_form(act(m, s)) == base
    assert canonical_form(base) == base  # idempotent


def test_canonical_form_of_empty_set():
    assert canonical_form(PointSet(3, 0)) == PointSet(3, 0)


def test_complements_share_one_canonical_form():
    comps = hyperplane_complements()
    forms = {canonical_form(s).mask for s in comps}
    assert len(forms) == 1


def test_census_of_hyperplane_complements():
    census = orbit_census(4, hyperplane_complements())
    assert census.orbit_count == 1
    orbit = census.orbits[0]
    assert orbit.size == 15
    assert orbit.stabilizer_order == 1344
    assert orbit.size * orbit.stabilizer_order == census.group_order


def test_census_closure_violation():
    with pytest.raises(ValidationError, match="not closed"):
        orbit_census(4, [TYPE_II_REPRESENTATIVE])
    # Burnside: the lone set is fixed 48 times, not a multiple of 20160
    with pytest.raises(ValidationError, match="not a multiple of the group order") as err:
        burnside_orbit_count(4, [TYPE_II_REPRESENTATIVE])
    assert err.value.details == {"total_fixed": 48, "group_order": 20160}


def test_census_orbit_stabilizer_check_on_a_table_with_a_duplicate(monkeypatch):
    # the first row twice: every stabilizer is one too large
    table = _gl_table(4)
    monkeypatch.setattr(glgroup, "_gl_table", lambda k: table + table[:16])
    with pytest.raises(ValidationError, match="full group without duplicates") as err:
        orbit_census(4, hyperplane_complements())
    assert err.value.details == {"orbit_size": 15, "stabilizer_order": 1345}


def test_census_record_checks_orbit_stabilizer_and_distinct_representatives():
    orbit = Orbit(TYPE_I_REPRESENTATIVE, 15, 1344)
    assert OrbitCensus((orbit,), 20160).orbit_count == 1
    with pytest.raises(ValidationError, match="orbit-stabilizer identity violated") as err:
        OrbitCensus((Orbit(TYPE_I_REPRESENTATIVE, 15, 48),), 20160)
    assert err.value.details == {"orbit_size": 15, "stabilizer_order": 48, "group_order": 20160}
    with pytest.raises(ValidationError, match="not pairwise distinct"):
        OrbitCensus((orbit, orbit), 20160)


def test_repeated_representative_is_named():
    other = Orbit(TYPE_II_REPRESENTATIVE, 420, 48)
    first = Orbit(TYPE_I_REPRESENTATIVE, 15, 1344)
    with pytest.raises(ValidationError, match="not pairwise distinct") as err:
        OrbitCensus((first, other, other, first), 20160)
    assert err.value.details == {"representative": pointset_to_json(TYPE_II_REPRESENTATIVE)}


def test_matrix_with_a_wrong_number_of_rows_names_both_counts():
    with pytest.raises(ValidationError, match="expected 4 rows, got 3") as err:
        F2Matrix(4, (0b1000, 0b0100, 0b0010))
    assert err.value.details == {"expected": 4, "got": 3}


def test_burnside_matches_census_on_complements():
    assert burnside_orbit_count(4, hyperplane_complements()) == 1


def test_burnside_matches_census_on_totally_even_family(te8, lemma_report):
    assert burnside_orbit_count(4, te8) == lemma_report.census.orbit_count


def test_burnside_on_every_subset_of_the_projective_line():
    # k = 2, one 16-bit word per half row: the 8 subsets of the 3 points of
    # PG(1, F2) fall into 4 orbits, one per size
    family = [PointSet(2, mask) for mask in range(0, 1 << 4, 2)]
    assert burnside_orbit_count(2, family) == 4
    assert orbit_census(2, family).orbit_count == 4
    assert burnside_orbit_count(2, []) == 0


def test_burnside_matches_census_on_mixed_sizes():
    # every subset of PG(2, F2): orbits of all sizes 0..7 at once
    family = [PointSet(3, mask) for mask in range(0, 1 << 8, 2)]
    assert burnside_orbit_count(3, family) == orbit_census(3, family).orbit_count
    assert burnside_orbit_count(3, []) == 0


def test_orbit_sizes_divide_group_order(lemma_report):
    census = lemma_report.census
    for orbit in census.orbits:
        assert census.group_order % orbit.size == 0
        assert orbit.size * orbit.stabilizer_order == census.group_order


def test_census_representatives_are_minima(lemma_report):
    for orbit in lemma_report.census.orbits:
        assert canonical_form(orbit.representative) == orbit.representative


def test_census_json_shape(lemma_report):
    data = lemma_report.census.as_json()
    assert data["group_order"] == 20160
    assert data["orbit_count"] == len(data["orbits"])
    for orbit in data["orbits"]:
        assert set(orbit) == {"representative", "size", "stabilizer_order"}


def brute_image(mask: int, perm) -> int:
    return sum(1 << perm[p] for p in range(len(perm)) if mask >> p & 1)


def orbit_union(masks, perms) -> list[int]:
    """Every image of every mask, by brute force."""
    return sorted({brute_image(mask, perm) for mask in masks for perm in perms})


def assert_burnside_matches_oracle(family, k, perms, closed):
    sets = [PointSet(k, mask) for mask in family]
    total = fixed_set_total(family, perms)
    count, rem = divmod(total, len(perms))
    if rem:
        assert not closed
        with pytest.raises(ValidationError) as err:
            burnside_orbit_count(k, sets)
        assert err.value.details == {"total_fixed": total, "group_order": len(perms)}
    else:  # a non-closed family can reach a multiple of |G| by chance
        assert burnside_orbit_count(k, sets) == count
    if closed:
        assert count == orbit_census(k, sets).orbit_count


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_burnside_matches_fixed_set_oracle_gl3(gl3, data):
    masks = data.draw(st.lists(st.integers(0, 255).map(lambda x: x & ~1), max_size=6))
    closed = data.draw(st.booleans())
    perms = [m.point_permutation() for m in gl3]
    family = orbit_union(masks, perms) if closed else masks
    assert_burnside_matches_oracle(family, 3, perms, closed)


# a point, a line, a plane and a plane complement of PG(3, F2): orbits of 15,
# 35, 15 and 15 sets, small enough for the brute force over 20160 elements
GL4_SEEDS = [0b10, 0b1110, sum(1 << c for c in range(2, 16, 2)), TYPE_I_REPRESENTATIVE.mask]


@pytest.fixture(scope="module")
def gl4_perms(gl4):
    return [m.point_permutation() for m in gl4]


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_burnside_matches_fixed_set_oracle_gl4(gl4_perms, data):
    seeds = data.draw(st.lists(st.sampled_from(GL4_SEEDS), min_size=1, max_size=2, unique=True))
    family = orbit_union(seeds, gl4_perms)
    closed = data.draw(st.booleans())
    if not closed:  # a partial orbit
        family = data.draw(st.lists(st.sampled_from(family), min_size=1, unique=True))
    assert_burnside_matches_oracle(family, 4, gl4_perms, closed)


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
    census = orbit_census(k, family)
    assert [(o.size, o.stabilizer_order) for o in census.orbits] == [SMALL_SET_ORBITS[k, size]]
    rep = census.orbits[0].representative.mask
    assert rep == masks[0]
    # brute force on permutations built from apply_code, not from the table
    images = [sum(1 << perm[p] for p in range(len(perm)) if rep >> p & 1) for perm in perms]
    assert sorted(set(images)) == masks
    assert images.count(rep) == census.orbits[0].stabilizer_order
    assert fixed_set_total(masks, perms) == len(group)
    assert burnside_orbit_count(k, family) == 1
    for s in family[::max(1, len(family) // 7)]:
        assert canonical_form(s).mask == rep


@pytest.mark.parametrize("k", [2, 3, 4])
def test_census_of_small_sets_together(k):
    # 0-, 1- and 2-point sets in one family: three orbits
    family = [PointSet.from_codes(k, c)
              for size in (0, 1, 2) for c in combinations(range(1, 1 << k), size)]
    census = orbit_census(k, family)
    assert [(o.size, o.stabilizer_order) for o in census.orbits] == [
        SMALL_SET_ORBITS[k, size] for size in (0, 1, 2)]
    assert burnside_orbit_count(k, family) == 3


def brute_perms(group) -> list[tuple[int, ...]]:
    """The point permutation of every matrix, one apply_code per point."""
    return [tuple(m.apply_code(c) for c in range(1 << m.k)) for m in group]


def brute_census(family, perms) -> list[tuple[int, int, int]]:
    """(least member, size, stabilizer order) of every orbit of ``family``,
    which must be closed, by applying every permutation to every point."""
    rest, orbits = set(family), []
    while rest:
        rep = min(rest)
        images = [brute_image(rep, perm) for perm in perms]
        orbit = set(images)
        orbits.append((rep, len(orbit), images.count(rep)))
        rest -= orbit
    return orbits


@pytest.fixture(scope="module")
def brute_gl(gl3, gl4):
    return {3: brute_perms(gl3), 4: brute_perms(gl4)}


def assert_census_matches_brute_force(k, perms, data):
    """A family closed under GL(k, 2): the union of the orbits of 1-3 random
    sets; then the same family less one member of an orbit of more than one
    set, which neither the census nor Burnside may accept."""
    seeds = data.draw(st.lists(st.integers(0, (1 << (1 << k)) - 1).map(lambda x: x & ~1),
                               min_size=1, max_size=3))
    family = orbit_union(seeds, perms)
    sets = [PointSet(k, mask) for mask in family]
    expected = brute_census(family, perms)
    census = orbit_census(k, sets)
    assert [(o.representative.mask, o.size, o.stabilizer_order) for o in census.orbits] == expected
    assert burnside_orbit_count(k, sets) == len(expected)
    for seed in seeds:
        orbit_min = min(brute_image(seed, perm) for perm in perms)
        assert canonical_form(PointSet(k, seed)).mask == orbit_min
    moved = [(rep, stab) for rep, size, stab in expected if size > 1]
    if moved:
        rep, stab = data.draw(st.sampled_from(moved))
        orbit = {brute_image(rep, perm) for perm in perms}
        dropped = data.draw(st.sampled_from(sorted(orbit)))
        partial = [PointSet(k, mask) for mask in family if mask != dropped]
        with pytest.raises(ValidationError, match="not closed") as err:
            orbit_census(k, partial)
        assert err.value.details == {"missing_mask": dropped}
        with pytest.raises(ValidationError, match="not a multiple of the group order") as err:
            burnside_orbit_count(k, partial)
        # every set but the dropped one keeps its stabilizer
        assert err.value.details == {
            "total_fixed": len(expected) * len(perms) - stab, "group_order": len(perms)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_census_burnside_and_canonical_form_match_brute_force_gl3(brute_gl, data):
    assert_census_matches_brute_force(3, brute_gl[3], data)


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_census_burnside_and_canonical_form_match_brute_force_gl4(brute_gl, data):
    assert_census_matches_brute_force(4, brute_gl[4], data)


def test_census_passes_hold_no_per_element_list(te8):
    # With the table built, the census and the Burnside recount of the 435
    # sets peak at ~0.3 MB traced: each pass keeps only the distinct images or
    # one value per pair of points.  A list of the 20160 images (1.7 MB)
    # would pass the bound.
    masks = [s.mask for s in te8]
    _gl_table(4)
    tracemalloc.start()
    try:
        census, _, burnside = glgroup.gl_orbit_census(4, masks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (census.orbit_count, burnside) == (2, 2)
    assert peak < 1_000_000


def test_table_build_holds_no_per_element_bytes():
    # the table is 0.32 MB; a bytes object per element while it is built
    # (1.3 MB traced for a tuple of the 20160 rows) would pass the bound
    tracemalloc.start()
    try:
        table = _gl_table.__wrapped__(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == _gl_table(4)
    assert peak < 1_000_000


def test_table_is_built_once_per_process(te8):
    # the census, a canonical form and a Burnside recount share one build
    _gl_table.cache_clear()
    verify_lemma_ev()
    canonical_form(TYPE_II_REPRESENTATIVE)
    burnside_orbit_count(4, te8)
    info = _gl_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
