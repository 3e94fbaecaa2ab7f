from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    TYPE_I_REPRESENTATIVE,
    TYPE_II_REPRESENTATIVE,
    complement_masks,
    null_space_count_by_weight,
)
from plurican import evenclass, f2geom, glgroup
from plurican.errors import ValidationError
from plurican.evenclass import (
    EvenSetTag,
    EvenSetType,
    classify_type,
    enumerate_totally_even,
    verify_lemma_ev,
)
from plurican.f2geom import (
    F2Point,
    PointSet,
    hyperplane_profile,
    is_totally_even,
    pointset_to_json,
)
from plurican.glgroup import F2Matrix, act, canonical_form

# golden value: totally even 8-point subsets of PG(3, F2), pinned from the
# null-space oracle (see test_count_matches_oracle)
N8 = 435


def test_enumerate_size_zero_and_one():
    assert enumerate_totally_even(0) == [PointSet(4, 0)]
    assert enumerate_totally_even(1) == []


def test_enumerate_size_eight_golden():
    sets = enumerate_totally_even(8)
    assert len(sets) == N8
    masks = [s.mask for s in sets]
    assert masks == sorted(masks)
    assert TYPE_I_REPRESENTATIVE in sets
    assert TYPE_II_REPRESENTATIVE in sets
    assert set(complement_masks(4)) <= set(masks)


def test_count_matches_oracle_for_every_size():
    oracle = null_space_count_by_weight(4)
    for size in range(16):
        assert len(enumerate_totally_even(size)) == oracle.get(size, 0)


def test_enumerate_size_validation():
    with pytest.raises(ValidationError):
        enumerate_totally_even(-1)
    with pytest.raises(ValidationError):
        enumerate_totally_even(16)


def test_classify_affine_chart():
    res = classify_type(TYPE_I_REPRESENTATIVE)
    assert res.tag is EvenSetTag.TYPE_I
    assert res.witness.coords == (0, 0, 0, 1)


def test_classify_type_ii_list():
    res = classify_type(TYPE_II_REPRESENTATIVE)
    assert res.tag is EvenSetTag.TYPE_II
    assert res.witness is not None
    inter = TYPE_II_REPRESENTATIVE.mask & f2geom._hyperplane_masks(4)[res.witness.normal]
    assert bin(inter).count("1") == 6


def test_classify_not_totally_even():
    # first 8 points by encoding form no totally even set
    s = PointSet.from_codes(4, range(1, 9))
    assert not is_totally_even(s)
    assert classify_type(s).tag is EvenSetTag.NOT_TOTALLY_EVEN


def test_classify_wrong_size():
    with pytest.raises(ValidationError):
        classify_type(PointSet.from_codes(4, [1, 2, 3]))
    with pytest.raises(ValidationError):
        classify_type(PointSet.from_codes(3, [1, 2, 4, 7]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_classification_is_projective_invariant(te8, gl4, data):
    s = data.draw(st.sampled_from(te8))
    m = data.draw(st.sampled_from(gl4))
    assert classify_type(act(m, s)).tag is classify_type(s).tag


def test_verify_report_shape(lemma_report):
    assert lemma_report.total_count == N8
    assert lemma_report.orbit_count == 2
    assert lemma_report.burnside_orbit_count == 2
    assert lemma_report.profile_separates_orbits
    sizes = sorted(o.size for o in lemma_report.census.orbits)
    assert sizes == [15, N8 - 15]


# stand-in profiles of a set's hyperplane sections: shifted by 1 (constant
# per orbit, no 0 and no 6), one for every set (the orbits share it), and
# the sections unsorted (not constant)
@pytest.mark.parametrize("profile,separates", [
    (lambda sections: tuple(x + 1 for x in sorted(sections, reverse=True)), True),
    (lambda sections: (4,), False),
    (lambda sections: tuple(sections), False),
])
def test_profile_separates_orbits_is_the_named_property(monkeypatch, profile, separates):
    monkeypatch.setattr(evenclass, "_profile", profile)
    assert verify_lemma_ev().profile_separates_orbits is separates


def test_verify_report_types(lemma_report):
    by_type = {
        tag: orbit
        for orbit, tag in zip(lemma_report.census.orbits, lemma_report.orbit_types)
    }
    assert set(by_type) == {EvenSetTag.TYPE_I, EvenSetTag.TYPE_II}
    assert by_type[EvenSetTag.TYPE_I].size == 15
    assert by_type[EvenSetTag.TYPE_II].size == 420
    assert by_type[EvenSetTag.TYPE_I].stabilizer_order == 1344
    assert by_type[EvenSetTag.TYPE_II].stabilizer_order == 48


def test_every_member_classified(te8):
    tags = {classify_type(s).tag for s in te8}
    assert tags == {EvenSetTag.TYPE_I, EvenSetTag.TYPE_II}


def test_profile_separates_types(te8):
    for s in te8:
        profile = hyperplane_profile(s)
        tag = classify_type(s).tag
        if tag is EvenSetTag.TYPE_I:
            assert 0 in profile and 6 not in profile
        else:
            assert 6 in profile and 0 not in profile


def test_excluded_profiles_never_occur(te8):
    # the case analysis rules these out: all sections of size 4, and
    # maximal section 4 together with some section of size 2
    for s in te8:
        profile = hyperplane_profile(s)
        assert profile != (4,) * 15
        assert not (max(profile) == 4 and 2 in profile)


def test_type_witnesses_are_unique(te8):
    for s in te8:
        profile = hyperplane_profile(s)
        res = classify_type(s)
        if res.tag is EvenSetTag.TYPE_I:
            assert profile.count(0) == 1
        else:
            assert profile.count(6) == 1


def test_type_ii_membership_matches_oracle_list():
    expected = {
        F2Point.from_coords(c).code
        for c in [
            (1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0), (1, 0, 1, 0),
            (0, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 1), (0, 0, 0, 1),
        ]
    }
    assert set(TYPE_II_REPRESENTATIVE.codes()) == expected


@pytest.mark.parametrize("wrong", [EvenSetTag.NOT_TOTALLY_EVEN, EvenSetTag.TYPE_I])
def test_constancy_failure_names_orbit_and_tags(monkeypatch, gl4, wrong):
    # the census representative of the 420-orbit is its least bit set, and
    # the victim one more member of that orbit
    rep = canonical_form(TYPE_II_REPRESENTATIVE)
    victim = next(img for img in (act(m, rep) for m in gl4) if img != rep)
    real = evenclass._type_of
    monkeypatch.setattr(
        evenclass, "_type_of",
        lambda mask, sections: (wrong, None) if mask == victim.mask else real(mask, sections),
    )
    with pytest.raises(ValidationError, match="classification is not constant on an orbit") as err:
        verify_lemma_ev()
    assert err.value.details == {
        "representative": pointset_to_json(rep),
        "tags": sorted([wrong.value, EvenSetTag.TYPE_II.value]),
    }


def test_census_builds_no_matrix_and_no_second_orbit_pass(monkeypatch):
    built = []
    real = F2Matrix.__post_init__
    monkeypatch.setattr(F2Matrix, "__post_init__", lambda self: built.append(self) or real(self))
    F2Matrix(2, (0b10, 0b01))
    assert len(built) == 1  # the counter sees matrix construction

    def refuse(*args):
        raise AssertionError("a one-set orbit function was called")

    for name in ("canonical_form", "act"):
        monkeypatch.setattr(glgroup, name, refuse)
    built.clear()
    assert verify_lemma_ev().orbit_count == 2
    assert built == []


def test_burnside_disagreement_fails_the_census(monkeypatch):
    monkeypatch.setattr(glgroup, "_burnside_orbit_count", lambda k, masks: 3)
    with pytest.raises(ValidationError, match="Burnside recount 3 disagrees with census 2") as err:
        verify_lemma_ev()
    assert err.value.details == {"burnside": 3, "census": 2}


def test_census_of_other_than_two_orbits_fails(monkeypatch):
    monkeypatch.setattr(glgroup, "gl_orbit_census",
                        lambda k, masks: (SimpleNamespace(orbit_count=1), None, 1))
    with pytest.raises(ValidationError, match="expected 2 orbits, found 1") as err:
        verify_lemma_ev()
    assert err.value.details == {"found": 1}


def test_census_without_a_type_i_orbit_fails(monkeypatch):
    # every set reported as type II: constant on orbits, but no type I orbit
    real = evenclass._type_of
    monkeypatch.setattr(
        evenclass, "_type_of",
        lambda mask, sections: (EvenSetTag.TYPE_II, real(mask, sections)[1]),
    )
    with pytest.raises(ValidationError, match="a single type I orbit of size 15") as err:
        verify_lemma_ev()
    assert err.value.details == {"sizes": []}


@pytest.mark.parametrize("sections,six", [([4] * 15, []), ([6, 4, 6] + [4] * 12, [1, 3])])
def test_classification_dichotomy_failure_names_the_set_and_its_six_point_sections(sections, six):
    # no real set has these sections: the check stands behind the case analysis
    with pytest.raises(ValidationError, match="classification dichotomy failed") as err:
        evenclass._type_of(TYPE_II_REPRESENTATIVE.mask, sections)
    assert err.value.details == {
        "set": pointset_to_json(TYPE_II_REPRESENTATIVE), "six_point_normals": six}
