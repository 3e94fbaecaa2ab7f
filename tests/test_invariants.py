import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plurican.arrangements import (
    CampedelliReport,
    ExtensionReport,
    IncidenceReport,
    LabeledArrangement,
    ProjLine,
)
from plurican.errors import HypothesisError, Record, ValidationError
from plurican.evenclass import EvenSetTag, EvenSetType
from plurican.invariants import (
    CATALOG,
    CoveringParams,
    SurfaceInvariants,
    branch_curve_genus,
    catalog_entry,
    composed_canonical_degree,
    covering_invariants,
    generic_pluricanonical_smooth,
    moduli_dimension,
    moduli_dimension_lower_bound,
)

CAMPEDELLI = SurfaceInvariants(p_g=0, q=0, K2=2)
RIGID_333 = SurfaceInvariants.from_pa(37, 0, 333)


def test_surface_identity_fields():
    X = SurfaceInvariants(p_g=3, q=1, K2=13)
    assert X.p_a == 3
    assert X.e == 12 * 3 - 13
    assert SurfaceInvariants.from_pa(4, 0, 16).p_g == 3


def test_records_are_frozen_values():
    # what a frozen dataclass gave: construction by position or keyword,
    # equality and hash by value, a field repr, no assignment
    X = SurfaceInvariants(3, 1, K2=13)
    assert X == SurfaceInvariants(p_g=3, q=1, K2=13) != SurfaceInvariants(3, 1, 14)
    assert X != (3, 1, 13)
    assert hash(X) == hash(SurfaceInvariants(3, 1, 13))
    assert repr(X) == "SurfaceInvariants(p_g=3, q=1, K2=13)"
    assert repr(CoveringParams(2, 1)) == "CoveringParams(d=2, m=1)"
    with pytest.raises(AttributeError):
        X.K2 = 14
    with pytest.raises(AttributeError):
        del X.q
    for args, kwargs in [((3, 1), {}), ((3, 1, 13, 0), {}), ((3, 1, 13), {"q": 1}),
                         ((3, 1), {"k2": 13})]:
        with pytest.raises(TypeError):
            SurfaceInvariants(*args, **kwargs)


@pytest.mark.parametrize("record", [
    IncidenceReport((), (), 0),
    CampedelliReport(True, (), ()),
    ExtensionReport(True, True, EvenSetType(EvenSetTag.TYPE_I, None)),
], ids=lambda record: type(record).__name__)
def test_reports_are_frozen(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_record_fields_are_the_annotations():
    class Parent(Record):
        b: int
        a: int

    class Child(Parent):
        def total(self):
            return self.a + self.b

    assert Parent._fields == Child._fields == ("b", "a")
    assert IncidenceReport._fields == ("points", "histogram", "line_count")
    child = Child(1, a=2)
    assert (child.b, child.a, child.total()) == (1, 2, 3)
    assert repr(child) == "Child(b=1, a=2)"
    with pytest.raises(TypeError):
        Child(1, b=2)


def test_arrangement_values():
    lines = [ProjLine((1, 0, 0)), ProjLine((0, 1, 0))]
    assert LabeledArrangement(lines).labels == ()
    assert LabeledArrangement(lines) == LabeledArrangement(tuple(lines), ())
    assert ProjLine((2, 4, 6)) == ProjLine((1, 2, 3))
    assert hash(ProjLine((2, 4, 6))) == hash(ProjLine((1, 2, 3)))
    half = ProjLine(((Fraction(1, 2), 1), 0, 1))
    assert half == ProjLine(((1, 2), 0, 2)) != ProjLine((Fraction(1, 2), 0, 1))
    assert hash(half) == hash(ProjLine(((1, 2), 0, 2)))


def test_miyaoka_yau_flag():
    fpp = SurfaceInvariants(p_g=0, q=0, K2=9)
    assert fpp.e == 3 and fpp.is_miyaoka_yau
    assert RIGID_333.e == 111 and RIGID_333.is_miyaoka_yau
    assert not CAMPEDELLI.is_miyaoka_yau


def test_covering_params_validation():
    with pytest.raises(ValidationError):
        CoveringParams(1, 1)
    with pytest.raises(ValidationError):
        CoveringParams(2, 0)


def test_campedelli_double_cover():
    Y = covering_invariants(CAMPEDELLI, CoveringParams(2, 1))
    assert (Y.K2, Y.p_a, Y.p_g, Y.q) == (16, 4, 3, 0)


def test_rigid_333_cover_d2_m3():
    Y = covering_invariants(RIGID_333, CoveringParams(2, 3))
    assert Y.K2 == 2 * 16 * 333 == 10656
    assert Y.p_a == 2 * 37 + 6 * 333 == 2072


def test_double_cover_k2_is_eight_times_base():
    for k2 in (1, 2, 5, 9, 333):
        X = SurfaceInvariants.from_pa(5, 0, k2)
        assert covering_invariants(X, CoveringParams(2, 1)).K2 == 8 * k2


@settings(max_examples=200)
@given(st.integers(2, 1000), st.integers(1, 1000))
def test_genus_correction_term_is_always_integral(d, m):
    # d(d-1)m((2d-1)m+3) is divisible by 12 for every integer d, m, so the
    # covering genus is integral whenever K2 is; the guard inside
    # covering_invariants can only fire for inputs outside this domain
    assert d * (d - 1) * m * ((2 * d - 1) * m + 3) % 12 == 0


@settings(max_examples=300)
@given(
    st.integers(1, 50), st.integers(1, 400), st.integers(2, 7), st.integers(1, 6)
)
def test_noether_consistency_random(p_a, k2, d, m):
    X = SurfaceInvariants.from_pa(p_a, 0, k2)
    Y = covering_invariants(X, CoveringParams(d, m))
    assert Y.K2 + Y.e == 12 * Y.p_a


def test_monotone_in_m():
    X = SurfaceInvariants.from_pa(3, 0, 12)
    prev = None
    for m in range(1, 7):
        Y = covering_invariants(X, CoveringParams(3, m))
        if prev is not None:
            assert Y.K2 > prev.K2 and Y.p_a > prev.p_a
        prev = Y


@pytest.mark.parametrize(
    "k2,d,m,genus",
    # (2, 2, 2, 21): d*m = 4 = 1 mod 3, so d*m*(d*m + 1)*K2 is not a multiple of 3
    [(2, 2, 1, 7), (0, 2, 1, 1), (1, 5, 1, 16), (2, 2, 2, 21)],
)
def test_branch_curve_genus(k2, d, m, genus):
    assert branch_curve_genus(k2, CoveringParams(d, m)) == genus


@pytest.mark.parametrize("k2,value", [(2, 3), (6, 7), (3, 4)])
def test_pg_of_double_cover_of_pg0_surface(k2, value):
    X = SurfaceInvariants(p_g=0, q=0, K2=k2)
    assert covering_invariants(X, CoveringParams(2, 1)).p_g == value


@settings(max_examples=150)
@given(st.integers(1, 50), st.integers(1, 6))
def test_section_count_equals_cover_genus(k2, m):
    # a double cover of a p_g = 0 surface branched along a curve numerically
    # equivalent to 2m*K has p_g = 1 + m(m+1)/2 * K2
    X = SurfaceInvariants(p_g=0, q=0, K2=k2)
    assert covering_invariants(X, CoveringParams(2, m)).p_g == 1 + m * (m + 1) // 2 * k2


@pytest.mark.parametrize("base,total", [(8, 16), (4, 8), (2, 4)])
def test_composed_canonical_degree(base, total):
    assert composed_canonical_degree(base) == total


def test_composed_degree_validation():
    with pytest.raises(ValidationError):
        composed_canonical_degree(0)


@pytest.mark.parametrize(
    "d,k2,m,expected",
    [
        (2, 1, 3, True),   # dm = 6
        (2, 5, 1, True),
        (2, 4, 1, False),
        (2, 2, 1, False),
        (3, 3, 1, True),
        (3, 2, 1, False),
        (4, 2, 1, True),
        (4, 1, 1, False),
        (5, 1, 1, True),   # dm = 5
        (2, 100, 2, False),  # dm = 4 and m > 1
    ],
)
def test_generic_pluricanonical_smooth(d, k2, m, expected):
    assert generic_pluricanonical_smooth(d, k2, m) is expected


def test_moduli_dimension_examples():
    fpp = SurfaceInvariants(p_g=0, q=0, K2=9)
    assert moduli_dimension(3, fpp) == 135
    assert moduli_dimension(3, RIGID_333) == 15 * 333 + 36 == 5031


def test_moduli_dimension_hypothesis():
    fpp = SurfaceInvariants(p_g=0, q=0, K2=9)
    with pytest.raises(HypothesisError):
        moduli_dimension(2, fpp)
    with pytest.raises(HypothesisError):
        moduli_dimension(0, fpp)


def test_moduli_lower_bound_examples():
    X9 = SurfaceInvariants(p_g=0, q=0, K2=9)
    X2 = SurfaceInvariants(p_g=0, q=0, K2=2)
    assert moduli_dimension_lower_bound(CoveringParams(3, 2), X9) == 135
    assert moduli_dimension_lower_bound(CoveringParams(5, 1), X2) == 20


def test_lower_bound_agrees_with_dimension_for_double_covers():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(3, 9)
        X = SurfaceInvariants.from_pa(rng.randint(1, 40), 0, rng.randint(1, 350))
        assert moduli_dimension(m, X) == moduli_dimension_lower_bound(
            CoveringParams(2, m), X
        )


def test_catalog_entries_consistent():
    names = [e.name for e in CATALOG]
    assert len(set(names)) == len(names)
    for entry in CATALOG:
        inv = entry.invariants
        assert inv.K2 + inv.e == 12 * inv.p_a
        assert entry.miyaoka_yau == inv.is_miyaoka_yau


def test_catalog_key_entries():
    camp = catalog_entry("campedelli")
    assert camp.invariants.K2 == 2 and camp.torsion.cyclic_orders == (2, 2, 2)
    assert camp.bicanonical_map_degree == 8
    assert catalog_entry("mlp").bicanonical_map_degree == 2
    fpp = catalog_entry("fpp")
    assert fpp.miyaoka_yau and fpp.invariants.e == 3
    rigid = catalog_entry("miyaoka-yau-333-1")
    assert rigid.invariants.K2 == 333 and rigid.invariants.e == 111
    assert rigid.torsion.order == 5**6
    assert rigid.kl_equals_aut is True
    assert catalog_entry("miyaoka-yau-333-2").kl_equals_aut is False
    for k2 in (3, 4, 5, 6):
        b = catalog_entry(f"burniat-{k2}")
        assert b.bicanonical_map_degree == 4
        assert b.invariants.K2 == k2


def test_catalog_unknown_name():
    with pytest.raises(ValidationError):
        catalog_entry("noneuclidean-banana")
