import contextlib
import io
import json
import random
import tracemalloc
from array import array
from itertools import permutations, product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    aut_apply,
    brute_component_bound,
    brute_elements,
    brute_is_divisible,
    brute_tor_d_order,
    burnside_orbit_count,
    invariant_factors,
    table_positions_oracle,
    tor_d_elements,
    union_find_orbit_count,
)
from plurican import _lanes, cli, torsion
from plurican.errors import DomainError, HypothesisError, MalformedInputError, ValidationError
from plurican.torsion import (
    AutAction,
    FiniteAbelianGroup,
    cnew_component_count,
    covering_count,
    cplus_total,
    orbit_count,
    theorem_mod_component_bound,
    tor_d_order,
)

Z2_CUBED = FiniteAbelianGroup((2, 2, 2))
Z5_SIXTH = FiniteAbelianGroup((5,) * 6)
TRIVIAL = FiniteAbelianGroup(())

small_orders = st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9]), min_size=0, max_size=3)


def test_group_basics():
    assert Z2_CUBED.order == 8 and Z2_CUBED.rank == 3
    assert TRIVIAL.order == 1 and TRIVIAL.element_at(0) == TRIVIAL.zero() == ()
    assert Z2_CUBED.element((3, -1, 2)) == (1, 1, 0)
    with pytest.raises(ValidationError):
        FiniteAbelianGroup((1,))
    with pytest.raises(ValidationError):
        Z2_CUBED.element((1, 0))
    for coords in [(1.5, 0, 0), (True, 0, 0), (0, 1.0, 0)]:
        with pytest.raises(MalformedInputError):
            Z2_CUBED.element(coords)


def test_invariant_factors():
    assert invariant_factors((2, 4, 3)) == (2, 12)
    assert invariant_factors((2, 2, 2)) == (2, 2, 2)
    assert invariant_factors((6, 10)) == (2, 30)
    assert invariant_factors(TRIVIAL.cyclic_orders) == ()


def test_tor_d_order_examples():
    assert tor_d_order(Z2_CUBED, 2) == 8
    assert tor_d_order(Z2_CUBED, 1) == 1
    assert tor_d_order(Z5_SIXTH, 5) == 15625
    assert tor_d_order(FiniteAbelianGroup((6,)), 4) == 2
    assert tor_d_order(TRIVIAL, 12) == 1


def test_tor_d_elements_match_order():
    for orders in [(2, 2, 2), (4,), (6, 10), ()]:
        G = FiniteAbelianGroup(orders)
        for d in (1, 2, 3, 4, 5, 6):
            elems = tor_d_elements(G, d)
            assert len(elems) == tor_d_order(G, d)
            assert all(G.scale(d, e) == G.zero() for e in elems)


def test_covering_count_examples():
    assert covering_count(Z2_CUBED, 2) == 8
    assert covering_count(TRIVIAL, 3) == 1
    assert covering_count(FiniteAbelianGroup((6,)), 4) == 2
    with pytest.raises(ValidationError):
        covering_count(Z2_CUBED, 1)


@settings(max_examples=300, deadline=None)
@given(small_orders, st.integers(1, 12))
def test_tor_d_order_matches_brute_force(orders, d):
    assert tor_d_order(FiniteAbelianGroup(tuple(orders)), d) == brute_tor_d_order(orders, d)


def test_multiplication_fibers_have_torsion_size():
    # fibers of g -> d*g on the d^2-torsion all have size |Tor_d|
    for orders, d in [((4, 8), 2), ((9, 3), 3), ((6,), 2)]:
        G = FiniteAbelianGroup(orders)
        fiber: dict = {}
        for e in tor_d_elements(G, d * d):
            fiber.setdefault(G.scale(d, e), []).append(e)
        expected = tor_d_order(G, d)
        assert all(len(v) == expected for v in fiber.values())


def test_component_bound_examples():
    assert theorem_mod_component_bound(Z2_CUBED, 2) == 2
    assert theorem_mod_component_bound(TRIVIAL, 2) == 1
    # in Z/4 the only 2-torsion elements are 0 and 2, both divisible by 2
    assert theorem_mod_component_bound(FiniteAbelianGroup((4,)), 2) == 1
    assert theorem_mod_component_bound(FiniteAbelianGroup((4,)), 4) == 2


@settings(max_examples=200, deadline=None)
@given(small_orders, st.integers(2, 8))
def test_component_bound_matches_brute_force(orders, d):
    G = FiniteAbelianGroup(tuple(orders))
    assert theorem_mod_component_bound(G, d) == brute_component_bound(orders, d)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(2, 64), min_size=0, max_size=3), st.integers(2, 64))
def test_component_bound_matches_torsion_enumeration(orders, d):
    G = FiniteAbelianGroup(tuple(orders))
    enumerated = 2 if any(not brute_is_divisible(orders, a, d)
                          for a in tor_d_elements(G, d)) else 1
    assert theorem_mod_component_bound(G, d) == enumerated


def test_component_bound_forms_no_torsion_element():
    # only the test oracle lists Tor_d
    assert not hasattr(torsion, "tor_d_elements")
    G = FiniteAbelianGroup((10**6, 10**6))
    # the 10^12 elements of Tor_d are never listed
    assert theorem_mod_component_bound(G, 10**6) == 2
    assert theorem_mod_component_bound(G, 10**3) == 1


def test_action_order_cap(monkeypatch):
    # the benchmark's (Z/5)^7 stays below the documented limit
    assert torsion.MAX_ACTION_ORDER >= 5**7
    monkeypatch.setattr(torsion, "MAX_ACTION_ORDER", 8)
    assert orbit_count(Z2_CUBED, [AutAction.from_matrix(Z2_CUBED, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])]) == 8
    G = FiniteAbelianGroup((2, 2, 2, 2))
    for call in (
        lambda: orbit_count(G, []),
        lambda: AutAction(G, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
    ):
        with pytest.raises(ValidationError) as exc:
            call()
        assert exc.value.details == {"order": 16, "limit": 8}


def test_action_order_cap_refuses_huge_group_before_allocating():
    G = FiniteAbelianGroup((10**6, 10**6))
    with pytest.raises(ValidationError):
        orbit_count(G, [])
    with pytest.raises(ValidationError):
        AutAction.from_matrix(G, [[1, 0], [0, 1]])


def test_orbit_count_trivial_action():
    assert orbit_count(Z5_SIXTH, []) == 15625
    assert orbit_count(TRIVIAL, []) == 1


def test_orbit_count_inversion_on_z5():
    G = FiniteAbelianGroup((5,))
    inv = AutAction.from_matrix(G, [[-1]])
    assert orbit_count(G, [inv]) == 3  # {0}, {1,4}, {2,3}
    assert burnside_orbit_count(G, [inv]) == 3


def test_orbit_count_swap_on_z2_squared():
    G = FiniteAbelianGroup((2, 2))
    swap = AutAction.from_matrix(G, [[0, 1], [1, 0]])
    assert orbit_count(G, [swap]) == 3  # {00}, {01,10}, {11}
    assert burnside_orbit_count(G, [swap]) == 3


def test_orbit_count_matches_burnside_randomized():
    rng = random.Random(11)
    G = FiniteAbelianGroup((3, 3))
    mats = [
        [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]],
        [[2, 0], [0, 1]], [[0, 2], [1, 0]],
    ]
    for _ in range(10):
        gens = [AutAction.from_matrix(G, rng.choice(mats)) for _ in range(rng.randint(0, 3))]
        assert orbit_count(G, gens) == burnside_orbit_count(G, gens)
        assert orbit_count(G, gens) == union_find_orbit_count(G, gens)


def _scalings(p: int, *units: int) -> list:
    """x -> u x on Z/p for each u in `units`."""
    G = FiniteAbelianGroup((p,))
    return [AutAction.from_matrix(G, [[u]]) for u in units]


# (group orders, generators, orbits): each walked by `orbit_count` and
# recounted by union-find and by Burnside
ORBIT_CASES = {
    "no-generators": ((3, 4), lambda G: [], 12),
    "identity": ((4, 2), lambda G: [AutAction(G, [(1, 0), (0, 1)])], 8),
    # 3 is a primitive root mod 7: one cycle of the 6 nonzero elements
    "primitive-root-cycle": ((7,), lambda G: _scalings(7, 3), 2),
    "repeated-generator": ((5, 5), lambda G: [AutAction.from_matrix(G, [[0, 1], [1, 0]])] * 3,
                           15),
    # the cycle of 1 under x -> 3x meets 2, pushed from 1 under x -> 2x,
    # after 3: 1, 3, then 2 is already seen, and is walked on from the stack
    "stacked-element-met-in-a-cycle": ((7,), lambda G: _scalings(7, 3, 2), 2),
    # x -> -x pushes the second half of the cycle of 1 under x -> 3x
    "half-the-cycle-stacked": ((17,), lambda G: _scalings(17, 3, -1), 2),
    # GL(2, 2) permutes the three nonzero elements
    "gl2-on-z2-squared": ((2, 2), lambda G: [AutAction.from_matrix(G, [[0, 1], [1, 0]]),
                                             AutAction.from_matrix(G, [[1, 1], [0, 1]])], 2),
}


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_count_fixed_inputs(case):
    orders, make, orbits = ORBIT_CASES[case]
    G = FiniteAbelianGroup(orders)
    gens = make(G)
    assert orbit_count(G, gens) == orbits
    assert union_find_orbit_count(G, gens) == orbits
    assert burnside_orbit_count(G, gens) == orbits


def test_orbit_count_takes_an_iterator_of_generators():
    G = FiniteAbelianGroup((7,))
    assert orbit_count(G, iter(_scalings(7, 2))) == 3  # {0}, {1, 2, 4}, {3, 6, 5}


def test_orbit_count_peak_memory():
    # x -> 3x and x -> -x on Z/65537, 3 a primitive root: one orbit of
    # every nonzero element, whose cycle of 1 under x -> 3x pushes each
    # element of its second half, -1 = 3^32768 on, before it meets -1.
    # That is the largest stack two generators can build, half the
    # elements at 4 bytes each; with the seen bytes, 3.1 bytes per element
    # (0.20 MB, Python 3.11) against the bound's 5.  The union-find held a
    # list of Python ints, about 38 bytes per element.
    p = 65537
    G = FiniteAbelianGroup((p,))
    gens = _scalings(p, 3, -1)
    count = []
    peak = _traced_peak(lambda: count.append(orbit_count(G, gens)))
    assert count == [2]
    assert peak <= 5 * p, f"peak {peak / p:.2f} bytes per element"


def test_perm_is_an_array_of_32_bit_positions():
    # x -> (x_0, 2 x_0 + 3 x_1) on Z/2 x Z/4 as a table, and two matrices on
    # a group with equal factors; orbits against the Burnside oracle
    G = FiniteAbelianGroup((2, 4))
    pairs = [[[a, b], [a, (2 * a + 3 * b) % 4]] for a, b in brute_elements((2, 4))]
    H = FiniteAbelianGroup((5, 5))
    for group, gens in [(G, [AutAction.from_table(G, pairs)]),
                        (H, [AutAction.from_matrix(H, [[-1, 0], [0, -1]]),
                             AutAction.from_matrix(H, [[0, 1], [1, 0]])])]:
        for aut in gens:
            assert isinstance(aut.perm, array) and aut.perm.itemsize == 4
            assert sorted(aut.perm) == list(range(group.order))
        assert orbit_count(group, gens) == burnside_orbit_count(group, gens)


def test_permutation_table_automorphism():
    G = FiniteAbelianGroup((5,))
    pairs = [[[x], [(-x) % 5]] for x in range(5)]
    inv = AutAction.from_table(G, pairs)
    assert orbit_count(G, [inv]) == 3


def _det(m) -> int:
    """Leibniz determinant of a small square matrix."""
    n = len(m)
    total = 0
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][p[i]] for i in range(n))
    return total


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([*range(2, 10), 257]), st.data())
def test_matrix_and_table_permutations_match_matrix_product(n, data):
    # 257: lanes wider than a byte, in both loops of `torsion._extend`
    r = data.draw(st.integers(0, 3 if n < 10 else 2))
    matrix = data.draw(st.lists(
        st.lists(st.integers(-2 * n, 2 * n), min_size=r, max_size=r), min_size=r, max_size=r))
    if gcd(_det(matrix) % n, n) != 1:
        with pytest.raises(ValidationError):
            AutAction.from_matrix(FiniteAbelianGroup((n,) * r), matrix)
        return
    G = FiniteAbelianGroup((n,) * r)
    elements = list(product(range(n), repeat=r))
    position = {e: i for i, e in enumerate(elements)}
    images = [
        tuple(sum(row[j] * x[j] for j in range(r)) % n for row in matrix) for x in elements
    ]
    expected = tuple(position[y] for y in images)
    assert tuple(AutAction.from_matrix(G, matrix).perm) == expected
    pairs = [[list(x), list(y)] for x, y in zip(elements, images)]
    assert tuple(AutAction.from_table(G, pairs).perm) == expected


def test_positions_follow_element_order():
    for orders in [(2, 3), (4, 2, 3), ()]:
        G = FiniteAbelianGroup(orders)
        elements = brute_elements(orders)
        assert [G.index(e) for e in elements] == list(range(G.order))
        assert [G.element_at(i) for i in range(G.order)] == elements


def test_orbit_count_applies_no_generator_per_element():
    G = FiniteAbelianGroup((3, 3))
    negate = [[list(x), [(-c) % 3 for c in x]] for x in brute_elements((3, 3))]
    gens = [AutAction.from_matrix(G, [[0, 1], [1, 0]]), AutAction.from_table(G, negate)]
    # an automorphism is its permutation of positions; only the test oracle
    # applies one to an element tuple
    assert not any(map(callable, gens))
    # {0}, {(1, 0), (0, 1), (2, 0), (0, 2)}, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}
    assert orbit_count(G, gens) == 4


def test_permutation_table_rejections():
    G = FiniteAbelianGroup((5,))
    with pytest.raises(ValidationError) as err:  # not defined everywhere: too few pairs
        AutAction.from_table(G, [[[0], [0]]])
    assert err.value.details == {"pairs": 1, "order": 5}
    with pytest.raises(ValidationError) as err:  # 5 pairs, 3 given twice, 2 given none
        AutAction.from_table(G, [[[x], [2 * x % 5]] for x in (0, 1, 3, 4, 3)])
    assert str(err.value) == "permutation table must be defined on every element"
    assert err.value.details == {"element": [2]}
    with pytest.raises(ValidationError) as err:  # not a bijection
        AutAction.from_table(G, [[[x], [x // 2 * 2]] for x in range(5)])
    assert str(err.value) == "permutation table is not a bijection"
    assert err.value.details == {"missing_image": [1]}
    with pytest.raises(ValidationError):  # bijection but not additive
        swap12 = {0: 0, 1: 2, 2: 1, 3: 3, 4: 4}
        AutAction.from_table(G, [[[x], [y]] for x, y in swap12.items()])
    with pytest.raises(ValidationError) as err:  # does not fix the identity
        shift = {x: (x + 3) % 5 for x in range(5)}
        AutAction.from_table(G, [[[x], [y]] for x, y in shift.items()])
    assert str(err.value) == "permutation table does not fix the identity"
    assert err.value.details == {"image": [3]}
    with pytest.raises(ValidationError, match="group operation") as err:
        swap12 = {0: 0, 1: 2, 2: 1, 3: 3, 4: 4}
        AutAction.from_table(G, [[[x], [y]] for x, y in swap12.items()])
    # first element where the table leaves x -> 2x, the extension of 1 -> 2
    assert err.value.details == {"at": [2]}


def test_permutation_table_refuses_huge_group_before_allocating():
    # 10^12 elements: refused by the action-order cap before the table is
    # read or anything is allocated per element
    G = FiniteAbelianGroup((10**6, 10**6))
    with pytest.raises(ValidationError) as err:
        AutAction.from_table(G, [[[0, 0], [0, 0]]])
    assert err.value.details == {"order": 10**12, "limit": torsion.MAX_ACTION_ORDER}
    # below the cap, one pair cannot cover 2^20 elements: refused by counting
    # the pairs, before the position table is allocated
    G = FiniteAbelianGroup((1 << 10, 1 << 10))
    with pytest.raises(ValidationError) as err:
        AutAction.from_table(G, [[[0, 0], [0, 0]]])
    assert str(err.value) == "permutation table must be defined on every element"
    assert err.value.details == {"pairs": 1, "order": 1 << 20}


def test_permutation_table_over_the_cap_reports_the_cap(monkeypatch):
    # a complete, additive table on a group above the cap: the cap error,
    # not "does not preserve the group operation", and before parsing
    monkeypatch.setattr(torsion, "MAX_ACTION_ORDER", 4)
    Z5 = FiniteAbelianGroup((5,))
    for table in ([[[x], [2 * x % 5]] for x in range(5)], [[[True], [0.5]]]):
        with pytest.raises(ValidationError) as err:
            AutAction.from_table(Z5, table)
        assert str(err.value) == ("group order 5 is above the limit 4 "
                                  "for automorphism actions")
        assert err.value.details == {"order": 5, "limit": 4}


def _outcome(call, *args):
    """What a call returns, or the class, message and details of its error."""
    try:
        return call(*args)
    except DomainError as exc:
        return type(exc), str(exc), exc.details


def _inject(fault: str, pairs: list, orders, draw) -> None:
    """Apply one fault to a table of [element, image] pairs, in place."""
    k, m = (draw(st.integers(0, len(pairs) - 1)) for _ in range(2))
    pair = pairs[k]
    s = draw(st.integers(0, 1))
    side = pair[s]
    if fault == "drop-pair":
        del pairs[k]
    elif fault == "extra-pair":  # a later pair for an element replaces the earlier one
        pairs.append([pairs[m][0], draw(st.sampled_from(pairs))[1]])
    elif fault == "duplicate-key":
        pair[0] = pairs[m][0]
    elif fault == "swap-images":
        pair[1], pairs[m][1] = pairs[m][1], pair[1]
    elif fault == "triple":
        pair.append(side)
    elif fault == "non-array":
        pair[s] = draw(st.sampled_from([0, None, "0"]))
    elif not isinstance(side, list):
        pass
    elif fault == "long":
        pair[s] = [*side, draw(st.integers(0, 3))]
    elif fault == "short" and side:
        pair[s] = side[:-1]
    elif side and len(side) <= len(orders):
        c = draw(st.integers(0, len(side) - 1))
        value = {
            "bool": lambda: side[c] % 2 == 1,
            "float": lambda: side[c] + draw(st.sampled_from([0.0, 0.5])),
            # past n, 2^31 or 2^32, or negative: each column gets `c % n`
            "unreduced": lambda: side[c] + draw(st.sampled_from(
                [orders[c] * k for k in (-2, -1, 1, 2)] + [2**31, 2**32, -2**32, 10**30, -10**30])),
        }[fault]()
        pair[s] = [*side[:c], value, *side[c + 1:]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([2, 3, 4, 5, 6]), max_size=3) | st.just([257]), st.data())
def test_from_table_matches_element_by_element_oracle(orders, data):
    G = FiniteAbelianGroup(orders)
    # x -> (u_1 x_1, ..., u_r x_r) with units u_j is an automorphism
    units = [data.draw(st.sampled_from([u for u in range(1, n) if gcd(u, n) == 1]))
             for n in orders]
    pairs = [[list(x), [u * c % n for u, c, n in zip(units, x, orders)]]
             for x in brute_elements(orders)]
    pairs = data.draw(st.permutations(pairs))
    faults = ("bool", "float", "short", "long", "unreduced", "non-array", "triple",
              "duplicate-key", "extra-pair", "drop-pair", "swap-images")
    for fault in data.draw(st.lists(st.sampled_from(faults), max_size=3)):
        if pairs:
            _inject(fault, pairs, orders, data.draw)
    expected = _outcome(table_positions_oracle, G, pairs)
    # chunks of 1, 2 and 3 elements put a chunk boundary next to every fault
    for chunk in (1, 2, 3, _lanes.CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_lanes, "CHUNK", chunk)
            assert _outcome(lambda: tuple(AutAction.from_table(G, pairs).perm)) == expected


def test_lanes_at_the_action_cap():
    n = torsion.MAX_ACTION_ORDER
    assert tuple(AutAction.from_matrix(FiniteAbelianGroup((n,)), [[3]]).perm) == tuple(
        3 * i % n for i in range(n))


def test_zero_coordinates_repeat_the_column():
    # the identity on (Z/2)^20: 380 of its 400 column steps add 0
    G = FiniteAbelianGroup((2,) * 20)
    identity = [[int(i == j) for j in range(20)] for i in range(20)]
    perm = AutAction.from_matrix(G, identity).perm
    assert perm == array(perm.typecode, range(2**20))
    # basis images with zero coordinates: 1 to 257 copies of a column,
    # against x_1 f_1 + ... + x_r f_r element by element
    for orders, images in [
        ((7, 7, 7), [(0, 3, 0), (1, 0, 0), (0, 0, 2)]),
        ((2, 4), [(1, 2), (0, 1)]),
        ((2, 4), [(0, 2), (1, 3)]),
        ((3, 2, 3), [(0, 0, 2), (0, 1, 0), (1, 0, 0)]),
        ((257, 257), [(0, 1), (1, 0)]),
    ]:
        G = FiniteAbelianGroup(orders)
        aut = AutAction(G, images)
        for e in brute_elements(orders):
            image = tuple(sum(x * f[i] for x, f in zip(e, images)) % n
                          for i, n in enumerate(orders))
            assert aut_apply(aut, e) == image


@pytest.mark.parametrize("orders", [
    (1 << 20, 2),  # just past the cap
    (1 << 31,),
    (3, 1 << 30),
    (1 << 20, 1 << 20),  # positions past 2^32
])
def test_positions_of_groups_beyond_the_action_cap(orders):
    G = FiniteAbelianGroup(orders)
    with pytest.raises(ValidationError) as err:
        AutAction.from_table(G, [[[0] * len(orders), [n - 1 for n in orders]]])
    assert err.value.details == {"order": G.order, "limit": torsion.MAX_ACTION_ORDER}


TABLE_ORDERS, TABLE_UNITS = (16, 27, 25, 7), (5, 2, 3, 3)


def _unit_table() -> list:
    """The 75600 pairs of x -> (5 x_0, 2 x_1, 3 x_2, 3 x_3) on Z/16 x Z/27 x Z/25 x Z/7."""
    return [[list(x), [u * c % n for u, c, n in zip(TABLE_UNITS, x, TABLE_ORDERS)]]
            for x in product(*map(range, TABLE_ORDERS))]


# tracemalloc peak of `from_table` above its input on the 75600-element
# table, Python 3.11: 2.15 MB with the table and the permutation as 32-bit
# arrays and positions packed 4096 elements at a time; the bound leaves 0.45
# MB of margin.  Keeping the list of coordinate arrays alive past
# `positions` peaked at 3.0 MB, a table of Python ints (a list and a tuple
# next to a tuple permutation) at 11.3 MB, and a list of all 604800
# coordinates at 15.1 MB.
TABLE_PEAK_BOUND = 2_600_000


def test_from_table_peak_memory():
    pairs = _unit_table()
    G = FiniteAbelianGroup(TABLE_ORDERS)
    tracemalloc.start()
    try:
        aut = AutAction.from_table(G, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert aut.perm[G.index((1, 1, 1, 1))] == G.index(TABLE_UNITS)
    assert peak < TABLE_PEAK_BOUND, f"peak {peak / 1e6:.1f} MB"


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _table_file(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"generators": [{"kind": "permutation", "pairs": _unit_table()}]}),
                    encoding="utf-8")
    return path


def test_table_walk_peak_memory(tmp_path):
    # The walk holds the positions, two 32-bit lanes (8 bytes) per pair, its
    # window of the file, about two slices of `_SLICE` bytes and a read,
    # and the temporaries of one slice.  A slice decoded by `json.loads`
    # holds the most: the slice, its marked copy and skeleton, its flat text
    # (about a slice each), the list of its numbers (8 bytes a reference and
    # at least 2 characters a number: 4 slices) and one column of them with
    # its lanes, 10 slices in all.  The byte-lane decode of this table's 1-
    # and 2-digit coordinates holds less: the slice, a digit mask and a few
    # big ints of a byte per byte of the slice.  Python 3.11: 1.18 MB
    # against the bound's 1.39 MB, and nothing for the file's 2.5 MB.  The
    # walk of the file's bytes held whole peaked at 0.99 MB above them, the
    # walk on text at 1.07 MB and the one before it, which decoded each
    # slice to nested lists, at 1.59 MB.
    path = _table_file(tmp_path)
    tables = []
    with open(path, "rb") as fh:
        peak = _traced_peak(lambda: tables.extend(_lanes.table_positions(fh, TABLE_ORDERS)))
    G = FiniteAbelianGroup(TABLE_ORDERS)
    pos = tables[0]
    assert pos[0::2] == array(pos.typecode, range(G.order))
    assert pos[2 * G.index((1, 1, 1, 1)) + 1] == G.index(TABLE_UNITS)
    bound = 8 * G.order + 12 * _lanes._SLICE
    assert bound < path.stat().st_size
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def _components_table(path):
    out = io.StringIO()
    argv = ["components", "--group", ",".join(map(str, TABLE_ORDERS)), "--d", "2",
            "--aut", str(path)]
    with contextlib.redirect_stdout(out):
        peak = _traced_peak(lambda: cli.main(argv))
    assert json.loads(out.getvalue())["orbit_count"] > 0
    return peak


def test_components_table_peaks_under_a_third_of_its_parsed_json(tmp_path):
    # the parsed table is ~20 MB of lists and ints (a 23.1 MB peak, Python
    # 3.11); the command reads the file a window at a time into 32-bit
    # positions and peaks at 1.55 MB while it builds the action, a
    # fifteenth of the parse.  It peaked at 3.5 MB when it held the file's
    # 2.5 MB of bytes, and at 5.0 MB when it held them and their text.
    path = _table_file(tmp_path)
    parse = _traced_peak(lambda: cli._load_json(path))
    command = _components_table(path)
    assert command <= parse / 10, (
        f"command {command / 1e6:.1f} MB, parse {parse / 1e6:.1f} MB")


def test_components_table_peak_has_no_term_for_the_file(tmp_path):
    # The walk holds 8 bytes per pair and a few slices (see
    # `test_table_walk_peak_memory`).  The action arrays follow: the
    # per-element table (4 bytes), the hit bytes (1) and the permutation
    # (4), 9 bytes per element, while the permutation's lanes are built in
    # the room the freed positions leave.  Python 3.11: 1.55 MB against the
    # bound's 1.81 MB; the file is 2.51 MB, and the command peaked at 3.50
    # MB when it held the file's bytes.
    path = _table_file(tmp_path)
    order = prod(TABLE_ORDERS)
    bound = 8 * order + 9 * order + 8 * _lanes._SLICE
    assert bound < path.stat().st_size
    command = _components_table(path)
    assert command <= bound, f"command {command / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def test_permutation_table_needs_basis_images_of_right_order():
    # (c0, c1) -> (c0, c1 + c0) on Z/2 x Z/4 is a bijection fixing 0 that
    # equals its own extension from f_0 = (1, 1), but 2 * f_0 = (0, 2) != 0:
    # (1, 0) + (1, 0) = 0 while f_0 + f_0 != 0
    G = FiniteAbelianGroup((2, 4))
    pairs = [[[a, b], [a, (a + b) % 4]] for a in range(2) for b in range(4)]
    with pytest.raises(ValidationError, match="permutation table does not preserve") as err:
        AutAction.from_table(G, pairs)
    assert err.value.details == {"basis": 0, "image": [1, 1]}
    with pytest.raises(ValidationError):
        AutAction(G, [(1, 0)])  # one basis image for a rank 2 group


def test_matrix_action_rejections():
    with pytest.raises(ValidationError):  # mixed factor orders
        AutAction.from_matrix(FiniteAbelianGroup((2, 4)), [[1, 0], [0, 1]])
    with pytest.raises(ValidationError):  # singular mod 5
        AutAction.from_matrix(FiniteAbelianGroup((5, 5)), [[1, 2], [2, 4]])
    with pytest.raises(ValidationError):  # det = 2 shares a factor with 4
        AutAction.from_matrix(FiniteAbelianGroup((4,)), [[2]])
    # the determinant is taken, and reported, mod n
    with pytest.raises(ValidationError, match=r"\(det = 3\)") as err:
        AutAction.from_matrix(FiniteAbelianGroup((6,) * 2), [[6**40 + 1, 2], [1, -1]])
    assert err.value.details == {"det": 3, "n": 6}


def test_generator_group_mismatch():
    G = FiniteAbelianGroup((7,))
    inv = AutAction.from_matrix(FiniteAbelianGroup((5,)), [[-1]])
    with pytest.raises(ValidationError, match="acts on a different group") as err:
        orbit_count(G, [*_scalings(7, 3), inv])
    assert err.value.details == {"index": 1, "cyclic_orders": [5]}
    with pytest.raises(ValidationError, match="must be AutAction instances") as err:
        orbit_count(G, [_scalings(7, 3)[0].perm])
    assert err.value.details == {"index": 0}


def test_cnew_component_count():
    assert cnew_component_count(Z5_SIXTH, [], 2, 3) == 15625
    assert cnew_component_count(TRIVIAL, [], 2, 3) == 1
    with pytest.raises(HypothesisError):  # dm < 5
        cnew_component_count(Z5_SIXTH, [], 2, 2)
    with pytest.raises(HypothesisError):  # gcd(d - 1, 5^6) != 1
        cnew_component_count(Z5_SIXTH, [], 6, 1)
    with pytest.raises(HypothesisError):
        cnew_component_count(Z5_SIXTH, [], 11, 1)


def test_cplus_total():
    assert cplus_total(2, 3) == 46875 == 3 * 5**6
    assert cplus_total(5, 1) == 46875
    with pytest.raises(HypothesisError):
        cplus_total(6, 1)
    with pytest.raises(HypothesisError):
        cplus_total(2, 2)
    with pytest.raises(ValidationError):
        cplus_total(1, 5)


def test_element_listing_is_lexicographic():
    G = FiniteAbelianGroup((2, 3))
    listing = [G.element_at(i) for i in range(G.order)]
    assert listing == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert brute_elements((2, 3)) == listing
