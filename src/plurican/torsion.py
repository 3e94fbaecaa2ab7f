"""Finite abelian groups: divisibility, covering counts and automorphism orbits.

Groups are given by explicit cyclic factors (not necessarily in invariant
factor form); elements are coordinate tuples reduced modulo the factor
orders and numbered in lexicographic order.  An automorphism, `AutAction`,
is a permutation of those numbers, held as an `array` of 32-bit items
(`AutAction.perm`), so an action costs 4 bytes per element.  Orbits are
counted by walking the generators' cycles over a bytearray of seen elements
(`orbit_count`), which forms no element tuple and holds at most 5 bytes per
element.

`AutAction` is defined in `_actions` and built in the 32-bit lanes of
`_lanes`, and only code that builds an action imports them:
``torsion.AutAction`` loads the class on first use (PEP 562), and
`orbit_count` only when it is given generators, so importing this module
compiles no action code.  Lanes stay exact while every number fits in 32
bits and n <= 2^31; `MAX_ACTION_ORDER` = 2^20 keeps every action and table
inside that.
"""

from __future__ import annotations

from math import gcd, prod

from .errors import (
    HypothesisError, MalformedInputError, Record, ValidationError, all_int, check_int,
)

GroupElement = tuple[int, ...]

# Automorphism actions and orbit counts hold one entry per group element, so
# a group of larger order is refused before anything is allocated.  Below the
# cap every position, and every factor order n, is small enough for 32-bit
# lane arithmetic (a lane below 2n plus 2^31 - n still fits).
MAX_ACTION_ORDER = 1 << 20

# Each generator of an automorphism file becomes an action of one entry per
# group element, so `components --aut` refuses a file whose generators would
# hold more entries than this in all, before it builds any of them (a file's
# tables are read first).
MAX_ACTION_ENTRIES = 1 << 22


def _check_action_order(G: "FiniteAbelianGroup") -> None:
    if G.order > MAX_ACTION_ORDER:
        raise ValidationError(f"group order {G.order} is above the limit {MAX_ACTION_ORDER} "
                              "for automorphism actions", order=G.order, limit=MAX_ACTION_ORDER)


class FiniteAbelianGroup(Record):
    """Direct product of cyclic groups Z/n_1 x ... x Z/n_r (empty = trivial)."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cyclic_orders", tuple(self.cyclic_orders))
        for n in self.cyclic_orders:
            check_int(n, "cyclic factor orders must be integers >= 2", lo=2)

    @property
    def order(self) -> int:
        return prod(self.cyclic_orders)

    @property
    def rank(self) -> int:
        return len(self.cyclic_orders)

    def zero(self) -> GroupElement:
        return (0,) * self.rank

    def element(self, coords) -> GroupElement:
        coords = tuple(coords)
        if not _is_int_array(coords):
            raise MalformedInputError(f"element coordinates must be integers, got {coords!r}")
        if len(coords) != self.rank:
            raise ValidationError(
                f"element has {len(coords)} coordinates, group rank is {self.rank}"
            )
        return tuple(c % n for c, n in zip(coords, self.cyclic_orders))

    def index(self, a: GroupElement) -> int:
        """Position of the reduced element a in lexicographic coordinate
        order (mixed radix)."""
        i = 0
        for x, n in zip(a, self.cyclic_orders):
            i = i * n + x
        return i

    def element_at(self, i: int) -> GroupElement:
        """The element at position i; inverse of `index`."""
        coords = []
        for n in reversed(self.cyclic_orders):
            i, x = divmod(i, n)
            coords.append(x)
        return tuple(reversed(coords))

    def scale(self, factor: int, a: GroupElement) -> GroupElement:
        return tuple((factor * x) % n for x, n in zip(a, self.cyclic_orders))

    def as_json(self) -> dict:
        return {"cyclic_orders": list(self.cyclic_orders), "order": self.order}


def _is_array(value) -> bool:
    return isinstance(value, (list, tuple))


def _is_int_array(value) -> bool:
    return _is_array(value) and all_int(value)


def __getattr__(name: str):
    if name != "AutAction":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from ._actions import AutAction

    globals()[name] = AutAction  # later reads skip this hook
    return AutAction


def tor_d_order(G: FiniteAbelianGroup, d: int) -> int:
    """Order of the subgroup of elements killed by d: product of gcd(d, n_i)."""
    check_int(d, "d must be a positive integer", lo=1)
    return prod(gcd(d, n) for n in G.cyclic_orders)


def covering_count(G: FiniteAbelianGroup, d: int) -> int:
    """Isomorphism classes of degree-d totally ramified cyclic coverings
    branched along a fixed divisible curve: the order of the d-torsion."""
    check_int(d, "covering degree must be an integer >= 2", lo=2)
    return tor_d_order(G, d)


def theorem_mod_component_bound(G: FiniteAbelianGroup, d: int) -> int:
    """Lower bound (1 or 2) for the number of connected components of the
    moduli space receiving the degree-d coverings.

    Returns 2 when some d-torsion element is not divisible by d in G, which
    forces coverings with canonical classes of different divisibility; else 1
    (no information).  Per factor Z/n, with g = gcd(d, n), the d-torsion is
    generated by n/g, which d divides exactly when g divides n/g.
    """
    check_int(d, "covering degree must be an integer >= 2", lo=2)
    for n in G.cyclic_orders:
        g = gcd(d, n)
        if (n // g) % g:
            return 2
    return 1


def orbit_count(G: FiniteAbelianGroup, generators) -> int:
    """Number of orbits of the generated automorphism subgroup on G.

    With no generators every element is its own orbit.  Otherwise a walk
    over a ``seen`` bytearray, a byte per element: each element not yet
    seen starts an orbit, and the walk follows its cycle under the first
    generator, marking each element.  With one generator that cycle is the
    orbit.  With more, each element's images under the other generators
    are marked and pushed, if not yet seen, onto a stack of 32-bit
    positions; popping one resumes the walk along its cycle.  Every element
    is marked once and walked from once, so the walk holds at most 5 bytes
    per element besides the generators' arrays.
    """
    _check_action_order(G)
    gens = list(generators)
    if not gens:
        return G.order
    from array import array

    from ._actions import AutAction
    from ._lanes import LANE

    for index, gen in enumerate(gens):
        if not isinstance(gen, AutAction):
            raise ValidationError("generators must be AutAction instances", index=index)
        if gen.group != G:
            raise ValidationError("generator acts on a different group", index=index,
                                  cyclic_orders=list(gen.group.cyclic_orders))
    first, *rest = [gen.perm for gen in gens]
    seen = bytearray(G.order)
    orbits = 0
    s = seen.find(0)
    if not rest:
        while s >= 0:
            orbits += 1
            i = s
            while not seen[i]:
                seen[i] = 1
                i = first[i]
            s = seen.find(0, s + 1)
        return orbits
    stack = array(LANE)
    push, pop = stack.append, stack.pop
    while s >= 0:
        orbits += 1
        seen[s] = 1
        push(s)
        while stack:
            i = pop()
            while True:
                for perm in rest:
                    j = perm[i]
                    if not seen[j]:
                        seen[j] = 1
                        push(j)
                i = first[i]
                if seen[i]:
                    break
                seen[i] = 1
        s = seen.find(0, s + 1)
    return orbits


def cnew_component_count(G: FiniteAbelianGroup, generators, d: int, m: int) -> int:
    """Connected-component count for degree-d coverings of a rigid surface:
    the number of automorphism orbits on the torsion group.

    Hypotheses: d * m >= 5 and d - 1 coprime to the group order.
    """
    check_int(d, "covering degree must be an integer >= 2", lo=2)
    check_int(m, "canonical multiple must be an integer >= 1", lo=1)
    if d * m < 5:
        raise HypothesisError(f"d*m >= 5 required, got d*m = {d * m}", d=d, m=m)
    if gcd(d - 1, G.order) != 1:
        raise HypothesisError(
            f"d - 1 must be coprime to the group order; gcd({d - 1}, {G.order}) = "
            f"{gcd(d - 1, G.order)}",
            d=d, group_order=G.order,
        )
    return orbit_count(G, generators)


def cplus_total(d: int, m: int) -> int:
    """Component lower-bound for coverings of the rigid K2 = 333 surfaces:
    three copies of the trivial-action orbit count on (Z/5)^6.

    Hypotheses: d * m >= 5 and d not congruent to 1 modulo 5.
    """
    check_int(d, "covering degree must be an integer >= 2", lo=2)
    check_int(m, "canonical multiple must be an integer >= 1", lo=1)
    if d % 5 == 1:
        raise HypothesisError(f"d = {d} is congruent to 1 modulo 5", d=d)
    G = FiniteAbelianGroup((5,) * 6)
    return 3 * cnew_component_count(G, [], d, m)
