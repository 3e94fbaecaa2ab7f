"""Finite abelian groups: divisibility, covering counts and automorphism orbits.

Groups are given by explicit cyclic factors (not necessarily in invariant
factor form); elements are coordinate tuples reduced modulo the factor
orders and numbered in lexicographic order.  An automorphism is a permutation
of those numbers, held as an `array` of 32-bit items (`AutAction.perm`), so
an action costs 4 bytes per element.  Orbits are counted by walking the
generators' cycles over a bytearray of seen elements (`orbit_count`), which
forms no element tuple and holds at most 5 bytes per element.

Actions and table positions are computed one coordinate column at a time as
32-bit lanes of one Python int (`_lanes`, imported only where an action is
built or a table read).  Lanes stay exact while every number fits in 32 bits and
n <= 2^31; `MAX_ACTION_ORDER` = 2^20 keeps every action and table inside that.

A parsed permutation table is read one coordinate column at a time, in
chunks of elements (`AutAction.from_table`, `_lanes.positions`): a bad
element raises exactly the error `FiniteAbelianGroup.element` raises for it,
and the first bad element in table order wins.  The per-element table, a
32-bit array, is allocated only once the number of pairs has reached the
group order, so its size is bounded by the input, and its checks hold no
Python int per element.
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


def _all_arrays(values) -> bool:
    """`_is_array` for every value: one pass over the types, and the
    per-value test only when some type is not exactly list or tuple."""
    return set(map(type, values)) <= {list, tuple} or all(map(_is_array, values))


def _is_int_array(value) -> bool:
    return _is_array(value) and all_int(value)


def _int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * (m[-1][-1] if n else 1)


class AutAction:
    """An automorphism of a finite abelian group: the element at position i
    (see `FiniteAbelianGroup.index`) maps to the element at position perm[i].

    `perm` is built by additivity from the images f_j of the basis elements
    e_j, (x_1, ..., x_r) -> x_1 f_1 + ... + x_r f_r, well defined exactly
    when n_j f_j = 0, one coordinate column at a time as lanes
    (`_lanes.extend`), and unpacked once into an `array` of 32-bit items.
    `from_matrix` and `from_table` parse the two file forms into basis
    images.
    """

    def __init__(self, group: FiniteAbelianGroup, basis_images):
        _check_action_order(group)
        self.group = group
        images = [group.element(f) for f in basis_images]
        if len(images) != group.rank:
            raise ValidationError(f"{len(images)} basis images for a rank {group.rank} group")
        orders = group.cyclic_orders
        for j, (f, n) in enumerate(zip(images, orders)):
            if group.scale(n, f) != group.zero():
                raise ValidationError(
                    f"map does not preserve the group operation: {n} * f_{j} != 0",
                    basis=j, image=list(f),
                )
        from . import _lanes

        perm = 0
        for i, n in enumerate(orders):
            # coordinate i of every image, from the last basis element back;
            # x + c e_j maps to phi(x) + c f_j
            col, size = 0, 1
            for f, m in zip(reversed(images), reversed(orders)):
                col = _lanes.extend(col, size, f[i], m, n)
                size *= m
            # in steps, so that the old and the scaled perm are not held
            # next to the sum, nor the last column next to the unpacked perm
            perm *= n
            perm += col
            del col
        self.perm = _lanes.unpack(perm, group.order)

    @classmethod
    def from_matrix(cls, group: FiniteAbelianGroup, entries) -> "AutAction":
        """Matrix form: integer rows (no booleans or floats); column j is the image of e_j."""
        if not _is_array(entries) or not all(map(_is_int_array, entries)):
            raise MalformedInputError(
                f"automorphism matrix must be an array of integer rows, got {entries!r}"
            )
        if len(set(group.cyclic_orders)) > 1:
            raise ValidationError(
                "matrix automorphisms require all cyclic factors equal; "
                "use a permutation table instead",
                cyclic_orders=list(group.cyclic_orders),
            )
        r = group.rank
        if len(entries) != r or any(len(row) != r for row in entries):
            raise ValidationError(f"automorphism matrix must be {r} x {r}")
        if r:
            n = group.cyclic_orders[0]
            # det(M mod n) = det(M) mod n, and reduced entries keep the
            # elimination and the reported det small
            entries = [[x % n for x in row] for row in entries]
            det = _int_det(entries) % n
            if gcd(det, n) != 1:
                raise ValidationError(
                    f"matrix is not invertible modulo {n} (det = {det})", det=det, n=n
                )
        return cls(group, zip(*entries))

    @classmethod
    def from_table(cls, group: FiniteAbelianGroup, mapping) -> "AutAction":
        """Table form: an array of [element, image] pairs of integer arrays;
        it must be a bijection equal to the additive extension of its e_j.

        A group of order above `MAX_ACTION_ORDER` is refused first, before
        anything is parsed.  Then every element and image is parsed, key
        before image and pair by pair, so the first bad array in table order
        raises (see `_lanes.positions`).  A later pair for the same element
        replaces an earlier one.  Then, in order, each with its witness:
        defined on every element (``pairs`` and ``order`` when there are
        fewer pairs than elements, else the first ``element`` with no pair),
        a bijection (the first element that is no image, ``missing_image``),
        fixes 0 (the ``image`` of 0), additive (the first element where the
        table leaves its additive extension, ``at``).  The position table is
        allocated only once there are at least as many pairs as group
        elements.
        """
        _check_action_order(group)
        if not (_is_array(mapping) and _all_arrays(mapping) and set(map(len, mapping)) <= {2}
                and _all_arrays(flat := [x for pair in mapping for x in pair])):
            raise MalformedInputError(
                "permutation table must be an array of [element, image] pairs of "
                "integer arrays"
            )
        from . import _lanes

        pos = _lanes.positions(flat, group.cyclic_orders,
                               lambda a: group.index(group.element(a)))
        del flat  # a reference per coordinate array: freed before the table
        return cls._from_positions(group, pos)

    @classmethod
    def _from_positions(cls, group: FiniteAbelianGroup, pos) -> "AutAction":
        """The checks of `from_table` that follow parsing, on `pos`, the
        positions of a table's elements and images alternately, in table
        order.  `pos` is emptied once the per-element table is filled, so
        its memory is freed before the checks run."""
        order = group.order
        # every position is in range(order), so fewer pairs than elements
        # leave one out, and at least as many bound the table's size
        if len(pos) < 2 * order:
            raise ValidationError("permutation table must be defined on every element",
                                  pairs=len(pos) // 2, order=order)
        from . import _lanes

        table = _lanes.full(order, order)  # `order`: no pair for this element
        for i, j in zip(pos[0::2], pos[1::2]):
            table[i] = j
        del pos[:]
        hit = bytearray(order + 1)  # hit[j] = 1 for every image j
        for j in table:
            hit[j] = 1
        if hit[order]:
            raise ValidationError("permutation table must be defined on every element",
                                  element=list(group.element_at(table.index(order))))
        missing = hit.find(0)  # `order` when every element is an image
        if missing < order:
            raise ValidationError("permutation table is not a bijection",
                                  missing_image=list(group.element_at(missing)))
        if table[0] != 0:
            raise ValidationError("permutation table does not fix the identity",
                                  image=list(group.element_at(table[0])))
        orders = group.cyclic_orders
        # e_j sits at position n_(j+1) * ... * n_r
        basis = [table[prod(orders[j + 1:])] for j in range(len(orders))]
        message = "permutation table does not preserve the group operation"
        try:
            aut = cls(group, map(group.element_at, basis))
        except ValidationError as exc:  # some n_j f_j != 0
            raise ValidationError(message, **exc.details) from exc
        if table != aut.perm:
            at = next(i for i, (p, q) in enumerate(zip(table, aut.perm)) if p != q)
            raise ValidationError(message, at=list(group.element_at(at)))
        return aut


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
    generator, marking each element.  Each element's images under the other
    generators are marked and pushed, if not yet seen, onto a stack of
    32-bit positions; popping one resumes the walk along its cycle.  Every
    element is marked once and walked from once, so the walk holds at most
    5 bytes per element besides the generators' arrays.
    """
    _check_action_order(G)
    gens = list(generators)
    if not gens:
        return G.order
    for index, gen in enumerate(gens):
        if not isinstance(gen, AutAction):
            raise ValidationError("generators must be AutAction instances", index=index)
        if gen.group != G:
            raise ValidationError("generator acts on a different group", index=index,
                                  cyclic_orders=list(gen.group.cyclic_orders))
    from array import array

    from ._lanes import LANE

    first, *rest = [gen.perm for gen in gens]
    seen = bytearray(G.order)
    stack = array(LANE)
    push, pop = stack.append, stack.pop
    orbits = 0
    s = seen.find(0)
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
