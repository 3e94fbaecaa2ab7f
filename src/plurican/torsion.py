"""Finite abelian groups: divisibility, covering counts and automorphism orbits.

Groups are given by explicit cyclic factors (not necessarily in invariant
factor form); elements are coordinate tuples reduced modulo the factor
orders.  Everything is small enough that orbit counting works directly on
the full element list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, prod

from .errors import HypothesisError, MalformedInputError, ValidationError

GroupElement = tuple[int, ...]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups Z/n_1 x ... x Z/n_r (empty = trivial)."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "cyclic_orders", tuple(self.cyclic_orders))
        for n in self.cyclic_orders:
            if not isinstance(n, int) or n < 2:
                raise ValidationError(f"cyclic factor orders must be integers >= 2, got {n!r}")

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
        if len(coords) != self.rank:
            raise ValidationError(
                f"element has {len(coords)} coordinates, group rank is {self.rank}"
            )
        return tuple(int(c) % n for c, n in zip(coords, self.cyclic_orders))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.cyclic_orders))

    def negate(self, a: GroupElement) -> GroupElement:
        return tuple((-x) % n for x, n in zip(a, self.cyclic_orders))

    def scale(self, factor: int, a: GroupElement) -> GroupElement:
        return tuple((factor * x) % n for x, n in zip(a, self.cyclic_orders))

    def elements(self) -> list[GroupElement]:
        """All elements in lexicographic coordinate order."""
        return list(product(*(range(n) for n in self.cyclic_orders)))

    def generators(self) -> list[GroupElement]:
        return [
            tuple(1 if j == i else 0 for j in range(self.rank))
            for i in range(self.rank)
        ]

    def as_json(self) -> dict:
        return {"cyclic_orders": list(self.cyclic_orders), "order": self.order}


def _is_array(value) -> bool:
    return isinstance(value, (list, tuple))


def _is_int_array(value) -> bool:
    # bool is a subclass of int, so compare types exactly
    return _is_array(value) and all(type(x) is int for x in value)


def _int_det(rows: list[list[int]]) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(rows)
    m = [list(map(int, r)) for r in rows]
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
    """An automorphism of a finite abelian group.

    Two forms are accepted: an explicit permutation table on all elements
    (validated to be a bijection preserving addition), or an integer matrix
    acting coordinatewise, which is only meaningful when all cyclic factors
    have the same order.
    """

    def __init__(self, group: FiniteAbelianGroup, kind: str, *, matrix=None, table=None):
        self.group = group
        self.kind = kind
        self.matrix = matrix
        self.table = table
        if kind == "matrix":
            self._validate_matrix()
        elif kind == "permutation":
            self._validate_table()
        else:
            raise ValidationError(f"unknown automorphism kind {kind!r}")

    @classmethod
    def from_matrix(cls, group: FiniteAbelianGroup, entries) -> "AutAction":
        """Matrix form: an array of rows of integers (no booleans or floats)."""
        if not _is_array(entries) or not all(map(_is_int_array, entries)):
            raise MalformedInputError(
                f"automorphism matrix must be an array of integer rows, got {entries!r}"
            )
        return cls(group, "matrix", matrix=tuple(tuple(row) for row in entries))

    @classmethod
    def from_table(cls, group: FiniteAbelianGroup, mapping) -> "AutAction":
        """Table form: a dict, or an array of [element, image] pairs, each
        element an array of integers."""
        pairs = list(mapping.items()) if isinstance(mapping, dict) else mapping
        if not _is_array(pairs) or not all(
            _is_array(pair) and len(pair) == 2 and all(map(_is_int_array, pair))
            for pair in pairs
        ):
            raise MalformedInputError(
                "permutation table must be an array of [element, image] pairs of "
                "integer arrays"
            )
        table = {group.element(a): group.element(b) for a, b in pairs}
        return cls(group, "permutation", table=table)

    def _validate_matrix(self):
        g = self.group
        orders = set(g.cyclic_orders)
        if len(orders) > 1:
            raise ValidationError(
                "matrix automorphisms require all cyclic factors equal; "
                "use a permutation table instead",
                cyclic_orders=list(g.cyclic_orders),
            )
        r = g.rank
        if len(self.matrix) != r or any(len(row) != r for row in self.matrix):
            raise ValidationError(f"automorphism matrix must be {r} x {r}")
        if r == 0:
            return
        n = g.cyclic_orders[0]
        det = _int_det([list(row) for row in self.matrix])
        if gcd(det % n, n) != 1:
            raise ValidationError(
                f"matrix is not invertible modulo {n} (det = {det})", det=det, n=n
            )

    def _validate_table(self):
        g = self.group
        elements = g.elements()
        if set(self.table.keys()) != set(elements):
            raise ValidationError("permutation table must be defined on every element")
        if set(self.table.values()) != set(elements):
            raise ValidationError("permutation table is not a bijection")
        if self.table[g.zero()] != g.zero():
            raise ValidationError("permutation table does not fix the identity")
        # additivity on generator translates suffices: phi(e_i + b) =
        # phi(e_i) + phi(b) for all b extends to all pairs by induction
        for e in g.generators():
            fe = self.table[e]
            for b in elements:
                if self.table[g.add(e, b)] != g.add(fe, self.table[b]):
                    raise ValidationError(
                        "permutation table does not preserve the group operation",
                        generator=list(e), at=list(b),
                    )

    def __call__(self, a: GroupElement) -> GroupElement:
        if self.kind == "matrix":
            g = self.group
            return tuple(
                sum(row[j] * a[j] for j in range(g.rank)) % n
                for row, n in zip(self.matrix, g.cyclic_orders)
            )
        return self.table[a]


def tor_d_order(G: FiniteAbelianGroup, d: int) -> int:
    """Order of the subgroup of elements killed by d: product of gcd(d, n_i)."""
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"d must be a positive integer, got {d!r}")
    return prod(gcd(d, n) for n in G.cyclic_orders)


def tor_d_elements(G: FiniteAbelianGroup, d: int) -> list[GroupElement]:
    """All elements a with d * a = 0, in lexicographic coordinate order."""
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"d must be a positive integer, got {d!r}")
    axes = []
    for n in G.cyclic_orders:
        g = gcd(d, n)
        step = n // g
        axes.append([j * step for j in range(g)])
    return list(product(*axes))


def covering_count(G: FiniteAbelianGroup, d: int) -> int:
    """Isomorphism classes of degree-d totally ramified cyclic coverings
    branched along a fixed divisible curve: the order of the d-torsion."""
    if not isinstance(d, int) or d < 2:
        raise ValidationError(f"covering degree must be an integer >= 2, got {d!r}")
    return tor_d_order(G, d)


def is_divisible(G: FiniteAbelianGroup, a, d: int) -> bool:
    """True iff a = d * x has a solution x in G.

    Coordinatewise: gcd(d, n_i) must divide the i-th coordinate.
    """
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"d must be a positive integer, got {d!r}")
    a = G.element(a)
    return all(x % gcd(d, n) == 0 for x, n in zip(a, G.cyclic_orders))


def theorem_mod_component_bound(G: FiniteAbelianGroup, d: int) -> int:
    """Lower bound (1 or 2) for the number of connected components of the
    moduli space receiving the degree-d coverings.

    Returns 2 when some d-torsion element is not divisible by d in G, which
    forces coverings with canonical classes of different divisibility; else 1
    (no information).
    """
    if not isinstance(d, int) or d < 2:
        raise ValidationError(f"covering degree must be an integer >= 2, got {d!r}")
    for a in tor_d_elements(G, d):
        if not is_divisible(G, a, d):
            return 2
    return 1


def _check_generators(G: FiniteAbelianGroup, generators) -> list[AutAction]:
    gens = list(generators)
    for gen in gens:
        if not isinstance(gen, AutAction):
            raise ValidationError("generators must be AutAction instances")
        if gen.group != G:
            raise ValidationError("generator acts on a different group")
    return gens


def orbit_count(G: FiniteAbelianGroup, generators) -> int:
    """Number of orbits of the generated automorphism subgroup on G.

    Union-find over the element graph with an edge a -> phi(a) for every
    generator phi; with no generators every element is its own orbit.
    """
    gens = _check_generators(G, generators)
    elements = G.elements()
    index = {e: i for i, e in enumerate(elements)}
    parent = list(range(len(elements)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for gen in gens:
        for i, e in enumerate(elements):
            ri, rj = find(i), find(index[gen(e)])
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return sum(1 for i in range(len(elements)) if find(i) == i)


def cnew_component_count(G: FiniteAbelianGroup, generators, d: int, m: int) -> int:
    """Connected-component count for degree-d coverings of a rigid surface:
    the number of automorphism orbits on the torsion group.

    Hypotheses: d * m >= 5 and d - 1 coprime to the group order.
    """
    if not isinstance(d, int) or d < 2:
        raise ValidationError(f"covering degree must be an integer >= 2, got {d!r}")
    if not isinstance(m, int) or m < 1:
        raise ValidationError(f"canonical multiple must be an integer >= 1, got {m!r}")
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
    if not isinstance(d, int) or d < 2:
        raise ValidationError(f"covering degree must be an integer >= 2, got {d!r}")
    if not isinstance(m, int) or m < 1:
        raise ValidationError(f"canonical multiple must be an integer >= 1, got {m!r}")
    if d % 5 == 1:
        raise HypothesisError(f"d = {d} is congruent to 1 modulo 5", d=d)
    G = FiniteAbelianGroup((5,) * 6)
    return 3 * cnew_component_count(G, [], d, m)
