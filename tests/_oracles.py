"""Independent brute-force oracles used to cross-check the package.

These deliberately avoid the production code paths: totally even sets are
characterized through the null space of the point-hyperplane incidence
matrix over F2, divisibility questions in finite abelian groups are
decided by exhaustive search over all elements, automorphism orbits are
recounted by Burnside's lemma over the whole generated group or merged by
union-find (the package walks the generators' cycles), invariant factors
come from prime-power decompositions, arrangement points are grouped by their leading-1
Fraction coordinates (the package groups by primitive integer keys) and
ordered by quotients of all six key entries (the package sorts by lead
position), and a permutation table is read element by element into a dict
(the package reads whole coordinate columns into a position list).

The matrices of GL(k, F2) are listed by brute force, every row tuple of
full rank (the package builds the group's permutation table by linearity
and lists no matrix).

It also holds the helpers that only tests call: the two orbit
representatives of the totally even census, the hyperplane profile of a
point set, listing the d-torsion, applying an automorphism to an element
tuple and a matrix to a point, and writing an arrangement as its JSON
input.  The package itself works on element positions and point
permutations, and only reads arrangements.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

from plurican.arrangements import _key_json
from plurican.errors import MalformedInputError, ValidationError
from plurican.f2geom import F2Point, PointSet, _sections
from plurican.glgroup import F2Matrix

BURNSIDE_GROUP_CAP = 100_000

# the two orbit representatives among totally even 8-point sets of PG(3, F2):
# the affine chart (last coordinate = 1) and the exceptional configuration
TYPE_I_REPRESENTATIVE = PointSet.from_codes(4, [c for c in range(1, 16) if c & 1])
TYPE_II_REPRESENTATIVE = PointSet.from_codes(4, [1, 2, 4, 6, 8, 10, 12, 15])


def parity(x: int) -> int:
    return bin(x).count("1") % 2


def incidence_rows(k: int) -> list[int]:
    """One row per hyperplane normal; bit p is set iff point p lies on it."""
    n = (1 << k) - 1
    rows = []
    for h in range(1, n + 1):
        row = 0
        for p in range(1, n + 1):
            if parity(p & h) == 0:
                row |= 1 << p
        rows.append(row)
    return rows


def complement_masks(k: int) -> list[int]:
    """Bit set of the complement of each hyperplane, in incidence-row order."""
    every = (1 << (1 << k)) - 2  # bits 1 .. 2^k - 1, every point
    return [every ^ row for row in incidence_rows(k)]


def f2_rank(rows: list[int]) -> int:
    basis: list[int] = []
    for row in rows:
        cur = row
        for b in basis:
            cur = min(cur, cur ^ b)
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
    return len(basis)


def enumerate_gl(k: int) -> list[F2Matrix]:
    """All invertible k x k matrices over F2, in lexicographic order of their
    rows (row 0 first): every row tuple whose F2 rank is k."""
    return [F2Matrix(k, rows) for rows in product(range(1 << k), repeat=k)
            if f2_rank(list(rows)) == k]


def null_space_masks(k: int) -> list[int]:
    """All point-set masks orthogonal to every incidence row, ascending.

    Checks every candidate mask; nothing shared with the package's subset
    filter.
    """
    rows = incidence_rows(k)
    n = (1 << k) - 1
    out = []
    for mask in range(0, 1 << (n + 1), 2):  # step 2: bit 0 is never used
        if all(parity(row & mask) == 0 for row in rows):
            out.append(mask)
    return out


def fixed_set_total(family, perms) -> int:
    """Number of pairs (permutation, set) with the set mapped onto itself,
    over the distinct sets of ``family`` (point bit masks): every
    permutation is applied to every point of every set."""
    sets = {frozenset(p for p in range(mask.bit_length()) if mask >> p & 1) for mask in family}
    return sum(sum({perm[p] for p in s} == s for s in sets) for perm in perms)


def null_space_count_by_weight(k: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for mask in null_space_masks(k):
        w = bin(mask).count("1")
        counts[w] = counts.get(w, 0) + 1
    return counts


def brute_elements(orders) -> list[tuple[int, ...]]:
    return list(product(*(range(n) for n in orders)))


def tor_d_elements(G, d: int) -> list[tuple[int, ...]]:
    """All elements a of G with d * a = 0, in lexicographic coordinate order."""
    axes = []
    for n in G.cyclic_orders:
        step = n // gcd(d, n)
        axes.append(range(0, n, step))
    return list(product(*axes))


def aut_apply(aut, a) -> tuple[int, ...]:
    """Image of the element a under the automorphism ``aut``."""
    G = aut.group
    return G.element_at(aut.perm[G.index(G.element(a))])


def hyperplane_profile(s: PointSet) -> tuple[int, ...]:
    """The sizes of the sections of s by the hyperplanes, sorted
    descending, from the package's sections."""
    return tuple(sorted(_sections(s.k, s.mask), reverse=True))


def matrix_apply(m, p: F2Point) -> F2Point:
    """Image of the point p under the matrix m: coordinate i is the parity
    of row i against p."""
    return F2Point(m.k, sum(parity(row & p.code) << (m.k - 1 - i) for i, row in enumerate(m.rows)))


def table_positions_oracle(G, mapping) -> tuple[int, ...]:
    """The permutation `AutAction.from_table` reads from a table, or the error
    it raises, for groups of order up to `torsion.MAX_ACTION_ORDER`.

    Each pair goes through `G.element` and `G.index`, key then image, into a
    dict (later pairs win), and additivity is checked by summing
    x_1 f_1 + ... + x_r f_r at every element (the package builds that
    extension column by column).
    """
    pairs = list(mapping.items()) if isinstance(mapping, dict) else mapping
    arrays = (list, tuple)
    if not isinstance(pairs, arrays) or not all(
        isinstance(pair, arrays) and len(pair) == 2 and all(isinstance(x, arrays) for x in pair)
        for pair in pairs
    ):
        raise MalformedInputError(
            "permutation table must be an array of [element, image] pairs of integer arrays"
        )
    table = {G.index(G.element(a)): G.index(G.element(b)) for a, b in pairs}
    message = "permutation table must be defined on every element"
    if len(pairs) < G.order:
        raise ValidationError(message, pairs=len(pairs), order=G.order)
    if len(table) != G.order:
        first = min(set(range(G.order)) - table.keys())
        raise ValidationError(message, element=list(G.element_at(first)))
    if len(set(table.values())) != G.order:
        first = min(set(range(G.order)) - set(table.values()))
        raise ValidationError("permutation table is not a bijection",
                              missing_image=list(G.element_at(first)))
    if table[0] != 0:
        raise ValidationError("permutation table does not fix the identity",
                              image=list(G.element_at(table[0])))
    orders = G.cyclic_orders
    message = "permutation table does not preserve the group operation"
    basis = [G.element_at(table[prod(orders[j + 1:])]) for j in range(len(orders))]
    for j, (f, n) in enumerate(zip(basis, orders)):
        if any(n * y % m for y, m in zip(f, orders)):
            raise ValidationError(message, basis=j, image=list(f))
    for i in range(G.order):
        x = G.element_at(i)
        image = tuple(sum(c * f[k] for c, f in zip(x, basis)) % m for k, m in enumerate(orders))
        if G.index(image) != table[i]:
            raise ValidationError(message, at=list(x))
    return tuple(table[i] for i in range(G.order))


def brute_tor_d_order(orders, d: int) -> int:
    return sum(
        1
        for e in brute_elements(orders)
        if all((d * x) % n == 0 for x, n in zip(e, orders))
    )


def brute_is_divisible(orders, a, d: int) -> bool:
    a = tuple(x % n for x, n in zip(a, orders))
    return any(
        all((d * x) % n == y for x, y, n in zip(e, a, orders))
        for e in brute_elements(orders)
    )


def brute_component_bound(orders, d: int) -> int:
    for a in brute_elements(orders):
        if all((d * x) % n == 0 for x, n in zip(a, orders)):
            if not brute_is_divisible(orders, a, d):
                return 2
    return 1


def gcd_tor_d_order(orders, d: int) -> int:
    out = 1
    for n in orders:
        out *= gcd(d, n)
    return out


def invariant_factors(orders) -> tuple[int, ...]:
    """Invariant factor form d_1 | d_2 | ... of Z/n_1 x ... x Z/n_r."""
    primes: dict[int, list[int]] = {}
    for n in orders:
        rest = n
        p = 2
        while p * p <= rest:
            if rest % p == 0:
                e = 0
                while rest % p == 0:
                    rest //= p
                    e += 1
                primes.setdefault(p, []).append(p**e)
            p += 1
        if rest > 1:
            primes.setdefault(rest, []).append(rest)
    depth = max((len(v) for v in primes.values()), default=0)
    factors = []
    for i in range(depth):
        f = 1
        for powers in primes.values():
            powers_sorted = sorted(powers, reverse=True)
            if i < len(powers_sorted):
                f *= powers_sorted[i]
        factors.append(f)
    return tuple(sorted(factors))


def burnside_orbit_count(G, generators) -> int:
    """Orbit count of the automorphism group generated by ``generators`` on
    G, as the average number of fixed elements.

    Materializes the generated group as permutations of the element list,
    up to ``BURNSIDE_GROUP_CAP`` elements.
    """
    elements = brute_elements(G.cyclic_orders)
    index = {e: i for i, e in enumerate(elements)}
    identity = tuple(range(len(elements)))
    gen_perms = [tuple(index[aut_apply(gen, e)] for e in elements) for gen in generators]
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for perm in frontier:
            for gp in gen_perms:
                comp = tuple(gp[i] for i in perm)
                if comp not in group:
                    group.add(comp)
                    nxt.append(comp)
                    if len(group) > BURNSIDE_GROUP_CAP:
                        raise ValueError(
                            f"generated group exceeds the recount cap {BURNSIDE_GROUP_CAP}"
                        )
        frontier = nxt
    total_fixed = sum(
        sum(1 for i, img in enumerate(perm) if i == img) for perm in group
    )
    count, rem = divmod(total_fixed, len(group))
    if rem:
        raise ValueError("fixed-point total is not a multiple of the group order")
    return count


def union_find_orbit_count(G, generators) -> int:
    """Orbit count of the automorphism group generated by ``generators`` on
    G, by union-find over element positions with an edge i -> perm[i] for
    every generator: both ends of an edge are followed to their roots with
    path halving, and the larger root is linked under the smaller one."""
    parent = list(range(G.order))
    for gen in generators:
        for i, j in enumerate(gen.perm):
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i < j:
                parent[j] = i
            elif j < i:
                parent[i] = j
    # the roots are exactly the positions that are their own parent
    return sum(1 for i, p in enumerate(parent) if i == p)


# Scalars of Q(omega) as pairs (a, b) of ints or Fractions meaning
# a + b*omega, omega^2 = -1 - omega: the field arithmetic of the tests,
# independent of the integer cross products of `arrangements.compute_incidences`
# and of `_canonical`.


def _qw_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _qw_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] - x[1] * y[1])


def _qw_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _qw_inv(x):
    # 1 / (a + b w) = ((a - b) - b w) / (a^2 - a b + b^2); ZeroDivisionError on 0
    n = x[0] * x[0] - x[0] * x[1] + x[1] * x[1]
    return (Fraction(x[0] - x[1], n), Fraction(-x[1], n))


def leading_one_incidences(lines) -> dict:
    """The JSON form of the incidence report of ``lines``, each a triple of
    (a, b) Fraction pairs: every pairwise cross product is divided by its
    first nonzero coordinate, points are grouped by those leading-1
    coordinates and listed in their lexicographic order."""
    by_point: dict[tuple, set[int]] = {}
    for i, j in combinations(range(len(lines)), 2):
        u, v = lines[i], lines[j]
        p = (
            _qw_sub(_qw_mul(u[1], v[2]), _qw_mul(u[2], v[1])),
            _qw_sub(_qw_mul(u[2], v[0]), _qw_mul(u[0], v[2])),
            _qw_sub(_qw_mul(u[0], v[1]), _qw_mul(u[1], v[0])),
        )
        inv = _qw_inv(next(c for c in p if c != (0, 0)))
        by_point.setdefault(tuple(_qw_mul(c, inv) for c in p), set()).update((i, j))
    histogram: dict[int, int] = {}
    for idx in by_point.values():
        histogram[len(idx)] = histogram.get(len(idx), 0) + 1
    return {
        "line_count": len(lines),
        "point_count": len(by_point),
        "histogram": [[m, c] for m, c in sorted(histogram.items(), reverse=True)],
        "points": [
            {
                "coords": [
                    [[a.numerator, a.denominator]] + ([[b.numerator, b.denominator]] if b else [])
                    for a, b in point
                ],
                "lines": sorted(idx),
                "multiplicity": len(idx),
            }
            for point, idx in sorted(by_point.items())
        ],
    }


def whole_key_order(keys) -> list:
    """Canonical point keys in lexicographic order of their leading-1
    coordinates, compared as floor(x * 2^shift / lead) over all six entries
    of a key, 2^shift > 2 * max_lead^2, lead the first nonzero entry."""
    shift = 2 * max(key[0] or key[2] or key[4] for key in keys).bit_length() + 1

    def sort_key(key):
        lead = key[0] or key[2] or key[4]
        return [(x << shift) // lead for x in key]

    return sorted(keys, key=sort_key)


def is_rational(line) -> bool:
    """Whether a `ProjLine` is defined over Q: every b of its key is 0."""
    return not any(line.vec[1::2])


def arrangement_to_json(arr) -> dict:
    """The JSON input form of a `LabeledArrangement`, which
    `arrangements.load_arrangement` reads back."""
    fld = "Q" if all(map(is_rational, arr.lines)) else "Q(omega)"
    out = {
        "field": fld,
        "lines": [_key_json(line.vec) for line in arr.lines],
    }
    if arr.labels:
        out["labels"] = [list(lab.coords) for lab in arr.labels]
    return out
