"""Independent brute-force oracles used to cross-check the package.

These deliberately avoid the production code paths: totally even sets are
characterized through the null space of the point-hyperplane incidence
matrix over F2, divisibility questions in finite abelian groups are
decided by exhaustive search over all elements, automorphism orbits are
recounted by Burnside's lemma over the whole generated group (the package
merges orbits by union-find), invariant factors come from prime-power
decompositions, and arrangement points are grouped by their leading-1
Fraction coordinates (the package groups by primitive integer keys).
"""

from itertools import combinations, product
from math import gcd

BURNSIDE_GROUP_CAP = 100_000


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


def null_space_count_by_weight(k: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for mask in null_space_masks(k):
        w = bin(mask).count("1")
        counts[w] = counts.get(w, 0) + 1
    return counts


def brute_elements(orders) -> list[tuple[int, ...]]:
    return list(product(*(range(n) for n in orders)))


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
    elements = G.elements()
    index = {e: i for i, e in enumerate(elements)}
    identity = tuple(range(len(elements)))
    gen_perms = [tuple(index[gen(e)] for e in elements) for gen in generators]
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


# Scalars of Q(omega) as pairs (a, b) of Fractions meaning a + b*omega,
# omega^2 = -1 - omega.


def _qw_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] - x[1] * y[1])


def _qw_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _qw_inv(x):
    n = x[0] * x[0] - x[0] * x[1] + x[1] * x[1]
    return ((x[0] - x[1]) / n, -x[1] / n)


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
