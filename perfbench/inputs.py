"""Seeded benchmark inputs whose expected outputs are known by construction.

Nothing here imports plurican: every expected value comes from a formula or
from the small exact oracles below, so the benchmark checks the program
against an independent source.

Scalars of Q(omega) are pairs (a, b) of Fractions meaning a + b*omega, with
omega^2 = -1 - omega.  Lines are coefficient triples; a projective map acts
on a line as a row vector times an invertible 3 x 3 matrix, which preserves
every incidence, so histograms and Campedelli verdicts carry over from the
untransformed arrangement.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm

ZERO = (Fraction(0), Fraction(0))


# --- Q(omega) arithmetic ---------------------------------------------------


def qw(a, b=0) -> tuple[Fraction, Fraction]:
    return (Fraction(a), Fraction(b))


def qw_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def qw_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def qw_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] - x[1] * y[1])


def qw_inv(x):
    n = x[0] * x[0] - x[0] * x[1] + x[1] * x[1]
    return ((x[0] - x[1]) / n, -x[1] / n)


def _normalized(vec):
    lead = next(c for c in vec if c != ZERO)
    inv = qw_inv(lead)
    return tuple(qw_mul(c, inv) for c in vec)


def _cross(u, v):
    return (
        qw_sub(qw_mul(u[1], v[2]), qw_mul(u[2], v[1])),
        qw_sub(qw_mul(u[2], v[0]), qw_mul(u[0], v[2])),
        qw_sub(qw_mul(u[0], v[1]), qw_mul(u[1], v[0])),
    )


def oracle_incidences(lines) -> dict[tuple, set[int]]:
    """Brute-force grouping of all pairwise intersections: point -> line indices."""
    by_point: dict[tuple, set[int]] = {}
    for i, j in combinations(range(len(lines)), 2):
        p = _normalized(_cross(lines[i], lines[j]))
        by_point.setdefault(p, set()).update((i, j))
    return by_point


def histogram_of(by_point) -> dict[int, int]:
    hist: dict[int, int] = {}
    for idx in by_point.values():
        hist[len(idx)] = hist.get(len(idx), 0) + 1
    return hist


def pair_sum(hist: dict[int, int]) -> int:
    return sum(comb(m, 2) * c for m, c in hist.items())


def _det3(m):
    def term(a, b, c):
        return qw_mul(qw_mul(m[0][a], m[1][b]), m[2][c])

    pos = qw_add(qw_add(term(0, 1, 2), term(1, 2, 0)), term(2, 0, 1))
    neg = qw_add(qw_add(term(0, 2, 1), term(1, 0, 2)), term(2, 1, 0))
    return qw_sub(pos, neg)


# Map entries all have magnitude 2 or 3, so that coefficient sizes, and with
# them the cost of exact arithmetic, hardly vary from seed to seed.
MAP_ENTRIES = (-3, -2, 2, 3)


def random_map(rng: random.Random, omega: bool):
    """A random invertible 3 x 3 matrix with small (Eisenstein) integer entries."""
    while True:
        m = [
            [qw(rng.choice(MAP_ENTRIES), rng.choice(MAP_ENTRIES) if omega else 0)
             for _ in range(3)]
            for _ in range(3)
        ]
        if _det3(m) != ZERO:
            return m


def random_scalar(rng: random.Random, omega: bool):
    """A random nonzero scale factor, so lines arrive unnormalized."""
    while True:
        s = qw(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if omega else 0)
        if s != ZERO:
            return s


def transform(lines, m, rng: random.Random, omega: bool):
    """Apply the projective map m to every line and rescale each randomly."""
    out = []
    for line in lines:
        image = tuple(
            qw_add(qw_add(qw_mul(line[0], m[0][j]), qw_mul(line[1], m[1][j])),
                   qw_mul(line[2], m[2][j]))
            for j in range(3)
        )
        s = random_scalar(rng, omega)
        out.append(tuple(qw_mul(c, s) for c in image))
    return out


def arrangement_json(lines, omega: bool, labels=None) -> dict:
    def coeff(c):
        a = [c[0].numerator, c[0].denominator]
        return [a, [c[1].numerator, c[1].denominator]] if omega else [a]

    out = {"field": "Q(omega)" if omega else "Q",
           "lines": [[coeff(c) for c in line] for line in lines]}
    if labels is not None:
        out["labels"] = labels
    return out


def lines_from_json(data) -> list[tuple]:
    """Parse the fixture coefficient forms used in the bundled data files."""
    def scalar(c):
        if isinstance(c, int):
            return qw(c)
        if len(c) == 2 and all(isinstance(x, int) for x in c):
            return qw(Fraction(*c))
        return qw(Fraction(*c[0]), Fraction(*c[1]) if len(c) == 2 else 0)

    return [tuple(scalar(c) for c in line) for line in data["lines"]]


# --- incidence workload ----------------------------------------------------


def tangent_arrangement(rng: random.Random, n: int) -> tuple[dict, dict[int, int]]:
    """n tangents to the conic y^2 = xz under a random rational projective map.

    The tangent at (1 : t : t^2) is t^2 x - 2t y + z = 0.  A point off a
    smooth conic lies on at most two of its tangents, so every one of the
    C(n, 2) intersections is a distinct double point.
    """
    ts = list(range(-(n // 2), n - n // 2))
    rng.shuffle(ts)
    lines = [(qw(t * t), qw(-2 * t), qw(1)) for t in ts]
    lines = transform(lines, random_map(rng, omega=False), rng, omega=False)
    return arrangement_json(lines, omega=False), {2: comb(n, 2)}


def grid_histogram(xs, ys, ss) -> dict[int, int]:
    """Histogram of the lines x = i, y = j, x + y = k (i in xs, j in ys, k in ss).

    Each family is a pencil through a point at infinity.  An affine point
    lies on at most one line of each family, so it is a triple point when
    i + j = k and a double point for every other cross pair.
    """
    ks = set(ss)
    triples = sum(1 for i in xs for j in ys if i + j in ks)
    hist: dict[int, int] = {}
    for family in (xs, ys, ss):
        hist[len(family)] = hist.get(len(family), 0) + 1
    hist[3] = hist.get(3, 0) + triples
    doubles = len(xs) * len(ys) + len(xs) * len(ss) + len(ys) * len(ss) - 3 * triples
    hist[2] = hist.get(2, 0) + doubles
    return {m: c for m, c in hist.items() if c}


def grid_arrangement(rng: random.Random, side: int) -> tuple[dict, dict[int, int]]:
    """Three concurrent pencils of `side` lines each over Q(omega).

    Planted as x = i, y = j, x + y = k before a random Q(omega) projective
    map, with k centred on the grid so that three quarters of the cross pairs
    meet in triple points.  The line order is shuffled.
    """
    xs = list(range(side))
    ys = list(range(side))
    ss = list(range(side // 2, side // 2 + side))
    lines = ([(qw(1), qw(0), qw(-i)) for i in xs]
             + [(qw(0), qw(1), qw(-j)) for j in ys]
             + [(qw(1), qw(1), qw(-k)) for k in ss])
    rng.shuffle(lines)
    lines = transform(lines, random_map(rng, omega=True), rng, omega=True)
    return arrangement_json(lines, omega=True), grid_histogram(xs, ys, ss)


# The verdict of each bundled 7-line fixture: the generic one is valid
# covering data, the other two each break one condition, named here.
CAMPEDELLI_FIXTURES = {
    "campedelli-generic.json": [],
    "campedelli-fourfold.json": ["multiple-point"],
    "campedelli-zero-sum-triple.json": ["zero-sum-triple"],
}


def campedelli_image(rng: random.Random, fixture: dict) -> dict:
    """A fixture moved by a random rational projective map; labels kept."""
    lines = transform(lines_from_json(fixture), random_map(rng, omega=False), rng,
                      omega=False)
    return arrangement_json(lines, omega=False, labels=fixture["labels"])


# --- torsion workload ------------------------------------------------------


def _rank_mod(rows, p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _matmul(a, b, p: int):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) % p for j in range(n)]
            for i in range(n)]


def _inverse_mod(m, p: int):
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] % p:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def shift_scalar_generators(rng: random.Random, p: int, rank: int):
    """Generators of <S, cI> on (Z/p)^rank, conjugated by a random matrix.

    S is the cyclic coordinate shift and c a seeded unit.  The generated
    group is {c^a S^b}, and Burnside counts its orbits: the fixed points of
    g form a subspace of size p^(rank - rank(g - I)).  Conjugation changes
    neither the group structure nor the count.
    """
    c = rng.randrange(2, p)
    shift = [[int(j == (i + 1) % rank) for j in range(rank)] for i in range(rank)]
    while True:
        conj = [[rng.randrange(p) for _ in range(rank)] for _ in range(rank)]
        if _rank_mod(conj, p) == rank:
            break
    conj_inv = _inverse_mod(conj, p)
    gens = [_matmul(_matmul(conj, g, p), conj_inv, p)
            for g in (shift, [[c * int(i == j) for j in range(rank)] for i in range(rank)])]

    c_order = next(t for t in range(1, p) if pow(c, t, p) == 1)
    fixed = 0
    power = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(rank):
        for a in range(c_order):
            scale = pow(c, a, p)
            g_minus_1 = [[(scale * power[i][j] - int(i == j)) % p for j in range(rank)]
                         for i in range(rank)]
            fixed += p ** (rank - _rank_mod(g_minus_1, p))
        power = _matmul(power, shift, p)
    order = rank * c_order
    if fixed % order:
        raise ArithmeticError("Burnside total is not a multiple of the group order")
    return gens, fixed // order


def _unit_order(u: int, n: int) -> int:
    t, x = 1, u % n
    while x != 1 % n:
        x = x * u % n
        t += 1
    return t


def diagonal_unit_table(rng: random.Random, orders) -> tuple[list, int]:
    """Permutation table of x -> (u_1 x_1, ..., u_r x_r) on Z/n_1 x ... x Z/n_r.

    Each u_i is a seeded unit mod n_i.  The generated group is cyclic of
    order L = lcm(ord u_i), and g^t fixes prod gcd(u_i^t - 1, n_i) elements,
    so Burnside gives the orbit count without enumerating the group.
    """
    units = [rng.choice([u for u in range(2, n) if gcd(u, n) == 1]) for n in orders]
    pairs = []
    for x in product(*(range(n) for n in orders)):
        pairs.append([list(x), [u * xi % n for u, xi, n in zip(units, x, orders)]])
    order = lcm(*(_unit_order(u, n) for u, n in zip(units, orders)))
    fixed = 0
    for t in range(order):
        f = 1
        for u, n in zip(units, orders):
            f *= gcd(pow(u, t, n) - 1, n)
        fixed += f
    if fixed % order:
        raise ArithmeticError("Burnside total is not a multiple of the group order")
    return pairs, fixed // order
