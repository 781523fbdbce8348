"""Independent brute-force oracles for the test suite.

Everything here is deliberately written with plain Python loops and no
shared code with the library, so agreements are genuine cross-checks.
"""
import math

import numpy as np


def brute_ball_members(dist, center, r):
    return [j for j in range(dist.shape[0]) if dist[center][j] < r]


def brute_ball_mass(dist, weight, center, r):
    return sum(weight[j] for j in brute_ball_members(dist, center, r))


def brute_a0(dist):
    n = dist.shape[0]
    best = 1.0
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            for z in range(n):
                if z == x or z == y:
                    continue
                den = dist[x][z] + dist[z][y]
                if den > 0:
                    best = max(best, dist[x][y] / den)
    return best


def brute_a0_witness(dist):
    """(A0, (x, y, z)): the first pair (x, y) in row-major order attaining
    the largest ratio, and the first z of least d(x, z) + d(z, y) for it;
    the witness is None when A0 = 1."""
    d = np.asarray(dist, dtype=float).tolist()
    n = len(d)
    best, pair = 1.0, None
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            for z in range(n):
                if z == x or z == y:
                    continue
                den = d[x][z] + d[z][y]
                if den > 0 and d[x][y] / den > best:
                    best, pair = d[x][y] / den, (x, y)
    if pair is None:
        return best, None
    x, y = pair
    sums = [d[x][z] + d[z][y] for z in range(n)]
    return best, (x, y, sums.index(min(sums)))


def brute_besov(entries, masses, delta, s, p, q, level_ok):
    """entries: {(k, alpha): value}; masses: {(k, alpha): mass}."""
    levels = sorted({k for k, _ in entries})
    outer = []
    for k in levels:
        if not level_ok(k):
            continue
        terms = []
        for (kk, alpha), lam in entries.items():
            if kk != k or lam == 0.0:
                continue
            m = masses[(kk, alpha)]
            if math.isinf(p):
                terms.append(m ** (-0.5) * abs(lam))
            else:
                terms.append((m ** (1.0 / p - 0.5) * abs(lam)) ** p)
        if not terms:
            continue
        inner = max(terms) if math.isinf(p) else sum(terms) ** (1.0 / p)
        outer.append(delta ** (-k * s) * inner)
    if not outer:
        return 0.0
    if math.isinf(q):
        return max(outer)
    return sum(v**q for v in outer) ** (1.0 / q)


def brute_tl(entries, masses, members, weights, n, delta, s, p, q, level_ok):
    """members: {(k, alpha): iterable of point ids}."""
    g = [0.0] * n
    if math.isinf(q):
        for (k, alpha), lam in entries.items():
            if not level_ok(k) or lam == 0.0:
                continue
            v = delta ** (-k * s) * masses[(k, alpha)] ** (-0.5) * abs(lam)
            for x in members[(k, alpha)]:
                g[x] = max(g[x], v)
    else:
        acc = [0.0] * n
        for (k, alpha), lam in entries.items():
            if not level_ok(k) or lam == 0.0:
                continue
            v = delta ** (-k * s * q) * (masses[(k, alpha)] ** (-0.5) * abs(lam)) ** q
            for x in members[(k, alpha)]:
                acc[x] += v
        g = [a ** (1.0 / q) for a in acc]
    total = sum(weights[i] * g[i] ** p for i in range(n) if g[i] > 0)
    return total ** (1.0 / p)


def brute_maximal(dist, weight, f):
    """M f by scanning a radius just above every pairwise distance."""
    n = dist.shape[0]
    out = []
    for x in range(n):
        radii = sorted(set(dist[x])) + [dist[x].max() + 1.0]
        best = 0.0
        for r0 in radii:
            r = r0 * (1 + 1e-12) + 1e-300
            members = brute_ball_members(dist, x, r)
            if not members:
                continue
            num = sum(weight[j] * abs(f[j]) for j in members)
            den = sum(weight[j] for j in members)
            best = max(best, num / den)
        out.append(best)
    return np.array(out)


def unit_spaced_grid(n, weights=None):
    """1-D grid at integer positions with unit weights (the hand-count fixture)."""
    from homspace.space import FiniteHomSpace

    coords = np.arange(float(n))[:, None]
    dist = np.abs(coords[:, None, 0] - coords[None, :, 0])
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    return FiniteHomSpace(dist=dist, weight=w, coords=coords)


def integer_grid_table(side, seed):
    """Distances of the side x side integer lattice in the plane and uneven
    seeded weights. Equal sums of squares give equal square roots, so every
    tie of the lattice is an exact tie of the table."""
    ij = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    diff = ij[:, None, :] - ij[None, :, :]
    dist = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    weight = np.random.default_rng(seed).uniform(0.2, 2.0, side * side)
    return dist, weight


def box_count_dimension(points, sizes):
    """Independent box-counting slope for a 1-D point set."""
    points = np.asarray(points, dtype=float).ravel()
    counts = []
    for size in sizes:
        boxes = {int(p / size) for p in points}
        counts.append(len(boxes))
    slope, _ = np.polyfit(np.log(1.0 / np.asarray(sizes)), np.log(counts), 1)
    return float(slope)
