"""Reference computations for the benchmark's output checks.

Everything here follows the definitions in the paper and the README with
plain numpy and Python, and imports nothing from homspace, so a report
that agrees with these numbers is cross-checked, not replayed.
"""
from __future__ import annotations

import math

import numpy as np

# Relative tolerance for values computed by different arithmetic.
REL = 1e-12


def lattice(n: int, dim: int) -> np.ndarray:
    """Points (i_1, ..., i_dim) / (n - 1) of [0, 1]^dim, first axis slowest."""
    idx = np.indices((n,) * dim).reshape(dim, -1).T
    return idx / (n - 1.0)


def cantor_midpoints(depth: int) -> np.ndarray:
    """Midpoints of the 2^depth middle-thirds intervals, left to right.

    Interval i keeps the left or right third at step j according to the
    j-th binary digit of i (most significant first).
    """
    out = np.zeros(2**depth)
    for i in range(2**depth):
        left = sum(2.0 * ((i >> (depth - j)) & 1) / 3.0**j for j in range(1, depth + 1))
        out[i] = left + 0.5 / 3.0**depth
    return out


def distance_table(coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    return np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=-1)


def quasi_triangle_constant(d: np.ndarray) -> float:
    """max d(x,y) / (d(x,z) + d(z,y)) over distinct x, y, z, clamped at 1."""
    n = d.shape[0]
    best = 1.0
    off = ~np.eye(n, dtype=bool)
    for z in range(n):
        den = d[:, z][:, None] + d[z, :][None, :]
        keep = off.copy()
        keep[z, :] = False
        keep[:, z] = False
        keep &= den > 0
        if keep.any():
            best = max(best, float((d[keep] / den[keep]).max()))
    return best


def min_positive(d: np.ndarray) -> float:
    return float(d[d > 0].min())


def maximal_function(d: np.ndarray, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Hardy-Littlewood M f(x): the largest w-average of |f| over an open
    ball around x. The open balls of x are the sets of points within each
    distinct distance t from x (take r just above t), so only those
    distances matter and ``d`` may be any increasing function of the
    distance."""
    af = np.abs(np.asarray(f, dtype=float))
    out = np.empty(d.shape[0])
    for x in range(d.shape[0]):
        best = 0.0
        for t in np.unique(d[x]):
            ball = d[x] <= t
            best = max(best, math.fsum(w[ball] * af[ball]) / math.fsum(w[ball]))
        out[x] = best
    return out


def admissible_delta(a0: float, c0: float, C0: float) -> float:
    """Largest 2^-j, j >= 1, with 12 A0^3 C0 2^-j <= c0."""
    j = 1
    while 12.0 * a0**3 * C0 * 0.5**j > c0:
        j += 1
    return 0.5**j


def level_window(diameter: float, r_floor: float, delta: float, c0: float, C0: float):
    """(k_min, k_max): the finest level whose covering radius C0 delta^k
    still spans the diameter (one cube on top) and the coarsest level whose
    separation c0 delta^k reaches the resolution floor (every point a
    center at the bottom)."""
    k_min = 0
    while C0 * delta**k_min < diameter:
        k_min -= 1
    while C0 * delta ** (k_min + 1) >= diameter:
        k_min += 1
    k_max = k_min
    while c0 * delta**k_max > r_floor:
        k_max += 1
    return k_min, k_max


def cube_system_problems(d: np.ndarray, system: dict) -> list:
    """Re-check a reported cube system against its own constants.

    ``system`` is the ``system`` object of a ``cubes`` report: delta, c0,
    C0, c1, C1 and per level the centers and the point -> center
    assignment. Checks the nets (nested, separated by c0 delta^k, covering
    within C0 delta^k), the partition, the nesting of consecutive levels
    (which implies nesting of all levels) and the ball sandwich
    B(z, c1 delta^k) <= Q <= B(z, C1 delta^k). Boundary comparisons allow
    REL of slack, since these distances are not the program's.
    """
    n = d.shape[0]
    delta, c0, C0 = system["delta"], system["c0"], system["C0"]
    c1, C1 = system["c1"], system["C1"]
    problems = []
    prev_centers, prev_assign = None, None
    for level in system["levels"]:
        k = level["k"]
        centers = np.asarray(level["centers"], dtype=int)
        assign = np.asarray(level["assignment"], dtype=int)
        scale = delta**k
        if assign.shape != (n,):
            problems.append(f"level {k}: assignment has {assign.size} entries, not {n}")
            continue
        if centers.size == 0 or centers.min() < 0 or centers.max() >= n:
            problems.append(f"level {k}: centers outside 0..{n - 1}")
            continue
        if not np.isin(assign, centers).all():
            problems.append(f"level {k}: a point is assigned to a non-center")
        if not (assign[centers] == centers).all():
            problems.append(f"level {k}: a center lies outside its own cube")
        if prev_centers is not None and not np.isin(prev_centers, centers).all():
            problems.append(f"level {k}: nets not nested")
        sub = d[np.ix_(centers, centers)][~np.eye(centers.size, dtype=bool)]
        if sub.size and sub.min() < c0 * scale * (1 - REL):
            problems.append(f"level {k}: centers closer than c0 delta^k")
        if d[:, centers].min(axis=1).max() >= C0 * scale * (1 + REL):
            problems.append(f"level {k}: a point farther than C0 delta^k from every center")
        if prev_assign is not None and not (prev_assign[assign] == prev_assign).all():
            problems.append(f"level {k}: a cube meets two parent cubes")
        for z in centers:
            inside = assign == z
            if (d[z] < c1 * scale * (1 - REL))[~inside].any():
                problems.append(f"level {k}, cube {z}: inner ball leaves the cube")
            if (d[z][inside] >= C1 * scale * (1 + REL)).any():
                problems.append(f"level {k}, cube {z}: cube leaves the outer ball")
        prev_centers, prev_assign = centers, assign
    return problems
