"""
Hardy-Littlewood maximal operator on finite spaces, the almost-orthogonality
kernel, and the maximal-function bound used in the embedding machinery.

On finite data the maximal function is exact: ball averages only change
when the radius crosses a pairwise distance, so M f(x) is the maximum of
the prefix averages of |f| along the distance-sorted point list (the
singleton prefix makes M f >= |f| pointwise). Those lists are the rows of
the space's cached ``ball_index``, so a call sorts nothing, and M f is
evaluated only at the points asked for. A stack of functions is laid out
with the functions on the contiguous axis, so every step of a block runs
over all of its functions at once; each addition of a prefix sum happens
in the same order as for one function alone, so stacking changes no bit.

The kernel value mirrors the almost-orthogonality bound for wavelet pairs
at cubes (k, alpha), (j, tau) with centers x_a, x_t:

    d^{|k-j| eps} * m_t^{1/2} m_a^{1/2}
      / ( V_s(x_a) + V_s(x_t) + V(x_a, x_t) )
      * ( s / (s + d(x_a, x_t)) )^gamma,        s = delta^{min(k, j)},

with V_r(x) the ball mass and V(x, y) the symmetrized mass
mass(B(x, d(x,y))) + mass(B(y, d(x,y))) (the two orderings differ on
quasi-metric data, so both are kept). The leading constant is treated as
an empirical calibration: it is frozen as the largest observed
lhs/rhs ratio on a seeded batch, and fresh draws are required to stay
within a factor 2 of it. Both are scored by one call of
``kernel_bound_batch``, which evaluates every sequence of a batch at every
probe (k, j, x); the one-sequence ``kernel_maximal_bound_check`` is a call
of it.

Admissibility gate: gamma * r - omega * (1 - r) > 0 and 0 < eps < eta,
with r in (0, 1]; the canonical choice for a source integrability p2 is
r = p2 / (1 + p2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from homspace.common import BLOCK_ELEMENTS, DEFAULT_SEED, rng_stream, stable_sum
from homspace.dyadic import CubeSystem
from homspace.seqnorm import CoefSequence, SequenceBatch
from homspace.space import FiniteHomSpace


@dataclass(frozen=True)
class KernelParams:
    epsilon: float
    gamma: float
    r_exp: float
    omega: float
    eta: float = 1.0

    def __post_init__(self):
        if not (0 < self.epsilon < self.eta):
            raise ValueError("need 0 < epsilon < eta")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if math.isnan(self.omega):
            raise ValueError("omega must be a number, got nan")
        if not (0 < self.r_exp <= 1):
            raise ValueError("r_exp must lie in (0, 1]")
        if self.gamma * self.r_exp - self.omega * (1 - self.r_exp) <= 0:
            raise ValueError(
                f"inadmissible kernel parameters: gamma*r - omega*(1-r) = "
                f"{self.gamma * self.r_exp - self.omega * (1 - self.r_exp):g} <= 0"
            )


def default_r_exp(p2: float) -> float:
    """r = p2 / (1 + p2), the canonical sub-exponent for source index p2."""
    if not p2 > 0:
        raise ValueError("p2 must be positive")
    return p2 / (1.0 + p2)


# ---------------------------------------------------------------------------
# Maximal operator
# ---------------------------------------------------------------------------

def hl_maximal(space: FiniteHomSpace, f, points=None) -> np.ndarray:
    """M f(x), the largest weighted average of |f| over balls B(x, r), for
    each x in ``points`` (default: every point, in order). Exact: every
    prefix of a ``space.ball_index`` row that ends a tie group is a ball.

    ``f`` is one function (n,) or a stack of them (m, n); the result is
    (len(points),) or (m, len(points)). The weighted functions are laid out
    (n, m), functions on the contiguous axis, so one block gathers a
    (rows, n, functions) array and its prefix sums, averages and masked
    maxima run over every function of the block at once. A block holds at
    most BLOCK_ELEMENTS entries, so the temporaries stay that size however
    many functions are stacked."""
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != space.n:
        raise ValueError("f must assign one value per point")
    points = np.arange(space.n) if points is None else np.asarray(points, dtype=int)
    af = np.abs(np.atleast_2d(f))
    m, n = af.shape
    weighted = np.ascontiguousarray((space.weight * af).T)
    index = space.ball_index
    out = np.empty((m, points.size))
    fns = max(1, min(m, BLOCK_ELEMENTS // n))
    step = max(1, BLOCK_ELEMENTS // (n * fns))
    for first in range(0, m, fns):
        for lo in range(0, points.size, step):
            rows = points[lo:lo + step]
            # prefix averages of each function along each row, then the
            # largest one that ends a tie group
            averages = weighted[index.order[rows], first:first + fns]
            np.cumsum(averages, axis=1, out=averages)
            np.divide(averages, index.cum_weight[rows, 1:, None], out=averages)
            out[first:first + fns, lo:lo + step] = averages.max(
                axis=1, where=index.ends[rows, :, None], initial=0.0).T
    out = np.maximum(out, af[:, points])   # the singleton ball average, exactly
    return out if f.ndim == 2 else out[0]


def fs_vector_maximal_check(space: FiniteHomSpace, fns, p: float, q: float,
                            r_exp: float) -> tuple:
    """(lhs, rhs, ratio) for the vector-valued maximal inequality:
    lhs = || (sum_k (M f_k)^q)^{1/q} ||_p against the same aggregate of the
    raw |f_k|. Requires r_exp < min(p, q); the bound itself is a stability
    statement checked statistically, not a proof."""
    if not (0 < r_exp < min(p, q)):
        raise ValueError("need 0 < r_exp < min(p, q)")
    fns = [np.asarray(f, dtype=float) for f in fns]
    if not fns:
        raise ValueError("need at least one function")
    for f in fns:
        if f.shape != (space.n,):
            raise ValueError("every f_k must assign one value per point")
    mstack = hl_maximal(space, np.stack(fns))
    fstack = np.abs(np.stack(fns))
    if math.isinf(q):
        gm = mstack.max(axis=0)
        gf = fstack.max(axis=0)
    else:
        gm = (mstack**q).sum(axis=0) ** (1.0 / q)
        gf = (fstack**q).sum(axis=0) ** (1.0 / q)
    lhs = _weighted_lp(gm, space.weight, p)
    rhs = _weighted_lp(gf, space.weight, p)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return lhs, rhs, ratio


def _weighted_lp(g: np.ndarray, w: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(np.abs(g).max())
    nz = g != 0
    if not np.any(nz):
        return 0.0
    return float(stable_sum(w[nz] * np.abs(g[nz]) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Almost-orthogonality kernel
# ---------------------------------------------------------------------------

def _v_denominators(space: FiniteHomSpace, alphas, tau: int, s: float) -> np.ndarray:
    """V_s(x_a) + V_s(tau) + V(x_a, tau) for each x_a in ``alphas``, from ball masses."""
    alphas = np.asarray(alphas, dtype=int)
    d = space.dist[alphas, tau]
    v_s = _ball_masses(space, np.append(alphas, tau), s)
    v_a = _ball_masses(space, alphas, d)
    v_t = _ball_masses(space, np.full(alphas.size, tau), d)
    return v_s[:-1] + v_s[-1] + (v_a + v_t)


def _ball_masses(space: FiniteHomSpace, centers: np.ndarray, radii) -> np.ndarray:
    """mass(B(centers[i], radii[i])) for each i (one radius, or one per
    center), read off the ball index without a loop over centers."""
    inside = np.count_nonzero(space.dist[centers] < np.reshape(radii, (-1, 1)), axis=1)
    return space.ball_index.cum_weight[centers, inside]


def almost_orth_kernel(cubes: CubeSystem, k: int, alpha: int, j: int, tau: int,
                       params: KernelParams) -> float:
    """Kernel bound (leading constant 1) for the cube pair (k, alpha), (j, tau).

    Symmetric under swapping the two cubes: every factor, including the
    symmetrized V term, is invariant."""
    _require_fresh(cubes, k, alpha)
    _require_fresh(cubes, j, tau)
    space = cubes.space
    s = cubes.delta ** min(k, j)
    x_a = int(alpha)
    x_t = int(tau)
    m_a = cubes.mass(k, alpha)
    m_t = cubes.mass(j, tau)
    denom = _v_denominators(space, [x_a], x_t, s)[0]
    d = space.dist[x_a, x_t]
    decay = (s / (s + d)) ** params.gamma
    return (cubes.delta ** (abs(k - j) * params.epsilon)
            * math.sqrt(m_t) * math.sqrt(m_a) / denom * decay)


def _require_fresh(cubes: CubeSystem, k: int, alpha: int) -> None:
    if not cubes.is_index(k, int(alpha)):
        raise ValueError(f"(k={k}, alpha={int(alpha)}) is not a fresh cube of the system")


# ---------------------------------------------------------------------------
# Kernel-sum maximal bound
# ---------------------------------------------------------------------------

@dataclass
class KernelBoundResult:
    lhs: float
    rhs: float
    ratio: Optional[float]
    verdict: str                  # "PASS" | "FAIL" | "NEUTRAL" | "UNCALIBRATED"
    level_pair: tuple
    point: int


def kernel_bound_batch(cubes: CubeSystem, batch: SequenceBatch, probes,
                       params: KernelParams) -> tuple:
    """(lhs, rhs), two (sequences x probes) arrays: for each sequence of
    ``batch`` and each probe (k, j, x), the kernel-weighted coefficient sum
    at x (levels k against j) and its maximal-function majorant

        delta^{k omega (1 - 1/r)} * mu(B)^{1/r - 1}
            * inf_{y in B} M( sum_a m_a^{-r/2} |lam_a|^r 1_{Q_a} )(y)^{1/r},

    B = B(x, delta^{min(k,j)}). The sum is 0 when x's level-j cube is not
    fresh.

    Per probe, s, tau, the ball, the majorant's prefactor and each level-k
    cube's kernel factor sqrt(m_a) / V * decay are computed once. Cubes of
    one level are disjoint, so u is a gather of per-cube values through
    assignment[k], one row per sequence, and a stacked ``hl_maximal`` call
    reads it on the ball's rows, BLOCK_ELEMENTS // n sequences at a time.
    The bits are those of a one-sequence, one-probe evaluation: the sums
    are ``math.fsum``, and the powers of per-entry, per-cube and
    per-sequence scalars are Python's ``**``.
    """
    space, delta, r = cubes.space, cubes.delta, params.r_exp
    probes = [(int(k), int(j), int(x)) for k, j, x in probes]
    if any(cubes.net.k_min in (k, j) for k, j, _ in probes):
        raise ValueError("levels must carry fresh cubes (coarsest level excluded)")
    n_seq = len(batch)
    lhs = np.zeros((n_seq, len(probes)))
    rhs = np.zeros((n_seq, len(probes)))
    seq = np.repeat(np.arange(n_seq), np.diff(batch.offsets))
    block = max(1, BLOCK_ELEMENTS // space.n)
    for k in sorted({k for k, _, _ in probes}):
        # the nonzero level-k coefficients, sequence after sequence
        at = (batch.level == k) & (batch.value != 0.0)
        owner, alpha, a = seq[at], batch.alpha[at], np.abs(batch.value[at])
        cand, cube_of = np.unique(alpha, return_inverse=True)
        segments = np.searchsorted(owner, np.arange(n_seq + 1)).tolist()
        mass = cubes.cube_mass[k]
        u_value = [m ** (-r / 2.0) * v ** r for m, v in zip(mass[alpha].tolist(), a.tolist())]
        majorants = []
        for col, (k_probe, j, x) in enumerate(probes):
            if k_probe != k:
                continue
            s = delta ** min(k, j)
            tau = cubes.point_cube(j, x)
            if cand.size and cubes.is_index(j, tau):
                decay = [(s / (s + d)) ** params.gamma for d in space.dist[cand, tau].tolist()]
                factor = np.sqrt(mass[cand]) / _v_denominators(space, cand, tau, s) * decay
                terms = (factor[cube_of] * a).tolist()
                lhs[:, col] = [math.fsum(terms[lo:hi])
                               for lo, hi in zip(segments[:-1], segments[1:])]
            ball = space.ball(x, s)
            if ball.members.size == 0:
                raise ValueError("empty comparison ball; radius below resolution")
            majorants.append((col, ball.members, delta ** (k * params.omega * (1 - 1.0 / r))
                              * ball.mass ** (1.0 / r - 1.0)))
        for first in range(0, n_seq, block):
            lo, hi = segments[first], segments[min(first + block, n_seq)]
            per_cube = np.zeros((min(block, n_seq - first), space.n))
            per_cube[owner[lo:hi] - first, alpha[lo:hi]] = u_value[lo:hi]
            u = per_cube[:, cubes.assignment[k]]
            for col, members, prefactor in majorants:
                inf_m = hl_maximal(space, u, members).min(axis=1).tolist()
                rhs[first:first + len(inf_m), col] = [prefactor * v ** (1.0 / r) for v in inf_m]
    return lhs, rhs


def bound_ratio(lhs, rhs) -> np.ndarray:
    """lhs / rhs: inf where only rhs vanishes, nan where both do (NEUTRAL)."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs > 0, lhs / rhs, np.where(lhs == 0.0, np.nan, np.inf))


def bound_holds(lhs, rhs, c_report: float):
    """lhs <= c_report * rhs, up to a 1e-12 relative slack."""
    return lhs <= c_report * rhs * (1 + 1e-12)


def kernel_maximal_bound_check(cubes: CubeSystem, seq: CoefSequence, k: int, j: int,
                               x: int, params: KernelParams,
                               c_report: Optional[float] = None) -> KernelBoundResult:
    """``kernel_bound_batch`` for one sequence at one probe. With a
    calibration constant the verdict is lhs <= c_report * rhs; without one
    the result is reported uncalibrated."""
    lhs, rhs = (float(v[0, 0]) for v in kernel_bound_batch(
        cubes, SequenceBatch.of([seq]), [(k, j, x)], params))
    ratio = float(bound_ratio(lhs, rhs))
    if math.isnan(ratio):
        return KernelBoundResult(lhs=0.0, rhs=0.0, ratio=None, verdict="NEUTRAL",
                                 level_pair=(k, j), point=int(x))
    if c_report is None:
        verdict = "UNCALIBRATED"
    else:
        verdict = "PASS" if bound_holds(lhs, rhs, c_report) else "FAIL"
    return KernelBoundResult(lhs=lhs, rhs=rhs, ratio=ratio, verdict=verdict,
                             level_pair=(k, j), point=int(x))


@dataclass
class KernelCalibration:
    c_report: float
    n_samples: int
    cube_bound_constant: float     # measured min mass(Q) / delta^{k omega}
    probes: list = field(default_factory=list)


def _probe_points(cubes: CubeSystem, rng) -> list:
    """Deterministic (k, j, x) probes over fresh-cube level pairs."""
    levels = [k for k in cubes.levels if k != cubes.net.k_min]
    probes = []
    for k in levels:
        for j in levels:
            xs = rng.choice(cubes.space.n, size=min(3, cubes.space.n), replace=False)
            probes.extend((k, j, int(x)) for x in xs)
    return probes


def random_batch(cubes: CubeSystem, rng, count: int) -> SequenceBatch:
    """``count`` seeded sequences as one batch: each draws 12 distinct fresh
    cubes (all of them if there are fewer) with ``rng.choice``, then their
    standard normal values, in that order."""
    level, alpha = cubes.fresh_index()
    size = min(12, alpha.size)
    take = np.empty((count, size), dtype=int)
    value = np.empty((count, size))
    for i in range(count):
        take[i] = np.arange(size) if alpha.size <= 12 else \
            rng.choice(alpha.size, size=12, replace=False)
        value[i] = rng.standard_normal(size)
    # the fresh index is sorted by (k, alpha), so sorting positions sorts keys
    order = np.argsort(take, axis=1)
    take = np.take_along_axis(take, order, axis=1).ravel()
    return SequenceBatch(system=cubes, labels=[None] * count,
                         offsets=np.arange(count + 1) * size,
                         level=level[take], alpha=alpha[take],
                         value=np.take_along_axis(value, order, axis=1).ravel())


def calibrate_kernel_bound(cubes: CubeSystem, params: KernelParams, *,
                           n_sequences: int = 64,
                           seed: int = DEFAULT_SEED) -> KernelCalibration:
    """Freeze the leading constant: the largest finite lhs/rhs ratio over a
    seeded batch of sequences at a fixed probe set. Also measures the
    cube-mass lower-bound constant the majorant derivation assumes."""
    rng = rng_stream(seed, 0xCA11B)
    probes = _probe_points(cubes, rng)
    batch = random_batch(cubes, rng, n_sequences)
    ratio = bound_ratio(*kernel_bound_batch(cubes, batch, probes, params))
    consts = cubes.fresh_constants(params.omega, "homogeneous")[2]
    return KernelCalibration(
        c_report=float(ratio[np.isfinite(ratio)].max(initial=0.0)),
        n_samples=n_sequences * len(probes),
        cube_bound_constant=float(consts.min()) if consts.size else 0.0,
        probes=[list(p) for p in probes],
    )
