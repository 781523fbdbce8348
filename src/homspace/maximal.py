"""
Hardy-Littlewood maximal operator on finite spaces, the almost-orthogonality
kernel, and the maximal-function bound used in the embedding machinery.

On finite data the maximal function is exact: ball averages only change
when the radius crosses a pairwise distance, so M f(x) is the maximum of
the prefix averages of |f| along the distance-sorted point list (the
singleton prefix makes M f >= |f| pointwise). Those lists are the rows of
the space's cached ``ball_index``, so a call sorts nothing, and M f is
evaluated only at the points asked for.

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
within a factor 2 of it.

Admissibility gate: gamma * r - omega * (1 - r) > 0 and 0 < eps < eta,
with r in (0, 1]; the canonical choice for a source integrability p2 is
r = p2 / (1 + p2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from homspace.common import DEFAULT_SEED, rng_stream, stable_sum
from homspace.dyadic import CubeSystem
from homspace.embed import fresh_constants
from homspace.seqnorm import CoefSequence
from homspace.space import ROW_BLOCK, FiniteHomSpace


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
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not (0 < self.r_exp <= 1):
            raise ValueError("r_exp must lie in (0, 1]")
        if self.gamma * self.r_exp - self.omega * (1 - self.r_exp) <= 0:
            raise ValueError(
                f"inadmissible kernel parameters: gamma*r - omega*(1-r) = "
                f"{self.gamma * self.r_exp - self.omega * (1 - self.r_exp):g} <= 0"
            )

    def to_dict(self) -> dict:
        return {"epsilon": self.epsilon, "gamma": self.gamma,
                "r_exp": self.r_exp, "omega": self.omega, "eta": self.eta}


def default_r_exp(p2: float) -> float:
    """r = p2 / (1 + p2), the canonical sub-exponent for source index p2."""
    if p2 <= 0:
        raise ValueError("p2 must be positive")
    return p2 / (1.0 + p2)


# ---------------------------------------------------------------------------
# Maximal operator
# ---------------------------------------------------------------------------

def hl_maximal(space: FiniteHomSpace, f, points=None) -> np.ndarray:
    """M f(x), the largest weighted average of |f| over balls B(x, r), for
    each x in ``points`` (default: every point, in order). Exact: every
    prefix of a ``space.ball_index`` row that ends a tie group is a ball."""
    f = np.asarray(f, dtype=float)
    if f.shape != (space.n,):
        raise ValueError("f must assign one value per point")
    points = np.arange(space.n) if points is None else np.asarray(points, dtype=int)
    af = np.abs(f)
    weighted = space.weight * af
    index = space.ball_index
    out = np.empty(points.size)
    for lo in range(0, points.size, ROW_BLOCK):
        rows = points[lo:lo + ROW_BLOCK]
        # complete tie groups: prefix ends where the next distance differs
        ends = np.diff(index.dist[rows], axis=1, append=np.inf) != 0
        averages = np.cumsum(weighted[index.order[rows]], axis=1) / index.cum_weight[rows, 1:]
        out[lo:lo + ROW_BLOCK] = averages.max(axis=1, where=ends, initial=0.0)
    return np.maximum(out, af[points])   # the singleton ball average, exactly


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
    mstack = np.stack([hl_maximal(space, f) for f in fns])
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
    centers = np.append(np.asarray(alphas, dtype=int), tau)
    v_s = space.ball_mass(centers, [s])[:, 0]
    v_d = space.ball_mass(centers, space.dist[centers[:-1], tau])
    return v_s[:-1] + v_s[-1] + (np.diagonal(v_d) + v_d[-1])


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

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "verdict": self.verdict,
            "level_pair": list(self.level_pair),
            "point": self.point,
        }


def kernel_maximal_bound_check(cubes: CubeSystem, seq: CoefSequence, k: int, j: int,
                               x: int, params: KernelParams,
                               c_report: Optional[float] = None) -> KernelBoundResult:
    """Compare the kernel-weighted coefficient sum at x (levels k against j)
    with the maximal-function majorant

        delta^{k omega (1 - 1/r)} * mu(B)^{1/r - 1}
            * inf_{y in B} M( sum_a m_a^{-r/2} |lam_a|^r 1_{Q_a} )(y)^{1/r},

    B = B(x, delta^{min(k,j)}). With a calibration constant the verdict is
    lhs <= c_report * rhs; without one the result is reported uncalibrated.
    """
    space = cubes.space
    if k == cubes.net.k_min or j == cubes.net.k_min:
        raise ValueError("levels must carry fresh cubes (coarsest level excluded)")
    r = params.r_exp
    s = cubes.delta ** min(k, j)

    level_k = [(int(alpha), value) for (kk, alpha), value in seq.entries.items()
               if kk == k and value != 0.0]
    tau = cubes.point_cube(j, x)
    lhs = 0.0
    if cubes.is_index(j, tau):
        denoms = _v_denominators(space, [x_a for x_a, _ in level_k], tau, s)
        terms = []
        for (x_a, value), denom in zip(level_k, denoms):
            d = space.dist[x_a, tau]
            decay = (s / (s + d)) ** params.gamma
            terms.append(math.sqrt(cubes.mass(k, x_a)) / denom * decay * abs(value))
        lhs = stable_sum(terms)

    u = np.zeros(space.n)
    for alpha, value in level_k:
        u[cubes.members(k, alpha)] += cubes.mass(k, alpha) ** (-r / 2.0) * abs(value) ** r
    mu_ball = space.ball(int(x), s)
    if mu_ball.members.size == 0:
        raise ValueError("empty comparison ball; radius below resolution")
    inf_m = float(hl_maximal(space, u, mu_ball.members).min())
    rhs = (cubes.delta ** (k * params.omega * (1 - 1.0 / r))
           * mu_ball.mass ** (1.0 / r - 1.0)
           * inf_m ** (1.0 / r))

    if lhs == 0.0 and rhs == 0.0:
        return KernelBoundResult(lhs=0.0, rhs=0.0, ratio=None, verdict="NEUTRAL",
                                 level_pair=(k, j), point=int(x))
    ratio = lhs / rhs if rhs > 0 else math.inf
    if c_report is None:
        verdict = "UNCALIBRATED"
    else:
        verdict = "PASS" if lhs <= c_report * rhs * (1 + 1e-12) else "FAIL"
    return KernelBoundResult(lhs=float(lhs), rhs=float(rhs), ratio=float(ratio),
                             verdict=verdict, level_pair=(k, j), point=int(x))


@dataclass
class KernelCalibration:
    c_report: float
    n_samples: int
    cube_bound_constant: float     # measured min mass(Q) / delta^{k omega}
    probes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "c_report": self.c_report,
            "n_samples": self.n_samples,
            "cube_bound_constant": self.cube_bound_constant,
            "probes": self.probes,
        }


def _probe_points(cubes: CubeSystem, rng) -> list:
    """Deterministic (k, j, x) probes over fresh-cube level pairs."""
    levels = [k for k in cubes.levels if k != cubes.net.k_min]
    probes = []
    for k in levels:
        for j in levels:
            xs = rng.choice(cubes.space.n, size=min(3, cubes.space.n), replace=False)
            probes.extend((k, j, int(x)) for x in xs)
    return probes


def random_sequence(cubes: CubeSystem, rng, scale: float = 1.0) -> CoefSequence:
    level, alpha = cubes.fresh_index()
    take = np.arange(alpha.size) if alpha.size <= 12 else \
        rng.choice(alpha.size, size=12, replace=False)
    keys = zip(level[take].tolist(), alpha[take].tolist())
    entries = {key: scale * float(v) for key, v in zip(keys, rng.standard_normal(take.size))}
    return CoefSequence(cubes, entries)


def calibrate_kernel_bound(cubes: CubeSystem, params: KernelParams, *,
                           n_sequences: int = 64,
                           seed: int = DEFAULT_SEED) -> KernelCalibration:
    """Freeze the leading constant: the largest lhs/rhs ratio over a seeded
    batch of sequences at a fixed probe set. Also measures the cube-mass
    lower-bound constant the majorant derivation assumes."""
    rng = rng_stream(seed, 0xCA11B)
    probes = _probe_points(cubes, rng)
    worst = 0.0
    for i in range(n_sequences):
        seq = random_sequence(cubes, rng)
        for k, j, x in probes:
            res = kernel_maximal_bound_check(cubes, seq, k, j, x, params)
            if res.ratio is not None and math.isfinite(res.ratio):
                worst = max(worst, res.ratio)
    consts = fresh_constants(cubes, params.omega, "homogeneous")[2]
    return KernelCalibration(
        c_report=worst,
        n_samples=n_sequences * len(probes),
        cube_bound_constant=float(consts.min()) if consts.size else 0.0,
        probes=[list(p) for p in probes],
    )
