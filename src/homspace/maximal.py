"""
Hardy-Littlewood maximal operator on finite spaces, and the check of the
almost-orthogonality kernel sum against its maximal-function majorant.

On finite data the maximal function is exact: ball averages only change
when the radius crosses a pairwise distance, so M f(x) is the maximum of
the prefix averages of |f| along the distance-sorted point list (the
singleton prefix makes M f >= |f| pointwise). Those lists are the rows of
the space's cached ``ball_index``, so a call sorts nothing, and M f is
evaluated only at the points asked for. Every call walks the sorted rows,
one vector add per sorted position over a whole block of (point,
function) lanes. A stack of functions is laid out with the functions on
the contiguous axis, so every step of a block runs over all of its
functions at once (a stack wider than BLOCK_ELEMENTS walks one row of
lanes per block); each addition of a prefix sum happens in the same
order as for one function alone, so stacking changes no bit.
``functions_per_call`` is the one stacking rule: it says how many
functions a caller stacks.

The kernel value is the almost-orthogonality bound for wavelet pairs at
cubes (k, alpha), (j, tau) with centers x_a, x_t, as computed:

    m_a^{1/2} / ( V_s(x_a) + V_s(x_t) + V(x_a, x_t) )
      * ( s / (s + d(x_a, x_t)) )^gamma,        s = delta^{min(k, j)},

with m_a the mass of cube alpha, V_r(x) the ball mass and V(x, y) the
symmetrized mass mass(B(x, d(x,y))) + mass(B(y, d(x,y))) (the two
orderings differ on quasi-metric data, so both are kept). The bound of
the theory also carries the factors delta^{|k-j| eps} and m_t^{1/2};
they are left out here, and putting them back would move every
kernel-check number. The leading constant is treated as
an empirical calibration: it is frozen as the largest observed
lhs/rhs ratio on a seeded batch, and fresh draws are required to stay
within a factor 2 of it. The calibration batch and the trials come from
their own streams and are scored together by one call of
``kernel_bound_batch``, which evaluates every sequence of a batch at every
probe (k, j, x), one level k at a time: the V terms of all the level's
cubes and probes are two ``space.ball_mass`` calls, the masses of the
level's probe balls a third, and M u is evaluated once, on the union of
those balls. The one-sequence ``kernel_maximal_bound_check`` is a call of
it.

Admissibility gate: gamma * r - omega * (1 - r) > 0 with r in (0, 1];
the canonical choice for a source integrability p2 is r = p2 / (1 + p2).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from homspace.common import BLOCK_ELEMENTS, DEFAULT_SEED, rng_stream
from homspace.dyadic import CubeSystem
from homspace.seqnorm import CoefSequence, SequenceBatch
from homspace.space import FiniteHomSpace


@dataclass(frozen=True)
class KernelParams:
    gamma: float
    r_exp: float
    omega: float

    def __post_init__(self):
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
    if math.isinf(p2):
        raise ValueError("p2 must be finite")
    return p2 / (1.0 + p2)


# ---------------------------------------------------------------------------
# Maximal operator
# ---------------------------------------------------------------------------

def _point_ids(points, n: int) -> np.ndarray:
    """``points`` as an array of point ids, integers in 0..n-1; ValueError
    naming the first entry that is not one (or ``points``, if none is)."""
    ids = np.asarray(points)
    if ids.ndim == 1 and (ids.size == 0 or ids.dtype.kind in "iu" and 0 <= ids.min()
                          and ids.max() < n):
        return ids.astype(np.intp, copy=False)
    bad = next((p for p in np.ravel(np.asarray(points, dtype=object))
                if not (isinstance(p, numbers.Integral) and 0 <= p < n)), points)
    raise ValueError(f"points must be a list of point ids in 0..{n - 1}; got {bad!r}")


def hl_maximal(space: FiniteHomSpace, f, points=None) -> np.ndarray:
    """M f(x), the largest weighted average of |f| over balls B(x, r), for
    each x in ``points`` (default: every point, in order). Exact: every
    prefix of a ``space.ball_index`` row that ends a tie group is a ball.

    ``f`` is one function (n,) or a stack of them (m, n); the result is
    (len(points),) or (m, len(points)). The weighted functions are laid out
    (n, m), functions on the contiguous axis, and every (point, function)
    pair is a lane. The call walks the sorted rows of whatever stack it is
    given: step k adds the k-th term of every lane of a block of rows to a
    running total and folds the average into a running best, so the state
    is a few arrays of one block and each ufunc call runs over the whole
    block. A block holds at most BLOCK_ELEMENTS lanes, or one row of lanes
    for a stack wider than that; ``functions_per_call`` keeps every
    caller's stack within it. Each lane's terms are added in row order
    whatever the block, so stacking changes no bit."""
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != space.n:
        raise ValueError("f must assign one value per point")
    points = np.arange(space.n) if points is None else _point_ids(points, space.n)
    af = np.abs(np.atleast_2d(f))
    m, n = af.shape
    weighted = np.ascontiguousarray((space.weight * af).T)
    index = space.ball_index
    out = np.empty((m, points.size))
    # at most BLOCK_ELEMENTS // 16 rows, so that a column block of the
    # index reads at least 16 entries (a 64-byte line of order) per row
    step = max(1, BLOCK_ELEMENTS // max(m, 16))
    with np.errstate(invalid="ignore"):        # inf / inf off the tie-group ends
        for lo in range(0, points.size, step):
            rows = points[lo:lo + step]
            lanes = (rows.size, m)
            if np.all(np.diff(rows) == 1):
                # a run of points: views of the index
                rows = slice(rows[0], rows[-1] + 1)
            total, best, average = np.zeros(lanes), np.zeros(lanes), np.empty(lanes)
            cols = max(1, BLOCK_ELEMENTS // lanes[0])
            for c in range(0, n, cols):
                # a column block of the rows, at most BLOCK_ELEMENTS
                # entries; a position that ends no tie group divides
                # by inf, so its average is 0 (NaN from an infinite
                # total) and fmax keeps the best as a masked max would
                order = index.order[rows, c:c + cols].astype(np.intp).T
                divisor = np.where(index.ends[rows, c:c + cols],
                                   index.cum_weight[rows, c + 1:c + cols + 1], np.inf).T
                for k in range(order.shape[0]):
                    total += weighted[order[k]]
                    np.divide(total, divisor[k, :, None], out=average)
                    np.fmax(best, average, out=best)
            # the whole row, always a ball, once more with NaN carried
            # as a masked max carries it
            np.maximum(best, average, out=best)
            out[:, lo:lo + step] = best.T
    out = np.maximum(out, af[:, points])   # the singleton ball average, exactly
    return out if f.ndim == 2 else out[0]


def functions_per_call(n: int) -> int:
    """Functions of an n-point space to stack in one ``hl_maximal`` call
    when scoring many: BLOCK_ELEMENTS // n, and at least BLOCK_ELEMENTS //
    256 (64). A call gathers one row of the (n, functions) stack per step
    of its walk, so the rows must be long: at 4096 points, scoring 82
    kernel sequences took 15.3 s at 4 per call, 6.9 s at 16, 4.2 s at 32
    and 3.8 s at 64, and the command ``maximal --random 64`` 9.2 s in
    calls of 4 and 2.9 s in one call (2-core Xeon VM). Stacking changes no
    bit."""
    return max(1, BLOCK_ELEMENTS // min(n, 256))


# ---------------------------------------------------------------------------
# Kernel-sum maximal bound
# ---------------------------------------------------------------------------

def _v_table(space: FiniteHomSpace, alphas, scales, taus) -> np.ndarray:
    """(alphas x probes) table of V_s(x_a) + V_s(tau) + V(x_a, tau), one
    column per probe (s, tau), from two ``space.ball_mass`` calls: each
    alpha's row at the probes' scales and then at its distances to the
    taus, and each tau's row at its scale and then at its distances to the
    alphas."""
    alphas, taus = np.asarray(alphas, dtype=int), np.asarray(taus, dtype=int)
    scales = np.asarray(scales, dtype=float)
    d = space.dist[np.ix_(alphas, taus)]
    v_alpha = space.ball_mass(alphas, np.hstack([np.broadcast_to(scales, d.shape), d]))
    v_tau = space.ball_mass(taus, np.hstack([scales[:, None], d.T]))
    v_s, v_a = v_alpha[:, :taus.size], v_alpha[:, taus.size:]
    return v_s + v_tau[:, 0] + (v_a + v_tau[:, 1:].T)


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

    The probes are scored one level k at a time. Each level-k cube's
    kernel factor sqrt(m_a) / V * decay comes from one (cubes x probes)
    table, and each probe's ball, its mass (one ``space.ball_mass`` call
    per level) and majorant prefactor are found once.
    Cubes of one level are disjoint, so u is a gather of per-cube values
    through assignment[k], one row per sequence. One stacked
    ``hl_maximal`` call per block of ``functions_per_call(n)`` sequences
    evaluates M u on the union of the level's probe balls, and
    each probe takes its infimum from the columns of its own ball. M u at
    a point is exact whatever else the call evaluates, so the bits are
    those of a one-sequence, one-probe evaluation: the sums are
    ``math.fsum``, and the powers of per-entry, per-cube and per-sequence
    scalars are Python's ``**``.
    """
    space, delta, r = cubes.space, cubes.delta, params.r_exp
    probes = [(int(k), int(j), int(x)) for k, j, x in probes]
    if any(cubes.net.k_min in (k, j) for k, j, _ in probes):
        raise ValueError("levels must carry fresh cubes (coarsest level excluded)")
    n_seq = len(batch)
    lhs = np.zeros((n_seq, len(probes)))
    rhs = np.zeros((n_seq, len(probes)))
    seq = np.repeat(np.arange(n_seq), np.diff(batch.offsets))
    block = functions_per_call(space.n)
    for k in sorted({k for k, _, _ in probes}):
        cols, js, xs = zip(*[(col, j, x) for col, (k_probe, j, x) in enumerate(probes)
                             if k_probe == k])
        scales = [delta ** min(k, j) for j in js]
        taus = [cubes.point_cube(j, x) for j, x in zip(js, xs)]
        balls = [space.ball(x, s) for x, s in zip(xs, scales)]
        if any(ball.members.size == 0 for ball in balls):
            raise ValueError("empty comparison ball; radius below resolution")
        # the nonzero level-k coefficients, sequence after sequence
        at = (batch.level == k) & (batch.value != 0.0)
        owner, alpha, a = seq[at], batch.alpha[at], np.abs(batch.value[at])
        cand, cube_of = np.unique(alpha, return_inverse=True)
        segments = np.searchsorted(owner, np.arange(n_seq + 1)).tolist()
        mass = cubes.cube_mass[k]
        # the probes whose level-j cube is fresh, each with its (s, tau)
        live = [i for i, (j, tau) in enumerate(zip(js, taus)) if cubes.is_index(j, tau)]
        if cand.size and live:
            s_live, tau_live = [scales[i] for i in live], [taus[i] for i in live]
            d = space.dist[np.ix_(cand, tau_live)].T.tolist()
            decay = np.array([[(s / (s + dd)) ** params.gamma for dd in row]
                              for s, row in zip(s_live, d)]).T
            factor = np.sqrt(mass[cand])[:, None] / _v_table(space, cand, s_live, tau_live) * decay
            for i, terms in zip(live, (factor[cube_of] * a[:, None]).T.tolist()):
                lhs[:, cols[i]] = [math.fsum(terms[lo:hi])
                                   for lo, hi in zip(segments[:-1], segments[1:])]
        u_value = [m ** (-r / 2.0) * v ** r for m, v in zip(mass[alpha].tolist(), a.tolist())]
        union = np.unique(np.concatenate([ball.members for ball in balls]))
        where = [np.searchsorted(union, ball.members) for ball in balls]
        volumes = space.ball_mass(xs, np.array(scales)[:, None])[:, 0].tolist()
        prefactor = [delta ** (k * params.omega * (1 - 1.0 / r)) * v ** (1.0 / r - 1.0)
                     for v in volumes]
        for first in range(0, n_seq, block):
            lo, hi = segments[first], segments[min(first + block, n_seq)]
            per_cube = np.zeros((min(block, n_seq - first), space.n))
            per_cube[owner[lo:hi] - first, alpha[lo:hi]] = u_value[lo:hi]
            mu = hl_maximal(space, per_cube[:, cubes.assignment[k]], union)
            for col, cells, pre in zip(cols, where, prefactor):
                inf_m = mu[:, cells].min(axis=1).tolist()
                rhs[first:first + len(inf_m), col] = [pre * v ** (1.0 / r) for v in inf_m]
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
    probes: list
    trial_lhs: np.ndarray          # trials x probes
    trial_rhs: np.ndarray


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
                           n_sequences: int = 64, seed: int = DEFAULT_SEED,
                           trials: int = 0) -> KernelCalibration:
    """Freeze the leading constant: the largest finite lhs/rhs ratio over a
    seeded batch of sequences at a fixed probe set. Also measures the
    cube-mass lower-bound constant the majorant derivation assumes.

    ``trials`` more sequences, drawn from their own stream of ``seed``, are
    scored in the same ``kernel_bound_batch`` call; their rows are
    ``trial_lhs`` and ``trial_rhs``, which ``kernel-check`` holds to the
    frozen constant."""
    rng = rng_stream(seed, 0xCA11B)
    probes = _probe_points(cubes, rng)
    batch = SequenceBatch.concat([random_batch(cubes, rng, n_sequences),
                                  random_batch(cubes, rng_stream(seed, 0xF4E54), trials)])
    lhs, rhs = kernel_bound_batch(cubes, batch, probes, params)
    ratio = bound_ratio(lhs[:n_sequences], rhs[:n_sequences])
    consts = cubes.fresh_constants(params.omega, "homogeneous")[2]
    return KernelCalibration(
        c_report=float(ratio[np.isfinite(ratio)].max(initial=0.0)),
        n_samples=n_sequences * len(probes),
        cube_bound_constant=float(consts.min()) if consts.size else 0.0,
        probes=[list(p) for p in probes],
        trial_lhs=lhs[n_sequences:],
        trial_rhs=rhs[n_sequences:],
    )
