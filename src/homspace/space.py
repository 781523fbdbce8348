"""
Finite quasi-metric measure spaces and their geometric constants.

A finite space is a point cloud 0..n-1 carrying a symmetric pairwise
distance table and strictly positive per-point masses. The estimators here
measure the constants that control the geometry:

  * the quasi-triangle constant A0 in  d(x,y) <= A0 [d(x,z) + d(z,y)],
  * the doubling constant C_d in  mu(B(x,2r)) <= C_d mu(B(x,r)) and the
    upper dimension omega = log2(C_d),
  * the lower-bound constant C in  mu(B(x,r)) >= C r^omega, globally and
    for r <= 1 (the local variant),
  * the reverse-doubling constant c in  c lam^kappa mu(B(x,r)) <= mu(B(x,lam r)).

Balls use strict inequality, B(x,r) = {y : d(x,y) < r}; membership flips
exactly when r crosses a pairwise distance.

A0 is computed at most once per space, on first use, and cached as
``quasi_triangle``; the reported statistics read that cache, and the
admissible dyadic constants and the nets read it unless the space declares
its A0 (``declared_A0``; the CLI's --A0 installs one after checking it).
When the coordinates generate the table as a Euclidean metric or a
snowflake d^e with 0 < e <= 1, A0 = 1 is a theorem and no pass runs
(source "analytic"); ``scaled`` keeps such coordinates generating the
table. Any other table gets one exact min-plus pass (source "exact") over
the upper triangle of the symmetric table in A0_TILE x A0_TILE tiles of
pairs (x, y). It is O(n^3) at worst, but a tile reads only the z that the
lens bound leaves it: to raise the ratio, d(x,z) + d(z,y) must lie below
d(x,y) over the best ratio found so far, so a pruned z can never be
taken, and value and witness are those of the full pass. Validation
checks the structure of the table and compares a declared or passed-in A0
with the cached one; with neither, it needs no A0 at all. An asymmetric
table is a validation violation and never reaches the pass.

The mass of B(x, r) is the running sum of the weights in (distance, id)
order up to the count #{y : d(x, y) < r}, and ``ball_mass`` is its one
reader: radii shared by every center, or one row of radii per center.
Shared radii are read off a per-space (n x R) mass table. Its first use
fills it with one pass over the rows for the radius grids of every
estimator here (``_mass_pool``; each grid is a function its estimator also
reads), and a radius outside it adds its column with one more pass. A
pass counts each row's distances per radius and reads the sums off the
one vector cumsum(full(n, w)) when every weight is the same float w, else
off a stable argsort of the row block, dropped after the block; a mass
does not depend on the radii it is found with. Rows of radii per center
(the kernel check's V terms and probe balls) and the maximal operator read
the sorted-row index ``ball_index``, built on first use (5 bytes per table
entry, and 8 more for per-row running sums of a non-uniform measure).
Each ball-mass estimator makes one ``ball_mass`` call over its whole
(center x radius) table; the growth estimators (doubling, reverse doubling
and its exponent) read the table of ``_growth``, and the kernel check
(``maximal``) makes three calls per level: two for its V terms and one for
its probe balls.

Resolution contract: each point stands for a cell of an underlying
continuum, so no scaling claim is evaluated below the resolution floor
r_floor (the smallest positive pairwise distance). Checkers clip radii to
r_floor and record a warning when they do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from homspace.common import fit_loglog, stable_sum, trend_flags


@dataclass(frozen=True)
class FiniteHomSpace:
    """Point cloud with a symmetric distance table and positive masses.

    Point identifiers are 0..n-1. ``coords`` is optional geometry kept by
    the gallery constructors and ``metric`` names how it generates
    ``dist`` ("euclidean" or "snowflake:<e>"; "explicit" when the table
    stands alone); every estimator consumes only ``dist`` and ``weight``,
    and only ``quasi_triangle`` trusts ``metric``.
    """

    dist: np.ndarray
    weight: np.ndarray
    coords: Optional[np.ndarray] = None
    declared_A0: Optional[float] = None
    declared_omega: Optional[float] = None
    metric: str = "explicit"

    def __post_init__(self):
        dist = np.asarray(self.dist, dtype=float)
        weight = np.asarray(self.weight, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("dist must be a square table")
        if weight.shape != (dist.shape[0],):
            raise ValueError("weight length must match the point count")
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "weight", weight)
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))

    # -- basic geometry -----------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.dist.shape[0])

    @cached_property
    def total_mass(self) -> float:
        return stable_sum(self.weight)

    @cached_property
    def diameter(self) -> float:
        return float(self.dist.max()) if self.n else 0.0

    @cached_property
    def r_floor(self) -> float:
        """Smallest positive pairwise distance; 1.0 when there is none (a
        single point). Read ROW_BLOCK rows at a time, with no n x n mask."""
        low = math.inf
        for lo in range(0, self.n, ROW_BLOCK):
            block = self.dist[lo:lo + ROW_BLOCK]
            low = min(low, float(block.min(initial=math.inf, where=block > 0)))
        return low if low < math.inf else 1.0

    @cached_property
    def quasi_triangle(self) -> "TriangleEstimate":
        """The quasi-triangle constant, found on first use: 1 by theorem
        when the coordinates generate a metric, else the exact pass."""
        if self.n >= 3 and self.coords is not None and _is_metric(self.metric):
            return TriangleEstimate(value=1.0, degenerate=False, source="analytic")
        return estimate_quasi_triangle_constant(self)

    @cached_property
    def ball_index(self) -> "BallIndex":
        """The sorted-row ball index, built on first use."""
        return build_ball_index(self)

    @cached_property
    def uniform_cum_weight(self) -> Optional[np.ndarray]:
        """(n + 1,) running sums [0, w, w + w, ...] when every weight is the
        same float w, else None: then the weight of the c nearest points of
        any center is entry c, whatever their order."""
        if not np.all(self.weight == self.weight[:1]):
            return None
        return np.r_[0.0, np.cumsum(np.full(self.n, self.weight[0] if self.n else 0.0))]

    @cached_property
    def _mass_table(self) -> dict:
        """The masses of every ball found with shared radii, keyed by the
        bits of the radius (so that a NaN finds itself): (n,) each."""
        return {}

    def ball(self, center: int, radius: float) -> "Ball":
        members = np.flatnonzero(self.dist[center] < radius)
        return Ball(center=int(center), radius=float(radius), members=members)

    def ball_mass(self, centers, radii) -> np.ndarray:
        """Masses of B(x, r), a (c, R) table: ``radii`` is (R,), shared by
        every center, or (c, R), one row per center. Shared radii are read
        off the mass table, which a radius it lacks joins with one
        ``_mass_pass`` (on first use, with the whole ``_mass_pool``); rows
        of radii take one ``searchsorted`` per center, in its row sorted
        through the ball index's order. Both give the same bits."""
        centers = np.asarray(centers, dtype=int)
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if radii.ndim == 1:
            table = self._mass_table
            wanted = radii.view(np.int64).tolist()
            missing = set(wanted).difference(table)
            if missing:
                if not table:
                    missing.update(_mass_pool(self).view(np.int64).tolist())
                new = np.sort(np.array(list(missing)).view(float))
                table.update(zip(new.view(np.int64).tolist(), _mass_pass(self, new).T))
            out = np.empty((centers.size, len(wanted)))
            for i, key in enumerate(wanted):
                out[:, i] = table[key][centers]
            return out
        if radii.shape[0] != centers.size:
            raise ValueError(f"{radii.shape[0]} rows of radii for {centers.size} centers")
        index = self.ball_index
        counts = np.empty(radii.shape, dtype=np.intp)
        for i, x in enumerate(centers):
            # #{y : d(x, y) < r}, searched in the row sorted through the index
            counts[i] = self.dist[x, index.order[x]].searchsorted(radii[i])
        return index.cum_weight[centers[:, None], counts]

    def scaled(self, dist_factor: float = 1.0, weight_factor: float = 1.0) -> "FiniteHomSpace":
        """Copy with distances and/or weights multiplied by positive factors.
        Coordinates that generate the table under a metric d^e are
        multiplied by dist_factor^(1/e), so they still generate it and the
        copy keeps the metric; any other copy is "explicit"."""
        if dist_factor <= 0 or weight_factor <= 0:
            raise ValueError("scale factors must be positive")
        coords, metric = self.coords, "explicit"
        if coords is not None and _is_metric(self.metric):
            coords = coords * dist_factor ** (1 / metric_exponent(self.metric))
            metric = self.metric
        return FiniteHomSpace(
            dist=self.dist * dist_factor,
            weight=self.weight * weight_factor,
            coords=coords,
            declared_A0=self.declared_A0,
            declared_omega=self.declared_omega,
            metric=metric,
        )

    def resolved_a0(self) -> float:
        """declared_A0, else the measured constant."""
        if self.declared_A0 is not None:
            return float(self.declared_A0)
        return self.quasi_triangle.value


def metric_exponent(metric: str) -> float:
    """The exponent e with which coordinates generate the table under
    ``metric``: 1 for "euclidean", e for "snowflake:<e>" with 0 < e <= 1.
    ValueError for any other metric."""
    if metric == "euclidean":
        return 1.0
    if not metric.startswith("snowflake:"):
        raise ValueError(f"unknown metric {metric!r}")
    try:
        e = float(metric.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"bad snowflake exponent in {metric!r}") from None
    if not (0 < e <= 1):
        raise ValueError(f"snowflake exponent {e} outside (0, 1]")
    return e


def _is_metric(metric: str) -> bool:
    """True when ``metric`` names a coordinate metric: d^e of a metric is a
    metric for e <= 1."""
    try:
        metric_exponent(metric)
    except ValueError:
        return False
    return True


class BallIndex(NamedTuple):
    """Each row of a space's table sorted once (stable, ties by ascending id)."""

    order: np.ndarray         # (n, n) int32: order[x] = argsort of dist[x]
    cum_weight: np.ndarray    # (n, n + 1): [x, c] = weight of the c nearest, so [x, 0] = 0;
                              # a read-only broadcast of uniform_cum_weight when there is one
    ends: np.ndarray          # (n, n) bool: [x, c] when the c + 1 nearest are a ball (a tie group ends)


# Rows sorted or counted (or read, in the triangle-violation scan) per
# block: temporaries stay at a few ROW_BLOCK x n arrays instead of n x n.
ROW_BLOCK = 64


def build_ball_index(space: FiniteHomSpace) -> BallIndex:
    """Sort the rows of ``space.dist``; ``space.ball_index`` caches the
    result. The sorted distances of a row block are a temporary of the
    block, dropped once its tie-group ends are marked."""
    n = space.n
    uniform = space.uniform_cum_weight
    index = BallIndex(np.empty((n, n), dtype=np.int32),
                      np.zeros((n, n + 1)) if uniform is None else np.broadcast_to(uniform, (n, n + 1)),
                      np.empty((n, n), dtype=bool))
    for lo in range(0, n, ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        index.order[rows] = np.argsort(space.dist[rows], axis=1, kind="stable")
        ordered = np.take_along_axis(space.dist[rows], index.order[rows], axis=1)
        if uniform is None:
            np.cumsum(space.weight[index.order[rows]], axis=1, out=index.cum_weight[rows, 1:])
        np.not_equal(np.diff(ordered, axis=1, append=np.inf), 0, out=index.ends[rows])
    return index


def _mass_pass(space: FiniteHomSpace, radii: np.ndarray) -> np.ndarray:
    """(n, R) masses of B(x, r) for every center x and the sorted
    ``radii``, ROW_BLOCK rows at a time: the masses the ball index gives,
    without building it. A distance d falls in bin #{r : r <= d}, so the
    count #{y : d(x, y) < r_i} is the running count of bins 0..i. A
    uniform measure reads the weight of that many nearest points off
    ``uniform_cum_weight``; any other sorts the row block stably and sums
    its weights in that order, as the index does."""
    n, size = space.n, radii.size
    uniform = space.uniform_cum_weight
    out = np.empty((n, size))
    for lo in range(0, n, ROW_BLOCK):
        block = space.dist[lo:lo + ROW_BLOCK]
        bins = np.searchsorted(radii, block, side="right")
        bins += (size + 1) * np.arange(block.shape[0])[:, None]     # one run of bins per row
        counts = np.bincount(bins.ravel(), minlength=(size + 1) * block.shape[0])
        counts = counts.reshape(-1, size + 1)[:, :size].cumsum(axis=1)
        if uniform is not None:
            out[lo:lo + ROW_BLOCK] = uniform[counts]
        else:
            cum = np.zeros((block.shape[0], n + 1))
            np.cumsum(space.weight[np.argsort(block, axis=1, kind="stable")], axis=1, out=cum[:, 1:])
            out[lo:lo + ROW_BLOCK] = np.take_along_axis(cum, counts, axis=1)
    return out


@dataclass(frozen=True)
class Ball:
    """Open ball: members = {y : d(center, y) < radius} (strict), in
    ascending order. Its mass is ``ball_mass``'s."""

    center: int
    radius: float
    members: np.ndarray


@dataclass
class MetricValidation:
    ok: bool
    a0_used: Optional[float]    # the declared or passed-in A0; None: not checked
    violations: list = field(default_factory=list)
    truncated: bool = False


@dataclass
class TriangleEstimate:
    value: float
    degenerate: bool       # fewer than 3 points
    witness: Optional[tuple] = None   # (x, y, z) attaining the max ratio
    source: str = "exact"  # "exact" (measured) | "analytic" (a metric by theorem)


@dataclass
class DoublingEstimate:
    c_doubling: float
    omega_est: float
    witness: tuple          # (center, radius) attaining the max ratio
    radii: list


@dataclass
class LowerBoundReport:
    verdict: str                 # "PASS" | "FAIL"
    c_est: float
    witness: tuple               # (center, radius) attaining the min constant
    omega: float
    r_min: float
    r_max: float
    exponent_pooled: Optional[float]
    witnesses: list = field(default_factory=list)   # the flagged centers
    variant: str = "global"
    warnings: list = field(default_factory=list)
    radii: list = field(default_factory=list)


@dataclass
class ReverseDoublingReport:
    verdict: str                 # "PASS" | "FAIL" | "NOT_APPLICABLE"
    c_emp: float
    kappa: float
    worst: Optional[tuple]       # (center, r, lam) attaining the min ratio
    atomic_like: bool = False
    warnings: list = field(default_factory=list)


@dataclass
class SpaceStats:
    a0_est: float
    c_doubling_est: float
    omega_est: float
    kappa_est: Optional[float] = None
    degenerate: bool = False
    a0_source: str = "exact"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_MAX_VIOLATIONS = 20


def validate_quasi_metric(space: FiniteHomSpace, a0: Optional[float] = None) -> MetricValidation:
    """Check the structure of the table, and the quasi-triangle inequality
    at a declared or passed-in constant: the one check that decides
    whether a table is valid.

    The table is read ROW_BLOCK rows at a time against the matching column
    block ``d[:, lo:hi].T``, with no n x n mask. Each kind keeps its first
    _MAX_VIOLATIONS entries in row-major order, and the kinds are joined in
    this order and cut to _MAX_VIOLATIONS: nonnegativity (entries below 0),
    symmetry (pairs with d(i, j) != d(j, i), NaN included, listed at
    i <= j), identity (nonzero diagonal entries, then zeros off the
    diagonal, a pair listed where it is first met).

    Without a declared or passed-in A0 the triangle check is vacuous (the
    measured constant holds by definition), so no A0 is computed and
    ``a0_used`` is None. Otherwise triangle violations follow when that
    constant lies below ``space.quasi_triangle``, unless the table is
    asymmetric or the list is already full.

    Raises ValueError("A0 must be a finite positive number") when the
    declared or passed-in A0 is not one, before anything else is checked
    and with no pass run; ValueError("empty space") for n = 0; and
    ValueError("invalid measure") for nonpositive or non-finite weights
    and for a total mass whose fourfold is not finite (the maximal operator
    adds four ball masses).
    Structural defects of the distance table are returned as violations,
    not raised, so callers can report all of them at once.
    """
    a0_used = a0 if a0 is not None else space.declared_A0
    if a0_used is not None:
        a0_used = float(a0_used)
        if not 0 < a0_used < math.inf:
            raise ValueError(f"A0 must be a finite positive number, got {a0_used}")
    if space.n == 0:
        raise ValueError("empty space")
    if not np.all(np.isfinite(space.weight)) or np.any(space.weight <= 0):
        bad = int(np.flatnonzero(~(np.isfinite(space.weight) & (space.weight > 0)))[0])
        raise ValueError(f"invalid measure: weight[{bad}] = {space.weight[bad]!r} is not a positive real")
    try:
        total = space.total_mass
    except OverflowError:       # fsum past the largest float
        total = math.inf
    if not math.isfinite(4.0 * total):
        raise ValueError(f"invalid measure: the total mass {total!r} is too large: four ball "
                         f"masses must add to a finite number")

    d, cap = space.dist, _MAX_VIOLATIONS
    negative, unequal, zero = [], [], []
    diagonal_zeros = np.diag(d) == 0
    for lo in range(0, space.n, ROW_BLOCK):
        rows = d[lo:lo + ROW_BLOCK]
        cols = d[:, lo:lo + ROW_BLOCK]          # cols[j, i] = d(j, lo + i)
        if len(negative) < cap:
            negative += _block_hits(rows < 0, lo)
        if len(unequal) < cap:
            # columns j >= lo only, as a pair is listed at i <= j (compared
            # in the layout of ``cols``, which reads the table faster)
            mask = (cols[lo:] != rows[:, lo:].T).T
            if mask.any():
                unequal += _block_hits(np.triu(mask), lo, lo)
        if len(zero) < cap:
            # only a block with zeros off the diagonal is searched; a zero at
            # (i, j) below the diagonal was met at (j, i) when d(j, i) = 0
            zeros = rows == 0
            if np.count_nonzero(zeros) > np.count_nonzero(diagonal_zeros[lo:lo + ROW_BLOCK]):
                zero += _block_hits(zeros & (cols != 0).T | np.triu(zeros, lo + 1), lo)
    diagonal = np.flatnonzero(~diagonal_zeros)[:cap].tolist()
    violations = (
        [{"kind": "nonnegativity", "pair": [i, j], "value": float(d[i, j])} for i, j in negative]
        + [{"kind": "symmetry", "pair": [i, j], "values": [float(d[i, j]), float(d[j, i])]}
           for i, j in unequal]
        + [{"kind": "identity", "pair": [i, i], "value": float(d[i, i])} for i in diagonal]
        + [{"kind": "identity", "pair": [i, j], "value": 0.0} for i, j in zero]
    )[:cap]

    if a0_used is not None and len(violations) < cap:
        violations += islice(_triangle_violations(space, a0_used, bool(unequal)),
                             cap - len(violations))

    return MetricValidation(
        ok=not violations,
        a0_used=a0_used,
        violations=violations,
        truncated=len(violations) >= cap,
    )


def _block_hits(mask: np.ndarray, lo: int, col_lo: int = 0) -> list:
    """The first _MAX_VIOLATIONS positions [i, j], in row-major order, set
    in the mask of the block that starts at row ``lo`` and column
    ``col_lo``; an all-False mask is not searched."""
    if not mask.any():
        return []
    return (np.argwhere(mask)[:_MAX_VIOLATIONS] + [lo, col_lo]).tolist()


def _triangle_violations(space: FiniteHomSpace, a0: float, asymmetric: bool):
    """Yield the triples that break the quasi-triangle inequality at
    ``a0``, in (x, z, y) order. A tiny relative slack absorbs roundoff
    only; nothing is scanned when ``a0`` is at least the space's own
    constant."""
    limit = a0 * (1.0 + 1e-12)
    if space.n < 3 or asymmetric or not space.quasi_triangle.value > limit:
        return
    d, n = space.dist, space.n
    block = np.empty((min(ROW_BLOCK, n), n))
    for x in range(n):
        for lo in range(0, n, ROW_BLOCK):
            # hops[i, y] = d(x, z) + d(z, y) for the block's rows z = lo + i
            hops = block[:min(ROW_BLOCK, n - lo)]
            np.add(d[x, lo:lo + ROW_BLOCK, None], d[lo:lo + ROW_BLOCK], out=hops)
            with np.errstate(divide="ignore", invalid="ignore"):
                bad = d[x] / hops > limit
            for i, y in zip(*np.nonzero(bad)):
                z = lo + int(i)
                if len({x, int(y), z}) < 3:
                    continue
                yield {"kind": "triangle", "triple": [x, int(y), z],
                       "lhs": float(d[x, y]), "rhs": float(a0 * hops[i, y])}


# ---------------------------------------------------------------------------
# Constant estimators
# ---------------------------------------------------------------------------

# The exact A0 pass works on A0_TILE x A0_TILE tiles of pairs (x, y). Its
# table of column minima has n / A0_TILE rows (n^2 / 2 bytes at 16: 115 KB
# at 480 points, 8 MiB at 4096). A tile adds and takes the minimum over at
# most 2 * A0_TILE^2 = 512 z at a time, in one 1 MiB buffer: on a 2-core
# Xeon VM the dense 2048-point pass took 6.5 s with 512 z, 7.2 s with 256
# and 6.3 s with all z (an 8 MiB buffer at 4096 points). Each tile costs a
# fixed number of numpy calls, so 16 x 16 tiles beat 8 x 8 once pruning is
# on: 0.21 s against 0.52 s on the 1024-point squared line. A tile gathers
# the z that survive pruning unless more than A0_WHOLE_ROWS of them do,
# and then reads whole rows: with random survivors a gathered tile cost
# 0.92 (1024 points) and 1.09 (2048) of a whole-row tile at one half, and
# 0.35 and 0.39 at one fifth.
A0_TILE = 16
A0_WHOLE_ROWS = 0.5


def estimate_quasi_triangle_constant(space: FiniteHomSpace) -> TriangleEstimate:
    """Exact A0: the largest ratio d(x,y) / (d(x,z) + d(z,y)) over triples,
    clamped at 1. The table must be symmetric (ValueError otherwise),
    which is checked ROW_BLOCK rows at a time against the matching column
    block, with no n x n mask.

    One min-plus pass over the upper triangle in A0_TILE x A0_TILE tiles:
    for the tile of rows x from x0 and rows y from y0 >= x0,
    m[x, y] = min_z d(x,z) + d(y,z) along contiguous rows, and each block
    of rows x keeps one ratio buffer over y >= x0 whose first largest
    d(x,y) / m[x, y] in row-major order is its best ratio, taken only when
    strictly larger than the best of earlier blocks. By symmetry
    d(x,z) + d(y,z) is the same float as d(x,z) + d(z,y), and the ratio
    table is symmetric, so the first pair of largest ratio in row-major
    order over the whole table has y >= x: value and witness are those of
    a row-by-row pass over every (x, y). Letting z range over {x, y} only
    adds ratios of 1, which the clamp absorbs; pairs with m = 0 are
    skipped. The witness z is the first argmin of d(x,z) + d(z,y).

    The lens bound prunes z without changing a bit. With ``low[b, z]`` the
    least entry of column z over row block b, the tile of row blocks X
    and Y keeps only the z with low[X, z] + low[Y, z] <= T, where T is the
    float quotient of the tile's largest d(x,y) by the best ratio of
    earlier blocks. A ratio that can be taken exceeds that best, so the
    float sum s = d(x,z) + d(y,z) of its z lies below the exact quotient
    d(x,y) / best, and is then at most T, the float nearest to a number
    no smaller; as rounding is monotone, low[X, z] + low[Y, z] <= s, and
    z survives. So every entry of the ratio buffer that can be taken is
    exact, and the others stay at most that best. A tile where no z
    survives is skipped. Use
    ``space.quasi_triangle`` for the cached value, which skips the pass
    where A0 = 1 is a theorem.
    """
    n = space.n
    d = space.dist
    if n < 3:
        return TriangleEstimate(value=1.0, degenerate=True)
    if not all(np.array_equal(d[lo:lo + ROW_BLOCK], d[:, lo:lo + ROW_BLOCK].T)
               for lo in range(0, n, ROW_BLOCK)):
        raise ValueError("the exact A0 pass needs a symmetric distance table")

    best = 1.0
    witness = None
    low = np.minimum.reduceat(d, np.arange(0, n, A0_TILE), axis=0)
    chunk = 2 * A0_TILE**2
    # flat buffers, each block a contiguous view of their heads
    sums = np.empty(A0_TILE * A0_TILE * min(chunk, n))
    buf = np.empty(A0_TILE * n)
    for x0 in range(0, n, A0_TILE):
        xs = d[x0:x0 + A0_TILE]
        shape = (xs.shape[0], n - x0)      # rows x, columns y >= x0
        m = buf[:shape[0] * shape[1]].reshape(shape)
        m.fill(np.inf)
        # T of each tile: its largest d(x, y) over the best of earlier blocks
        tops = np.maximum.reduceat(xs[:, x0:], np.arange(0, n - x0, A0_TILE), axis=1)
        for y0, bound in zip(range(x0, n, A0_TILE), (tops.max(axis=0) / best).tolist()):
            ys = d[y0:y0 + A0_TILE]
            lens = low[x0 // A0_TILE] + low[y0 // A0_TILE] <= bound
            k = np.count_nonzero(lens)
            if k == 0:
                continue
            if k <= A0_WHOLE_ROWS * n:
                xs_z, ys_z = xs.compress(lens, axis=1), ys.compress(lens, axis=1)
            else:
                xs_z, ys_z, k = xs, ys, n
            tile = m[:, y0 - x0:y0 - x0 + ys.shape[0]]
            for z0 in range(0, k, chunk):
                zs = slice(z0, z0 + chunk)
                block = sums[:tile.size * min(chunk, k - z0)].reshape(*tile.shape, -1)
                np.add(xs_z[:, None, zs], ys_z[None, :, zs], out=block)     # d(x,z) + d(y,z)
                np.minimum(tile, block.min(axis=2), out=tile)
        # the ratios replace m; an entry with m <= 0 keeps it and is never taken
        ratios = np.divide(xs[:, x0:], m, out=m, where=m > 0)
        i, j = divmod(int(np.argmax(ratios)), shape[1])
        if ratios[i, j] > best:
            best = float(ratios[i, j])
            x, y = x0 + i, x0 + j
            witness = (x, y, int(np.argmin(d[x] + d[:, y])))
    return TriangleEstimate(value=best, degenerate=False, witness=witness)


def _growth(space: FiniteHomSpace, radii: np.ndarray, lams: np.ndarray) -> tuple:
    """Masses of B(x, r) and B(x, lam r) for every center x, radius
    r = radii[i] and dilation lam in lams[i], from one ``ball_mass`` call:
    ``base`` (n, R) and ``grown`` (n, R, L)."""
    masses = space.ball_mass(np.arange(space.n), _growth_radii(radii, lams))
    return masses[:, :radii.size], masses[:, radii.size:].reshape(space.n, *lams.shape)


def _growth_radii(radii: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The radii r and lam r that ``_growth`` reads."""
    return np.r_[radii, (lams * radii[:, None]).ravel()]


def _radii(space: FiniteHomSpace, r_hi: float, count: int) -> np.ndarray:
    """``count`` radii on a geometric grid from just above r_floor to r_hi
    (to just above r_floor when r_hi lies below it)."""
    r_lo = space.r_floor
    return np.geomspace(r_lo * (1 + 1e-12), max(r_hi, r_lo * (1 + 1e-9)), count)


def estimate_doubling(space: FiniteHomSpace, radii) -> DoublingEstimate:
    """Doubling constant max_x,r mu(B(x,2r)) / mu(B(x,r)) and omega = log2 of it.

    Radii should span at least a decade for a stable exponent, though any
    nonempty list is accepted.
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("radii list is empty")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    base, grown = _growth(space, np.array(radii), _doubling_lams(len(radii)))
    ratios = grown[..., 0] / base  # denominators are positive: balls contain their center
    ci, rj = np.unravel_index(np.argmax(ratios), ratios.shape)
    c = max(float(ratios[ci, rj]), 1.0)
    return DoublingEstimate(
        c_doubling=c,
        omega_est=float(np.log2(c)) if c > 1 else 0.0,
        witness=(int(ci), radii[rj]),
        radii=radii,
    )


def _doubling_lams(count: int) -> np.ndarray:
    return np.full((count, 1), 2.0)


def _stats_doubling_radii(space: FiniteHomSpace) -> np.ndarray:
    """The radii of the doubling estimate in ``space_stats``."""
    return _radii(space, space.diameter / 4, 8)


# Radii sampled (on a geometric grid) by the mass-exponent fit and the
# lower-bound check, by the reverse-doubling check (with as many dilations
# lam per radius) and by the growth-exponent estimate; every estimator uses
# every point as a center. A reverse-doubling PASS needs c above
# REVERSE_PASS.
N_RADII = 12
REVERSE_N_RADII = 6
REVERSE_N_LAMBDAS = 6
REVERSE_PASS = 0.1
GROWTH_N_RADII = 5


def _fit_radii(space: FiniteHomSpace) -> np.ndarray:
    """The radii of ``fit_mass_exponent``: none when its window is empty."""
    r_min = space.r_floor
    r_max = max(space.diameter / 4, min(space.diameter, 8.0 * r_min))
    if r_max <= r_min or space.n < 2:
        return np.empty(0)
    return np.geomspace(r_min * (1 + 1e-9), r_max, N_RADII)


def fit_mass_exponent(space: FiniteHomSpace) -> Optional[float]:
    """Pooled log-log slope of ball mass against radius (measured dimension).

    The window runs from r_floor to a quarter of the diameter (beyond that,
    balls saturate against the boundary and flatten the slope), and spans
    at least most of a decade above r_floor, capped at the diameter.
    """
    radii = _fit_radii(space)
    if not radii.size:
        return None
    fit = fit_loglog(radii, space.ball_mass(np.arange(space.n), radii))
    return None if fit is None else fit[0]


def lower_bound_window(space: FiniteHomSpace) -> tuple:
    """(r_min, r_max) of the global lower-bound check that ``analyze`` and
    ``embed-test`` run: r_floor to the diameter, and at least to 2 r_floor."""
    return space.r_floor, max(space.diameter, space.r_floor * 2)


def _lower_bound_radii(space: FiniteHomSpace, r_min: float, r_max: float) -> tuple:
    """(r_min, r_max, radii, warnings): the window clipped to r_floor, its
    N_RADII radii and what the clipping did."""
    warnings = []
    if r_min < space.r_floor:
        warnings.append(
            f"r_min {r_min:g} below resolution floor {space.r_floor:g}; clipped"
        )
        r_min = space.r_floor
        if r_min >= r_max:
            warnings.append("radius window collapsed at the resolution floor")
            r_max = r_min * (1 + 1e-9)
    return r_min, r_max, np.geomspace(r_min * (1 + 1e-12), r_max, N_RADII), warnings


def check_lower_bound(space: FiniteHomSpace, omega: float, r_min: float, r_max: float, *,
                      variant: str = "global") -> LowerBoundReport:
    """Empirical lower-bound constant C = min mu(B(x,r)) / r^omega with a
    per-center trend verdict.

    A center is flagged when its fitted radial exponent deviates from
    omega by more than EXPONENT_TOL AND its running constant decays by
    at least 1/DECAY_FRAC between its extremes over the sampled radii
    (both directions: excess exponent decays toward small r, deficient
    exponent toward large r). Verdict is FAIL when any center is flagged.
    """
    if space.n == 0:
        raise ValueError("empty space")
    if not (0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if not omega > 0:
        raise ValueError("omega must be positive")

    r_min, r_max, radii, warnings = _lower_bound_radii(space, r_min, r_max)
    masses = space.ball_mass(np.arange(space.n), radii)
    consts = masses / radii ** omega
    ci, rj = np.unravel_index(np.argmin(consts), consts.shape)

    if np.all(masses == masses[:, :1]):
        warnings.append("resolution too coarse: no ball transition in the radius window")

    _, exponent, flagged = trend_flags(radii, masses, consts, omega)
    rows = np.flatnonzero(flagged)
    curves = consts[rows]
    witnesses = [{"center": center, "exponent": exp, "c_min": lo, "c_max": hi, "worst_radius": r}
                 for center, exp, lo, hi, r in zip(
                     rows.tolist(), exponent[rows].tolist(), curves.min(axis=1).tolist(),
                     curves.max(axis=1).tolist(), radii[curves.argmin(axis=1)].tolist())]

    pooled = fit_loglog(radii, masses)
    return LowerBoundReport(
        verdict="FAIL" if witnesses else "PASS",
        c_est=float(consts[ci, rj]),
        witness=(int(ci), float(radii[rj])),
        omega=float(omega),
        r_min=float(r_min),
        r_max=float(r_max),
        exponent_pooled=None if pooled is None else pooled[0],
        witnesses=witnesses,
        variant=variant,
        warnings=warnings,
        radii=[float(r) for r in radii],
    )


def _local_window(space: FiniteHomSpace) -> tuple:
    """(r_min, r_max) of the local check: r_floor to 1; with r_floor >= 1,
    from r_floor / 2 to r_floor, which the check clips and collapses to
    that one radius, saying so in its warnings."""
    r_min = space.r_floor
    return (r_min, 1.0) if r_min < 1.0 else (r_min * 0.5, r_min)


def check_local_lower_bound(space: FiniteHomSpace, omega: float) -> LowerBoundReport:
    """Lower-bound check restricted to r <= 1; with r_floor >= 1 the window
    is the one radius r_floor, with a warning. For "below one diameter",
    check ``space.scaled(dist_factor=1 / space.diameter)``."""
    report = check_lower_bound(space, omega, *_local_window(space), variant="local")
    if space.r_floor >= 1.0:
        report.warnings.append("resolution floor at or above r = 1; local window degenerate")
    return report


def _reverse_radii(space: FiniteHomSpace) -> tuple:
    """(radii, lams) of ``check_reverse_doubling``: radii below half the
    diameter, REVERSE_N_LAMBDAS dilations 1 <= lam < diam / (2r) each."""
    diam, r_lo = space.diameter, space.r_floor
    r_hi = diam / 2
    if r_hi <= r_lo:
        r_hi = r_lo * (1 + 1e-9)
    radii = np.geomspace(r_lo * (1 + 1e-12), r_hi, REVERSE_N_RADII)
    radii = radii[diam / (2 * radii) > 1.0]
    lams = np.array([np.geomspace(1.0, diam / (2 * r) * (1 - 1e-12), REVERSE_N_LAMBDAS)
                     for r in radii]).reshape(radii.size, REVERSE_N_LAMBDAS)
    return radii, lams


def check_reverse_doubling(space: FiniteHomSpace, kappa: float) -> ReverseDoublingReport:
    """Empirical reverse-doubling constant
    c = min mu(B(x, lam r)) / (lam^kappa mu(B(x, r))) over sampled
    (x, r, lam) with r below half the diameter and 1 <= lam < diam / (2r).
    The witness is the first minimum in (r, x, lam) order.

    Verdict PASS when c stays above REVERSE_PASS. Spaces whose balls
    cannot grow (single point, or window empty) are flagged atomic-like.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if space.n < 2 or space.diameter <= 0:
        return ReverseDoublingReport(
            verdict="NOT_APPLICABLE", c_emp=0.0, kappa=kappa, worst=None,
            atomic_like=True,
            warnings=["atomic-like space: balls cannot grow, reverse doubling is vacuous"],
        )
    radii, lams = _reverse_radii(space)
    if not radii.size:
        return ReverseDoublingReport(
            verdict="NOT_APPLICABLE", c_emp=0.0, kappa=kappa, worst=None,
            atomic_like=True,
            warnings=["atomic-like space: no admissible (r, lambda) window"],
        )
    base, grown = _growth(space, radii, lams)
    ratios = (grown / (lams ** kappa * base[..., None])).transpose(1, 0, 2)    # (r, x, lam)
    ri, ci, lj = np.unravel_index(np.argmin(ratios), ratios.shape)
    best = float(ratios[ri, ci, lj])
    return ReverseDoublingReport(
        verdict="PASS" if best > REVERSE_PASS else "FAIL",
        c_emp=best, kappa=kappa, worst=(int(ci), float(radii[ri]), float(lams[ri, lj])),
    )


def _growth_exponent_radii(space: FiniteHomSpace) -> tuple:
    """(radii, lams) of ``estimate_reverse_doubling_exponent``: the base
    radii whose widest dilation lam = diam / (2r) exceeds 1.5."""
    radii = _radii(space, space.diameter / 4, GROWTH_N_RADII)
    lams = space.diameter / (2 * radii)
    return radii[lams > 1.5], lams[lams > 1.5]


def estimate_reverse_doubling_exponent(space: FiniteHomSpace) -> Optional[float]:
    """Weakest observed ball-growth exponent
    min log(mass(B(x, lam r)) / mass(B(x, r))) / log(lam) at the widest
    admissible lam = diam / (2r) per base radius, where lam > 1.5. None on
    atomic-like spaces and when no radius admits such a lam."""
    if space.n < 2 or space.diameter <= 0:
        return None
    radii, lams = _growth_exponent_radii(space)
    if not radii.size:
        return None
    base, grown = _growth(space, radii, lams[:, None])
    return float((np.log(grown[..., 0] / base) / np.log(lams)).min())


def _mass_pool(space: FiniteHomSpace) -> np.ndarray:
    """Every shared radius the estimators here read at their default
    windows, so that one pass fills the mass table for all of them."""
    pool = [_lower_bound_radii(space, *window)[2]
            for window in (lower_bound_window(space), _local_window(space))]
    if space.n >= 2 and space.diameter > 0:
        doubling = _stats_doubling_radii(space)
        growth, lams = _growth_exponent_radii(space)
        pool += [_growth_radii(doubling, _doubling_lams(doubling.size)),
                 _growth_radii(growth, lams[:, None]), _growth_radii(*_reverse_radii(space)),
                 _fit_radii(space)]
    return np.concatenate(pool)


def space_stats(space: FiniteHomSpace) -> SpaceStats:
    """Bundle the constant estimates used by reports and the CLI."""
    tri = space.quasi_triangle
    if space.n >= 2 and space.diameter > 0:
        doubling = estimate_doubling(space, _stats_doubling_radii(space))
    else:
        doubling = DoublingEstimate(c_doubling=1.0, omega_est=0.0, witness=(0, 1.0), radii=[1.0])
    kappa_est = estimate_reverse_doubling_exponent(space)
    if kappa_est is not None:
        kappa_est = min(max(kappa_est, 0.0), doubling.omega_est) or None
    return SpaceStats(
        a0_est=tri.value,
        c_doubling_est=doubling.c_doubling,
        omega_est=doubling.omega_est,
        kappa_est=kappa_est,
        degenerate=tri.degenerate,
        a0_source=tri.source,
    )
