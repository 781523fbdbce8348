"""
Nested net hierarchies and the cube partitions they generate.

Construction contract (all of it re-verified on every build):

  * nets: nested maximal nets, one per level k, separated by c0*delta^k
    and covering within C0*delta^k, grown greedily in a seed-keyed order
    so that coarse centers persist at every finer level;
  * cubes: bottom-up nearest-parent construction (Hytonen-Kairema 2012,
    after Christ 1990). At the finest level each point joins its nearest
    center; each level-(k+1) center takes itself as parent if it lies in
    X^k, else its nearest level-k center (ties break to the lowest id).
    A level-k cube is the union of its descendants, so cubes nest by
    construction;
  * every level partitions the space, cubes nest across levels, and each
    cube sits between the balls B(z, c1*delta^k) and B(z, C1*delta^k)
    around its center z, with c1 = c0 / (3 A0^2) and C1 = 2 A0 C0;
  * the constants must satisfy the admissibility inequality
    12 * A0^3 * C0 * delta <= c0, where A0 is the space's declared
    quasi-triangle constant (``declared_A0``), else its measured one.

Cube indices are center point ids, so level-k cube alpha is the set of
points whose level-k assignment equals alpha; per-level arrays indexed by
point id hold the members (as contiguous slices) and the masses. The net
records one ``birth`` array, the level at which each point enters it, and
every level's centers are the points born by then. A cube is "fresh" at
its center's birth level (k_min excluded: the coarsest centers are born
before the window); fresh cubes are the index set carried by coefficient
sequences, and ``CubeSystem.fresh_index``/``is_index`` read them off
``birth``.

Scale bookkeeping: levels whose nominal scale delta^k drops below the
space's resolution floor exist for completeness but are excluded from
trend diagnostics (the "resolved" window).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from homspace.common import DEFAULT_SEED, rng_stream, stable_sum
from homspace.space import ROW_BLOCK, FiniteHomSpace


# Coefficient-sequence windows: every level, or levels k >= 0 only.
VARIANTS = ("homogeneous", "inhomogeneous")


class InadmissibleConstants(ValueError):
    """(delta, c0, C0) violate 12 * A0^3 * C0 * delta <= c0."""


class CubeConstructionError(RuntimeError):
    """A built system failed its own axiom verification (a bug detector)."""


class ScaleOutOfRange(ValueError):
    """Requested radius resolves to a level outside the built window."""


class HypothesisViolated(ValueError):
    """Input cube masses do not satisfy the assumed lower bound."""


def admissibility_gap(delta: float, c0: float, C0: float, a0: float) -> float:
    """c0 - 12*A0^3*C0*delta; admissible iff nonnegative."""
    return c0 - 12.0 * a0**3 * C0 * delta


def _finite_positive(**constants) -> None:
    """ValueError naming the first constant that is not a finite positive number."""
    for name, value in constants.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be a finite positive number, got {value}")


def default_constants(space: FiniteHomSpace, *, c0: float = 1.0, C0: float = 2.0):
    """(delta, c0, C0): delta is the largest power of 1/2 that is admissible
    for the declared (else measured) quasi-triangle constant."""
    _finite_positive(c0=c0, C0=C0)
    a0 = space.resolved_a0()
    _finite_positive(A0=a0)
    # smallest j with 2^-j <= c0 / (12 A0^3 C0)
    bound = c0 / (12.0 * a0**3 * C0)
    j = max(1, int(math.ceil(-math.log2(bound) - 1e-12)))
    return 0.5**j, c0, C0


def default_level_range(space: FiniteHomSpace, delta: float, c0: float, C0: float):
    """Level window [k_min, k_max] with C0*delta^k_min >= diameter and
    c0*delta^k_max <= r_floor (one cube at the top, all points centers at
    the bottom)."""
    diam = space.diameter
    if diam <= 0:
        return (0, 0)
    log_delta = math.log(delta)
    k_min = math.floor(math.log(diam / C0) / log_delta + 1e-9)
    k_max = math.ceil(math.log(space.r_floor / c0) / log_delta - 1e-9)
    return (min(k_min, k_max), max(k_min, k_max))


@dataclass(frozen=True)
class NetSystem:
    """Nested center sets X^k, k_min <= k <= k_max."""

    delta: float
    c0: float
    C0: float
    a0: float
    k_min: int
    k_max: int
    centers: dict                   # level -> sorted ndarray of point ids
    birth: np.ndarray               # (n,) level a point enters the net, k_max + 1 if none

    @property
    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def separation(self, k: int) -> float:
        return self.c0 * self.delta**k

    def covering(self, k: int) -> float:
        return self.C0 * self.delta**k

    def new_centers(self, k: int) -> np.ndarray:
        """X^{k+1} minus X^k, for k in [k_min, k_max - 1]."""
        if not (self.k_min <= k < self.k_max):
            raise KeyError(f"new centers undefined at level {k}")
        return np.flatnonzero(self.birth == k + 1)


def build_nets(space: FiniteHomSpace, delta: float, c0: float, C0: float,
               k_range=None, seed: int = DEFAULT_SEED) -> NetSystem:
    """Greedy nested maximal nets at separations c0*delta^k.

    Candidates are visited in a seed-keyed shuffled order, identical at
    every level, so builds are reproducible. Raises InadmissibleConstants
    when 12*A0^3*C0*delta > c0 for the space's declared, else measured, A0.
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    _finite_positive(c0=c0, C0=C0)
    if c0 > C0:
        raise ValueError("need 0 < c0 <= C0")
    a0 = space.resolved_a0()
    _finite_positive(A0=a0)
    if admissibility_gap(delta, c0, C0, a0) < 0:
        raise InadmissibleConstants(
            f"inadmissible constants: 12*A0^3*C0*delta = "
            f"{12 * a0**3 * C0 * delta:g} > c0 = {c0:g}"
        )
    if k_range is None:
        k_range = default_level_range(space, delta, c0, C0)
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if k_min > k_max:
        raise ValueError("empty level range")
    for k in (k_min, k_max):        # delta^k is monotone: the ends bound every level
        try:
            scales = (c0 * delta**k, C0 * delta**k)
        except OverflowError:
            scales = (math.inf,)
        if not all(0.0 < r < math.inf for r in scales):
            raise ValueError(f"level {k}: the scales c0*delta^k and C0*delta^k must be "
                             "finite positive floats")

    n = space.n
    order = rng_stream(seed, 0xD7).permutation(n)
    dist = space.dist

    birth = np.full(n, k_max + 1)
    min_dist = np.full(n, np.inf)
    for k in range(k_min, k_max + 1):
        sep = c0 * delta**k
        for i in order:
            if min_dist[i] >= sep:      # d(i, i) = 0 keeps a center from rejoining
                birth[i] = k
                np.minimum(min_dist, dist[i], out=min_dist)
    birth.flags.writeable = False

    net = NetSystem(delta=float(delta), c0=float(c0), C0=float(C0), a0=float(a0),
                    k_min=k_min, k_max=k_max, birth=birth,
                    centers={k: np.flatnonzero(birth <= k) for k in range(k_min, k_max + 1)})
    _verify_net(net, space)
    return net


def _verify_net(net: NetSystem, space: FiniteHomSpace) -> None:
    dist = space.dist
    prev = None
    for k in net.levels:
        ids = net.centers[k]
        if ids.size == 0:
            raise CubeConstructionError(f"level {k}: empty net")
        if prev is not None and not np.all(np.isin(prev, ids)):
            raise CubeConstructionError(f"level {k}: net not nested")
        # every row against the centers' columns, ROW_BLOCK rows at a time:
        # each point's distance to the net and, on the centers' own rows with
        # their diagonal entry masked, the least distance between centers
        cover, apart = 0.0, math.inf
        for lo in range(0, space.n, ROW_BLOCK):
            sub = dist[lo:lo + ROW_BLOCK][:, ids]
            cover = max(cover, float(sub.min(axis=1).max()))
            first, last = np.searchsorted(ids, [lo, lo + ROW_BLOCK])
            if first < last:
                rows = ids[first:last] - lo
                sub[rows, np.arange(first, last)] = np.inf
                apart = min(apart, float(sub[rows].min()))
        if apart < net.separation(k) * (1 - 1e-12):
            raise CubeConstructionError(f"level {k}: separation violated")
        if cover >= net.covering(k):
            raise CubeConstructionError(f"level {k}: covering violated")
        prev = ids


@dataclass
class CubeSystem:
    """Partition hierarchy built on a net system.

    assignment[k][x] is the id of the level-k center whose cube holds x.
    order[k] lists the points grouped by cube (ascending within a cube),
    and cube alpha is the slice order[k][bounds[k][alpha]:bounds[k][alpha + 1]];
    cube_mass[k][alpha] is its total weight (0 at non-centers).
    """

    space: FiniteHomSpace
    net: NetSystem
    assignment: dict                # level -> ndarray (n,) of center ids
    order: dict                     # level -> ndarray (n,) of point ids
    bounds: dict                    # level -> ndarray (n + 1,) of offsets into order
    cube_mass: dict                 # level -> ndarray (n,) of masses by center id
    c1: float
    C1: float
    axioms: Optional["AxiomReport"] = None   # set by build_cubes
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def delta(self) -> float:
        return self.net.delta

    @property
    def levels(self) -> range:
        return self.net.levels

    def scale(self, k: int) -> float:
        return self.net.delta**k

    def cubes(self, k: int) -> np.ndarray:
        return self.net.centers[k]

    def members(self, k: int, alpha: int) -> np.ndarray:
        alpha = int(alpha)
        return self.order[k][self.bounds[k][alpha]:self.bounds[k][alpha + 1]]

    def mass(self, k: int, alpha: int) -> float:
        return float(self.cube_mass[k][int(alpha)])

    def children(self, k: int, alpha: int) -> list:
        """Ids of the level-(k+1) cubes contained in cube (k, alpha)."""
        if k >= self.net.k_max:
            return []
        kids = self.net.centers[k + 1]
        return [int(b) for b in kids[self.assignment[k][kids] == int(alpha)]]

    def memo(self, key, build):
        """``build()``, computed once per system and key (tables derived from
        the system: indexes, per-cube constants)."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def fresh_index(self, variant: str = "homogeneous") -> tuple:
        """(level, alpha): read-only arrays of every fresh cube in the
        variant window (the inhomogeneous one keeps k >= 0), by level then
        cube id; built once per system and variant."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")

        def build():
            net = self.net
            low = net.k_min if variant == "homogeneous" else max(net.k_min, -1)
            alpha = np.flatnonzero((net.birth > low) & (net.birth <= net.k_max))
            alpha = alpha[np.argsort(net.birth[alpha], kind="stable")]
            level = net.birth[alpha]
            level.flags.writeable = alpha.flags.writeable = False
            return level, alpha
        return self.memo(("fresh_index", variant), build)

    def index_cubes(self, variant: str = "homogeneous") -> list:
        """``fresh_index(variant)`` as a new list of (k, alpha) pairs."""
        level, alpha = self.fresh_index(variant)
        return list(zip(level.tolist(), alpha.tolist()))

    def is_index(self, k: int, alpha: int) -> bool:
        """Whether (k, alpha) is in the homogeneous fresh index; a level off
        the window or an id off the points is not."""
        net = self.net
        if not (k <= net.k_max and 0 <= alpha < net.birth.size):
            return False
        return bool(net.birth[alpha] == k > net.k_min)

    def implied_constant(self, k: int, alpha, omega: float):
        """mass(Q) / delta^{k * omega}, the constant a uniform embedding forces;
        ``alpha`` is a cube id of level k or an array of them."""
        return self.cube_mass[k][alpha] / self.delta ** (k * omega)

    def fresh_constants(self, omega: float, variant: str) -> tuple:
        """(level, alpha, constant) arrays: ``implied_constant`` of every fresh
        cube in the variant window, by level then cube id; one table per
        (omega, variant)."""
        def build():
            level, alpha = self.fresh_index(variant)
            const = np.zeros(alpha.size)
            for k in np.unique(level).tolist():
                at = level == k
                const[at] = self.implied_constant(k, alpha[at], omega)
            return level, alpha, const
        return self.memo(("fresh_constants", omega, variant), build)

    def resolved_levels(self) -> list:
        """Levels whose nominal scale delta^k stays at or above r_floor."""
        rf = self.space.r_floor
        return [k for k in self.levels if self.scale(k) >= rf * (1 - 1e-12)]

    def point_cube(self, k: int, x: int) -> int:
        return int(self.assignment[k][int(x)])

    def to_dict(self) -> dict:
        return {
            "delta": self.net.delta,
            "c0": self.net.c0,
            "C0": self.net.C0,
            "c1": self.c1,
            "C1": self.C1,
            "levels": [
                {
                    "k": k,
                    "centers": [int(a) for a in self.cubes(k)],
                    "assignment": [int(a) for a in self.assignment[k]],
                }
                for k in self.levels
            ],
        }


def build_cubes(net: NetSystem, space: FiniteHomSpace) -> CubeSystem:
    """Bottom-up nearest-parent cubes on a valid net system.

    Points join their nearest finest-level center; a level-(k+1) center's
    parent is itself when it stays in X^k, else its nearest level-k center,
    and assignment[k] = parent[assignment[k+1]]. Argmin over the sorted ids
    breaks ties toward the lowest id.

    Verifies the partition, nesting, ball-sandwich, and center-containment
    axioms before returning and keeps the report as ``axioms``; any
    violation raises CubeConstructionError with a witness (it indicates a
    construction bug, not bad user input).
    """
    n = space.n
    dist = space.dist
    ids = net.centers[net.k_max]
    finest = np.empty(n, dtype=ids.dtype)
    for lo in range(0, n, ROW_BLOCK):
        finest[lo:lo + ROW_BLOCK] = ids[np.argmin(dist[lo:lo + ROW_BLOCK][:, ids], axis=1)]
    assignment = {net.k_max: finest}
    for k in reversed(range(net.k_min, net.k_max)):
        fine, coarse = net.centers[k + 1], net.centers[k]
        parent = fine.copy()
        new = net.birth[fine] == k + 1
        parent[new] = coarse[np.argmin(dist[np.ix_(fine[new], coarse)], axis=1)]
        assignment[k] = parent[np.searchsorted(fine, assignment[k + 1])]

    order = {k: np.argsort(assignment[k], kind="stable") for k in net.levels}
    bounds = {k: np.concatenate(([0], np.cumsum(np.bincount(assignment[k], minlength=n))))
              for k in net.levels}
    cube_mass = {}
    for k in net.levels:
        # fsum per cube slice, not a weighted bincount: masses stay exact
        weight, cut = space.weight[order[k]].tolist(), bounds[k].tolist()
        cube_mass[k] = np.zeros(n)
        cube_mass[k][net.centers[k]] = [math.fsum(weight[cut[a]:cut[a + 1]])
                                        for a in net.centers[k].tolist()]
    cubes = CubeSystem(space=space, net=net, assignment=assignment, order=order,
                       bounds=bounds, cube_mass=cube_mass,
                       c1=net.c0 / (3.0 * net.a0**2), C1=2.0 * net.a0 * net.C0)
    cubes.axioms = verify_cube_axioms(cubes)
    if not cubes.axioms.ok:
        raise CubeConstructionError(f"cube axioms violated: {cubes.axioms.violations[0]}")
    return cubes


@dataclass
class AxiomReport:
    ok: bool
    violations: list = field(default_factory=list)


def verify_cube_axioms(cubes: CubeSystem) -> AxiomReport:
    """Exhaustive re-check of the four finite-space cube axioms.

    partition   every level covers all points with disjoint, nonempty
                cubes whose masses sum to the total mass (1e-12 relative);
    nesting     for l >= k every level-l cube meets exactly one level-k cube;
    sandwich    B(z, c1*d^k) inside the cube inside B(z, C1*d^k);
    containment B(z_desc, C1*d^l) inside B(z_anc, C1*d^k) along ancestry.

    A cube's members are its slice of ``order[k]``. Violations come by
    axiom, then level (pair), then center id; a witness point is the lowest
    id. The open/closed interior-closure distinction is vacuous on a finite
    point set, so it is not checked.
    """
    space = cubes.space
    net = cubes.net
    n = space.n
    levels = list(net.levels)
    violations = []

    for k in levels:
        ids = net.centers[k]
        assign = cubes.assignment[k]
        if not np.all(np.isin(assign, ids)):
            violations.append({"axiom": "partition", "level": k,
                               "detail": "assignment to a non-center"})
        total = stable_sum(cubes.cube_mass[k][ids])
        if abs(total - space.total_mass) > 1e-12 * max(1.0, abs(space.total_mass)):
            violations.append({"axiom": "partition", "level": k,
                               "detail": f"mass sum {total!r} != total {space.total_mass!r}"})
        empty = np.diff(cubes.bounds[k])[ids] <= 0
        bad = empty | (assign[ids] != ids)
        for alpha, hollow in zip(ids[bad].tolist(), empty[bad].tolist()):
            violations.append({"axiom": "partition", "level": k, "cube": alpha,
                               "detail": "empty cube" if hollow
                               else "center assigned outside its own cube"})

    for i, k in enumerate(levels):
        for ell in levels[i + 1:]:
            coarse = cubes.assignment[k]
            fine = cubes.assignment[ell]
            order = np.argsort(fine, kind="stable")
            f_sorted = fine[order]
            c_sorted = coarse[order]
            same_cube = f_sorted[1:] == f_sorted[:-1]
            split = same_cube & (c_sorted[1:] != c_sorted[:-1])
            if np.any(split):
                j = int(np.flatnonzero(split)[0])
                violations.append({
                    "axiom": "nesting", "levels": [k, ell],
                    "cube": int(f_sorted[j]),
                    "detail": f"level-{ell} cube meets two level-{k} cubes "
                              f"({int(c_sorted[j])}, {int(c_sorted[j + 1])})",
                })

    # one pass per level over the rows of its centers, ROW_BLOCK at a time:
    # the sandwich at that level (a point is a member of the cube whose slice
    # of order[ell] holds it), and center containment under each coarser
    # level k, against the rows of the level-k ancestors
    containment = {(k, ell): [] for i, k in enumerate(levels) for ell in levels[i + 1:]}
    for i, ell in enumerate(levels):
        r_in = cubes.c1 * net.delta**ell
        r_out = cubes.C1 * net.delta**ell
        ids = net.centers[ell]
        order, bounds = cubes.order[ell], cubes.bounds[ell]
        holder = np.searchsorted(bounds, np.arange(order.size), side="right") - 1
        row_of = np.full(n + 2, -1)         # holders run from -1 to n
        row_of[ids] = np.arange(ids.size)
        for lo in range(0, ids.size, ROW_BLOCK):
            block = ids[lo:lo + ROW_BLOCK]
            span = slice(bounds[block[0]], bounds[block[-1] + 1])
            rows = row_of[holder[span]]
            held = rows >= 0
            member = np.zeros((block.size, n), dtype=bool)
            member[rows[held] - lo, order[span][held]] = True
            d = space.dist[block]
            ball = d < r_out                # also the fine center ball of containment
            inner = (d < r_in) & ~member
            outer = member & ~ball
            has_in, has_out = inner.any(axis=1), outer.any(axis=1)
            for r in np.flatnonzero(has_in | has_out).tolist():
                alpha = int(block[r])
                if has_in[r]:
                    violations.append({"axiom": "sandwich", "level": ell, "cube": alpha,
                                       "detail": f"inner-ball point {int(inner[r].argmax())} "
                                                 "outside the cube"})
                if has_out[r]:
                    violations.append({"axiom": "sandwich", "level": ell, "cube": alpha,
                                       "detail": f"member {int(outer[r].argmax())} "
                                                 "outside the outer ball"})
            for k in levels[:i]:
                anc = cubes.assignment[k][block]
                up, row = np.unique(anc, return_inverse=True)
                escape = ball & (space.dist[up] >= cubes.C1 * net.delta**k)[row]
                for r in np.flatnonzero(escape.any(axis=1)).tolist():
                    containment[k, ell].append({
                        "axiom": "center-containment", "levels": [k, ell],
                        "cubes": [int(anc[r]), int(block[r])],
                        "detail": f"point {int(escape[r].argmax())} in the fine center ball "
                                  "escapes the coarse one",
                    })
    violations += [v for pair in containment.values() for v in pair]

    return AxiomReport(ok=not violations, violations=violations)


@dataclass
class ChainReport:
    max_chain_len: int
    bound_N: int
    ok: bool
    branching: dict                  # level -> {alpha: child count}
    witnesses: list = field(default_factory=list)
    atomic_note: Optional[str] = None


def chain_length_bound(delta: float, c1: float, C1: float) -> int:
    """floor(log_{1/delta}(C1 / c1)) + 1."""
    return int(math.floor(math.log(C1 / c1) / math.log(1.0 / delta) + 1e-9)) + 1


def max_single_child_chain(cubes: CubeSystem) -> ChainReport:
    """Longest run of levels over which a multi-point cube has exactly one
    child (which then equals the cube itself).

    Single-point cubes repeat forever on finite data, so their runs are
    excluded from the bound and reported through ``atomic_note``. ``ok``
    asserts max_chain_len <= bound_N.
    """
    net = cubes.net
    n = cubes.space.n
    sizes = {k: np.diff(cubes.bounds[k])[net.centers[k]] for k in net.levels}
    all_singleton = all(np.all(size == 1) for size in sizes.values())
    bound = chain_length_bound(net.delta, cubes.c1, cubes.C1)
    if net.k_max - net.k_min < 1:
        return ChainReport(
            max_chain_len=0, bound_N=bound, ok=True, branching={},
            atomic_note=("atomic space: every cube is a single point; "
                         "chain bound not applicable") if all_singleton else None,
        )

    kids = {k: np.bincount(cubes.assignment[k][net.centers[k + 1]], minlength=n)[net.centers[k]]
            for k in range(net.k_min, net.k_max)}
    branching = {k: dict(zip(net.centers[k].tolist(), kids[k].tolist())) for k in kids}

    # run[alpha]: the run of cube (k, alpha), levels finest first; a lone
    # child is the cube itself, so its center persists to level k + 1
    run = np.zeros(n, dtype=int)
    best = 0
    atomic_best = 0
    witnesses = []
    for k in reversed(net.levels):
        ids = net.centers[k]
        if k < net.k_max:
            run[ids] = np.where(kids[k] == 1, run[ids] + 1, 0)
        multi = sizes[k] > 1
        length = run[ids]
        atomic_best = max(atomic_best, int(length[~multi].max(initial=0)))
        top = int(length[multi].max(initial=0))
        if top > best:
            best, witnesses = top, []
        if top == best > 0:
            tied = ids[multi][length[multi] == best][:5 - len(witnesses)]
            witnesses += [{"level": k, "cube": alpha, "length": best} for alpha in tied.tolist()]

    note = None
    if atomic_best > bound:
        note = ("atomic cubes present: single-point chains exceed the bound, "
                "which does not apply below the resolution floor")
    elif all_singleton:
        note = "atomic space: every cube is a single point; chain bound not applicable"
    return ChainReport(
        max_chain_len=best,
        bound_N=bound,
        ok=best <= bound,
        branching=branching,
        witnesses=witnesses,
        atomic_note=note,
    )


@dataclass
class PropagationReport:
    verdict: str
    c_input: float
    c_tilde: float
    m_min: Optional[int]
    bound_N: int
    omega: float
    variant: str
    witness: Optional[dict] = None
    notes: list = field(default_factory=list)


def propagate_cube_lower_bound(cubes: CubeSystem, C: float, omega: float,
                               variant: str = "homogeneous") -> PropagationReport:
    """Propagate mass(Q) >= C*delta^{k*omega} from fresh cubes to all cubes.

    The hypothesis is verified on the fresh cubes of the ``variant`` window
    (``fresh_index``: every level, or levels k >= 0 only); a violation
    raises HypothesisViolated with the offending cube. The constructive
    constant is

        C_tilde = C * (M_min - 1) * delta^{(N+1)*omega},

    where N is the single-child chain bound and M_min >= 2 the smallest
    branching count reached at the end of each maximal single-child chain.
    The conclusion mass(Q) >= C_tilde*delta^{k*omega} is then checked on
    every cube of the window.
    """
    net = cubes.net
    if C < 0:
        raise ValueError("C must be nonnegative")

    slack = 1.0 - 1e-12
    level, ids = cubes.fresh_index(variant)
    for k, alpha in zip(level.tolist(), ids.tolist()):
        need = C * net.delta ** (k * omega)
        if cubes.mass(k, alpha) < need * slack:
            raise HypothesisViolated(
                f"hypothesis violated: fresh cube (k={k}, alpha={alpha}) has "
                f"mass {cubes.mass(k, alpha):g} < {need:g}"
            )

    chain = max_single_child_chain(cubes)
    m_end = [m for per in chain.branching.values() for m in per.values() if m >= 2]
    if not m_end:
        # single chain down the whole window: nothing ever branches
        return PropagationReport(
            verdict="NOT_APPLICABLE", c_input=C, c_tilde=0.0, m_min=None,
            bound_N=chain.bound_N, omega=omega, variant=variant,
            notes=["no branching cube in the window (atomic-like system)"],
        )
    m_min = min(m_end)
    c_tilde = C * (m_min - 1) * net.delta ** ((chain.bound_N + 1) * omega)

    witness = None
    verdict = "PASS"
    for k in net.levels:
        for alpha in net.centers[k]:
            need = c_tilde * net.delta ** (k * omega)
            if cubes.mass(k, alpha) < need * slack:
                verdict = "FAIL"
                witness = {"level": k, "cube": int(alpha),
                           "mass": cubes.mass(k, alpha), "required": need}
                break
        if witness:
            break
    return PropagationReport(
        verdict=verdict, c_input=C, c_tilde=c_tilde, m_min=m_min,
        bound_N=chain.bound_N, omega=omega, variant=variant,
        witness=witness,
    )


@dataclass
class BallBoundReport:
    verdict: str
    certified: float
    actual: float
    level: int
    alpha_shrink: float
    n_cubes: int
    cube_sum_bound: float
    containment_ok: bool
    witness: Optional[dict] = None


def shrink_factor(delta: float) -> float:
    """alpha = (1 + 2/delta)^(-1), the ball-shrink used to pick the level."""
    return 1.0 / (1.0 + 2.0 / delta)


def ball_lower_bound_from_cubes(cubes: CubeSystem, space: FiniteHomSpace,
                                x: int, r: float, C: float, omega: float) -> BallBoundReport:
    """Certify mu(B(x,r)) >= C * (alpha/C1)^omega * r^omega from cube masses.

    Picks the level k with C1*delta^(k+1) <= alpha*r < C1*delta^k, collects
    the level-k cubes meeting the shrunken ball B(x, alpha*r), checks each
    is contained in B(x, r), and compares the certified value against the
    actual ball mass. Requires mass(Q) >= C*delta^{k*omega} on that level.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if r < space.r_floor:
        raise ScaleOutOfRange(
            f"scale out of range: r = {r:g} below the resolution floor {space.r_floor:g}"
        )
    net = cubes.net
    alpha_shrink = shrink_factor(net.delta)
    t = alpha_shrink * r / cubes.C1
    level = math.ceil(math.log(t) / math.log(net.delta) - 1e-9) - 1
    if not (net.k_min <= level <= net.k_max):
        raise ScaleOutOfRange(
            f"scale out of range: r = {r:g} resolves to level {level}, "
            f"window is [{net.k_min}, {net.k_max}]"
        )

    slack = 1.0 - 1e-12
    for beta in cubes.cubes(level):
        need = C * net.delta ** (level * omega)
        if cubes.mass(level, beta) < need * slack:
            raise HypothesisViolated(
                f"hypothesis violated: cube (k={level}, alpha={int(beta)}) has mass "
                f"{cubes.mass(level, beta):g} < {need:g}"
            )

    row = space.dist[int(x)]
    small = row < alpha_shrink * r
    big = row < r
    meeting = [int(b) for b in cubes.cubes(level)
               if np.any(small[cubes.members(level, b)])]
    containment_ok = True
    witness = None
    for beta in meeting:
        members = cubes.members(level, beta)
        escaped = members[~big[members]]
        if escaped.size:
            containment_ok = False
            witness = {"cube": beta, "point": int(escaped[0])}
            break

    certified = C * (alpha_shrink / cubes.C1) ** omega * r**omega
    cube_sum = len(meeting) * C * net.delta ** (level * omega)
    actual = float(space.ball_mass([x], [r])[0, 0])
    verdict = "PASS" if containment_ok and certified <= actual * (1 + 1e-12) else "FAIL"
    return BallBoundReport(
        verdict=verdict,
        certified=certified,
        actual=actual,
        level=level,
        alpha_shrink=alpha_shrink,
        n_cubes=len(meeting),
        cube_sum_bound=cube_sum,
        containment_ok=containment_ok,
        witness=witness,
    )
