"""
Embedding diagnostics: when does  ||.||_{target} <= C ||.||_{source}  hold
uniformly over coefficient sequences on a cube system?

Both directions of the characterization are exercised:

  necessity    a one-coefficient sequence at cube (k0, a0) has closed-form
               norms delta^{-k0 s} mass^{1/p - 1/2} on both sides, so a
               uniform embedding constant forces the per-cube constants
               c(k0, a0) = mass / delta^{k0 omega} to stay bounded below.
               On finite data the verdict is a trend statement: a cube
               ancestry chain whose fitted mass exponent strays from omega
               by more than EXPONENT_TOL while its constants decay by a
               factor 1/DECAY_FRAC declares failure (both fixed in
               ``common``).

  sufficiency  a seeded batch of sequences (deltas, single-level,
               multi-level, and mass-concentrated adversarial draws) scans
               the ratio target/source. For Besov pairs the scan also pins
               the constructive constant c_min^{1/p1 - 1/p2} coming from
               the minimal cube constant: when the lower bound holds, no
               ratio may exceed it.

``characterize`` runs the measure lower-bound check, the necessity scan,
and the ratio scan, and asserts their verdicts agree.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from homspace.common import (
    BLOCK_ELEMENTS,
    DEFAULT_SEED,
    ETA,
    fit_loglog,
    reciprocal,
    rng_stream,
    trend_flags,
)
from homspace.dyadic import CubeSystem
from homspace.seqnorm import NormParams, SequenceBatch, batch_norms
from homspace.space import (
    FiniteHomSpace,
    LowerBoundReport,
    check_local_lower_bound,
    check_lower_bound,
    lower_bound_window,
)

TRACE_TOL = 1e-9


@dataclass(frozen=True)
class EmbedParams:
    """Source/target norm parameters tied to the trace line
    s1 - omega/p1 = s2 - omega/p2 (within 1e-9), s1 <= s2.

    Besov pairs share q; Triebel-Lizorkin pairs may differ in q but need
    finite p on both sides and |s_i - omega/p_i| < ``common.ETA``, the
    regularity budget of the kernel model.
    """

    source: NormParams          # (s2, p2, q2)
    target: NormParams          # (s1, p1, q1)
    omega: float

    def __post_init__(self):
        src, tgt = self.source, self.target
        if math.isnan(self.omega):
            raise ValueError("omega must be a number, got nan")
        if src.family != tgt.family:
            raise ValueError("source and target families must match")
        if src.variant != tgt.variant:
            raise ValueError("source and target variants must match")
        if tgt.s > src.s:
            raise ValueError("target smoothness s1 must not exceed source s2")
        lhs = tgt.s - _ratio(self.omega, tgt.p)
        rhs = src.s - _ratio(self.omega, src.p)
        if not abs(lhs - rhs) <= TRACE_TOL:         # NaN fails it too
            raise ValueError(
                f"trace-line constraint violated: s1 - omega/p1 = {lhs!r} "
                f"differs from s2 - omega/p2 = {rhs!r}"
            )
        if src.family == "besov" and abs(src.q - tgt.q) > 1e-12 \
                and not (math.isinf(src.q) and math.isinf(tgt.q)):
            raise ValueError("besov embeddings share a single q")
        if src.family == "triebel_lizorkin":
            for params in (src, tgt):
                if abs(params.s - _ratio(self.omega, params.p)) >= ETA:
                    raise ValueError(f"triebel_lizorkin pairs need |s - omega/p| < ETA = {ETA}")

    @property
    def family(self) -> str:
        return self.source.family

    @property
    def variant(self) -> str:
        return self.source.variant


def _ratio(omega: float, p: float) -> float:
    return 0.0 if math.isinf(p) else omega / p


# ---------------------------------------------------------------------------
# Necessity: delta sequences force per-cube constants
# ---------------------------------------------------------------------------

@dataclass
class NecessityReport:
    verdict: str                     # "PASS" | "FAIL" | "VACUOUS"
    witness: Optional[dict]          # the least-constant fresh cube
    per_level_min: dict
    worst_chain: Optional[dict]
    constants: dict                  # "k:alpha" -> constant
    resolved_levels: list
    notes: list = field(default_factory=list)


def delta_necessity_test(cubes: CubeSystem, params: EmbedParams) -> NecessityReport:
    """Closed-form delta-sequence scan over every fresh cube in the variant
    window, with an ancestry-chain trend verdict.

    Chains walk each finest resolved cube up to the window root; a chain
    fails when its fitted mass exponent deviates from omega by more than
    EXPONENT_TOL AND its constants decay by 1/DECAY_FRAC between extremes
    (``common.trend_flags``). With p1 = p2 the embedding is an identity and
    the scan is vacuous.
    """
    if abs(reciprocal(params.target.p) - reciprocal(params.source.p)) < 1e-15:
        return NecessityReport(
            verdict="VACUOUS", witness=None, per_level_min={},
            worst_chain=None, constants={}, resolved_levels=[],
            notes=["p1 = p2 forces s1 = s2 on the trace line: identity embedding"],
        )

    omega = params.omega
    resolved = [k for k in cubes.resolved_levels()
                if params.variant == "homogeneous" or k >= 0]
    levels, cube_ids, const = cubes.fresh_constants(omega, params.variant)
    if not const.size:
        return NecessityReport(
            verdict="VACUOUS", witness=None, per_level_min={},
            worst_chain=None, constants={}, resolved_levels=resolved,
            notes=["no fresh cubes in the variant window"],
        )
    constants = {f"{k}:{a}": c
                 for k, a, c in zip(levels.tolist(), cube_ids.tolist(), const.tolist())}
    first = np.flatnonzero(np.r_[True, levels[1:] != levels[:-1]])
    per_level_min = dict(zip(levels[first].tolist(),
                             np.minimum.reduceat(const, first).tolist()))
    at_min = int(np.argmin(const))
    witness = {"level": int(levels[at_min]), "cube": int(cube_ids[at_min]),
               "constant": float(const[at_min])}

    # ancestry-chain trend over resolved levels (all cubes, not only fresh:
    # the chain tracks one spatial location across scales); one row per
    # finest resolved cube, its ancestors finest first
    worst_chain = None
    failing = False
    if len(resolved) >= 2:
        chain_levels = resolved[::-1]
        leaves = cubes.cubes(chain_levels[0])
        ancestors = [cubes.assignment[k][leaves] for k in chain_levels]
        masses = np.stack([cubes.cube_mass[k][a] for k, a in zip(chain_levels, ancestors)], axis=1)
        consts = np.stack([cubes.implied_constant(k, a, omega)
                           for k, a in zip(chain_levels, ancestors)], axis=1)
        scales = [cubes.scale(k) for k in chain_levels]
        span, _, flagged = trend_flags(scales, masses, consts, omega)
        worst = int(np.argmin(span))
        fit = fit_loglog(scales, masses[worst])
        worst_chain = {
            "leaf": int(leaves[worst]),
            "levels": chain_levels,
            "constants": consts[worst].tolist(),
            "exponent": fit[0] if fit else None,
            "span": float(span[worst]),
            "flagged": bool(flagged[worst]),
        }
        failing = bool(flagged.any())

    return NecessityReport(
        verdict="FAIL" if failing else "PASS",
        witness=witness,
        per_level_min=per_level_min,
        worst_chain=worst_chain,
        constants=constants,
        resolved_levels=resolved,
    )


# ---------------------------------------------------------------------------
# Sufficiency: ratio scans over sequence batches
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    sup_ratio: float
    witness_id: Optional[str]
    n_sequences: int
    n_nonzero: int
    proof_constant: Optional[float]
    c_min: Optional[float]
    witnesses: list = field(default_factory=list)   # ratios above the constant
    verdict: str = "OK"
    exploratory: bool = False


# A level of more than REDRAW_FACTOR * k cubes draws k integers per row and
# redraws the rows that hold a repeat; a smaller one ranks a row of random
# keys, whose table costs rows x level size.
REDRAW_FACTOR = 8
DRAW_MODES = ("single-level", "multi-level", "adversarial")


def _distinct_positions(rng, rows: int, size: int, k: int) -> np.ndarray:
    """(rows, k) positions in range(size), distinct within each row and
    uniform over the k-subsets; every position, in order, when size <= k."""
    if size <= k:
        return np.broadcast_to(np.arange(size), (rows, size))
    if size > REDRAW_FACTOR * k:
        pos = rng.integers(size, size=(rows, k))
        redo = np.arange(rows)
        while True:
            ranked = np.sort(pos[redo], axis=1)
            redo = redo[(ranked[:, 1:] == ranked[:, :-1]).any(axis=1)]
            if not redo.size:
                return pos
            pos[redo] = rng.integers(size, size=(redo.size, k))
    block = max(1, BLOCK_ELEMENTS // size)
    pos = np.empty((rows, k), dtype=np.intp)
    for first in range(0, rows, block):
        keys = rng.random((min(block, rows - first), size))
        pos[first:first + block] = np.argpartition(keys, k - 1, axis=1)[:, :k]
    return pos


def generate_batch(cubes: CubeSystem, variant: str, n_sequences: int,
                   seed: int) -> SequenceBatch:
    """Deterministic scan batch of ``n_sequences`` sequences (at least every
    delta) on the fresh cubes of the variant window.

    Every fresh-cube delta comes first, labelled ``delta:k:alpha``. Draw i
    then follows, labelled ``<mode>:i``, with mode i % 3:

      single-level  min(6, size) distinct cubes of one level picked
                    uniformly, standard normal values;
      multi-level   min(3, size) distinct cubes of every level, standard
                    normal values;
      adversarial   the smallest-mass cube of every level (the first by id),
                    values |N(0, 1)| + 0.5.

    Each mode is drawn for all of its sequences at once from one stream:
    the single-level level picks (one ``integers`` call), then the cubes
    level by level, then the values (one ``standard_normal`` call per mode).
    Distinct cubes are the k least of a row of random keys, ``BLOCK_ELEMENTS``
    keys at a time; a level of more than ``REDRAW_FACTOR * k`` cubes draws k
    integers per row instead and redraws the rows that hold a repeat.
    """
    fresh_level, fresh_alpha = cubes.fresh_index(variant)
    n_fresh = fresh_alpha.size
    n_draws = max(0, n_sequences - n_fresh) if n_fresh else 0
    counts = np.ones(n_fresh + n_draws, dtype=int)
    draws = []                      # (mode, positions padded with n_fresh, values)
    if n_draws:
        rng = rng_stream(seed, 0xBA7C4)
        start = np.flatnonzero(np.r_[True, fresh_level[1:] != fresh_level[:-1]])
        size = np.diff(np.r_[start, n_fresh])
        rows = [len(range(mode, n_draws, 3)) for mode in range(3)]

        width = np.minimum(size, 6)
        pick = rng.integers(size.size, size=rows[0])
        single = np.full((rows[0], 6), n_fresh)
        for j in np.unique(pick).tolist():
            at = np.flatnonzero(pick == j)
            single[at, :width[j]] = start[j] + _distinct_positions(rng, at.size, size[j], width[j])
        draws.append((0, single, rng.standard_normal(int(width[pick].sum()))))

        multi = np.concatenate([start[j] + _distinct_positions(rng, rows[1], size[j], min(3, size[j]))
                                for j in range(size.size)], axis=1)
        draws.append((1, multi, rng.standard_normal(multi.size)))

        smallest = np.array([s + np.argmin(cubes.cube_mass[k][fresh_alpha[s:s + z]])
                             for s, z, k in zip(start, size, fresh_level[start].tolist())])
        draws.append((2, np.broadcast_to(smallest, (rows[2], size.size)),
                      np.abs(rng.standard_normal(rows[2] * size.size)) + 0.5))
        for mode, take, _ in draws:
            counts[n_fresh + mode::3] = (take < n_fresh).sum(axis=1)

    offsets = np.concatenate(([0], np.cumsum(counts)))
    pos = np.arange(offsets[-1])         # the deltas hold positions 0..n_fresh-1
    value = np.ones(offsets[-1])
    for mode, take, val in draws:
        take = np.sort(take, axis=1)     # the padding sorts last
        keep = take < n_fresh
        dest = offsets[n_fresh + mode:-1:3, None] + np.arange(take.shape[1])
        pos[dest[keep]] = take[keep]
        value[dest[keep]] = val
    labels = [f"delta:{k}:{a}" for k, a in zip(fresh_level.tolist(), fresh_alpha.tolist())]
    labels += [f"{DRAW_MODES[i % 3]}:{i}" for i in range(n_draws)]
    # the fresh index is sorted by (k, alpha), so sorted positions sort keys
    return SequenceBatch(system=cubes, labels=labels, offsets=offsets,
                         level=fresh_level[pos], alpha=fresh_alpha[pos], value=value)


def proof_constant_besov(cubes: CubeSystem, params: EmbedParams) -> tuple:
    """(c_min, constant): c_min is the minimal fresh-cube constant in the
    window; the explicit Besov chain gives target <= c_min^{1/p1 - 1/p2} * source
    (the exponent is <= 0, so a smaller c_min weakens the bound)."""
    const = cubes.fresh_constants(params.omega, params.variant)[2]
    if not const.size:
        return None, None
    c_min = float(const.min())
    expo = reciprocal(params.target.p) - reciprocal(params.source.p)
    return c_min, float(c_min**expo)


def _ratios(batch: SequenceBatch, params: EmbedParams) -> tuple:
    """(positions, ratios): the target/source norm ratio of every sequence
    but the zero ones, whose 0/0 is neutral, with their batch positions. A
    vanishing source with a nonzero target is impossible (the supports
    coincide) and is asserted."""
    src = batch_norms(batch, params.source)
    tgt = batch_norms(batch, params.target)
    vanished = np.flatnonzero((src == 0.0) & (tgt != 0.0))
    if vanished.size:
        raise AssertionError(
            f"source norm vanished with target norm {float(tgt[vanished[0]])!r}; "
            "impossible since the supports coincide"
        )
    nonzero = np.flatnonzero((src != 0.0) | (tgt != 0.0))
    return nonzero, tgt[nonzero] / src[nonzero]


def embedding_ratio_scan(cubes: CubeSystem, params: EmbedParams, *,
                         n_sequences: int = 256, seed: int = DEFAULT_SEED,
                         lower_bound_holds: Optional[bool] = None) -> ScanReport:
    """Scan target/source ratios over the seeded batch of ``generate_batch``."""
    return scan_batch(generate_batch(cubes, params.variant, n_sequences, seed), params,
                      lower_bound_holds=lower_bound_holds)


def scan_batch(batch: SequenceBatch, params: EmbedParams, *,
               lower_bound_holds: Optional[bool] = None) -> ScanReport:
    """Scan target/source ratios over a batch.

    Zero sequences are skipped as neutral. The witness is the first
    sequence, in batch order, of the largest ratio. For Besov pairs, when
    the lower bound holds every ratio must stay below the constructive
    constant; each ratio above it is a witness, with its sequence id, in
    batch order.
    """
    nonzero, ratios = _ratios(batch, params)
    sup_ratio = 0.0
    witness_id = None
    above = ratios > 0.0        # NaN compares False, as it never wins a running max
    if above.any():
        sup_ratio = float(ratios[above].max())
        witness_id = batch.labels[nonzero[np.flatnonzero(ratios == sup_ratio)[0]]]

    c_min = None
    proof_c = None
    witnesses = []
    verdict = "OK"
    exploratory = False
    if params.family == "besov":
        c_min, proof_c = proof_constant_besov(batch.system, params)
        if lower_bound_holds is False:
            exploratory = True
        elif proof_c is not None:
            for j in np.flatnonzero(ratios > proof_c * (1 + 1e-9)).tolist():
                witnesses.append({"id": batch.labels[nonzero[j]], "ratio": float(ratios[j]),
                                  "bound": proof_c})
            if witnesses:
                verdict = "BOUND_VIOLATED"
    else:
        exploratory = True

    return ScanReport(
        sup_ratio=sup_ratio,
        witness_id=witness_id,
        n_sequences=len(batch),
        n_nonzero=int(nonzero.size),
        proof_constant=proof_c,
        c_min=c_min,
        witnesses=witnesses,
        verdict=verdict,
        exploratory=exploratory,
    )


# ---------------------------------------------------------------------------
# The full characterization loop
# ---------------------------------------------------------------------------

@dataclass
class CharacterizationReport:
    verdict: str                         # PASS | FAIL | DISCREPANCY | NOT_APPLICABLE
    lower_bound: Optional[LowerBoundReport]
    necessity: Optional[NecessityReport]
    scan: Optional[ScanReport]
    notes: list = field(default_factory=list)


def characterize(space: FiniteHomSpace, cubes: CubeSystem, params: EmbedParams, *,
                 n_sequences: int = 256, seed: int = DEFAULT_SEED) -> CharacterizationReport:
    """Run the lower-bound check, the delta-sequence necessity scan, and
    the ratio scan, and assert the three agree.

    Homogeneous pairs check the bound over the full radius window,
    inhomogeneous ones over r <= 1. Disagreement yields DISCREPANCY with
    all three sub-reports attached (a scale-resolution artifact worth
    inspecting, not silently resolved).
    """
    if space.n == 1:
        return CharacterizationReport(
            verdict="NOT_APPLICABLE", lower_bound=None, necessity=None, scan=None,
            notes=["atomic space: the point carries positive mass, the "
                   "vanishing-point-mass hypothesis fails, no verdict"],
        )
    omega = params.omega
    if params.variant == "inhomogeneous":
        lb = check_local_lower_bound(space, omega)
    else:
        lb = check_lower_bound(space, omega, *lower_bound_window(space))
    necessity = delta_necessity_test(cubes, params)
    scan = embedding_ratio_scan(cubes, params, n_sequences=n_sequences, seed=seed,
                                lower_bound_holds=(lb.verdict == "PASS"))

    notes = []
    if necessity.verdict == "VACUOUS":
        notes.append("necessity scan vacuous (identity embedding); verdict from the lower bound")
        agreed = lb.verdict
    elif lb.verdict == necessity.verdict:
        agreed = lb.verdict
    else:
        agreed = None
        notes.append(
            f"lower bound says {lb.verdict} but delta necessity says {necessity.verdict}"
        )
    if agreed == "PASS" and scan.verdict == "BOUND_VIOLATED":
        agreed = None
        notes.append("ratio scan exceeded the constructive constant on a "
                     "lower-bound-passing space")
    return CharacterizationReport(
        verdict=agreed if agreed else "DISCREPANCY",
        lower_bound=lb,
        necessity=necessity,
        scan=scan,
        notes=notes,
    )
