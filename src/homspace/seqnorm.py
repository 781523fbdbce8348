"""
Sequence-space norms over dyadic cube systems.

A coefficient sequence assigns a real number to finitely many cubes
(k, alpha); its Besov-style norm aggregates mass-weighted coefficients in
l^p over cubes within a level and l^q across levels,

    { sum_k d^{-ksq} [ sum_a ( m(Q)^{1/p - 1/2} |lam| )^p ]^{q/p} }^{1/q},

while the Triebel-Lizorkin-style norm forms the pointwise l^q aggregate

    g(x) = { sum_{k,a} d^{-ksq} ( m(Q)^{-1/2} |lam| 1_Q(x) )^q }^{1/q}

and takes its L^p integral over the space (exact on finite data: g is
constant on cells). p = inf or q = inf replace the corresponding sum by a
sup; empty aggregates evaluate to 0; the inhomogeneous variant keeps
levels k >= 0 (a flag controls whether k = 0 itself counts, default yes).

Every norm goes through one kernel, ``batch_norms``, which scores a whole
``SequenceBatch``: sequence i owns the entries offsets[i]:offsets[i + 1]
of the flat arrays level, alpha and value, sorted by (k, alpha) as
``CoefSequence`` sorts them. ``besov_norm``, ``triebel_lizorkin_norm`` and
``weighted_rn_norm`` are one-sequence calls of it. Zero coefficients and
levels outside the variant window are dropped first. The Besov norm is
then an l^p over each (sequence, level) segment and an l^q over each
sequence. The Triebel-Lizorkin norm scatter-adds each entry's term onto
its cube's members, the slice order[k][bounds[k][alpha]:bounds[k][alpha + 1]],
and takes a weighted L^p per sequence; sequences go through a dense
sequence x point accumulator BLOCK_ELEMENTS entries at a time.

The kernel gives the same bits as a one-sequence-at-a-time evaluation
because it keeps these rules:

  * scalar powers: the per-cube factors m^(1/p - 1/2) and m^(-1/2), the
    per-level factors d^(-ks) and d^(-ksq), the per-entry
    Triebel-Lizorkin term d^(-ksq) (m^(-1/2) |lam|)^q, and every final
    (sum)^(1/p) use Python's scalar ``**``;
  * array powers: |t|^p, |t|^q, acc^(1/q) and g^p use numpy's ``**`` on
    whole arrays, whose elementwise result does not depend on the length
    of the array (Python's ``**`` differs from it by an ulp on some
    values, so the two are never mixed on one quantity);
  * sums are ``math.fsum`` per segment (correctly rounded, so the order of
    the terms does not matter); p = inf and q = inf are segment maxima;
  * the scatter is ``np.bincount``, which adds in input order, entry after
    entry, as a sequential ``acc[members] += term`` does.

layer_cake_tl_norm recomputes the same L^p integral through the
distribution function of g: since g takes finitely many values the
integral is an exact sum over sorted level sets, giving an independent
cross-check of the direct computation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from homspace.common import BLOCK_ELEMENTS, finite_number, reciprocal, stable_sum
from homspace.dyadic import VARIANTS, CubeSystem
from homspace.gallery import RnDyadicGrid

FAMILIES = ("besov", "triebel_lizorkin")


@dataclass(frozen=True)
class NormParams:
    """Norm parametrization: smoothness s, integrability p, summability q,
    the scale base delta of the backing system, and the variant window."""

    s: float
    p: float
    q: float
    delta: float
    omega: Optional[float] = None
    variant: str = "homogeneous"
    family: str = "besov"
    include_zero_level: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if math.isnan(self.s):
            raise ValueError("s must be a number, got nan")
        if self.omega is not None and math.isnan(self.omega):
            raise ValueError("omega must be a number, got nan")
        if not (self.p > 0):
            raise ValueError("p must be positive")
        if not (self.q > 0):
            raise ValueError("q must be positive")
        if self.family == "triebel_lizorkin" and math.isinf(self.p):
            raise ValueError("triebel_lizorkin requires p < inf")
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")

    def level_in_window(self, k):
        """Whether level k counts; k may be an array of levels."""
        if self.variant == "homogeneous":
            return True
        return k >= (0 if self.include_zero_level else 1)


@dataclass
class CoefSequence:
    """Finitely supported map (level k, cube alpha) -> coefficient.

    Indices must be fresh cubes of the backing system (``is_index``: the
    cube at the level where its center enters the net, the wavelet index
    set).
    """

    system: CubeSystem
    entries: dict

    def __post_init__(self):
        clean = {}
        for key, value in self.entries.items():
            k, alpha = int(key[0]), int(key[1])
            if not self.system.is_index(k, alpha):
                raise ValueError(
                    f"index (k={k}, alpha={alpha}) is not a fresh cube of the backing system")
            clean[(k, alpha)] = float(value)
        self.entries = dict(sorted(clean.items()))

    def support(self):
        return list(self.entries.keys())

    def scaled(self, c: float) -> "CoefSequence":
        return CoefSequence(
            system=self.system,
            entries={key: c * value for key, value in self.entries.items()},
        )


@dataclass(frozen=True)
class SequenceBatch:
    """Coefficient sequences on one cube system as flat arrays.

    Sequence i is labelled labels[i] and owns entries offsets[i]:offsets[i + 1]
    of level, alpha and value, sorted by (k, alpha) within the sequence.
    """

    system: CubeSystem
    labels: list
    offsets: np.ndarray             # (n_sequences + 1,) int
    level: np.ndarray               # (n_entries,) int
    alpha: np.ndarray               # (n_entries,) int
    value: np.ndarray               # (n_entries,) float

    def __len__(self) -> int:
        return len(self.labels)

    @classmethod
    def of(cls, seqs: list, labels: Optional[list] = None,
           system: Optional[CubeSystem] = None) -> "SequenceBatch":
        """The batch of ``seqs``, CoefSequences on one system (``system``,
        by default that of the first), in order."""
        keys = [key for seq in seqs for key in seq.entries]
        return cls(system=seqs[0].system if system is None else system,
                   labels=list(labels) if labels is not None else [None] * len(seqs),
                   offsets=np.cumsum([0] + [len(seq.entries) for seq in seqs]),
                   level=np.array([k for k, _ in keys], dtype=int),
                   alpha=np.array([a for _, a in keys], dtype=int),
                   value=np.array([v for seq in seqs for v in seq.entries.values()],
                                  dtype=float))


def load_sequence(path: str, system: CubeSystem) -> CoefSequence:
    """Read a JSON list of {"k": int, "alpha": int, "value": real}: k and
    alpha JSON integers (not booleans), the value a finite number."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: sequence file must be a JSON list")
    entries: dict = {}
    for i, row in enumerate(data):
        if not (isinstance(row, dict) and _is_integer(row.get("k"))
                and _is_integer(row.get("alpha")) and finite_number(row.get("value"))):
            raise ValueError(f"{path}: entry {i} must carry integer k and alpha and a finite "
                             f"real value, got {json.dumps(row)}")
        key = (row["k"], row["alpha"])
        entries[key] = entries.get(key, 0.0) + float(row["value"])
    return CoefSequence(system=system, entries=entries)


def _check_backing(delta: float, params: NormParams) -> None:
    if abs(params.delta - delta) > 1e-12:
        raise ValueError(
            f"params.delta = {params.delta!r} does not match the backing "
            f"system's delta = {delta!r}"
        )


# ---------------------------------------------------------------------------
# The batch kernel
# ---------------------------------------------------------------------------

def batch_norms(batch: SequenceBatch, params: NormParams) -> np.ndarray:
    """The ``params.family`` norm of every sequence of ``batch``."""
    system = batch.system
    _check_backing(system.delta, params)
    return _norms(batch.offsets, batch.level, batch.alpha, batch.value, params,
                  system.cube_mass, system.order, system.bounds, system.space.weight)


def _norms(offsets, level, alpha, value, params: NormParams,
           cube_mass, order, bounds, weight) -> np.ndarray:
    """Norms of the flat sequences (offsets, level, alpha, value) over a cube
    table: cube_mass[k][alpha] is a mass, order[k]/bounds[k] slice out a
    cube's points and weight holds the point masses."""
    n_seq = len(offsets) - 1
    entries = _counted(offsets, level, alpha, value, params)
    if params.family == "besov":
        return _besov(n_seq, *entries, params, cube_mass)
    p = params.p
    out = np.zeros(n_seq)
    for first, g in _tl_functions(n_seq, *entries, params, cube_mass, order, bounds, weight.size):
        rows = (weight * g ** p).tolist()
        out[first:first + len(rows)] = [math.fsum(row) ** (1.0 / p) for row in rows]
    return out


def _counted(offsets, level, alpha, value, params: NormParams) -> tuple:
    """(sequence, level, alpha, |value|) of the entries a norm counts: the
    nonzero ones at levels in the variant window."""
    keep = (value != 0.0) & params.level_in_window(level)
    seq = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    return seq[keep], level[keep], alpha[keep], np.abs(value[keep])


def _per_key(keys, fn) -> np.ndarray:
    """fn(key), evaluated once per distinct key, for each entry of ``keys``."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array([fn(key) for key in distinct.tolist()], dtype=float)[inverse]


def _per_cube(level, alpha, cube_mass, fn) -> np.ndarray:
    """fn(mass of the entry's cube), evaluated once per distinct cube."""
    out = np.empty(level.size)
    for k in np.unique(level).tolist():
        at = level == k
        out[at] = _per_key(alpha[at], lambda a: fn(float(cube_mass[k][a])))
    return out


def _segment_starts(*keys) -> np.ndarray:
    """First position of each run of equal keys (the arrays are grouped)."""
    change = np.zeros(keys[0].size, dtype=bool)
    change[:1] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(change)


def _segment_lp(values, starts, p: float) -> np.ndarray:
    """l^p of each segment values[starts[j]:starts[j + 1]]."""
    if math.isinf(p):
        return np.maximum.reduceat(values, starts)
    powered = (values ** p).tolist()
    ends = starts[1:].tolist() + [len(powered)]
    return np.array([math.fsum(powered[i:j]) ** (1.0 / p)
                     for i, j in zip(starts.tolist(), ends)])


def _besov(n_seq, seq, level, alpha, a, params: NormParams, cube_mass) -> np.ndarray:
    s, p, q, delta = params.s, params.p, params.q, params.delta
    out = np.zeros(n_seq)
    if not a.size:
        return out
    expo = reciprocal(p) - 0.5
    terms = _per_cube(level, alpha, cube_mass, lambda m: m ** expo) * a
    inner = _segment_starts(seq, level)
    per_level = (_per_key(level[inner], lambda k: delta ** (-k * s))
                 * _segment_lp(terms, inner, p))
    outer = _segment_starts(seq[inner])
    out[seq[inner][outer]] = _segment_lp(per_level, outer, q)
    return out


def _tl_functions(n_seq, seq, level, alpha, a, params: NormParams,
                  cube_mass, order, bounds, n_points):
    """Yield (first sequence, g) for consecutive blocks of sequences, g the
    (sequences, points) array of the pointwise l^q aggregates."""
    s, q, delta = params.s, params.q, params.delta
    if math.isinf(q):
        term = (_per_key(level, lambda k: delta ** (-k * s))
                * _per_cube(level, alpha, cube_mass, lambda m: m ** (-0.5)) * a)
    else:
        term = np.array([f * (m * x) ** q for f, m, x in zip(
            _per_key(level, lambda k: delta ** (-k * s * q)).tolist(),
            _per_cube(level, alpha, cube_mass, lambda m: m ** (-0.5)).tolist(),
            a.tolist())])
    # each cube as a slice of the levels' orders laid end to end
    levels = np.unique(level).tolist()
    base = np.cumsum([0] + [order[k].size for k in levels])
    stacked = np.concatenate([np.zeros(0, dtype=int)] + [order[k] for k in levels])
    start = np.empty(level.size, dtype=int)
    count = np.empty(level.size, dtype=int)
    for k, b in zip(levels, base.tolist()):
        at = level == k
        start[at] = bounds[k][alpha[at]] + b
        count[at] = bounds[k][alpha[at] + 1] - bounds[k][alpha[at]]

    block = max(1, BLOCK_ELEMENTS // n_points)
    for first in range(0, n_seq, block):
        size = min(block, n_seq - first)
        lo, hi = np.searchsorted(seq, [first, first + size]).tolist()
        reps = count[lo:hi]
        ends = np.cumsum(reps)
        # the members of entry after entry
        points = stacked[np.arange(reps.sum()) + np.repeat(start[lo:hi] - (ends - reps), reps)]
        flat = np.repeat((seq[lo:hi] - first) * n_points, reps) + points
        values = np.repeat(term[lo:hi], reps)
        if math.isinf(q):
            acc = np.zeros(size * n_points)
            np.maximum.at(acc, flat, values)
            yield first, acc.reshape(size, n_points)
        else:
            acc = np.bincount(flat, weights=values, minlength=size * n_points)
            yield first, acc.reshape(size, n_points) ** (1.0 / q)


def _layer_cake_integral(g: np.ndarray, weights: np.ndarray, p: float) -> float:
    """L^p norm of g via p * integral of t^{p-1} mu({g > t}) dt; g is
    piecewise constant, so the integral is an exact sum over the sorted
    level sets."""
    nz = g > 0
    if not np.any(nz):
        return 0.0
    vals = g[nz]
    order = np.argsort(vals, kind="stable")
    v = vals[order]
    w = weights[nz][order]
    # suffix sums: mu({g >= v_j}) for each distinct value v_j
    distinct_idx = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    suffix = np.cumsum(w[::-1])[::-1]
    prev = 0.0
    pieces = []
    for idx in distinct_idx:
        vj = v[idx]
        pieces.append(suffix[idx] * (vj**p - prev**p))
        prev = vj
    return float(stable_sum(pieces) ** (1.0 / p))


# ---------------------------------------------------------------------------
# One-sequence norms
# ---------------------------------------------------------------------------

def besov_norm(seq: CoefSequence, params: NormParams) -> float:
    if params.family != "besov":
        raise ValueError("params.family must be 'besov'")
    return float(batch_norms(SequenceBatch.of([seq]), params)[0])


def triebel_lizorkin_norm(seq: CoefSequence, params: NormParams) -> float:
    if params.family != "triebel_lizorkin":
        raise ValueError("params.family must be 'triebel_lizorkin'")
    return float(batch_norms(SequenceBatch.of([seq]), params)[0])


def layer_cake_tl_norm(seq: CoefSequence, params: NormParams) -> float:
    """Triebel-Lizorkin norm through the distribution function of g."""
    if params.family != "triebel_lizorkin":
        raise ValueError("params.family must be 'triebel_lizorkin'")
    system = seq.system
    _check_backing(system.delta, params)
    batch = SequenceBatch.of([seq])
    entries = _counted(batch.offsets, batch.level, batch.alpha, batch.value, params)
    _, g = next(_tl_functions(1, *entries, params, system.cube_mass, system.order,
                              system.bounds, system.space.n))
    return _layer_cake_integral(g[0], system.space.weight, params.p)


def sequence_norm(seq: CoefSequence, params: NormParams) -> float:
    return besov_norm(seq, params) if params.family == "besov" \
        else triebel_lizorkin_norm(seq, params)


# ---------------------------------------------------------------------------
# Weighted sequence norms on the standard dyadic grid in R^n
# ---------------------------------------------------------------------------

def _is_integer(x) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def weighted_rn_norm(entries: dict, grid: RnDyadicGrid, params: NormParams) -> float:
    """Norm of a sequence over standard dyadic cubes Q(j, k) on a box in
    R^n, with cube masses given by the grid's weighted sums. Entries map
    (j, kvec) -> coefficient, with an integer level j and integer kvec
    components (a ValueError names any other entry); delta must be 1/2.

    Each level of the grid is a cube table for the batch kernel: the
    entries' kvecs become cube ids with one ``grid.cube_ids`` lookup per
    level, and entries that name one cube are added up, in entry order."""
    if abs(params.delta - 0.5) > 1e-12:
        raise ValueError("the standard dyadic grid has delta = 1/2")
    if not entries:
        return 0.0
    for key in entries:
        j, kvec = key
        if not all(map(_is_integer, (j, *kvec) if isinstance(kvec, tuple) else key)):
            raise ValueError(f"entry {key!r}: the level and the kvec components must be integers")
    levels, kvecs = zip(*entries)
    level = np.array(levels, dtype=int)
    try:
        cells = np.array(kvecs, dtype=int).reshape(len(kvecs), -1)
    except ValueError:
        raise KeyError("no dyadic cube meets the box at every k: "
                       "the kvecs differ in length") from None
    outside = np.flatnonzero((level < grid.j_min) | (level > grid.j_max))
    if outside.size:
        raise ValueError(f"level j = {level[outside[0]]} outside the grid window "
                         f"[{grid.j_min}, {grid.j_max}]")
    alpha = np.empty(level.size, dtype=int)
    for j in np.unique(level).tolist():
        at = level == j
        alpha[at] = grid.cube_ids(j, cells[at])
    keys, entry_of = np.unique(np.stack([level, alpha], axis=1), axis=0, return_inverse=True)
    value = np.bincount(entry_of.ravel(), weights=np.array(list(entries.values()), dtype=float),
                        minlength=len(keys))
    return float(_norms(np.array([0, len(keys)]), keys[:, 0], keys[:, 1], value, params,
                        grid.cube_mass, grid.order, grid.bounds, grid.weights)[0])
