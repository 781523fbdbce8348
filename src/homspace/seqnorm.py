"""
Sequence-space norms over dyadic cube systems.

A coefficient sequence assigns a real number to finitely many cubes
(k, alpha); its Besov-style norm aggregates mass-weighted coefficients in
l^p over cubes within a level and l^q across levels,

    { sum_k d^{-ksq} [ sum_a ( m(Q)^{1/p - 1/2} |lam| )^p ]^{q/p} }^{1/q},

while the Triebel-Lizorkin-style norm forms the pointwise l^q aggregate

    g(x) = { sum_{k,a} d^{-ksq} ( m(Q)^{-1/2} |lam| 1_Q(x) )^q }^{1/q}

and takes its L^p integral over the space (exact on finite data: g is
constant on cells), with d the scale base delta of the cube system.
p = inf or q = inf replace the corresponding sum by a sup; empty
aggregates evaluate to 0; the inhomogeneous variant keeps levels k >= 0.

Every norm goes through one kernel, ``batch_norms``, which scores a whole
``SequenceBatch``: sequence i owns the entries offsets[i]:offsets[i + 1]
of the flat arrays level, alpha and value, sorted by (k, alpha) as
``CoefSequence`` sorts them, over the batch's ``CubeSystem``.
``besov_norm`` and ``triebel_lizorkin_norm`` are one-sequence calls of it.
Zero coefficients and levels outside the variant window are dropped first.
The Besov norm is then an l^p over each (sequence, level) segment and an
l^q over each sequence. The Triebel-Lizorkin norm scatter-adds each entry's
term onto its cube's members, the slice
order[k][bounds[k][alpha]:bounds[k][alpha + 1]],
in a dense sequence x point accumulator of at most BLOCK_ELEMENTS entries
(at least one sequence) per block of sequences. Only the accumulator's
nonzero cells, the covered ones, are kept: g is taken on them, and the
weighted L^p of each sequence sums the terms of its own covered cells. A
point no entry covers has g = 0 and adds the term 0 to the L^p sum, so
leaving it out changes nothing.

The kernel gives the same bits as a one-sequence-at-a-time evaluation
because it keeps these rules:

  * scalar powers: the per-cube factors m^(1/p - 1/2) and m^(-1/2) (one
    table per level over its cubes, then one gather), the per-level
    factors d^(-ks) and d^(-ksq), the per-entry Triebel-Lizorkin term
    d^(-ksq) (m^(-1/2) |lam|)^q, and every final (sum)^(1/p) use Python's
    scalar ``**``. Where the exponent is 1 the power is left out: glibc's
    pow is accurate to under 1 ulp, so pow(x, 1.0) is x exactly, and at
    q = 1 the term d^(-ks) (m^(-1/2) |lam|) is the same two products in
    numpy. So an l^1 sum takes no root;
  * array powers: |t|^p, |t|^q, acc^(1/q) and g^p use numpy's ``**`` on
    arrays, whose elementwise result does not depend on the length of the
    array or on which other elements it holds, so acc^(1/q) and g^p on the
    covered cells alone give the bits they have in a whole row (Python's
    ``**`` differs from numpy's by an ulp on some values, so the two are
    never mixed on one quantity);
  * sums are ``math.fsum`` per segment (correctly rounded, so the order of
    the terms does not matter, and neither does an exact zero term: the
    Triebel-Lizorkin sum drops the uncovered points and the covered ones
    whose acc is 0.0, and fsum([]) is 0.0); p = inf and q = inf are segment
    maxima. A Besov segment of one term sums to that term, and one of two
    terms to their IEEE sum when it is finite (one correctly rounded add,
    which is what fsum returns for two terms), both in numpy; only
    segments of three or more terms and pairs that overflow call fsum;
  * the scatter is ``np.bincount``, which adds in input order, entry after
    entry, as a sequential ``acc[members] += term`` does.

A norm that leaves the float range (an inf or nan result, or an overflow
in Python's ``**`` or in fsum) raises ValueError, with no numpy warning.

layer_cake_tl_norm rebuilds g over every point from the covered cells and
recomputes the same L^p integral through the distribution function of g:
since g takes finitely many values the
integral is an exact sum over sorted level sets, giving an independent
cross-check of the direct computation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from homspace.common import BLOCK_ELEMENTS, finite_number, read_json, reciprocal, stable_sum
from homspace.dyadic import VARIANTS, CubeSystem

FAMILIES = ("besov", "triebel_lizorkin")


@dataclass(frozen=True)
class NormParams:
    """Norm parametrization: smoothness s, integrability p, summability q,
    the variant window and the family. The scale base delta is the backing
    cube system's: a norm reads it from the system of its sequences."""

    s: float
    p: float
    q: float
    variant: str = "homogeneous"
    family: str = "besov"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if math.isnan(self.s):
            raise ValueError("s must be a number, got nan")
        if not (self.p > 0):
            raise ValueError("p must be positive")
        if not (self.q > 0):
            raise ValueError("q must be positive")
        if self.family == "triebel_lizorkin" and math.isinf(self.p):
            raise ValueError("triebel_lizorkin requires p < inf")

    def level_in_window(self, k):
        """Whether level k counts; k may be an array of levels."""
        return self.variant == "homogeneous" or k >= 0


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
    def of(cls, seqs: list) -> "SequenceBatch":
        """The unlabelled batch of ``seqs``, CoefSequences on the system of
        the first, in order."""
        keys = [key for seq in seqs for key in seq.entries]
        return cls(system=seqs[0].system, labels=[None] * len(seqs),
                   offsets=np.cumsum([0] + [len(seq.entries) for seq in seqs]),
                   level=np.array([k for k, _ in keys], dtype=int),
                   alpha=np.array([a for _, a in keys], dtype=int),
                   value=np.array([v for seq in seqs for v in seq.entries.values()],
                                  dtype=float))

    @classmethod
    def concat(cls, batches: list) -> "SequenceBatch":
        """The sequences of ``batches``, in order, as one batch on the
        system of the first."""
        starts = np.cumsum([0] + [b.offsets[-1] for b in batches])
        return cls(system=batches[0].system,
                   labels=[label for b in batches for label in b.labels],
                   offsets=np.concatenate([[0]] + [b.offsets[1:] + start
                                                   for b, start in zip(batches, starts)]),
                   level=np.concatenate([b.level for b in batches]),
                   alpha=np.concatenate([b.alpha for b in batches]),
                   value=np.concatenate([b.value for b in batches]))


def _is_integer(x) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def load_sequence(path: str, system: CubeSystem) -> CoefSequence:
    """Read a JSON list of {"k": int, "alpha": int, "value": real}: k and
    alpha JSON integers (not booleans), the value a finite number."""
    data = read_json(path)
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


# ---------------------------------------------------------------------------
# The batch kernel
# ---------------------------------------------------------------------------

def batch_norms(batch: SequenceBatch, params: NormParams) -> np.ndarray:
    """The ``params.family`` norm of every sequence of ``batch``.

    Raises ValueError when a norm leaves the float range: a power or an
    fsum overflows, or a norm comes out inf or nan."""
    system = batch.system
    entries = _counted(batch, params)
    try:
        # an overflow in numpy shows as an inf or nan norm
        with np.errstate(over="ignore", invalid="ignore"):
            if params.family == "besov":
                out = _besov(system, len(batch), *entries, params)
            else:
                out = _triebel_lizorkin(system, len(batch), entries, params)
        finite = bool(np.isfinite(out).all())
    except OverflowError:       # in Python's ** or in fsum
        finite = False
    if not finite:
        raise ValueError(f"a {params.family} norm (s={params.s!r}, p={params.p!r}, "
                         f"q={params.q!r}) leaves the float range")
    return out


def _root(sums: list, p: float) -> np.ndarray:
    """Python's sum ** (1/p) of each sum; pow(x, 1.0) is x exactly, so p = 1
    computes none."""
    root = 1.0 / p
    if root == 1.0:
        return np.array(sums, dtype=float)
    return np.array([x ** root for x in sums], dtype=float)


def _triebel_lizorkin(system: CubeSystem, n_seq, entries, params: NormParams) -> np.ndarray:
    p, weight, n_points = params.p, system.space.weight, system.space.n
    out = np.zeros(n_seq)
    for first, size, cells, g in _tl_functions(system, n_seq, *entries, params):
        terms = (weight[cells % n_points] * g ** p).tolist()
        cuts = np.searchsorted(cells, np.arange(size + 1) * n_points).tolist()
        out[first:first + size] = _root([math.fsum(terms[i:j])
                                         for i, j in zip(cuts[:-1], cuts[1:])], p)
    return out


def _counted(batch: SequenceBatch, params: NormParams) -> tuple:
    """(sequence, level, alpha, |value|) of the entries of ``batch`` a norm
    counts: the nonzero ones at levels in the variant window."""
    level, alpha, value = batch.level, batch.alpha, batch.value
    keep = (value != 0.0) & params.level_in_window(level)
    seq = np.repeat(np.arange(len(batch)), np.diff(batch.offsets))
    return seq[keep], level[keep], alpha[keep], np.abs(value[keep])


def _per_level(level, fn) -> np.ndarray:
    """fn(k), evaluated once for each level k the entries reach, per entry."""
    if not level.size:
        return np.zeros(0)
    lo = int(level.min())
    reached = np.flatnonzero(np.bincount(level - lo))
    table = np.zeros(reached[-1] + 1)
    table[reached] = [fn(k + lo) for k in reached.tolist()]
    return table[level - lo]


def _per_cube(level, alpha, cube_mass, expo: float) -> np.ndarray:
    """m ** expo (Python's **) for the mass m of each entry's cube: one
    table row per level the entries reach, over the cubes of that level,
    then one gather. Non-centers have mass 0 (and 0.0 ** expo raises for
    expo < 0), so their entries stay 0."""
    if not level.size:
        return np.zeros(0)
    lo = int(level.min())
    reached = np.flatnonzero(np.bincount(level - lo))
    table = np.zeros((reached[-1] + 1, cube_mass[lo].size))
    for k in reached.tolist():
        mass = cube_mass[k + lo]
        live = np.flatnonzero(mass > 0)
        table[k, live] = [m ** expo for m in mass[live].tolist()]
    return table[level - lo, alpha]


def _segment_starts(*keys) -> np.ndarray:
    """First position of each run of equal keys (the arrays are grouped)."""
    change = np.zeros(keys[0].size, dtype=bool)
    change[:1] = True
    for key in keys:
        change[1:] |= key[1:] != key[:-1]
    return np.flatnonzero(change)


def _segment_lp(values, starts, p: float) -> np.ndarray:
    """l^p of each segment values[starts[j]:starts[j + 1]].

    fsum is correctly rounded, so a segment of one term sums to that term
    and one of two terms to their IEEE sum when it is finite; only longer
    segments and the pairs whose sum overflows are summed by fsum."""
    if math.isinf(p):
        return np.maximum.reduceat(values, starts)
    powered = values ** p
    ends = np.append(starts[1:], powered.size)
    sums = powered[starts]
    pair = np.flatnonzero(ends - starts == 2)
    sums[pair] += powered[starts[pair] + 1]
    slow = np.flatnonzero((ends - starts > 2) | ~np.isfinite(sums))
    if slow.size:
        terms = powered.tolist()
        sums[slow] = [math.fsum(terms[i:j])
                      for i, j in zip(starts[slow].tolist(), ends[slow].tolist())]
    return _root(sums.tolist(), p)


def _besov(system: CubeSystem, n_seq, seq, level, alpha, a, params: NormParams) -> np.ndarray:
    s, p, q, delta = params.s, params.p, params.q, system.delta
    out = np.zeros(n_seq)
    if not a.size:
        return out
    expo = reciprocal(p) - 0.5
    terms = _per_cube(level, alpha, system.cube_mass, expo) * a
    inner = _segment_starts(seq, level)
    per_level = (_per_level(level[inner], lambda k: delta ** (-k * s))
                 * _segment_lp(terms, inner, p))
    outer = _segment_starts(seq[inner])
    out[seq[inner][outer]] = _segment_lp(per_level, outer, q)
    return out


def _tl_functions(system: CubeSystem, n_seq, seq, level, alpha, a, params: NormParams):
    """Yield (first, size, cells, g) for consecutive blocks of the n_seq
    sequences whose counted entries are (seq, level, alpha, a) on ``system``:
    the block holds sequences first:first + size, cells are the ascending
    flat indices (sequence - first) * n_points + point of the points its
    entries cover, and g holds the pointwise l^q aggregate on those cells.
    A point left out has g = 0: no entry covers it, or every term it got
    was 0.0."""
    s, q, delta = params.s, params.q, system.delta
    cube_mass, order, bounds = system.cube_mass, system.order, system.bounds
    n_points = system.space.n
    per_cube = _per_cube(level, alpha, cube_mass, -0.5)
    if math.isinf(q):
        term = _per_level(level, lambda k: delta ** (-k * s)) * per_cube * a
    else:
        per_level = _per_level(level, lambda k: delta ** (-k * s * q))
        if q == 1.0:        # Python's f * (m * x) ** 1.0 is f * (m * x)
            term = per_level * (per_cube * a)
        else:
            term = np.array([f * (m * x) ** q for f, m, x in zip(
                per_level.tolist(), per_cube.tolist(), a.tolist())])
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
        else:
            acc = np.bincount(flat, weights=values, minlength=size * n_points)
        cells = np.flatnonzero(acc)
        g = acc[cells]
        yield first, size, cells, g if math.isinf(q) else g ** (1.0 / q)


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
    entries = _counted(SequenceBatch.of([seq]), params)
    _, _, cells, values = next(_tl_functions(system, 1, *entries, params))
    g = np.zeros(system.space.n)
    g[cells] = values
    return _layer_cake_integral(g, system.space.weight, params.p)


def sequence_norm(seq: CoefSequence, params: NormParams) -> float:
    return besov_norm(seq, params) if params.family == "besov" \
        else triebel_lizorkin_norm(seq, params)
