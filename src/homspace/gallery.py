"""
Reference spaces and space-file ingestion.

Kinds:
  euclidean_grid  uniform lattice in [0,1]^dim, equal weights summing to 1
  weighted_grid   lattice on [-extent, extent]^dim weighted by the radial
                  density  |x|^alpha (|x| <= 1)  /  |x|^beta (|x| > 1),
                  each point carrying density * cell volume
  cantor          middle-thirds midpoints at a given depth, equal weights
  snowflake       euclidean lattice with distances raised to a power e

The weighted lattice drops the exact origin whenever alpha != 0: for
alpha < 0 the density is singular there, for alpha > 0 it vanishes and a
zero-mass point would break the positive-measure contract. alpha = 0
keeps the origin with density 1. Its alpha, beta and extent must be
finite; ``build`` refuses any other value by name before it places a
point. It also refuses, by name, an extent whose squared lattice
distances or cell volume leave the floats, and an alpha or beta that
gives a point a weight of 0 or inf.
"""
from __future__ import annotations

import json
import math
import sys
from itertools import chain
from dataclasses import dataclass

import numpy as np

from homspace.common import finite_number, read_json
from homspace.space import ROW_BLOCK, FiniteHomSpace, metric_exponent, validate_quasi_metric

# each kind and the GallerySpec fields it reads
KINDS = {"euclidean_grid": ("n", "dim"),
         "weighted_grid": ("n", "dim", "alpha", "beta", "extent"),
         "cantor": ("depth",),
         "snowflake": ("n", "dim", "e")}

# Every structure is a dense n x n float64 table: 4096 points is 128 MiB
# per table. Ball masses at shared radii come from an (n x R) table, and
# only ``maximal`` and ``kernel-check`` build the sorted-row ball index:
# 5 bytes per entry (int32 order and bool ends), and 8 more (float64
# cum_weight) for a non-uniform measure.
# Gallery spaces are metrics, so building one runs no A0 pass; an explicit
# table still needs the exact pass on first use of A0, O(n^3) when its lens
# prunes nothing: on a 2-core VM, 0.9 s at 1024 points, 7.3 s at 2048 and
# 58 s at 4096 for a planar Euclidean table, and 0.22 s, 1.1 s and 5.6 s
# for a sorted squared line. Reading that squared line's JSON table in a
# fresh process takes 0.17-0.24 s and peaks at 127 MB at 1024 points (a
# 22 MB file), 0.78-0.85 s and 423 MB at 2048 (89 MB) and 3.4-3.7 s and
# 1605 MB at 4096 (355 MB): orjson holds about 1.7 times the file's size
# more than json did (0.38 s / 90 MB, 1.5-1.6 s / 277 MB, 6.9-7.2 s /
# 1010 MB). Writing the table back (``gallery --space``) peaks at 522 MB
# at 2048 points and 2001 MB at 4096.
MAX_POINTS = 4096


def _check_cap(n: int, what: str) -> None:
    if n > MAX_POINTS:
        raise ValueError(f"{what} of {n} points exceeds the {MAX_POINTS} cap")


@dataclass(frozen=True)
class GallerySpec:
    kind: str
    n: int = 64                 # points per axis for lattice kinds
    dim: int = 1
    depth: int = 6              # cantor recursion depth
    alpha: float = 0.0          # weighted-grid exponent inside the unit ball
    beta: float = 0.0           # weighted-grid exponent outside
    e: float = 1.0              # snowflake distance exponent, in (0, 1]
    extent: float = 1.0         # weighted-grid half-width


def _lattice(n: int, dim: int, lo: float, hi: float) -> np.ndarray:
    axis = np.linspace(lo, hi, n)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _euclidean_dist(coords: np.ndarray) -> np.ndarray:
    # ROW_BLOCK rows at a time, one axis after another: the squared
    # differences go through one small buffer and add into the table in
    # place, in the order 0 + dx^2 + dy^2 + ..., so no n x n temporary
    n = coords.shape[0]
    d = np.zeros((n, n))
    buf = np.empty((min(ROW_BLOCK, n), n))
    for lo in range(0, n, ROW_BLOCK):
        rows = d[lo:lo + ROW_BLOCK]
        diff = buf[:rows.shape[0]]
        for axis in coords.T:
            np.subtract(axis[lo:lo + ROW_BLOCK, None], axis, out=diff)
            np.multiply(diff, diff, out=diff)
            rows += diff
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def cantor_points(depth: int) -> np.ndarray:
    """Midpoints of the 2^depth surviving middle-thirds intervals."""
    intervals = [(0.0, 1.0)]
    for _ in range(depth):
        nxt = []
        for a, b in intervals:
            third = (b - a) / 3.0
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        intervals = nxt
    return np.array([(a + b) / 2.0 for a, b in intervals])


def radial_density(r, alpha: float, beta: float):
    """|x|^alpha for |x| <= 1 and |x|^beta beyond, with 0^0 = 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    small = r <= 1.0
    pos = small & (r > 0)
    out[pos] = r[pos] ** alpha
    out[small & (r == 0.0)] = 1.0 if alpha == 0.0 else 0.0
    out[~small] = r[~small] ** beta
    return out


def build(spec: GallerySpec) -> FiniteHomSpace:
    if spec.kind not in KINDS:
        raise ValueError(f"unknown gallery kind {spec.kind!r}")

    if spec.kind == "cantor":
        if spec.depth < 1:
            raise ValueError("cantor depth must be >= 1")
        if spec.depth > math.log2(MAX_POINTS):
            raise ValueError(f"cantor depth {spec.depth} gives 2^{spec.depth} points, "
                             f"above the {MAX_POINTS} cap")
        coords = cantor_points(spec.depth)[:, None]
        weights = np.full(coords.shape[0], 1.0 / coords.shape[0])
        omega, metric = math.log(2) / math.log(3), "euclidean"
    else:
        if spec.n < 2:
            raise ValueError("lattice kinds need n >= 2 points per axis")
        if spec.dim < 1:
            raise ValueError("dim must be >= 1")
        total = spec.n ** spec.dim
        _check_cap(total, "lattice")
        omega, metric = float(spec.dim), "euclidean"
        if spec.kind == "weighted_grid":
            for name in ("alpha", "beta", "extent"):
                value = getattr(spec, name)
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be a finite number, got {value!r}")
            if spec.extent <= 0:
                raise ValueError("extent must be positive")
            if spec.alpha <= -spec.dim:
                raise ValueError(f"alpha must exceed -dim = {-spec.dim} for an integrable density")
            h = 2.0 * spec.extent / (spec.n - 1)
            try:
                cell = h**spec.dim
            except OverflowError:
                cell = math.inf
            # the table adds squared coordinate differences: the spacing
            # must square to a normal number and the diagonal to a finite
            # one; every weight is a density times the cell volume
            if h * h < sys.float_info.min or not 0.0 < cell < math.inf or \
                    2.0 * spec.extent * math.sqrt(spec.dim) > math.sqrt(sys.float_info.max):
                raise ValueError(f"extent = {spec.extent!r} is out of range: the lattice's "
                                 f"squared distances or cell volume leave the floats")
            coords = _lattice(spec.n, spec.dim, -spec.extent, spec.extent)
            radii = np.sqrt((coords**2).sum(axis=1))
            if spec.alpha != 0.0:
                keep = radii > 0
                coords, radii = coords[keep], radii[keep]
            with np.errstate(over="ignore", under="ignore"):
                weights = radial_density(radii, spec.alpha, spec.beta) * cell
            bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0)))
            if bad.size:
                r, w = float(radii[bad[0]]), float(weights[bad[0]])
                name = "alpha" if r <= 1.0 else "beta"
                raise ValueError(f"{name} = {getattr(spec, name)!r} is out of range: the "
                                 f"point at |x| = {r:g} gets weight {w!r}, not a positive real")
        else:
            coords = _lattice(spec.n, spec.dim, 0.0, 1.0)
            weights = np.full(total, 1.0 / total)
        if spec.kind == "snowflake":
            metric = f"snowflake:{spec.e}"
            omega /= metric_exponent(metric)    # ValueError for e outside (0, 1]
    space = _coordinate_space(coords, weights, metric, declared_omega=omega)
    _check_gallery(space)
    return space


def _coordinate_space(coords: np.ndarray, weights: np.ndarray, metric: str, *,
                      declared_A0=None, declared_omega=None) -> FiniteHomSpace:
    """The space the coordinates generate under ``metric``: the Euclidean
    table, raised in place to the snowflake exponent. The caller checks it."""
    e = metric_exponent(metric)
    dist = _euclidean_dist(coords)
    if e != 1:
        np.power(dist, e, out=dist)
    return FiniteHomSpace(dist=dist, weight=weights, coords=coords, metric=metric,
                          declared_A0=declared_A0, declared_omega=declared_omega)


def _check_gallery(space: FiniteHomSpace) -> None:
    result = validate_quasi_metric(space)
    if not result.ok:
        raise AssertionError(f"gallery space failed validation: {result.violations[0]}")


# ---------------------------------------------------------------------------
# Space files
# ---------------------------------------------------------------------------

def load_space(path: str) -> FiniteHomSpace:
    """Parse and fully validate a JSON space file.

    Schema: {"points": [[...]] or "dist": [[...]], "weights": [...],
    "metric": "euclidean" | "snowflake:<e>" | "explicit",
    "declared_A0": optional, "declared_omega": optional}.
    """
    try:
        data = read_json(path)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: space file must be a JSON object")

    if data.get("weights") is None:
        raise ValueError(f"{path}: missing 'weights'")
    weights = _numbers(path, data, "weights")
    if weights.ndim != 1:
        raise ValueError(f"{path}: 'weights' must be a flat list of numbers")
    _check_cap(weights.size, f"{path}: space")
    bad = np.flatnonzero(weights <= 0)
    if bad.size:
        raise ValueError(f"{path}: invalid measure: weights[{bad[0]}] = {weights[bad[0]]!r}")

    metric = data.get("metric", "euclidean" if "points" in data else "explicit")
    if not isinstance(metric, str):
        raise ValueError(f"{path}: 'metric' must be a string, got {json.dumps(metric)}")
    declared = {key: _declared(path, data, key) for key in ("declared_A0", "declared_omega")}
    if metric == "explicit":
        if data.get("dist") is None:
            raise ValueError(f"{path}: metric 'explicit' requires a 'dist' table")
        dist = _numbers(path, data, "dist")
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError(f"{path}: 'dist' must be a square table")
        if dist.shape[0] != weights.size:
            raise ValueError(f"{path}: dist has {dist.shape[0]} rows but {weights.size} weights")
        space = FiniteHomSpace(dist=dist, weight=weights, **declared)
    else:
        if data.get("points") is None:
            raise ValueError(f"{path}: metric {metric!r} requires 'points'")
        coords = _numbers(path, data, "points")
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2:
            raise ValueError(f"{path}: 'points' must be a list of coordinate lists")
        if coords.shape[0] != weights.size:
            raise ValueError(f"{path}: {coords.shape[0]} points but {weights.size} weights")
        try:
            space = _coordinate_space(coords, weights, metric, **declared)
        except ValueError as exc:       # the metric string
            raise ValueError(f"{path}: {exc}") from None

    try:
        result = validate_quasi_metric(space)
    except ValueError as exc:       # the measure
        raise ValueError(f"{path}: {exc}") from None
    if not result.ok:
        v = result.violations[0]
        if v["kind"] == "symmetry":
            i, j = v["pair"]
            raise ValueError(f"{path}: asymmetric dist at ({i}, {j}): "
                             f"{space.dist[i, j]!r} != {space.dist[j, i]!r}")
        raise ValueError(f"{path}: invalid space: {v}")
    return space


def _numbers(path: str, data: dict, key: str) -> np.ndarray:
    """data[key] as a float array whose entries are all finite JSON numbers;
    checked on the whole array, with no branch per entry."""
    raw = data[key]
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{path}: '{key}' must be a regular array of numbers") from None
    if not np.isfinite(arr).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise ValueError(f"{path}: non-finite entry in '{key}' at {list(at)}: {float(arr[at])}")
    # the conversion also takes numeric strings and booleans: one type scan
    # over the flattened rows rejects them (deeper nesting fails a shape check)
    rows = [raw] if arr.ndim == 1 else raw if arr.ndim == 2 else []
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        flat = list(chain.from_iterable(rows))
        i = next(i for i, v in enumerate(flat) if type(v) not in (int, float))
        at = [i] if arr.ndim == 1 else list(divmod(i, arr.shape[1]))
        raise ValueError(f"{path}: '{key}' must hold numbers only, "
                         f"got {json.dumps(flat[i])} at {at}")
    return arr


def _declared(path: str, data: dict, key: str):
    """An optional declared constant: absent, null or a finite number."""
    value = data.get(key)
    if value is not None and not finite_number(value):
        raise ValueError(f"{path}: '{key}' must be a finite number, got {json.dumps(value)}")
    return value


def space_to_dict(space: FiniteHomSpace) -> dict:
    """Serialize a space back to the space-file schema: points under the
    space's metric when its coordinates generate the table, else the table."""
    out: dict = {"weights": space.weight.tolist()}
    if space.metric == "explicit" or space.coords is None:
        out["metric"] = "explicit"
        out["dist"] = space.dist.tolist()
    else:
        out["metric"] = space.metric
        out["points"] = space.coords.tolist()
    if space.declared_A0 is not None:
        out["declared_A0"] = float(space.declared_A0)
    if space.declared_omega is not None:
        out["declared_omega"] = float(space.declared_omega)
    return out
