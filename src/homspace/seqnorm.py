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

from homspace.common import lp_aggregate, stable_sum
from homspace.dyadic import CubeSystem
from homspace.gallery import RnDyadicGrid

FAMILIES = ("besov", "triebel_lizorkin")
VARIANTS = ("homogeneous", "inhomogeneous")


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
        if not (self.p > 0):
            raise ValueError("p must be positive")
        if not (self.q > 0):
            raise ValueError("q must be positive")
        if self.family == "triebel_lizorkin" and math.isinf(self.p):
            raise ValueError("triebel_lizorkin requires p < inf")
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")

    def level_in_window(self, k: int) -> bool:
        if self.variant == "homogeneous":
            return True
        return k >= (0 if self.include_zero_level else 1)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "s": self.s,
            "p": self.p,
            "q": self.q,
            "delta": self.delta,
            "omega": self.omega,
            "variant": self.variant,
            "include_zero_level": self.include_zero_level,
        }


@dataclass
class CoefSequence:
    """Finitely supported map (level k, cube alpha) -> coefficient.

    Indices must refer to cubes of the backing system; "fresh" mode (the
    default, matching the wavelet index set) restricts to cubes whose
    center enters the net at level k, "all" admits every cube.
    """

    system: CubeSystem
    entries: dict
    index_mode: str = "fresh"

    def __post_init__(self):
        if self.index_mode not in ("fresh", "all"):
            raise ValueError(f"unknown index mode {self.index_mode!r}")
        valid = self.system.index_set(self.index_mode)
        clean = {}
        for key, value in self.entries.items():
            k, alpha = int(key[0]), int(key[1])
            if (k, alpha) not in valid:
                raise ValueError(
                    f"index (k={k}, alpha={alpha}) is not a {self.index_mode} cube "
                    f"of the backing system"
                )
            clean[(k, alpha)] = float(value)
        self.entries = dict(sorted(clean.items()))

    def support(self):
        return list(self.entries.keys())

    def scaled(self, c: float) -> "CoefSequence":
        return CoefSequence(
            system=self.system,
            entries={key: c * value for key, value in self.entries.items()},
            index_mode=self.index_mode,
        )

    def levels(self):
        return sorted({k for k, _ in self.entries})


def load_sequence(path: str, system: CubeSystem, index_mode: str = "fresh") -> CoefSequence:
    """Read a JSON list of {"k": int, "alpha": int, "value": real}."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: sequence file must be a JSON list")
    entries: dict = {}
    for i, row in enumerate(data):
        try:
            key = (int(row["k"]), int(row["alpha"]))
            value = float(row["value"])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{path}: entry {i} must carry integer k, alpha and a real value") from None
        entries[key] = entries.get(key, 0.0) + value
    return CoefSequence(system=system, entries=entries, index_mode=index_mode)


def _check_backing(seq: CoefSequence, params: NormParams) -> None:
    if abs(params.delta - seq.system.delta) > 1e-12:
        raise ValueError(
            f"params.delta = {params.delta!r} does not match the backing "
            f"system's delta = {seq.system.delta!r}"
        )


# ---------------------------------------------------------------------------
# Core aggregations (shared by the cube-backed and R^n-grid-backed norms)
# ---------------------------------------------------------------------------

def _besov_core(groups: dict, params: NormParams) -> float:
    """groups: level -> list of (mass, |coefficient|)."""
    s, p, q, delta = params.s, params.p, params.q, params.delta
    per_level = []
    for k, rows in sorted(groups.items()):
        if not params.level_in_window(k):
            continue
        terms = [m ** (_inv(p) - 0.5) * a for m, a in rows if a != 0.0]
        inner = lp_aggregate(terms, p)
        per_level.append(delta ** (-k * s) * inner)
    return lp_aggregate(per_level, q)


def _inv(p: float) -> float:
    return 0.0 if math.isinf(p) else 1.0 / p


def _tl_pointwise(n_points: int, contributions, params: NormParams) -> np.ndarray:
    """g(x) from per-entry contributions (k, mass, |lam|, member ids)."""
    s, q, delta = params.s, params.q, params.delta
    if math.isinf(q):
        g = np.zeros(n_points)
        for k, mass, a, members in contributions:
            if not params.level_in_window(k) or a == 0.0:
                continue
            value = delta ** (-k * s) * mass ** (-0.5) * a
            np.maximum.at(g, members, value)
        return g
    acc = np.zeros(n_points)
    for k, mass, a, members in contributions:
        if not params.level_in_window(k) or a == 0.0:
            continue
        acc[members] += delta ** (-k * s * q) * (mass ** (-0.5) * a) ** q
    return acc ** (1.0 / q)


def _lp_integral(g: np.ndarray, weights: np.ndarray, p: float) -> float:
    nz = g > 0
    if not np.any(nz):
        return 0.0
    return float(stable_sum(weights[nz] * g[nz] ** p) ** (1.0 / p))


def _layer_cake_integral(g: np.ndarray, weights: np.ndarray, p: float,
                         quadrature: str = "exact") -> float:
    """L^p norm of g via p * integral of t^{p-1} mu({g > t}) dt.

    g is piecewise constant, so with ``quadrature="exact"`` the integral
    collapses to an exact sum over the sorted level sets; "riemann:<n>"
    evaluates a midpoint rule on n nodes instead (a deliberately
    independent, approximate cross-check).
    """
    nz = g > 0
    if not np.any(nz):
        return 0.0
    vals = g[nz]
    ws = weights[nz]
    if quadrature == "exact":
        order = np.argsort(vals, kind="stable")
        v = vals[order]
        w = ws[order]
        # suffix sums: mu({g >= v_j}) for each distinct value v_j
        distinct_idx = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
        suffix = np.cumsum(w[::-1])[::-1]
        prev = 0.0
        pieces = []
        for idx in distinct_idx:
            vj = v[idx]
            pieces.append(suffix[idx] * (vj**p - prev**p))
            prev = vj
        total = stable_sum(pieces)
        return float(total ** (1.0 / p))
    if quadrature.startswith("riemann:"):
        n_nodes = int(quadrature.split(":", 1)[1])
        if n_nodes < 2:
            raise ValueError("riemann quadrature needs at least 2 nodes")
        top = float(vals.max())
        dt = top / n_nodes
        ts = (np.arange(n_nodes) + 0.5) * dt   # midpoint rule keeps t^{p-1} finite
        mu = np.array([stable_sum(ws[vals > t]) for t in ts])
        integral = p * stable_sum(ts ** (p - 1) * mu * dt)
        return float(integral ** (1.0 / p))
    raise ValueError(f"unknown quadrature {quadrature!r}")


# ---------------------------------------------------------------------------
# Cube-backed norms
# ---------------------------------------------------------------------------

def besov_norm(seq: CoefSequence, params: NormParams) -> float:
    if params.family != "besov":
        raise ValueError("params.family must be 'besov'")
    _check_backing(seq, params)
    groups: dict = {}
    for (k, alpha), value in seq.entries.items():
        groups.setdefault(k, []).append((seq.system.mass(k, alpha), abs(value)))
    return _besov_core(groups, params)


def triebel_lizorkin_norm(seq: CoefSequence, params: NormParams) -> float:
    if params.family != "triebel_lizorkin":
        raise ValueError("params.family must be 'triebel_lizorkin'")
    _check_backing(seq, params)
    g = _tl_pointwise(
        seq.system.space.n,
        ((k, seq.system.mass(k, alpha), abs(v), seq.system.members(k, alpha))
         for (k, alpha), v in seq.entries.items()),
        params,
    )
    return _lp_integral(g, seq.system.space.weight, params.p)


def layer_cake_tl_norm(seq: CoefSequence, params: NormParams,
                       quadrature: str = "exact") -> float:
    """Triebel-Lizorkin norm through the distribution function of g."""
    if params.family != "triebel_lizorkin":
        raise ValueError("params.family must be 'triebel_lizorkin'")
    _check_backing(seq, params)
    g = _tl_pointwise(
        seq.system.space.n,
        ((k, seq.system.mass(k, alpha), abs(v), seq.system.members(k, alpha))
         for (k, alpha), v in seq.entries.items()),
        params,
    )
    return _layer_cake_integral(g, seq.system.space.weight, params.p, quadrature)


def sequence_norm(seq: CoefSequence, params: NormParams) -> float:
    return besov_norm(seq, params) if params.family == "besov" \
        else triebel_lizorkin_norm(seq, params)


def delta_sequence_norm(system: CubeSystem, k0: int, alpha0: int,
                        params: NormParams) -> float:
    """Closed form for the one-coefficient sequence at cube (k0, alpha0):
    delta^{-k0 s} * mass^{1/p - 1/2}. The Besov and Triebel-Lizorkin
    values coincide (the indicator integrates to the cube mass)."""
    mass = system.mass(k0, alpha0)
    if not params.level_in_window(k0):
        return 0.0
    return params.delta ** (-k0 * params.s) * mass ** (_inv(params.p) - 0.5)


# ---------------------------------------------------------------------------
# Weighted sequence norms on the standard dyadic grid in R^n
# ---------------------------------------------------------------------------

def weighted_rn_norm(entries: dict, grid: RnDyadicGrid, params: NormParams) -> float:
    """Norm of a sequence over standard dyadic cubes Q(j, k) on a box in
    R^n, with cube masses given by the grid's weighted sums. Entries map
    (j, kvec) -> coefficient; delta must be 1/2."""
    if abs(params.delta - 0.5) > 1e-12:
        raise ValueError("the standard dyadic grid has delta = 1/2")
    norm_entries = {}
    for key, value in entries.items():
        j = int(key[0])
        kvec = tuple(int(v) for v in np.atleast_1d(np.asarray(key[1])).ravel())
        if not (grid.j_min <= j <= grid.j_max):
            raise ValueError(f"level j = {j} outside the grid window "
                             f"[{grid.j_min}, {grid.j_max}]")
        grid.mass(j, kvec)  # raises for cubes off the box
        norm_entries[(j, kvec)] = norm_entries.get((j, kvec), 0.0) + float(value)

    if params.family == "besov":
        groups: dict = {}
        for (j, kvec), value in sorted(norm_entries.items()):
            groups.setdefault(j, []).append((grid.mass(j, kvec), abs(value)))
        return _besov_core(groups, params)

    g = _tl_pointwise(
        grid.points.shape[0],
        ((j, grid.mass(j, kvec), abs(v), grid.members(j, kvec))
         for (j, kvec), v in sorted(norm_entries.items())),
        params,
    )
    return _lp_integral(g, grid.weights, params.p)


def params_for(family: str, s: float, p: float, q: float, system: CubeSystem,
               variant: str = "homogeneous", omega: Optional[float] = None,
               include_zero_level: bool = True) -> NormParams:
    """NormParams pinned to a cube system's delta."""
    return NormParams(s=s, p=p, q=q, delta=system.delta, omega=omega,
                      variant=variant, family=family,
                      include_zero_level=include_zero_level)
