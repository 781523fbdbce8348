"""The table-wide trend test against per-probe oracles that fit every probe:
flagged centers of the lower-bound check, the worst ancestry chain of the
necessity test, and the single-child chains of a cube system."""
from functools import lru_cache

import numpy as np
import pytest

from homspace import common, gallery
from homspace.dyadic import build_cubes, build_nets, max_single_child_chain
from homspace.embed import EmbedParams, delta_necessity_test
from homspace.seqnorm import NormParams
from homspace.space import FiniteHomSpace, check_local_lower_bound, check_lower_bound

from conftest import build_system
from helpers import (
    brute_lower_bound_witnesses,
    brute_single_child_runs,
    brute_trend_probe,
    brute_worst_chain,
)

G = gallery.GallerySpec
SPACES = {
    "grid64": G(kind="euclidean_grid", n=64),
    "grid8x8": G(kind="euclidean_grid", n=8, dim=2),
    "weighted65": G(kind="weighted_grid", n=65, alpha=2.0, extent=2.0),
    "tail129": G(kind="weighted_grid", n=129, beta=-0.5, extent=64.0),
    "cantor5": G(kind="cantor", depth=5),
    "snowflake64": G(kind="snowflake", n=64, e=0.5),
    "squared48": None,
    "clusters": None,
}
OMEGAS = (0.5, 1.0, 1.5)
# the library's decay threshold, and a looser one that lets more probes
# reach the exponent prong
DECAY_FRACS = (common.DECAY_FRAC, 0.5)
SEEDS = (0xD1AD1C, 3, 77)


@lru_cache(maxsize=None)
def space(name):
    if name == "squared48":
        # squared distances on a line: masses grow like r^(1/2)
        pts = np.sort(np.random.default_rng(5).random(48))
        return FiniteHomSpace(dist=(pts[:, None] - pts[None, :]) ** 2, weight=np.ones(48))
    if name == "clusters":
        # tight pairs far apart: multi-point cubes with one child over levels
        pts = np.array([0.0, 1e-4, 100.0, 100.0001, 200.0, 200.0003, 300.5])
        return FiniteHomSpace(dist=np.abs(pts[:, None] - pts[None, :]), weight=np.arange(1.0, 8.0))
    return gallery.build(SPACES[name])


@lru_cache(maxsize=None)
def system(name, seed):
    return build_system(space(name), seed=seed)


def test_evaluate_matches_the_probe_oracle_row_by_row():
    x = np.geomspace(1.0, 1e6, 12)
    masses = np.stack([x ** 1.19,                  # decays, exponent within tolerance
                       x ** 0.5,                   # decays, exponent off: flagged
                       x,                          # flat constant: no decay
                       np.r_[np.zeros(11), 2.0],   # one positive mass: no fit, no span
                       np.full(12, 3.0),           # decays, fitted slope 0
                       x ** 0.5])                  # decays by exactly decay_frac
    consts = masses / x ** 1.0
    consts[5] = np.r_[1.0, np.full(11, 0.1)]
    span, exponent, flagged = common.trend_flags(x, masses, consts, 1.0)
    for row in range(len(masses)):
        want_span, want_exp, want_flag = brute_trend_probe(x, masses[row], consts[row], 1.0)
        assert span[row] == want_span
        assert flagged[row] == want_flag
        if span[row] <= 0.1 and want_exp is not None:
            assert exponent[row] == want_exp
        else:
            assert np.isnan(exponent[row])       # no fit unless the decay prong fires
    assert flagged.tolist() == [False, True, False, False, True, True]
    assert span[3] == 1.0


def test_evaluate_fits_only_where_the_decay_prong_fires(monkeypatch):
    fitted = []
    real = common.fit_loglog
    monkeypatch.setattr(common, "fit_loglog", lambda x, y: fitted.append(y) or real(x, y))
    x = np.geomspace(1.0, 100.0, 5)
    masses = np.stack([x, x ** 0.2, x ** 0.9])
    common.trend_flags(x, masses, masses / x, 1.0)
    assert len(fitted) == 1 and np.array_equal(fitted[0], masses[1])


@pytest.mark.parametrize("name", sorted(SPACES))
def test_lower_bound_witnesses_match_the_per_center_oracle(name, monkeypatch):
    sp = space(name)
    tol = common.EXPONENT_TOL
    fire_within = flagged = 0
    for omega in OMEGAS:
        for decay_frac in DECAY_FRACS:
            monkeypatch.setattr(common, "DECAY_FRAC", decay_frac)
            r_max = max(sp.diameter, 2 * sp.r_floor)
            local = sp.scaled(dist_factor=1.0 / sp.diameter)
            for target, report in (
                    (sp, check_lower_bound(sp, omega, sp.r_floor, r_max)),
                    (local, check_local_lower_bound(local, omega))):
                radii = np.array(report.radii)
                masses = target.ball_mass(np.arange(sp.n), radii)
                witnesses, probes = brute_lower_bound_witnesses(
                    radii, masses, omega, tol, decay_frac)
                assert report.witnesses == witnesses
                assert report.verdict == ("FAIL" if witnesses else "PASS")
                flagged += len(witnesses)
                fire_within += sum(span <= decay_frac and exp is not None
                                   and abs(exp - omega) <= tol
                                   for span, exp, _ in probes)
    if name == "squared48":
        # rows whose constant decays while their exponent stays within
        # tolerance, next to flagged rows
        assert fire_within > 0 and flagged > 0


def _params(omega, variant):
    def norm(s, p):
        return NormParams(s=s, p=p, q=1.0, variant=variant, family="besov")
    return EmbedParams(source=norm(omega, 1.0), target=norm(omega / 2, 2.0), omega=omega)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_worst_chain_matches_the_per_leaf_oracle(name, monkeypatch):
    seen = set()
    for seed in SEEDS:
        cubes = system(name, seed)
        for omega in OMEGAS:
            for variant in ("homogeneous", "inhomogeneous"):
                for decay_frac in DECAY_FRACS:
                    monkeypatch.setattr(common, "DECAY_FRAC", decay_frac)
                    report = delta_necessity_test(cubes, _params(omega, variant))
                    if len(report.resolved_levels) < 2:
                        assert report.worst_chain is None
                        continue
                    worst, failing = brute_worst_chain(
                        cubes.assignment, cubes.cube_mass, cubes.delta, report.resolved_levels,
                        omega, common.EXPONENT_TOL, decay_frac)
                    assert report.worst_chain == worst
                    assert report.verdict == ("FAIL" if failing else "PASS")
                    if report.verdict == "PASS" and worst["span"] > decay_frac:
                        seen.add("pass fitted apart")
                    seen.add(report.verdict)
    if name == "grid64":
        # a PASS whose worst chain's exponent comes from its own fit
        assert "pass fitted apart" in seen
    if name == "weighted65":
        assert {"PASS", "FAIL"} <= seen


@pytest.mark.parametrize("name", sorted(SPACES))
def test_single_child_chains_match_the_brute_runs(name):
    cubes_list = [system(name, seed) for seed in SEEDS]
    if name == "clusters":
        cubes_list += [build_cubes(build_nets(space(name), 1 / 32, 1.0, 2.0, k_range=(-2, 4),
                                              seed=seed), space(name)) for seed in SEEDS]
    for cubes in cubes_list:
        report = max_single_child_chain(cubes)
        net = cubes.net
        branching, best, witnesses, atomic_best = brute_single_child_runs(
            cubes.assignment, net.k_min, net.k_max)
        assert report.max_chain_len == best
        assert report.witnesses == witnesses
        assert report.ok == (best <= report.bound_N)
        if net.k_max > net.k_min:
            assert report.branching == branching
            atomic_cubes = (report.atomic_note or "").startswith("atomic cubes")
            assert atomic_cubes == (atomic_best > report.bound_N)
    if name == "clusters":
        assert max_single_child_chain(cubes_list[-1]).max_chain_len > 1


def test_single_child_chains_keep_five_witnesses():
    # eight far-apart tight pairs: every pair is a lone-child run of the
    # same length, and the report keeps the first five
    pts = np.concatenate([[100.0 * i, 100.0 * i + 1e-4] for i in range(8)])
    sp = FiniteHomSpace(dist=np.abs(pts[:, None] - pts[None, :]), weight=np.ones(16))
    cubes = build_cubes(build_nets(sp, 1 / 32, 1.0, 2.0, k_range=(-2, 4)), sp)
    report = max_single_child_chain(cubes)
    _, best, witnesses, _ = brute_single_child_runs(cubes.assignment, -2, 4)
    assert report.max_chain_len == best > 0
    assert len(report.witnesses) == 5
    assert report.witnesses == witnesses
