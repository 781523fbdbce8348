import dataclasses
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from homspace import gallery
from homspace.common import DEFAULT_SEED, dumps_report, rng_stream
from homspace.dyadic import (
    CubeConstructionError,
    HypothesisViolated,
    InadmissibleConstants,
    ScaleOutOfRange,
    ball_lower_bound_from_cubes,
    build_cubes,
    build_nets,
    chain_length_bound,
    default_constants,
    default_level_range,
    max_single_child_chain,
    propagate_cube_lower_bound,
    shrink_factor,
    verify_cube_axioms,
    _verify_net,
)
from homspace.space import FiniteHomSpace

from conftest import build_system, fresh_at
from helpers import brute_ball_mass, brute_cube_axioms, unit_spaced_grid


def two_point_space(gap=1.0):
    dist = np.array([[0.0, gap], [gap, 0.0]])
    return FiniteHomSpace(dist=dist, weight=np.ones(2))


def single_point_space():
    return FiniteHomSpace(dist=np.zeros((1, 1)), weight=np.ones(1))


# ---------------------------------------------------------------------------
# constants and nets
# ---------------------------------------------------------------------------

def test_default_delta_metric_case():
    # A0 = 1, c0 = 1, C0 = 2: largest power of 1/2 with 24*delta <= 1 is 1/32
    sp = unit_spaced_grid(8)
    delta, c0, C0 = default_constants(sp)
    assert (delta, c0, C0) == (1 / 32, 1.0, 2.0)


def test_inadmissible_constants_raise():
    sp = dataclasses.replace(unit_spaced_grid(8), declared_A0=1.0)
    with pytest.raises(InadmissibleConstants, match="4.8"):
        build_nets(sp, 0.2, 1.0, 2.0)


def test_nets_16_grid_coarse_single_fine_all(grid16_spaced):
    net = build_nets(grid16_spaced, 1 / 32, 1.0, 2.0)
    assert net.k_min == -1 and net.k_max == 0
    assert len(net.centers[-1]) == 1
    assert len(net.centers[0]) == 16


def test_nets_two_points_threshold():
    sp = two_point_space(1.0)
    net = build_nets(sp, 1 / 32, 1.0, 2.0, k_range=(-1, 0))
    assert len(net.centers[-1]) == 1   # separation 32 admits only one center
    assert len(net.centers[0]) == 2    # separation 1 <= gap admits both


def test_nets_single_point_every_level():
    net = build_nets(single_point_space(), 1 / 32, 1.0, 2.0, k_range=(0, 3))
    for k in net.levels:
        assert list(net.centers[k]) == [0]


def test_nets_empty_range_error():
    with pytest.raises(ValueError, match="empty level range"):
        build_nets(unit_spaced_grid(4), 1 / 32, 1.0, 2.0, k_range=(2, 1))


def test_nets_invariants_brute(grid64):
    net = build_nets(grid64, *default_constants(grid64), seed=17)
    dist = grid64.dist
    prev = set()
    for k in net.levels:
        ids = [int(i) for i in net.centers[k]]
        assert prev <= set(ids)                      # nested
        sep = net.separation(k)
        for i in ids:
            for j in ids:
                if i != j:
                    assert dist[i, j] >= sep * (1 - 1e-12)   # separated
        for x in range(grid64.n):
            assert min(dist[x, i] for i in ids) < net.covering(k)  # covering
        prev = set(ids)


def test_quasi_metric_pipeline_squared_distances():
    # squared line distances give a genuine quasi-metric with A0 = 2, which
    # drives delta down to 1/256 and stretches the sandwich constants
    pts = np.arange(12.0)
    dist = np.abs(pts[:, None] - pts[None, :]) ** 2
    sp = FiniteHomSpace(dist=dist, weight=np.ones(12))
    delta, c0, C0 = default_constants(sp)
    assert delta == 1 / 256          # largest power of 1/2 below 1/192
    cubes = build_cubes(build_nets(sp, delta, c0, C0), sp)
    assert verify_cube_axioms(cubes).ok
    assert cubes.c1 == pytest.approx(1.0 / 12.0)
    assert cubes.C1 == pytest.approx(8.0)
    report = max_single_child_chain(cubes)
    assert report.max_chain_len <= report.bound_N


def test_default_level_range_spans_diameter_to_floor():
    sp = unit_spaced_grid(16)
    k_min, k_max = default_level_range(sp, 1 / 32, 1.0, 2.0)
    assert 2.0 * (1 / 32) ** k_min >= sp.diameter
    assert 1.0 * (1 / 32) ** k_max <= sp.r_floor


# ---------------------------------------------------------------------------
# cubes
# ---------------------------------------------------------------------------

def test_cubes_16_grid_interval_partition(grid16_cubes, grid16_spaced):
    for k in grid16_cubes.levels:
        seen = 0.0
        for alpha in grid16_cubes.cubes(k):
            members = grid16_cubes.members(k, alpha)
            assert members.size > 0
            # 1-D nearest-center cubes are intervals of grid indices
            assert np.array_equal(members, np.arange(members[0], members[-1] + 1))
            seen += grid16_cubes.mass(k, alpha)
        assert seen == pytest.approx(16.0, rel=1e-12)


def test_cubes_single_point():
    sp = single_point_space()
    net = build_nets(sp, 1 / 32, 1.0, 2.0, k_range=(0, 2))
    cubes = build_cubes(net, sp)
    for k in cubes.levels:
        assert cubes.mass(k, 0) == 1.0


def test_inner_ball_inside_cube_brute(grid64_cubes, grid64):
    # every point of B(z, c1 delta^k) carries the cube's assignment
    for k in grid64_cubes.levels:
        r_in = grid64_cubes.c1 * grid64_cubes.scale(k)
        for alpha in grid64_cubes.cubes(k):
            for x in range(grid64.n):
                if grid64.dist[int(alpha), x] < r_in:
                    assert grid64_cubes.point_cube(k, x) == int(alpha)


def test_verify_axioms_pass_on_builds(grid64_cubes, grid16_cubes, four_point_cubes):
    for system in (grid64_cubes, grid16_cubes, four_point_cubes):
        assert verify_cube_axioms(system).ok


def test_verify_axioms_mutation_detected():
    # two multi-cube levels: reassigning one member of a fine cube across a
    # coarse boundary (at the coarse level only) must break the nesting axiom
    # a line is a metric: declaring A0 = 1 spares the exact O(n^3) pass
    sp = dataclasses.replace(unit_spaced_grid(2500), declared_A0=1.0)
    net = build_nets(sp, 1 / 32, 1.0, 2.0, k_range=(-2, -1))
    cubes = build_cubes(net, sp)
    roots = list(cubes.cubes(-2))
    assert len(roots) >= 2
    fine = next(a for a in cubes.cubes(-1) if cubes.members(-1, a).size >= 2)
    x = next(int(m) for m in cubes.members(-1, fine) if int(m) != int(fine))
    assign = cubes.assignment[-2].copy()
    other = next(r for r in roots if int(r) != int(assign[x]))
    assign[x] = other
    cubes.assignment[-2] = assign
    report = verify_cube_axioms(cubes)
    assert not report.ok
    assert any(v["axiom"] == "nesting" for v in report.violations)


def test_verify_axioms_single_level_truncated(grid16_spaced):
    net = build_nets(grid16_spaced, 1 / 32, 1.0, 2.0, k_range=(0, 0))
    cubes = build_cubes(net, grid16_spaced)
    report = verify_cube_axioms(cubes)
    assert report.ok                      # nesting vacuous, partition still checked


def test_assignment_chain_consistency(grid64_cubes):
    levels = list(grid64_cubes.levels)
    for k in levels[1:]:
        for x in range(grid64_cubes.space.n):
            child = grid64_cubes.point_cube(k, x)
            assert grid64_cubes.parent(k, child) == grid64_cubes.point_cube(k - 1, x)


def squared_line(m, seed):
    pts = np.sort(np.random.default_rng(seed).random(m))
    return FiniteHomSpace(dist=(pts[:, None] - pts[None, :]) ** 2, weight=np.ones(m))


@lru_cache(maxsize=None)
def sweep_space(kind, size):
    """A space of about ``size`` points; "squared_line:<s>" is a quasi-metric table."""
    if kind.startswith("squared_line:"):
        return squared_line(size, int(kind.split(":")[1]))
    spec = {
        "grid": gallery.GallerySpec(kind="euclidean_grid", n=size),
        "grid2d": gallery.GallerySpec(kind="euclidean_grid", n=int(size**0.5), dim=2),
        "cantor": gallery.GallerySpec(kind="cantor", depth=int(np.log2(size))),
        "snowflake": gallery.GallerySpec(kind="snowflake", n=size, e=0.5),
        "weighted": gallery.GallerySpec(kind="weighted_grid", n=size + 1, alpha=2.0, extent=2.0),
    }[kind]
    return gallery.build(spec)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(kind=st.sampled_from(["grid", "grid2d", "cantor", "snowflake", "weighted"]
                            + [f"squared_line:{s}" for s in range(8)]),
       size=st.sampled_from([16, 32, 64, 128, 256]),
       seed=st.integers(0, 2**31 - 1))
@example(kind="grid", size=256, seed=DEFAULT_SEED)
@example(kind="grid", size=200, seed=1570764153)
def test_build_never_raises_sweep(kind, size, seed):
    # build_cubes raises CubeConstructionError on any axiom violation
    sp = sweep_space(kind, size)
    net = build_nets(sp, *default_constants(sp), seed=seed)
    cubes = build_cubes(net, sp)
    for k in net.levels:
        assert np.array_equal(net.centers[k], np.flatnonzero(net.birth <= k))
        if k > net.k_min:
            assert np.array_equal(fresh_at(cubes, k),
                                  np.setdiff1d(net.centers[k], net.centers[k - 1]))


def test_squared_line_32_builds():
    # the top-down builder put member 26 of level-2 cube 27 outside its outer ball
    sp = squared_line(32, 3)
    cubes = build_cubes(build_nets(sp, *default_constants(sp)), sp)
    assert cubes.axioms.ok


ORACLE_KINDS = ["grid", "grid2d", "cantor", "snowflake", "weighted", "squared_line:0"]
ORACLE_SEEDS = (DEFAULT_SEED, 1, 2)


def oracle_violations(cubes):
    return brute_cube_axioms(cubes.space.dist, cubes.space.weight, cubes.net.centers,
                             cubes.assignment, cubes.order, cubes.bounds, cubes.cube_mass,
                             cubes.c1, cubes.C1, cubes.delta)


def corrupt(cubes, how, rng):
    """A copy of ``cubes`` with one assignment entry moved to another point,
    two order entries swapped, or one positive cube mass doubled."""
    k = int(rng.choice(list(cubes.levels)))
    if how == "assignment":
        assign = cubes.assignment[k].copy()
        x = int(rng.integers(assign.size))
        assign[x] = rng.choice(np.flatnonzero(np.arange(assign.size) != assign[x]))
        return dataclasses.replace(cubes, assignment={**cubes.assignment, k: assign})
    if how == "order":
        order = cubes.order[k].copy()
        i, j = rng.choice(order.size, 2, replace=False)
        order[[i, j]] = order[[j, i]]
        return dataclasses.replace(cubes, order={**cubes.order, k: order})
    mass = cubes.cube_mass[k].copy()
    mass[rng.choice(np.flatnonzero(mass > 0))] *= 2.0
    return dataclasses.replace(cubes, cube_mass={**cubes.cube_mass, k: mass})


@lru_cache(maxsize=None)
def oracle_system(kind, seed, cut):
    """The cubes of a 128-point sweep space on the default level window, or
    with ``cut`` on that window less its coarsest level, whose one center's
    outer ball holds the whole space."""
    sp = sweep_space(kind, 128)
    consts = default_constants(sp)
    k_min, k_max = default_level_range(sp, *consts)
    return build_cubes(build_nets(sp, *consts, k_range=(k_min + cut, k_max), seed=seed), sp)


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_verify_axioms_match_oracle_on_builds(kind):
    for seed in ORACLE_SEEDS:
        for cut in (0, 1):
            cubes = oracle_system(kind, seed, cut)
            assert verify_cube_axioms(cubes).ok
            assert oracle_violations(cubes) == []


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_verify_axioms_match_oracle_on_corruptions(kind):
    seen = set()
    for seed in ORACLE_SEEDS:
        rng = np.random.default_rng(seed)
        for cut in (0, 1):
            cubes = oracle_system(kind, seed, cut)
            for how in ("assignment", "order", "mass"):
                for _ in range(3):
                    bad = corrupt(cubes, how, rng)
                    report = verify_cube_axioms(bad)
                    assert dumps_report(report.violations) == dumps_report(oracle_violations(bad))
                    assert how != "mass" or not report.ok
                    seen |= {v["axiom"] for v in report.violations}
    assert {"partition", "sandwich"} <= seen


def tight_net():
    """A net on a 1-D grid of several row blocks with c0 = C0, so a center's
    own row is the only one that covers it, and its first level with a fresh
    center."""
    sp = dataclasses.replace(unit_spaced_grid(200), declared_A0=1.0)
    net = build_nets(sp, 1 / 16, 1.0, 1.0, k_range=(-2, 0))
    k = next(k for k in net.levels if k > net.k_min and np.any(net.birth == k))
    return sp, net, k


def test_verify_net_detects_a_missing_coarse_center():
    sp, net, k = tight_net()
    centers = dict(net.centers)
    centers[k] = np.setdiff1d(centers[k], centers[k - 1][:1])
    with pytest.raises(CubeConstructionError, match=f"level {k}: net not nested"):
        _verify_net(dataclasses.replace(net, centers=centers), sp)


def test_verify_net_detects_close_centers():
    # greedy nets are maximal: a point left out lies within c0*delta^k of a center
    sp, net, k = tight_net()
    outsider = np.setdiff1d(np.arange(sp.n), net.centers[k - 1])[-1]
    centers = dict(net.centers)
    centers[k - 1] = np.union1d(centers[k - 1], [outsider])
    with pytest.raises(CubeConstructionError, match=f"level {k - 1}: separation violated"):
        _verify_net(dataclasses.replace(net, centers=centers), sp)


def test_verify_net_detects_an_uncovered_point():
    # with c0 = C0 a fresh center is at least C0*delta^k from the others
    sp, net, k = tight_net()
    fresh = np.flatnonzero(net.birth == k)[-1]
    centers = dict(net.centers)
    centers[k] = np.setdiff1d(centers[k], [fresh])
    with pytest.raises(CubeConstructionError, match=f"level {k}: covering violated"):
        _verify_net(dataclasses.replace(net, centers=centers), sp)


def test_build_gate_allocates_less_than_the_table():
    sp = gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=32, dim=2))
    cubes = build_system(sp)
    tracemalloc.start()
    try:
        _verify_net(cubes.net, sp)
        verify_cube_axioms(cubes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sp.dist.nbytes          # 8 MiB


def test_members_are_ascending_slices(grid64_cubes):
    for k in grid64_cubes.levels:
        assign = grid64_cubes.assignment[k]
        for alpha in grid64_cubes.cubes(k):
            assert np.array_equal(grid64_cubes.members(k, alpha), np.flatnonzero(assign == alpha))


def test_index_cubes_returns_a_fresh_list(grid16_cubes, grid64_cubes):
    first = grid16_cubes.index_cubes()
    first.clear()
    assert grid16_cubes.index_cubes()
    for variant in ("homogeneous", "inhomogeneous"):
        index = grid64_cubes.fresh_index(variant)
        assert grid64_cubes.fresh_index(variant) is index       # built once
        assert not any(a.flags.writeable for a in index)
        assert grid64_cubes.index_cubes(variant) == list(zip(*(a.tolist() for a in index)))


def test_is_index_is_fresh_index_membership(grid64_cubes):
    net = grid64_cubes.net
    index = set(zip(*(a.tolist() for a in grid64_cubes.fresh_index("homogeneous"))))
    for k in range(net.k_min - 1, net.k_max + 2):
        for alpha in range(-1, grid64_cubes.space.n + 1):
            assert grid64_cubes.is_index(k, alpha) == ((k, alpha) in index)


def test_exactly_one_child_shares_center(grid64_cubes):
    for k in list(grid64_cubes.levels)[:-1]:
        for alpha in grid64_cubes.cubes(k):
            kids = grid64_cubes.children(k, int(alpha))
            assert int(alpha) in kids       # the center persists (nested nets)
            assert sum(1 for b in kids if b == int(alpha)) == 1


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def test_chain_bound_formula():
    # c1 = 1/3, C1 = 4 at A0=1, c0=1, C0=2: floor(log_32 12) + 1 = 1
    assert chain_length_bound(1 / 32, 1 / 3, 4.0) == 1


def test_chain_16_grid(grid16_cubes):
    report = max_single_child_chain(grid16_cubes)
    assert report.bound_N == 1
    assert report.max_chain_len in (0, 1)
    assert report.ok


def test_chain_single_point_atomic_flag():
    sp = single_point_space()
    net = build_nets(sp, 1 / 32, 1.0, 2.0, k_range=(0, 4))
    cubes = build_cubes(net, sp)
    report = max_single_child_chain(cubes)
    assert report.ok                          # no multi-point chain at all
    assert report.max_chain_len == 0
    assert report.atomic_note is not None


def test_chain_single_level_atomic_note():
    sp = single_point_space()
    cubes = build_cubes(build_nets(sp, 1 / 32, 1.0, 2.0, k_range=(0, 0)), sp)
    report = max_single_child_chain(cubes)
    assert report.atomic_note is not None
    assert "atomic" in report.atomic_note


def test_chain_all_singletons_within_the_bound_atomic_note():
    # two levels of one point: its single-child run (1) stays within the
    # bound (1), so the note names the all-singleton space
    sp = single_point_space()
    cubes = build_cubes(build_nets(sp, 1 / 32, 1.0, 2.0, k_range=(0, 1)), sp)
    report = max_single_child_chain(cubes)
    assert (report.max_chain_len, report.bound_N, report.ok) == (0, 1, True)
    assert report.atomic_note == ("atomic space: every cube is a single point; "
                                  "chain bound not applicable")


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_propagate_binary_system_formula():
    sp = two_point_space(1.0)
    net = build_nets(sp, 1 / 32, 1.0, 2.0, k_range=(-1, 0))
    cubes = build_cubes(net, sp)
    # the root has exactly M = 2 children; fresh level-0 cubes have mass 1
    report = propagate_cube_lower_bound(cubes, C=1.0, omega=1.0)
    assert report.m_min == 2
    assert report.bound_N == 1
    assert report.c_tilde == pytest.approx(1.0 * (2 - 1) * (1 / 32) ** 2)
    assert report.verdict == "PASS"


def test_propagate_verifies_all_cubes(grid16_cubes):
    report = propagate_cube_lower_bound(grid16_cubes, C=1.0, omega=1.0)
    assert report.verdict == "PASS"
    for k in grid16_cubes.levels:
        for alpha in grid16_cubes.cubes(k):
            assert grid16_cubes.mass(k, alpha) >= report.c_tilde * (1 / 32) ** k * (1 - 1e-12)


def test_propagate_hypothesis_violation_raises(grid16_cubes):
    with pytest.raises(HypothesisViolated, match="alpha="):
        propagate_cube_lower_bound(grid16_cubes, C=1e6, omega=1.0)


def test_propagate_zero_c_vacuous(grid16_cubes):
    report = propagate_cube_lower_bound(grid16_cubes, C=0.0, omega=1.0)
    assert report.c_tilde == 0.0
    assert report.verdict == "PASS"


def test_propagate_detects_zeroed_cube(grid16_spaced):
    cubes = build_system(grid16_spaced)
    root = int(cubes.cubes(cubes.net.k_min)[0])
    cubes.cube_mass[cubes.net.k_min][root] = 0.0   # simulated mass loss
    report = propagate_cube_lower_bound(cubes, C=1.0, omega=1.0)
    assert report.verdict == "FAIL"
    assert report.witness["cube"] == root


def test_propagate_without_a_branching_cube_is_not_applicable():
    sp = single_point_space()
    cubes = build_cubes(build_nets(sp, 1 / 32, 1.0, 2.0, k_range=(0, 3)), sp)
    report = propagate_cube_lower_bound(cubes, C=1.0, omega=1.0)
    assert (report.verdict, report.c_tilde, report.m_min, report.witness) == \
        ("NOT_APPLICABLE", 0.0, None, None)
    assert report.notes == ["no branching cube in the window (atomic-like system)"]


def test_propagate_nonneg_variant(grid16_cubes, grid16_spaced):
    # the verdicts, constants and witnesses of the inhomogeneous window, as
    # they stood when the window was named "fresh-nonneg"
    report = propagate_cube_lower_bound(grid16_cubes, C=1.0, omega=1.0,
                                        variant="inhomogeneous")
    assert (report.verdict, report.c_tilde, report.m_min, report.bound_N) == \
        ("PASS", 15 / 1024, 16, 1)
    assert report.variant == "inhomogeneous" and report.witness is None

    cubes = build_system(grid16_spaced)
    root = int(cubes.cubes(cubes.net.k_min)[0])
    cubes.cube_mass[cubes.net.k_min][root] = 0.0   # not fresh at k >= 0
    report = propagate_cube_lower_bound(cubes, C=1.0, omega=1.0, variant="inhomogeneous")
    assert (report.verdict, report.c_tilde) == ("FAIL", 15 / 1024)
    assert report.witness == {"level": -1, "cube": 6, "mass": 0.0, "required": 0.46875}
    with pytest.raises(ValueError, match="unknown variant"):
        propagate_cube_lower_bound(cubes, C=1.0, omega=1.0, variant="fresh-nonneg")


# ---------------------------------------------------------------------------
# ball bound from cubes
# ---------------------------------------------------------------------------

def test_shrink_factor_half():
    assert shrink_factor(0.5) == pytest.approx(1 / 5)


def test_ball_bound_uniform_grid_sound():
    sp = unit_spaced_grid(64)
    cubes = build_system(sp)
    report = ball_lower_bound_from_cubes(cubes, sp, x=32, r=40.0, C=0.5, omega=1.0)
    assert report.containment_ok
    assert report.verdict == "PASS"
    assert report.certified <= report.actual
    assert report.actual == pytest.approx(brute_ball_mass(sp.dist, sp.weight, 32, 40.0))


def clustered_line():
    """Eight clusters of four points 0.001 apart, one unit between
    clusters: the level-1 cubes are the clusters."""
    pts = (np.arange(8)[:, None] + 0.001 * np.arange(4)[None]).ravel()
    return FiniteHomSpace(dist=np.abs(pts[:, None] - pts[None]), weight=np.ones(32))


def test_ball_bound_hypothesis_violation_raises():
    sp = clustered_line()
    with pytest.raises(HypothesisViolated, match=r"cube \(k=1, alpha=0\) has mass 4 <"):
        ball_lower_bound_from_cubes(build_system(sp), sp, x=0, r=1.5, C=1e3, omega=1.0)


def test_ball_bound_detects_an_escaped_member():
    sp = clustered_line()
    cubes = build_system(sp)
    report = ball_lower_bound_from_cubes(cubes, sp, x=0, r=1.5, C=0.5, omega=1.0)
    assert (report.level, report.containment_ok, report.verdict) == (1, True, "PASS")
    order = cubes.order[1]
    assert order[:4].tolist() == [0, 1, 2, 3]                  # cube 0 is the first cluster
    at = int(np.flatnonzero(order == 20)[0])
    order[3], order[at] = 20, 3                               # simulated corruption
    report = ball_lower_bound_from_cubes(cubes, sp, x=0, r=1.5, C=0.5, omega=1.0)
    assert (report.containment_ok, report.verdict) == (False, "FAIL")
    assert report.witness == {"cube": 0, "point": 20}


def test_ball_bound_below_floor_errors():
    sp = unit_spaced_grid(16)
    cubes = build_system(sp)
    with pytest.raises(ScaleOutOfRange):
        ball_lower_bound_from_cubes(cubes, sp, x=8, r=0.5, C=0.5, omega=1.0)


def test_ball_bound_soundness_sweep():
    sp = unit_spaced_grid(128)
    cubes = build_system(sp)
    rng = rng_stream(5, 2)
    tried = 0
    for x in rng.integers(0, 128, 8):
        for r in (20.0, 45.0, 90.0):
            try:
                report = ball_lower_bound_from_cubes(cubes, sp, int(x), r, C=0.5, omega=1.0)
            except ScaleOutOfRange:
                continue
            tried += 1
            assert report.certified <= report.actual * (1 + 1e-12)
            assert report.containment_ok
    assert tried > 0


def test_ball_bound_level_bracketing():
    sp = unit_spaced_grid(64)
    cubes = build_system(sp)
    report = ball_lower_bound_from_cubes(cubes, sp, x=10, r=50.0, C=0.5, omega=1.0)
    a = report.alpha_shrink
    d, C1, k = cubes.delta, cubes.C1, report.level
    assert C1 * d ** (k + 1) <= a * 50.0 * (1 + 1e-12)
    assert a * 50.0 < C1 * d**k * (1 + 1e-12)
