import tracemalloc

import numpy as np
import pytest

from homspace import gallery
from homspace import space as space_module
from homspace.common import rng_stream
from homspace.space import (
    A0_BLOCK_X,
    A0_BLOCK_Z,
    ROW_BLOCK,
    FiniteHomSpace,
    check_local_lower_bound,
    check_lower_bound,
    check_reverse_doubling,
    estimate_doubling,
    estimate_quasi_triangle_constant,
    estimate_reverse_doubling_exponent,
    fit_mass_exponent,
    space_stats,
    validate_quasi_metric,
)

from helpers import (
    brute_a0,
    brute_a0_witness,
    brute_ball_mass,
    brute_reverse_doubling,
    brute_table_violations,
    integer_grid_table,
    unit_spaced_grid,
)


def explicit_space(dist, weights=None, **kw):
    dist = np.asarray(dist, dtype=float)
    w = np.ones(dist.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    return FiniteHomSpace(dist=dist, weight=w, **kw)


# ---------------------------------------------------------------------------
# validate_quasi_metric
# ---------------------------------------------------------------------------

def test_r_floor_is_the_least_positive_entry():
    rng = np.random.default_rng(3)
    points = np.repeat(rng.random(150), 2)       # each point twice: zero off the diagonal
    dist = np.abs(points[:, None] - points[None, :])
    assert explicit_space(dist).r_floor == dist[dist > 0].min()
    assert explicit_space(np.zeros((1, 1))).r_floor == 1.0


def test_r_floor_allocates_less_than_the_table():
    sp = gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=32, dim=2))
    tracemalloc.start()
    try:
        r_floor = sp.r_floor
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sp.dist.nbytes                 # 8 MiB
    assert r_floor == sp.dist[sp.dist > 0].min()


def test_validate_metric_line_ok():
    sp = unit_spaced_grid(3)
    result = validate_quasi_metric(sp)
    assert result.ok
    assert result.a0_used is None       # nothing declared: A0 is not checked
    assert sp.metric == "explicit"
    assert sp.quasi_triangle.value == 1.0


def test_validate_asymmetry_violation():
    sp = explicit_space([[0.0, 1.0], [2.0, 0.0]])
    result = validate_quasi_metric(sp)
    assert not result.ok
    kinds = {v["kind"] for v in result.violations}
    assert "symmetry" in kinds
    bad = [v for v in result.violations if v["kind"] == "symmetry"][0]
    assert sorted(bad["pair"]) == [0, 1]


def test_validate_triangle_declared_a0():
    # d(0,2) = 10 against d(0,1) + d(1,2) = 2: fails at A0 = 1, holds at A0 = 5
    dist = [[0, 1, 10], [1, 0, 1], [10, 1, 0]]
    bad = validate_quasi_metric(explicit_space(dist, declared_A0=1.0))
    assert not bad.ok
    assert any(v["kind"] == "triangle" for v in bad.violations)
    ok = validate_quasi_metric(explicit_space(dist, declared_A0=5.0))
    assert ok.ok


def test_validate_empty_space_error():
    sp = FiniteHomSpace(dist=np.zeros((0, 0)), weight=np.zeros(0))
    with pytest.raises(ValueError, match="empty space"):
        validate_quasi_metric(sp)


def test_validate_invalid_measure_error():
    sp = explicit_space([[0.0, 1.0], [1.0, 0.0]], weights=[1.0, -1.0])
    with pytest.raises(ValueError, match="invalid measure"):
        validate_quasi_metric(sp)


def test_validate_duplicate_points_flagged():
    sp = explicit_space([[0.0, 0.0], [0.0, 0.0]])
    result = validate_quasi_metric(sp)
    assert not result.ok
    assert any(v["kind"] == "identity" for v in result.violations)


def defective_table(kind, n, rng):
    """A line metric on n seeded points with one kind of defect."""
    points = np.sort(rng.random(n))
    d = np.abs(points[:, None] - points[None, :])
    i, j = rng.integers(n, size=(2, int(rng.integers(1, 30))))
    if kind == "negative":
        d[i, j] = -d[i, j] - 1.0
    elif kind == "one-sided":
        d[i, j] += rng.random(i.size)
    elif kind == "zeroed pairs":
        d[i, j] = d[j, i] = 0.0
    elif kind == "one-sided zeros":
        d[i, j] = 0.0
    elif kind == "duplicate block":
        lo = int(rng.integers(n))
        d[lo:lo + int(rng.integers(1, n + 1)), lo:lo + int(rng.integers(1, n + 1))] = 0.0
    elif kind == "diagonal":
        d[i, i] = rng.random(i.size)
    elif kind == "nan":
        d[i, j] = np.nan
    else:                                   # every kind at once
        d[i, j] = rng.choice([-1.0, 0.0, np.nan, 2.0], i.size)
    return d


TABLE_DEFECTS = ["negative", "one-sided", "zeroed pairs", "one-sided zeros", "duplicate block",
                 "diagonal", "nan", "mixed"]


@pytest.mark.parametrize("row_block", [1, 7, 64])
@pytest.mark.parametrize("kind", TABLE_DEFECTS)
def test_validate_matches_the_table_oracle(monkeypatch, kind, row_block):
    monkeypatch.setattr(space_module, "ROW_BLOCK", row_block)
    rng = rng_stream(row_block, 0x7AB1E)
    for n in (1, 2, 3, 8, 40, 70, 129):
        d = defective_table(kind, n, rng)
        result = validate_quasi_metric(explicit_space(d))
        expected = brute_table_violations(d)
        # repr: a NaN value compares unequal to itself
        assert repr(result.violations) == repr(expected)
        assert result.truncated == (len(expected) == 20)
        assert result.ok == (not expected)


def test_validate_full_structural_list_skips_the_triangle_scan(monkeypatch):
    def no_pass(space):
        raise AssertionError("validation ran the A0 pass")

    monkeypatch.setattr(space_module, "estimate_quasi_triangle_constant", no_pass)
    d = defective_table("one-sided", 30, rng_stream(1, 0x7AB1E))
    d[:5, 10:20] = -1.0             # 50 negative entries fill the list on an asymmetric table
    for table in (d, np.minimum(d, d.T)):        # and on a symmetric one
        sp = explicit_space(table, declared_A0=1.0)
        result = validate_quasi_metric(sp)
        assert repr(result.violations) == repr(brute_table_violations(table))
        assert {v["kind"] for v in result.violations} == {"nonnegativity"}
        assert result.truncated and result.a0_used == 1.0
        assert "quasi_triangle" not in vars(sp)


def test_validate_allocates_a_small_part_of_the_table():
    sp = gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=32, dim=2))
    tracemalloc.start()
    try:
        result = validate_quasi_metric(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak < sp.dist.nbytes / 16            # 8 MiB table


# ---------------------------------------------------------------------------
# quasi-triangle constant
# ---------------------------------------------------------------------------

def test_a0_euclidean_grid_is_one(grid64):
    est = estimate_quasi_triangle_constant(grid64)
    # the distance table itself carries 1-ulp rounding, so "exactly 1" means 1e-12
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_a0_squared_distance_three_points():
    # |x-y|^2 on {0,1,2}: the only stretched triple gives 4 / (1 + 1) = 2
    dist = [[0, 1, 4], [1, 0, 1], [4, 1, 0]]
    est = estimate_quasi_triangle_constant(explicit_space(dist))
    assert est.value == pytest.approx(2.0)
    assert est.value == pytest.approx(brute_a0(np.asarray(dist, dtype=float)))


def test_a0_degenerate_pair():
    est = estimate_quasi_triangle_constant(explicit_space([[0.0, 1.0], [1.0, 0.0]]))
    assert est.degenerate
    assert est.value == 1.0


def test_a0_exhaustive_certifies():
    rng = rng_stream(11, 1)
    pts = np.sort(rng.uniform(0, 10, 12))
    dist = np.abs(pts[:, None] - pts[None, :]) ** 2  # exponent 2 breaks the triangle
    sp = explicit_space(dist)
    est = estimate_quasi_triangle_constant(sp)
    # no triple may violate the certified constant
    n = sp.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x == y or z in (x, y):
                    continue
                assert dist[x, y] <= est.value * (dist[x, z] + dist[z, y]) * (1 + 1e-12)


def _random_tables(rng):
    """Small tables of every shape the row-wise A0 pass must get exactly:
    metrics, squared and snowflaked line distances, and random symmetric
    tables with a zero diagonal (arbitrary quasi-metrics)."""
    for _ in range(6):
        n = int(rng.integers(3, 14))
        pts = rng.uniform(0, 10, (n, int(rng.integers(1, 4))))
        metric = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        line = np.abs(pts[:, None, 0] - pts[None, :, 0])
        raw = rng.uniform(0.01, 5.0, (n, n))
        sym = np.triu(raw, 1) + np.triu(raw, 1).T
        yield metric
        yield line**2
        yield line ** float(rng.uniform(0.2, 0.9))
        yield line ** float(rng.uniform(1.1, 3.0))
        yield sym


def test_a0_row_pass_matches_brute_force():
    rng = rng_stream(2024, 0xA0)
    for dist in _random_tables(rng):
        est = estimate_quasi_triangle_constant(explicit_space(dist))
        assert est.value == brute_a0(dist)
        if est.value > 1.0:
            x, y, z = est.witness
            assert z not in (x, y)
            assert dist[x, y] / (dist[x, z] + dist[z, y]) == est.value
        else:
            assert est.witness is None


def _tied_table(n, rng):
    """Integer table on a random relabelling: 3 between points of the same
    parity, 1 across. Every same-parity pair attains A0 = 3 / (1 + 1)
    through every point of the other parity, so for n >= 4 several pairs
    and several z tie at the maximum."""
    parity = rng.permutation(n) % 2
    dist = np.where(parity[:, None] == parity[None, :], 3.0, 1.0)
    np.fill_diagonal(dist, 0.0)
    return dist


def _lone_witness_table(n):
    """2 between any two points, but 3 from 0 to 1 and 1 from the last
    point to both: A0 = 3 / (1 + 1), attained only by (0, 1, n - 1)."""
    dist = np.full((n, n), 2.0)
    dist[0, 1] = dist[1, 0] = 3.0
    dist[-1, :2] = dist[:2, -1] = 1.0
    np.fill_diagonal(dist, 0.0)
    return dist


@pytest.mark.parametrize("n", [3, 4, A0_BLOCK_X, A0_BLOCK_X + 1, A0_BLOCK_Z, A0_BLOCK_Z + 1,
                               2 * A0_BLOCK_Z + A0_BLOCK_X + 3, 64, 65, 130])
def test_a0_blocked_pass_matches_brute_witness(n):
    # n at, past and across the edges of the x and z blocks of the pass;
    # the witness must be the first pair in row-major order and the first
    # z of least two-hop length. The
    # reversed table moves the witnesses into the last blocks, the tied
    # table pins the tie-breaks, and the lone witness z lies in the last z
    # block (in the first once reversed).
    rng = rng_stream(n, 0xB10C)
    raw = rng.uniform(0.01, 5.0, (n, n))
    dist = np.triu(raw, 1) + np.triu(raw, 1).T
    tied = _tied_table(n, rng)
    lone = _lone_witness_table(n)
    for table in (dist, dist[::-1, ::-1], tied, tied[::-1, ::-1], lone, lone[::-1, ::-1]):
        est = estimate_quasi_triangle_constant(explicit_space(table))
        value, witness = brute_a0_witness(table)
        assert est.value == value
        assert est.witness == witness
    assert estimate_quasi_triangle_constant(explicit_space(tied)).value == 1.5
    assert estimate_quasi_triangle_constant(explicit_space(lone)).witness == (0, 1, n - 1)


def test_a0_symmetry_check_reads_row_blocks():
    n = 2048
    x = np.arange(n, dtype=float)
    d = np.abs(x[:, None] - x)
    d[n - 1, n - 2] += 0.5              # both points in the last row block only
    assert (n - 2) // ROW_BLOCK == (n - 1) // ROW_BLOCK > 0
    sp = explicit_space(d)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="symmetric"):
            estimate_quasi_triangle_constant(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n / 4


def test_a0_rejects_an_asymmetric_table(monkeypatch):
    dist = [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
    with pytest.raises(ValueError, match="symmetric"):
        estimate_quasi_triangle_constant(explicit_space(dist))

    def no_pass(space):
        raise AssertionError("validation ran the A0 pass")

    monkeypatch.setattr(space_module, "estimate_quasi_triangle_constant", no_pass)
    sp = explicit_space(dist, declared_A0=1.0)
    result = validate_quasi_metric(sp)
    assert not result.ok and result.a0_used == 1.0
    assert [(v["kind"], v["pair"]) for v in result.violations] == [("symmetry", [0, 2])]
    assert "quasi_triangle" not in vars(sp)


def test_a0_analytic_only_for_coordinate_metrics():
    pts = np.sort(rng_stream(4, 0xA1).uniform(0, 10, 24))[:, None]
    line = np.abs(pts - pts.T)
    for metric, dist in (("euclidean", line), ("snowflake:0.5", line**0.5),
                         ("snowflake:1", line)):
        est = explicit_space(dist, coords=pts, metric=metric).quasi_triangle
        assert (est.value, est.source) == (1.0, "analytic")
    # a power above 1 is no metric, and a table without coordinates (or a
    # rescaled copy) is measured
    est = explicit_space(line**1.5, coords=pts, metric="snowflake:1.5").quasi_triangle
    assert est.source == "exact" and est.value == brute_a0(line**1.5) > 1.0
    assert explicit_space(line, metric="euclidean").quasi_triangle.source == "exact"
    flake = explicit_space(line**0.5, coords=pts, metric="snowflake:0.5")
    assert flake.scaled(dist_factor=2.0).quasi_triangle.source == "exact"


def test_validate_declared_a0_on_coordinate_metric():
    pts = np.arange(5.0)[:, None]
    line = np.abs(pts - pts.T)
    assert validate_quasi_metric(explicit_space(line, coords=pts, metric="euclidean",
                                                declared_A0=1.0)).ok
    # below the certified A0 = 1: the collinear triples are listed
    bad = validate_quasi_metric(explicit_space(line, coords=pts, metric="euclidean"), a0=0.9)
    assert bad.a0_used == 0.9 and not bad.ok
    x, y, z = bad.violations[0]["triple"]
    assert line[x, y] > 0.9 * (line[x, z] + line[z, y])


def test_a0_declared_below_exact_lists_true_violations():
    rng = rng_stream(2025, 0xA0)
    for dist in _random_tables(rng):
        exact = estimate_quasi_triangle_constant(explicit_space(dist)).value
        declared = exact * (1 - 1e-9)
        result = validate_quasi_metric(explicit_space(dist, declared_A0=declared))
        assert result.a0_used == declared
        if exact > 1.0:
            assert not result.ok
        for v in result.violations:
            assert v["kind"] == "triangle"
            x, y, z = v["triple"]
            assert len({x, y, z}) == 3
            assert dist[x, y] > declared * (dist[x, z] + dist[z, y])



# ---------------------------------------------------------------------------
# doubling
# ---------------------------------------------------------------------------

def test_doubling_uniform_grid_matches_count_oracle():
    sp = unit_spaced_grid(64)
    est = estimate_doubling(sp, [2.0, 4.0, 8.0])
    oracle = max(
        brute_ball_mass(sp.dist, sp.weight, x, 2 * r) / brute_ball_mass(sp.dist, sp.weight, x, r)
        for x in range(64)
        for r in (2.0, 4.0, 8.0)
    )
    assert est.c_doubling == pytest.approx(oracle)
    assert est.c_doubling == pytest.approx(2.0, rel=0.25)
    assert est.omega_est == pytest.approx(1.0, rel=0.25)


def test_doubling_single_point():
    sp = explicit_space([[0.0]])
    est = estimate_doubling(sp, [1.0, 2.0])
    assert est.c_doubling == 1.0
    assert est.omega_est == 0.0


def test_doubling_2d_grid():
    from homspace import gallery

    sp = gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=16, dim=2))
    h = 1 / 15
    est = estimate_doubling(sp, [2 * h, 4 * h, 8 * h])
    assert est.omega_est == pytest.approx(2.0, rel=0.25)
    x, r = est.witness
    assert brute_ball_mass(sp.dist, sp.weight, x, 2 * r) == pytest.approx(
        est.c_doubling * brute_ball_mass(sp.dist, sp.weight, x, r))


def test_doubling_empty_radii_error():
    with pytest.raises(ValueError, match="empty"):
        estimate_doubling(unit_spaced_grid(4), [])


def test_doubling_estimate_is_a_true_bound():
    sp = unit_spaced_grid(32)
    radii = [1.5, 3.0, 6.0]
    est = estimate_doubling(sp, radii)
    for x in range(sp.n):
        for r in radii:
            assert brute_ball_mass(sp.dist, sp.weight, x, 2 * r) <= (
                est.c_doubling * brute_ball_mass(sp.dist, sp.weight, x, r) * (1 + 1e-12))


def test_ball_monotonicity():
    rng = rng_stream(3, 9)
    pts = np.sort(rng.uniform(0, 5, 20))
    sp = explicit_space(np.abs(pts[:, None] - pts[None, :]),
                        weights=rng.uniform(0.5, 2.0, 20))
    for x in range(0, 20, 3):
        prev_members = set()
        prev_mass = 0.0
        for r in np.linspace(0.1, 6.0, 12):
            ball = sp.ball(x, r)
            members = set(int(i) for i in ball.members)
            assert prev_members <= members
            assert ball.mass >= prev_mass - 1e-15
            prev_members, prev_mass = members, ball.mass


def test_ball_mass_matches_brute_force_with_ties():
    dist, weight = integer_grid_table(6, seed=5)
    sp = explicit_space(dist, weights=weight)
    # radius 0, a radius below r_floor, every pairwise distance (exact ties:
    # strict balls must leave the whole sphere out) and one above the diameter
    radii = np.r_[0.0, sp.r_floor / 2, np.unique(dist), 1.5 * sp.diameter]
    masses = sp.ball_mass(np.arange(sp.n), radii)
    brute = np.array([[brute_ball_mass(dist, weight, x, r) for r in radii]
                      for x in range(sp.n)])
    np.testing.assert_allclose(masses, brute, rtol=1e-12, atol=0)
    assert np.all(masses[:, 0] == 0.0)
    assert np.array_equal(masses[:, 1], weight)        # below r_floor: the center alone
    np.testing.assert_allclose(masses[:, -1], weight.sum(), rtol=1e-12)
    # any order of centers, with repeats
    centers = [7, 0, 7, 35]
    assert np.array_equal(sp.ball_mass(centers, radii), masses[centers])


def test_ball_index_marks_the_end_of_every_tie_group():
    dist, weight = integer_grid_table(9, seed=2)     # 81 points: two row blocks
    index = explicit_space(dist, weights=weight).ball_index
    assert index.ends.dtype == bool and index.ends.shape == dist.shape
    for x in range(dist.shape[0]):
        row = np.sort(dist[x])
        # the c + 1 nearest points are a ball exactly when the next distance differs
        assert np.array_equal(index.ends[x], np.r_[row[1:] != row[:-1], True])
        assert np.count_nonzero(index.ends[x]) == np.unique(row).size


# ---------------------------------------------------------------------------
# lower bound
# ---------------------------------------------------------------------------

def test_lower_bound_uniform_grid_passes():
    sp = unit_spaced_grid(64)
    report = check_lower_bound(sp, 1.0, 2.0, 16.0)
    assert report.verdict == "PASS"
    # every interval of length 2r holds at least r unit-weight points
    assert report.c_est >= 1.0
    x, r = report.witness
    assert report.c_est == pytest.approx(brute_ball_mass(sp.dist, sp.weight, x, r) / r)


def test_lower_bound_weighted_grid_fails_at_origin():
    # density |x|^2 around an excluded origin: ball mass ~ r^3 near 0
    n = 65
    pts = np.arange(1, n + 1, dtype=float)
    pts = np.concatenate([-pts[::-1], pts])
    dist = np.abs(pts[:, None] - pts[None, :])
    sp = FiniteHomSpace(dist=dist, weight=np.abs(pts) ** 2, coords=pts[:, None])
    report = check_lower_bound(sp, 1.0, 1.5, 48.0)
    assert report.verdict == "FAIL"
    assert report.witnesses
    worst = min(report.witnesses, key=lambda f: f["c_min"])
    assert worst["exponent"] > 2.0  # cubic growth against omega = 1
    assert abs(pts[worst["center"]]) <= 3.0  # flagged near the singularity


def test_lower_bound_scale_covariance():
    sp = unit_spaced_grid(32)
    base = check_lower_bound(sp, 1.0, 2.0, 8.0)
    t = 4.0  # power of two: strict ball comparisons are reproduced exactly
    scaled = check_lower_bound(sp.scaled(dist_factor=t), 1.0, t * 2.0, t * 8.0)
    assert scaled.c_est == pytest.approx(base.c_est / t, rel=1e-12)


def test_lower_bound_measure_homogeneity():
    sp = unit_spaced_grid(32)
    base = check_lower_bound(sp, 1.0, 2.0, 8.0)
    c = 3.5
    scaled = check_lower_bound(sp.scaled(weight_factor=c), 1.0, 2.0, 8.0)
    assert scaled.c_est == pytest.approx(c * base.c_est, rel=1e-12)


def test_lower_bound_clips_below_resolution_floor():
    sp = unit_spaced_grid(16)
    report = check_lower_bound(sp, 1.0, 0.01, 8.0)
    assert report.r_min == sp.r_floor
    assert any("resolution floor" in w for w in report.warnings)


def test_lower_bound_coarse_window_warning():
    sp = unit_spaced_grid(2)
    report = check_lower_bound(sp, 1.0, 1.2, 1.8)
    assert any("too coarse" in w for w in report.warnings)


def test_lower_bound_rejects_bad_window():
    sp = unit_spaced_grid(8)
    with pytest.raises(ValueError):
        check_lower_bound(sp, 1.0, 4.0, 2.0)
    with pytest.raises(ValueError):
        check_lower_bound(sp, -1.0, 1.0, 4.0)


def test_local_lower_bound_rescaled_grid_passes():
    sp = unit_spaced_grid(64)
    report = check_local_lower_bound(sp.scaled(dist_factor=1 / sp.diameter), 1.0)
    assert report.variant == "local"
    assert report.scale_factor == 1.0
    assert report.verdict == "PASS"
    assert report.r_max == 1.0


def test_local_lower_bound_saturated_single_scale():
    # ball at r = 1 swallows the whole two-point space; mass 2 >= C with C <= 2
    sp = unit_spaced_grid(2)
    report = check_local_lower_bound(sp.scaled(dist_factor=1 / sp.diameter), 1.0)
    assert report.verdict == "PASS"


def test_local_lower_bound_single_point_trivial():
    # one point of mass 1: every ball has mass 1 >= r for r <= 1
    sp = unit_spaced_grid(1)
    report = check_local_lower_bound(sp, 1.0)
    assert report.verdict == "PASS"
    assert report.c_est == pytest.approx(1.0, rel=1e-8)
    assert any("degenerate" in w for w in report.warnings)


# ---------------------------------------------------------------------------
# reverse doubling
# ---------------------------------------------------------------------------

def test_reverse_doubling_uniform_grid():
    sp = unit_spaced_grid(64)
    report = check_reverse_doubling(sp, 1.0)
    assert report.verdict == "PASS"
    # grid effects keep the constant near 1/2 at worst
    assert 0.3 <= report.c_emp <= 1.2


def test_reverse_doubling_single_point_atomic():
    report = check_reverse_doubling(explicit_space([[0.0]]), 1.0)
    assert report.verdict == "NOT_APPLICABLE"
    assert report.atomic_like


def test_reverse_doubling_2d():
    from homspace import gallery

    sp = gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=16, dim=2))
    report = check_reverse_doubling(sp, 2.0)
    assert report.verdict == "PASS"
    assert report.c_emp > 0.1


def test_reverse_doubling_bad_kappa():
    with pytest.raises(ValueError):
        check_reverse_doubling(unit_spaced_grid(8), 0.0)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("case", ["unit24", "plane30", "squared20"])
def test_reverse_doubling_matches_the_per_radius_oracle(case, kappa):
    # the unit grid ties many (x, r, lam) at the minimum; integer weights
    # add exactly in any order
    rng = np.random.default_rng(8)
    if case == "unit24":
        sp = unit_spaced_grid(24)
    elif case == "plane30":
        pts = rng.random((30, 2))
        sp = explicit_space(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)),
                            rng.integers(1, 4, 30))
    else:
        pts = np.sort(rng.random(20))
        sp = explicit_space((pts[:, None] - pts[None]) ** 2, rng.integers(1, 4, 20))
    report = check_reverse_doubling(sp, kappa)
    assert (report.c_emp, report.worst) == brute_reverse_doubling(sp.dist, sp.weight, kappa)


def test_reverse_doubling_without_an_admissible_dilation():
    # r_floor = diam: every sampled radius is at least half the diameter
    report = check_reverse_doubling(unit_spaced_grid(2), 1.0)
    assert (report.verdict, report.c_emp, report.worst) == ("NOT_APPLICABLE", 0.0, None)
    assert report.atomic_like
    assert report.warnings == ["atomic-like space: no admissible (r, lambda) window"]


def test_growth_exponent_needs_a_dilation_above_one_and_a_half():
    # three points at 0, 1, 2: every radius sits at r_floor = diam / 2, so
    # lam = diam / (2r) = 1 is skipped
    assert estimate_reverse_doubling_exponent(unit_spaced_grid(3)) is None
    assert space_stats(unit_spaced_grid(3)).kappa_est is None
    # points at 0, 1, 2, 3.5: lam = 1.75 at r_floor = 1
    line = np.array([0.0, 1.0, 2.0, 3.5])
    sp = explicit_space(np.abs(line[:, None] - line[None]))
    base = sp.ball_mass(np.arange(4), [1.0 + 1e-12])[:, 0]
    grown = sp.ball_mass(np.arange(4), [1.75 * (1.0 + 1e-12)])[:, 0]
    assert estimate_reverse_doubling_exponent(sp) == pytest.approx(
        min(np.log(grown / base)) / np.log(1.75))


@pytest.mark.parametrize("estimator", [
    lambda sp: estimate_doubling(sp, np.geomspace(sp.r_floor, sp.diameter, 7)),
    lambda sp: fit_mass_exponent(sp),
    lambda sp: check_lower_bound(sp, 1.0, sp.r_floor, sp.diameter),
    lambda sp: check_local_lower_bound(sp.scaled(dist_factor=1 / sp.diameter), 1.0),
    lambda sp: check_reverse_doubling(sp, 1.0),
    lambda sp: estimate_reverse_doubling_exponent(sp),
], ids=["doubling", "mass_exponent", "lower_bound", "local_lower_bound", "reverse_doubling",
        "growth_exponent"])
def test_each_estimator_makes_one_ball_mass_call(monkeypatch, estimator):
    calls = []
    original = FiniteHomSpace.ball_mass

    def counted(self, centers, radii):
        calls.append(np.size(radii))
        return original(self, centers, radii)

    monkeypatch.setattr(FiniteHomSpace, "ball_mass", counted)
    for sp in (unit_spaced_grid(40), gallery.build(gallery.GallerySpec(kind="cantor", depth=4)),
               gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=6, dim=2))):
        calls.clear()
        estimator(sp)
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# fitted dimension
# ---------------------------------------------------------------------------

def test_fit_mass_exponent_uniform():
    sp = unit_spaced_grid(128)
    assert fit_mass_exponent(sp, 2.0, 32.0) == pytest.approx(1.0, abs=0.2)
