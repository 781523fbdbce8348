import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homspace import gallery
from homspace import space as space_module
from homspace.common import rng_stream
from homspace.space import (
    A0_TILE,
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


@pytest.mark.parametrize("n", [3, 4, 8, 9, A0_TILE - 1, A0_TILE, A0_TILE + 1, 2 * A0_TILE + 3,
                               43, 64, 65, 130])
def test_a0_blocked_pass_matches_brute_witness(n):
    # n inside one tile, at, past and across the edges of the tiles of the
    # pass; the witness must be the first pair in row-major order and the
    # first z of least two-hop length. The reversed table moves the
    # witnesses into the last blocks, the tied table pins the tie-breaks,
    # and the lone witness z lies in the last tile (in the first once
    # reversed).
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


def _sorted_line(n):
    pts = np.sort(rng_stream(n, 0x11E).uniform(0, 10, n))
    return np.abs(pts[:, None] - pts[None, :])


def _stretched_table(late, legs=(1.0, 1.0), early=1.5):
    """80 points (five tiles) at distances in (1.1, 1.2) and three
    stretched pairs, each through one z: d(1, 50) = 2 * early through
    z = 30 and d(2, 20) = 2 * early through z = 60, at distance 1 from
    both ends (ratio ``early``, in the first block of rows x), and
    d(55, 75) = ``late`` through z = 5, at distances ``legs`` from 55 and
    75 (rows 48-63 against rows 64-79). Once the first block has set the
    best ratio to ``early``, every later tile without a stretched pair
    has largest entry 1.2 and no z survives, and z = 5 survives only in
    the tile of (55, 75)."""
    rng = rng_stream(80, 0x2A0)
    raw = rng.uniform(1.1, 1.2, (80, 80))
    dist = np.triu(raw, 1) + np.triu(raw, 1).T
    for x, y, z, d_xy, (d_xz, d_zy) in ((1, 50, 30, 2 * early, (1.0, 1.0)),
                                        (2, 20, 60, 2 * early, (1.0, 1.0)),
                                        (55, 75, 5, late, legs)):
        dist[x, y] = dist[y, x] = d_xy
        dist[x, z] = dist[z, x] = d_xz
        dist[y, z] = dist[z, y] = d_zy
    return dist


@pytest.mark.parametrize("table, witness", [
    pytest.param(_sorted_line(100) ** 2, None, id="squared line"),
    *(pytest.param(_sorted_line(97) ** p, None, id=f"line^{p}") for p in (1.25, 2.5, 3)),
    pytest.param((gallery.cantor_points(7)[:, None] - gallery.cantor_points(7)) ** 2, None,
                 id="squared cantor midpoints"),
    # a tie at 1.5: (1, 50) comes before (2, 20) and (55, 75) in row-major order
    pytest.param(_stretched_table(3.0), (1, 50, 30), id="early and late maximum"),
    pytest.param(_stretched_table(3.2), (55, 75, 5), id="lone late witness"),
    # the late ratio one float above 1.5: its z survives with no slack
    pytest.param(_stretched_table(np.nextafter(3.0, 4.0)), (55, 75, 5),
                 id="late maximum by one ulp"),
    # z = 5 far from the rows of one side of the tile and near the other:
    # only the sum of both sides' column minima keeps it
    pytest.param(_stretched_table(3.2, (1.9, 0.1)), (55, 75, 5), id="late witness near y"),
    pytest.param(_stretched_table(3.2, (0.1, 1.9)), (55, 75, 5), id="late witness near x"),
    # T = d(55, 75) / early rounds down, z = 5's column minima add up to T
    # exactly, and its ratio d(55, 75) / T still rounds above ``early``
    pytest.param(_stretched_table(3.1716931289126897, (1.0396578297181713,) * 2,
                                  early=1.5253543224757258), (55, 75, 5),
                 id="late witness on the bound"),
])
def test_a0_pruned_pass_matches_brute_witness(table, witness):
    # tables on which the lens bound prunes z in most tiles (the sorted
    # line tables keep only z near the middle of x and y once the first
    # block has set the best ratio) and skips tiles with no survivor
    est = estimate_quasi_triangle_constant(explicit_space(table))
    assert (est.value, est.witness) == brute_a0_witness(table)
    if witness is not None:
        assert est.witness == witness


@pytest.mark.parametrize("tile", [2, 3, 5])
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_a0_small_tiles_match_brute_witness(tile, data):
    # small tiles make 3-40 points span many of them: heavy ties from a
    # four-letter alphabet, and squared (e = 1) and snowflaked squared
    # (e < 1) line sets, sorted or not
    n = data.draw(st.integers(3, 40), label="n")
    if data.draw(st.booleans(), label="alphabet"):
        upper = data.draw(st.lists(st.integers(1, 4), min_size=n * (n - 1) // 2,
                                   max_size=n * (n - 1) // 2), label="upper")
        dist = np.zeros((n, n))
        dist[np.triu_indices(n, 1)] = upper
        dist += dist.T
    else:
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        pts = np.random.default_rng(seed).uniform(0, 10, n)
        if data.draw(st.booleans(), label="sorted"):
            pts = np.sort(pts)
        e = data.draw(st.sampled_from([1.0]) | st.floats(0.25, 1.0), label="e")
        dist = np.abs(pts[:, None] - pts[None, :]) ** (2 * e)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "A0_TILE", tile)
        est = estimate_quasi_triangle_constant(explicit_space(dist))
    assert (est.value, est.witness) == brute_a0_witness(dist)


@pytest.mark.parametrize("kind", ["squared line", "plane"])
def test_a0_pass_allocates_under_a_quarter_of_the_table(kind):
    # the plane keeps every z in every tile (whole rows), the squared line
    # gathers its survivors
    n = 1024
    if kind == "plane":
        pts = rng_stream(n, 0xA110C).uniform(0, 1, (n, 2))
        dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    else:
        dist = _sorted_line(n) ** 2
    sp = explicit_space(dist)
    tracemalloc.start()
    try:
        estimate_quasi_triangle_constant(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dist.nbytes / 4


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
    # a power above 1 is no metric, and a table without coordinates is
    # measured; a rescaled copy keeps its coordinates' metric
    est = explicit_space(line**1.5, coords=pts, metric="snowflake:1.5").quasi_triangle
    assert est.source == "exact" and est.value == brute_a0(line**1.5) > 1.0
    assert explicit_space(line, metric="euclidean").quasi_triangle.source == "exact"
    flake = explicit_space(line**0.5, coords=pts, metric="snowflake:0.5")
    assert flake.scaled(dist_factor=2.0).quasi_triangle.source == "analytic"


@pytest.mark.parametrize("spec", [gallery.GallerySpec(kind="euclidean_grid", n=512),
                                  gallery.GallerySpec(kind="snowflake", n=12, dim=2, e=0.5)],
                         ids=["grid512", "snowflake12x12"])
def test_scaled_coordinates_still_generate_the_table(tmp_path, spec):
    sp = gallery.build(spec)
    unit = sp.scaled(dist_factor=1 / sp.diameter)
    assert unit.metric == sp.metric
    assert unit.quasi_triangle.source == "analytic"
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(gallery.space_to_dict(unit)))
    np.testing.assert_allclose(gallery.load_space(str(path)).dist, unit.dist, rtol=1e-12, atol=0)


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
    radii = np.linspace(0.1, 6.0, 12)
    for x in range(0, 20, 3):
        prev_members = set()
        prev_mass = 0.0
        for r, mass in zip(radii, sp.ball_mass([x], radii)[0]):
            members = set(int(i) for i in sp.ball(x, r).members)
            assert prev_members <= members
            assert mass == pytest.approx(brute_ball_mass(sp.dist, sp.weight, x, r), rel=1e-12)
            assert mass >= prev_mass - 1e-15
            prev_members, prev_mass = members, mass


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


@pytest.mark.parametrize("spec", [
    gallery.GallerySpec(kind="euclidean_grid", n=8, dim=2),
    gallery.GallerySpec(kind="cantor", depth=5),
    gallery.GallerySpec(kind="snowflake", n=24, dim=1, e=0.5),
    gallery.GallerySpec(kind="weighted_grid", n=33, dim=1, alpha=2.0, extent=2.0),
], ids=lambda spec: spec.kind)
def test_ball_mass_per_center_radii_match_brute_force(spec):
    sp = gallery.build(spec)
    assert set(gallery.KINDS) == {"euclidean_grid", "cantor", "snowflake", "weighted_grid"}
    rng = np.random.default_rng(4)
    centers = np.r_[rng.permutation(sp.n)[:10], 3, 3]
    # per center: 0, radii that equal entries of its own row and of another
    # row (strict balls leave a sphere out), random ones and one above the diameter
    radii = np.column_stack([
        np.zeros(centers.size),
        sp.dist[centers, rng.integers(0, sp.n, centers.size)],
        sp.dist[centers[::-1], rng.integers(0, sp.n, centers.size)],
        sp.dist[centers, rng.integers(0, sp.n, (4, centers.size))].T,
        rng.uniform(0, sp.diameter, (centers.size, 3)),
        np.full(centers.size, 1.5 * sp.diameter),
    ])
    masses = sp.ball_mass(centers, radii)
    brute = [[brute_ball_mass(sp.dist, sp.weight, x, r) for r in row]
             for x, row in zip(centers.tolist(), radii.tolist())]
    assert masses.shape == radii.shape
    np.testing.assert_allclose(masses, brute, rtol=1e-12, atol=0)


def test_ball_mass_shared_radii_equal_the_broadcast_rows():
    sp = gallery.build(gallery.GallerySpec(kind="weighted_grid", n=33, dim=1, alpha=2.0))
    centers = [5, 0, 5, sp.n - 1]
    radii = np.r_[0.0, np.unique(sp.dist[5])[:6], sp.diameter, 2 * sp.diameter]
    shared = sp.ball_mass(centers, radii)
    assert np.array_equal(shared, sp.ball_mass(centers, np.tile(radii, (4, 1))))
    assert np.array_equal(shared[:, 2], sp.ball_mass(centers, radii[2])[:, 0])   # a scalar radius


def test_ball_mass_rejects_a_row_count_other_than_the_centers():
    sp = unit_spaced_grid(6)
    for rows in (1, 2, 4):
        with pytest.raises(ValueError, match="rows of radii for 3 centers"):
            sp.ball_mass([0, 1, 2], np.ones((rows, 5)))
    assert sp.ball_mass([], np.ones((0, 5))).shape == (0, 5)


def test_ball_index_marks_the_end_of_every_tie_group():
    dist, weight = integer_grid_table(9, seed=2)     # 81 points: two row blocks
    index = explicit_space(dist, weights=weight).ball_index
    assert index.ends.dtype == bool and index.ends.shape == dist.shape
    for x in range(dist.shape[0]):
        row = np.sort(dist[x])
        # the c + 1 nearest points are a ball exactly when the next distance differs
        assert np.array_equal(index.ends[x], np.r_[row[1:] != row[:-1], True])
        assert np.count_nonzero(index.ends[x]) == np.unique(row).size


def _sorted_sums(dist, weight, x, r):
    """The mass of B(x, r) by definition: the weights of the
    #{y : d(x, y) < r} nearest points, added in (distance, id) order."""
    order = sorted(range(len(weight)), key=lambda y: (dist[x][y], y))
    total = 0.0
    for y in order[:int(np.count_nonzero(dist[x] < r))]:
        total += weight[y]
    return total


MASS_SPACES = {
    "euclidean_grid": lambda: gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=9, dim=2)),
    "cantor": lambda: gallery.build(gallery.GallerySpec(kind="cantor", depth=5)),
    "snowflake": lambda: gallery.build(gallery.GallerySpec(kind="snowflake", n=40, dim=1, e=0.5)),
    "weighted_grid": lambda: gallery.build(gallery.GallerySpec(
        kind="weighted_grid", n=9, dim=2, alpha=0.5, beta=0.3, extent=2.0)),
    "ties uniform": lambda: explicit_space(integer_grid_table(9, seed=1)[0]),   # two row blocks
    "ties uneven": lambda: explicit_space(*integer_grid_table(9, seed=1)),
    "one point": lambda: explicit_space([[0.0]], weights=[0.7]),
    "two points": lambda: explicit_space([[0.0, 3.0], [3.0, 0.0]], weights=[0.7, 1.3]),
}


@pytest.mark.parametrize("make", MASS_SPACES.values(), ids=MASS_SPACES.keys())
def test_mass_pass_equals_the_index_bit_for_bit(make):
    sp = make()
    assert set(gallery.KINDS) <= set(MASS_SPACES)
    # 0, below r_floor, every pairwise distance (exact ties), the pool of
    # the estimators' grids, above the diameter, and a repeat
    radii = np.r_[0.0, sp.r_floor / 2, np.unique(sp.dist), space_module._mass_pool(sp),
                  1.5 * sp.diameter + 1.0, sp.dist[0, -1]]
    masses = sp.ball_mass(np.arange(sp.n), radii)
    assert "ball_index" not in vars(sp)            # shared radii sort no row for good
    index = sp.ball_index
    counts = np.count_nonzero(sp.dist[:, :, None] < radii, axis=1)
    assert np.array_equal(masses, index.cum_weight[np.arange(sp.n)[:, None], counts])
    some = np.random.default_rng(2).choice(radii.size, 12)
    assert np.array_equal(masses[:, some], [[_sorted_sums(sp.dist, sp.weight, x, r)
                                             for r in radii[some]] for x in range(sp.n)])
    np.testing.assert_allclose(
        masses[:, some], [[brute_ball_mass(sp.dist, sp.weight, x, r) for r in radii[some]]
                          for x in range(sp.n)], rtol=1e-12, atol=0)
    assert np.all(masses[:, 0] == 0.0) and np.array_equal(masses[:, 1], sp.weight)
    # per-center radii: each center's own row, so a radius at every tie
    ties = np.unique(sp.dist)
    assert np.array_equal(sp.ball_mass(np.arange(sp.n), sp.dist), np.take_along_axis(
        masses[:, 2:2 + ties.size], np.searchsorted(ties, sp.dist), axis=1))
    # -0.0 and NaN (which the index counts past every distance) are radii too
    odd = np.array([np.nan, -0.0, sp.diameter])
    assert np.array_equal(sp.ball_mass(np.arange(sp.n), odd),
                          sp.ball_mass(np.arange(sp.n), np.tile(odd, (sp.n, 1))))


@pytest.mark.parametrize("make", [MASS_SPACES["weighted_grid"], MASS_SPACES["ties uneven"],
                                  MASS_SPACES["ties uniform"]], ids=["weighted", "uneven", "uniform"])
def test_mass_pass_bits_do_not_depend_on_the_pool(make):
    sp = make()
    centers = np.arange(sp.n)
    pool = space_module._mass_pool(sp)
    others = np.r_[pool, sp.dist[0], np.geomspace(sp.r_floor / 3, sp.diameter * 2, 40)]
    for r in np.r_[pool[::5], sp.dist[0, 1:4], sp.r_floor / 2, 2 * sp.diameter]:
        alone = space_module._mass_pass(sp, np.array([r]))[:, 0]
        after = make()
        after.ball_mass(centers, pool[:3])             # fills the table with the pool
        late = after.ball_mass(centers, [r])[:, 0]     # a pass of its own unless r is in it
        grid = np.sort(np.r_[others, r, r])                # repeats are allowed
        inside = space_module._mass_pass(sp, grid)[:, np.searchsorted(grid, r)]
        assert np.array_equal(alone, late) and np.array_equal(alone, inside)


def test_mass_table_makes_one_pass_for_the_pool_and_one_per_new_radius(monkeypatch):
    sp = gallery.build(gallery.GallerySpec(kind="weighted_grid", n=33, dim=1, alpha=2.0))
    passes = []
    original = space_module._mass_pass
    monkeypatch.setattr(space_module, "_mass_pass",
                        lambda space, radii: passes.append(radii.size) or original(space, radii))
    space_stats(sp)
    fit_mass_exponent(sp)
    check_lower_bound(sp, 1.0, *space_module.lower_bound_window(sp))
    check_local_lower_bound(sp, 1.0)
    check_reverse_doubling(sp, 1.0)
    assert passes == [np.unique(space_module._mass_pool(sp)).size]
    sp.ball_mass([0, 4], [0.3, sp.r_floor * (1 + 1e-9)])       # the last one is pooled
    sp.ball_mass([1], [0.3, 0.3])
    assert passes[1:] == [1]


def test_uniform_ball_index_shares_one_row_of_running_sums():
    sp = gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=8, dim=2))
    cum = sp.ball_index.cum_weight
    assert cum.shape == (sp.n, sp.n + 1) and cum.strides[0] == 0 and not cum.flags.writeable
    assert np.array_equal(cum[5], np.r_[0.0, np.cumsum(sp.weight)])
    weighted = gallery.build(gallery.GallerySpec(kind="weighted_grid", n=33, dim=1, alpha=2.0))
    assert weighted.uniform_cum_weight is None
    assert weighted.ball_index.cum_weight.strides[0] > 0


def test_ball_index_holds_no_copy_of_the_table():
    assert space_module.BallIndex._fields == ("order", "cum_weight", "ends")


@pytest.mark.parametrize("spec,bound", [
    (gallery.GallerySpec(kind="euclidean_grid", n=32, dim=2), 8),
    (gallery.GallerySpec(kind="weighted_grid", n=32, dim=2, alpha=0.5, extent=2.0), 16),
], ids=["uniform", "weighted"])
def test_ball_index_build_bytes_per_entry(spec, bound):
    # int32 order and bool ends are 5 bytes per entry, the running sums of
    # a non-uniform measure 8 more; the sorted distances of a row block
    # are a temporary of the block
    sp = gallery.build(spec)
    sp.uniform_cum_weight                                   # cached outside the trace
    tracemalloc.start()
    try:
        space_module.build_ball_index(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / sp.n ** 2 < bound


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
    assert report.verdict == "PASS"
    assert report.r_max == 1.0


def test_local_lower_bound_saturated_single_scale():
    # ball at r = 1 swallows the whole two-point space; mass 2 >= C with C <= 2
    sp = unit_spaced_grid(2)
    report = check_local_lower_bound(sp.scaled(dist_factor=1 / sp.diameter), 1.0)
    assert report.verdict == "PASS"


@pytest.mark.parametrize("r_floor", [1.0, 1.5, 4.0])
def test_local_lower_bound_at_a_coarse_floor(r_floor):
    # with r_floor >= 1 the window is the one radius r_floor, also from
    # r_floor = 2 on, where the interval (r_floor / 2, 1) is empty
    sp = unit_spaced_grid(8).scaled(dist_factor=r_floor)
    assert sp.r_floor == r_floor
    report = check_local_lower_bound(sp, 1.0)
    assert report.verdict == "PASS"
    assert (report.variant, report.r_min, report.r_max) == ("local", r_floor,
                                                            r_floor * (1 + 1e-9))
    assert any("degenerate" in w for w in report.warnings)


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
    assert fit_mass_exponent(sp) == pytest.approx(1.0, abs=0.2)
