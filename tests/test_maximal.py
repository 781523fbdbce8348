import math
import tracemalloc

import numpy as np
import pytest

from homspace import gallery, maximal
from homspace.common import rng_stream, stable_sum
from homspace.gallery import GallerySpec
from homspace.maximal import (
    KernelParams,
    bound_holds,
    calibrate_kernel_bound,
    default_r_exp,
    hl_maximal,
    kernel_bound_batch,
    kernel_maximal_bound_check,
    random_batch,
)
from homspace.seqnorm import CoefSequence, SequenceBatch
from homspace.space import FiniteHomSpace

from conftest import build_system, fresh_at, random_sequence
from helpers import brute_maximal, fs_vector_ratio, integer_grid_table, unit_spaced_grid


def kernel_params(omega=1.0, gamma=3.0, p2=1.0):
    return KernelParams(gamma=gamma, r_exp=default_r_exp(p2), omega=omega)


# ---------------------------------------------------------------------------
# maximal function
# ---------------------------------------------------------------------------

def test_maximal_constant_function(grid64):
    mf = hl_maximal(grid64, np.full(grid64.n, -2.5))
    assert np.all(mf == 2.5)


def test_maximal_point_indicator():
    sp = unit_spaced_grid(8, weights=np.full(8, 1.0 / 8.0))
    f = np.zeros(8)
    f[3] = 1.0
    mf = hl_maximal(sp, f)
    assert mf[3] == 1.0                       # the singleton ball average
    # at a neighbor the best ball is {2, 3, 4}: both unit-distance points
    # enter together, so the average is 1/3
    assert mf[2] == pytest.approx(1.0 / 3.0)
    assert mf[0] == pytest.approx(1.0 / 4.0)  # best ball is {0, 1, 2, 3}


def test_maximal_dominates_pointwise(grid64):
    rng = rng_stream(4, 8)
    for _ in range(20):
        f = rng.standard_normal(grid64.n)
        mf = hl_maximal(grid64, f)
        assert np.all(mf >= np.abs(f))


def test_maximal_sublinear_and_homogeneous(grid64):
    rng = rng_stream(6, 2)
    for _ in range(10):
        f = rng.standard_normal(grid64.n)
        g = rng.standard_normal(grid64.n)
        mf, mg = hl_maximal(grid64, f), hl_maximal(grid64, g)
        mfg = hl_maximal(grid64, f + g)
        assert np.all(mfg <= (mf + mg) * (1 + 1e-12))
        assert np.allclose(hl_maximal(grid64, -2.5 * f), 2.5 * mf, rtol=1e-12)


def _random_line():
    rng = rng_stream(9, 1)
    pts = np.sort(rng.uniform(0, 4, 14))
    dist = np.abs(pts[:, None] - pts[None, :])
    return dist, rng.uniform(0.2, 2.0, 14), rng.standard_normal(14)


def _tied_grid():
    dist, weight = integer_grid_table(7, seed=11)
    return dist, weight, np.random.default_rng(12).standard_normal(dist.shape[0])


@pytest.mark.parametrize("table", [_random_line, _tied_grid], ids=["random_line", "tied_grid"])
def test_maximal_matches_brute_force(table):
    dist, weight, f = table()
    sp = FiniteHomSpace(dist=dist, weight=weight)
    assert np.allclose(hl_maximal(sp, f), brute_maximal(dist, weight, f), rtol=1e-12)


@pytest.mark.parametrize("table", [_random_line, _tied_grid], ids=["random_line", "tied_grid"])
def test_maximal_at_points_equals_full_evaluation(table):
    dist, weight, f = table()
    sp = FiniteHomSpace(dist=dist, weight=weight)
    full = hl_maximal(sp, f)
    rng = np.random.default_rng(3)
    # unsorted, with repeats, and longer than one block of rows
    points = np.r_[rng.permutation(sp.n), rng.integers(0, sp.n, 70), [0, 0, sp.n - 1]]
    assert np.array_equal(hl_maximal(sp, f, points), full[points])
    assert np.array_equal(hl_maximal(sp, f, [4]), full[[4]])
    assert hl_maximal(sp, f, []).size == 0


@pytest.mark.parametrize("table", [_random_line, _tied_grid], ids=["random_line", "tied_grid"])
@pytest.mark.parametrize("budget", [None, 1, 40])
def test_stacked_maximal_equals_row_by_row(table, budget, monkeypatch):
    dist, weight, f = table()
    sp = FiniteHomSpace(dist=dist, weight=weight)
    extra = 300
    if budget is not None:      # one row of one function per block, then a few
        monkeypatch.setattr(maximal, "BLOCK_ELEMENTS", budget)
    if budget == 1:
        # the walk takes a step per (lane, sorted position) here: a short stack
        extra = 7
    # more functions than one block of every row holds
    fns = np.vstack([f, np.random.default_rng(5).standard_normal((extra, sp.n))])
    assert fns.shape[0] > maximal.BLOCK_ELEMENTS // sp.n // sp.n
    rng = np.random.default_rng(6)
    for points in (None, np.r_[rng.permutation(sp.n), rng.integers(0, sp.n, 9)], [3], []):
        stacked = hl_maximal(sp, fns, points)
        rows = np.stack([hl_maximal(sp, g, points) for g in fns])
        assert stacked.shape == rows.shape == (fns.shape[0], sp.n if points is None else len(points))
        assert np.array_equal(stacked, rows)
    brute = np.stack([brute_maximal(dist, weight, g) for g in fns[:4]])
    assert np.allclose(hl_maximal(sp, fns[:4]), brute, rtol=1e-12)


def _row_by_row(space, fns, points):
    return np.stack([hl_maximal(space, g, points) for g in fns])


@pytest.mark.parametrize("space", [
    lambda: gallery.build(GallerySpec(kind="euclidean_grid", n=16, dim=2)),   # roundoff ties
    lambda: FiniteHomSpace(*integer_grid_table(7, seed=11)),                 # exact ties
    lambda: gallery.build(GallerySpec(kind="cantor", depth=6)),
    lambda: gallery.build(GallerySpec(kind="snowflake", n=12, dim=2, e=0.5)),
], ids=["grid16x16", "integer_grid", "cantor", "snowflake"])
def test_stacked_and_one_function_calls_agree_bit_for_bit(space):
    sp = space()
    rng = np.random.default_rng(7)
    many = maximal.BLOCK_ELEMENTS // sp.n + 2          # every point: more than one block
    for fns in (rng.standard_normal((3, sp.n)), rng.standard_normal((many, sp.n))):
        for points in (None, np.arange(3, sp.n - 2), np.r_[rng.permutation(sp.n), [0, 0, 5]],
                       [4], []):
            stacked = hl_maximal(sp, fns, points)
            assert stacked.shape == (fns.shape[0], sp.n if points is None else len(points))
            assert np.array_equal(stacked, _row_by_row(sp, fns, points))
    brute = np.stack([brute_maximal(sp.dist, sp.weight, g) for g in fns[:2]])
    assert np.allclose(hl_maximal(sp, fns[:2]), brute, rtol=1e-12)


def test_maximal_of_non_finite_entries():
    # an infinite entry makes every ball that holds it, the whole space
    # among them, average inf; a NaN entry is carried as a masked max
    # carries it, so both reach every point, stacked or one at a time
    sp = gallery.build(GallerySpec(kind="euclidean_grid", n=16, dim=2))
    f = np.random.default_rng(10).standard_normal((3, sp.n))
    f[0, 3], f[1, 5] = np.inf, np.nan
    for mf in (hl_maximal(sp, f), _row_by_row(sp, f, None)):
        assert np.all(mf[0] == np.inf)
        assert np.all(np.isnan(mf[1]))
        assert np.all(np.isfinite(mf[2]))
    # a total that overflows gives the same bits stacked and one at a time
    f[2, :2] = 1e308
    with np.errstate(over="ignore"):
        assert np.array_equal(hl_maximal(sp, f), _row_by_row(sp, f, None), equal_nan=True)


def test_walk_matches_brute_force():
    dist, weight, f = _tied_grid()
    fns = np.vstack([f, np.random.default_rng(8).standard_normal((3, f.size))])
    brute = np.stack([brute_maximal(dist, weight, g) for g in fns])
    assert np.allclose(hl_maximal(FiniteHomSpace(dist=dist, weight=weight), fns), brute,
                       rtol=1e-12)


def test_walk_memory_stays_within_blocks():
    # 16 functions on 1024 points is 16 384 lanes. Beyond the (n, m)
    # weighted copy and the output, the call holds a few blocks of lanes
    # and of index columns, never rows x n of the ball index (4 MiB of
    # order and 8 MiB of cum_weight for these rows)
    sp = gallery.build(GallerySpec(kind="euclidean_grid", n=32, dim=2))
    f = np.random.default_rng(9).standard_normal((16, sp.n))
    sp.ball_index                                           # cached outside the trace
    tracemalloc.start()
    try:
        out = hl_maximal(sp, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - f.nbytes - out.nbytes < 12 * maximal.BLOCK_ELEMENTS * 8


def test_stacked_maximal_of_no_functions(grid64):
    # no functions: zero-lane blocks, and the (0, len(points)) shape
    assert hl_maximal(grid64, np.empty((0, grid64.n))).shape == (0, grid64.n)
    assert hl_maximal(grid64, np.empty((0, grid64.n)), [3, 5]).shape == (0, 2)


def test_maximal_rejects_bad_shapes(grid64):
    for f in (np.ones(grid64.n - 1), np.ones((2, grid64.n + 1)), np.ones((1, 1, grid64.n))):
        with pytest.raises(ValueError, match="one value per point"):
            hl_maximal(grid64, f)


def test_maximal_rejects_points_that_are_not_ids():
    sp = unit_spaced_grid(16)
    f = np.random.default_rng(11).standard_normal(sp.n)
    # once read as point 15 (a negative index) and point 1 (truncated)
    for points, bad in (([-1], "-1"), ([1.7], "1.7"), ([2, 16], "16")):
        with pytest.raises(ValueError, match=rf"point ids in 0\.\.15; got {bad}$"):
            hl_maximal(sp, f, points)
    assert hl_maximal(sp, f, []).shape == (0,)


# ---------------------------------------------------------------------------
# kernel parameters and values
# ---------------------------------------------------------------------------

def test_kernel_params_admissibility_gate():
    with pytest.raises(ValueError, match="inadmissible"):
        KernelParams(gamma=0.5, r_exp=0.5, omega=1.0)  # 0.25 - 0.5 < 0
    with pytest.raises(ValueError):
        KernelParams(gamma=-1.0, r_exp=0.5, omega=1.0)
    with pytest.raises(ValueError):
        KernelParams(gamma=3.0, r_exp=0.0, omega=1.0)


def test_default_r_exp():
    assert default_r_exp(1.0) == pytest.approx(0.5)
    assert default_r_exp(2.0) == pytest.approx(2.0 / 3.0)


def _one_coefficient_batch(cubes, keys):
    """One sequence per (k, alpha) key, each with the single coefficient 1."""
    return SequenceBatch.of([CoefSequence(cubes, {key: 1.0}) for key in keys])


def test_kernel_diagonal_bound(grid64_cubes):
    params = kernel_params()
    k = grid64_cubes.net.k_min + 1
    alphas = [int(a) for a in fresh_at(grid64_cubes, k)[:5]]
    # sequence i probed at its own cube's center: zero distance
    lhs, _ = kernel_bound_batch(grid64_cubes, _one_coefficient_batch(
        grid64_cubes, [(k, a) for a in alphas]), [(k, k, a) for a in alphas], params)
    for i, alpha in enumerate(alphas):
        m = grid64_cubes.mass(k, alpha)
        v = grid64_cubes.space.ball_mass([alpha], [grid64_cubes.delta ** k])[0, 0]
        # the symmetrized V vanishes at zero distance, so the factor is sqrt(m) / 2V
        assert lhs[i, i] == pytest.approx(math.sqrt(m) / (2 * v), rel=1e-12)


def test_kernel_decays_with_distance(grid64_cubes):
    params = kernel_params()
    k = grid64_cubes.net.k_min + 1
    fresh = [int(a) for a in fresh_at(grid64_cubes, k)]
    base = fresh[0]
    others = sorted(fresh[1:], key=lambda a: grid64_cubes.space.dist[base, a])
    lhs, _ = kernel_bound_batch(grid64_cubes, _one_coefficient_batch(grid64_cubes, [(k, base)]),
                                [(k, k, others[0]), (k, k, others[-1])], params)
    near, far = lhs[0]
    assert 0 < far < 0.5 * near


def test_kernel_symmetric(grid64_cubes):
    # the batch leaves out the probe cube's sqrt(m_t); with it, swapping the
    # two cubes of a level pair leaves the kernel as it is
    params = kernel_params()
    levels = [k for k in grid64_cubes.levels if k != grid64_cubes.net.k_min]
    k, j = levels[0], levels[-1]
    a = int(fresh_at(grid64_cubes, k)[1])
    t = int(fresh_at(grid64_cubes, j)[-1])
    batch = _one_coefficient_batch(grid64_cubes, [(k, a), (j, t)])
    lhs, _ = kernel_bound_batch(grid64_cubes, batch, [(k, j, t), (j, k, a)], params)
    assert lhs[0, 0] > 0
    assert lhs[0, 0] * math.sqrt(grid64_cubes.mass(j, t)) == pytest.approx(
        lhs[1, 1] * math.sqrt(grid64_cubes.mass(k, a)), rel=1e-14)


def test_kernel_rejects_non_fresh(grid64_cubes):
    # the coarsest level carries no fresh cubes, in either slot of a probe
    params = kernel_params()
    root_level = grid64_cubes.net.k_min
    batch = _one_coefficient_batch(grid64_cubes,
                                   [(root_level + 1, int(fresh_at(grid64_cubes, root_level + 1)[0]))])
    for probe in ((root_level, root_level + 1, 0), (root_level + 1, root_level, 0)):
        with pytest.raises(ValueError, match="fresh"):
            kernel_bound_batch(grid64_cubes, batch, [probe], params)


# ---------------------------------------------------------------------------
# kernel-sum maximal bound
# ---------------------------------------------------------------------------

def test_kernel_bound_zero_sequence_neutral(grid64_cubes):
    params = kernel_params()
    k = grid64_cubes.net.k_min + 1
    key = (k, int(fresh_at(grid64_cubes, k)[0]))
    seq = CoefSequence(grid64_cubes, {key: 0.0})
    res = kernel_maximal_bound_check(grid64_cubes, seq, k, k, 5, params)
    assert res.verdict == "NEUTRAL"
    assert res.lhs == res.rhs == 0.0


def test_kernel_bound_delta_sequence_closed_form(grid64_cubes):
    cubes = grid64_cubes
    space = cubes.space
    params = kernel_params()
    k = cubes.net.k_min + 1
    alpha = int(fresh_at(cubes, k)[0])
    seq = CoefSequence(cubes, {(k, alpha): 1.0})
    x = int(cubes.members(k, alpha)[0])
    res = kernel_maximal_bound_check(cubes, seq, k, k, x, params)

    # rebuild both sides by hand for the single term
    s = cubes.delta ** k
    tau = cubes.point_cube(k, x)
    lhs = 0.0
    if tau in set(int(a) for a in fresh_at(cubes, k)):
        va, vt = space.ball_mass([alpha, tau], [s])[:, 0]
        d = space.dist[alpha, tau]
        vxy = 0.0 if d == 0 else space.ball_mass([alpha, tau], [d])[:, 0].sum()
        lhs = math.sqrt(cubes.mass(k, alpha)) / (va + vt + vxy) * (s / (s + d)) ** params.gamma
    r = params.r_exp
    u = np.zeros(space.n)
    u[cubes.members(k, alpha)] = cubes.mass(k, alpha) ** (-r / 2)
    inf_m = hl_maximal(space, u)[space.ball(x, s).members].min()
    rhs = (cubes.delta ** (k * params.omega * (1 - 1 / r))
           * space.ball_mass([x], [s])[0, 0] ** (1 / r - 1) * inf_m ** (1 / r))
    assert res.lhs == pytest.approx(lhs, rel=1e-12)
    assert res.rhs == pytest.approx(rhs, rel=1e-12)
    assert math.isfinite(res.ratio)


def test_kernel_bound_calibration_stability(grid64_cubes):
    params = kernel_params()
    cal = calibrate_kernel_bound(grid64_cubes, params, n_sequences=16, seed=3)
    assert cal.c_report > 0
    assert cal.cube_bound_constant > 0
    rng = rng_stream(33, 7)
    seqs = SequenceBatch.of([random_sequence(grid64_cubes, rng) for _ in range(12)])
    lhs, rhs = kernel_bound_batch(grid64_cubes, seqs, cal.probes[:8], params)
    assert np.all(bound_holds(lhs, rhs, 2.0 * cal.c_report))     # PASS or NEUTRAL (0, 0)


def _one_at_a_time(cubes, seq, k, j, x, params):
    """(lhs, rhs) by the one-sequence, one-probe evaluation the batch replaced."""
    space = cubes.space
    r = params.r_exp
    s = cubes.delta ** min(k, j)
    level_k = [(alpha, value) for (kk, alpha), value in seq.entries.items()
               if kk == k and value != 0.0]
    tau = cubes.point_cube(j, x)
    lhs = 0.0
    if cubes.is_index(j, tau):
        terms = []
        for x_a, value in level_k:
            v_s = space.ball_mass([x_a, tau], [s])[:, 0]
            d = space.dist[x_a, tau]
            v_d = space.ball_mass([x_a], [d])[0, 0] + space.ball_mass([tau], [d])[0, 0]
            denom = v_s[0] + v_s[1] + v_d
            decay = (s / (s + d)) ** params.gamma
            terms.append(math.sqrt(cubes.mass(k, x_a)) / denom * decay * abs(value))
        lhs = stable_sum(terms)
    u = np.zeros(space.n)
    for alpha, value in level_k:
        u[cubes.members(k, alpha)] += cubes.mass(k, alpha) ** (-r / 2.0) * abs(value) ** r
    inf_m = float(hl_maximal(space, u, space.ball(x, s).members).min())
    mass = float(space.ball_mass([x], [s])[0, 0])
    rhs = (cubes.delta ** (k * params.omega * (1 - 1.0 / r))
           * mass ** (1.0 / r - 1.0) * inf_m ** (1.0 / r))
    return lhs, rhs


@pytest.mark.parametrize("system", ["grid64_cubes", "cantor6_cubes", "weighted_grid65_cubes"])
@pytest.mark.parametrize("p2", [1.0, 2.0])
def test_kernel_batch_matches_one_at_a_time(request, system, p2):
    cubes = request.getfixturevalue(system)
    params = kernel_params(p2=p2)
    rng = rng_stream(21, 4)
    probes = maximal._probe_points(cubes, rng)
    # and at every level k a probe whose level-j cube is not fresh (lhs 0)
    j = cubes.net.k_min + 1
    x = next(x for x in range(cubes.space.n) if not cubes.is_index(j, cubes.point_cube(j, x)))
    probes += [(k, j, x) for k in sorted({k for k, _, _ in probes})]
    seqs = [random_sequence(cubes, rng) for _ in range(6)]
    seqs.append(CoefSequence(cubes, {next(iter(seqs[0].entries)): 0.0}))    # all zero
    lhs, rhs = kernel_bound_batch(cubes, SequenceBatch.of(seqs), probes, params)
    assert lhs.shape == rhs.shape == (len(seqs), len(probes))
    for i, seq in enumerate(seqs):
        for col, (k, j, x) in enumerate(probes):
            assert (lhs[i, col], rhs[i, col]) == _one_at_a_time(cubes, seq, k, j, x, params)
    assert np.all(lhs[-1] == 0) and np.all(rhs[-1] == 0)


def test_kernel_batch_blocks_give_the_same_bits(grid64_cubes, monkeypatch):
    params = kernel_params()
    rng = rng_stream(8, 1)
    probes = maximal._probe_points(grid64_cubes, rng)
    batch = random_batch(grid64_cubes, rng, 9)
    whole = kernel_bound_batch(grid64_cubes, batch, probes, params)
    for budget in (1, 3 * grid64_cubes.space.n):    # 1 and 3 sequences per block
        monkeypatch.setattr(maximal, "BLOCK_ELEMENTS", budget)
        parts = kernel_bound_batch(grid64_cubes, batch, probes, params)
        assert all(np.array_equal(a, b) for a, b in zip(whole, parts))


@pytest.mark.parametrize("budget", [None, 3 * 64])     # 3 sequences per block: 4 splits one
def test_calibration_and_trials_in_one_call_give_the_bits_of_two(grid64_cubes, budget,
                                                                 monkeypatch):
    cubes = grid64_cubes
    params = kernel_params()
    if budget is not None:
        monkeypatch.setattr(maximal, "BLOCK_ELEMENTS", budget)
    rng = rng_stream(5, 0xCA11B)
    probes = maximal._probe_points(cubes, rng)
    calibration = random_batch(cubes, rng, 4)
    trials = random_batch(cubes, rng_stream(5, 0xF4E54), 6)
    apart = [kernel_bound_batch(cubes, b, probes, params) for b in (calibration, trials)]
    lhs, rhs = kernel_bound_batch(cubes, SequenceBatch.concat([calibration, trials]),
                                  probes, params)
    assert np.array_equal(lhs, np.vstack([apart[0][0], apart[1][0]]))
    assert np.array_equal(rhs, np.vstack([apart[0][1], apart[1][1]]))
    cal = calibrate_kernel_bound(cubes, params, n_sequences=4, seed=5, trials=6)
    ratio = maximal.bound_ratio(*apart[0])
    assert cal.c_report == float(ratio[np.isfinite(ratio)].max())
    assert cal.c_report == calibrate_kernel_bound(cubes, params, n_sequences=4, seed=5).c_report
    assert cal.probes == [list(p) for p in probes]
    assert np.array_equal(cal.trial_lhs, apart[1][0])
    assert np.array_equal(cal.trial_rhs, apart[1][1])


def test_kernel_batch_calls_the_maximal_operator_once_per_level_and_block(grid64_cubes,
                                                                          monkeypatch):
    stacks = []

    def counting(space, f, points=None):
        stacks.append(len(f))
        return hl_maximal(space, f, points)

    monkeypatch.setattr(maximal, "hl_maximal", counting)
    grid512 = build_system(gallery.build(GallerySpec(kind="euclidean_grid", n=512)))
    # 4 sequences per block on 64 points; on 512 points BLOCK_ELEMENTS // n
    # is 32 and the floor of 64 holds
    for cubes, budget, count, blocks in ((grid64_cubes, 4 * 64, 10, [4, 4, 2]),
                                         (grid512, maximal.BLOCK_ELEMENTS, 70, [64, 6])):
        monkeypatch.setattr(maximal, "BLOCK_ELEMENTS", budget)
        rng = rng_stream(8, 2)
        probes = maximal._probe_points(cubes, rng)
        batch = random_batch(cubes, rng, count)
        stacks.clear()
        parts = kernel_bound_batch(cubes, batch, probes, kernel_params())
        levels = {k for k, _, _ in probes}
        assert len(levels) > 1
        assert stacks == blocks * len(levels)
        monkeypatch.setattr(maximal, "BLOCK_ELEMENTS", 1 << 30)       # one block
        whole = kernel_bound_batch(cubes, batch, probes, kernel_params())
        assert all(np.array_equal(a, b) for a, b in zip(whole, parts))


def test_kernel_batch_stale_cube_gives_lhs_zero(grid64_cubes):
    cubes = grid64_cubes
    params = kernel_params()
    levels = [k for k in cubes.levels if k != cubes.net.k_min]
    k, j = levels[-1], levels[0]
    # x in a level-j cube whose center was born before level j
    x = next(x for x in range(cubes.space.n)
             if not cubes.is_index(j, cubes.point_cube(j, x)))
    batch = random_batch(cubes, rng_stream(2, 2), 5)
    owner = np.repeat(np.arange(5), np.diff(batch.offsets))
    has_level_k = np.isin(np.arange(5), owner[batch.level == k])
    assert has_level_k.any()
    lhs, rhs = kernel_bound_batch(cubes, batch, [(k, j, x)], params)
    assert np.all(lhs == 0.0)
    assert np.all(rhs[has_level_k] > 0)


@pytest.mark.parametrize("system", ["grid64_cubes", "four_point_cubes"])  # > and <= 12 fresh
@pytest.mark.parametrize("seed", [2, 9])
def test_random_batch_equals_sequences_of_the_same_stream(request, system, seed):
    cubes = request.getfixturevalue(system)

    def draw(rng):
        # one sequence per draw: 12 distinct fresh cubes, then their values
        level, alpha = cubes.fresh_index()
        take = np.arange(alpha.size) if alpha.size <= 12 else \
            rng.choice(alpha.size, size=12, replace=False)
        keys = zip(level[take].tolist(), alpha[take].tolist())
        return CoefSequence(cubes, dict(zip(keys, rng.standard_normal(take.size).tolist())))

    rng = rng_stream(seed, 5)
    seqs = [draw(rng) for _ in range(7)]
    want = SequenceBatch.of(seqs)
    got = random_batch(cubes, rng_stream(seed, 5), 7)
    assert len(got) == len(want) == 7
    for name in ("offsets", "level", "alpha", "value"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert random_sequence(cubes, rng_stream(seed, 5)).entries == seqs[0].entries


def test_kernel_batch_of_no_sequences(grid64_cubes):
    params = kernel_params()
    lhs, rhs = kernel_bound_batch(grid64_cubes, random_batch(grid64_cubes, None, 0),
                                  [(grid64_cubes.net.k_max, grid64_cubes.net.k_max, 3)], params)
    assert lhs.shape == rhs.shape == (0, 1)
    cal = calibrate_kernel_bound(grid64_cubes, params, n_sequences=0)
    assert cal.c_report == 0.0 and cal.n_samples == 0


def test_kernel_bound_rejects_root_level(grid64_cubes):
    params = kernel_params()
    k = grid64_cubes.net.k_min
    key = (k + 1, int(fresh_at(grid64_cubes, k + 1)[0]))
    seq = CoefSequence(grid64_cubes, {key: 1.0})
    with pytest.raises(ValueError, match="fresh"):
        kernel_maximal_bound_check(grid64_cubes, seq, k, k + 1, 0, params)


# ---------------------------------------------------------------------------
# vector-valued maximal aggregate
# ---------------------------------------------------------------------------

def test_fs_indicator_family_matches_brute(grid16_cubes):
    space = grid16_cubes.space
    k = grid16_cubes.net.k_max
    fns = np.zeros((3, space.n))
    for row, alpha in zip(fns, grid16_cubes.cubes(k)[:3]):
        row[grid16_cubes.members(k, int(alpha))] = 1.0
    brute = np.stack([brute_maximal(space.dist, space.weight, f) for f in fns])
    lhs, rhs, ratio = fs_vector_ratio(hl_maximal(space, fns), fns, space.weight, p=2.0, q=2.0)
    assert lhs == pytest.approx(fs_vector_ratio(brute, fns, space.weight, p=2.0, q=2.0)[0],
                                rel=1e-10)
    assert rhs > 0 and ratio >= 1.0
