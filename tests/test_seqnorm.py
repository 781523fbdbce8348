import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from homspace import gallery, seqnorm
from homspace.common import rng_stream
from homspace.embed import generate_batch
from homspace.seqnorm import (
    CoefSequence,
    NormParams,
    SequenceBatch,
    batch_norms,
    besov_norm,
    layer_cake_tl_norm,
    load_sequence,
    sequence_norm,
    triebel_lizorkin_norm,
)

import conftest
from conftest import fresh_at
from helpers import (
    brute_besov,
    brute_tl,
    brute_tl_function,
    delta_sequence_norm,
    dense_tl_function,
    dense_tl_norm,
    midpoint_layer_cake,
    segment_besov_norm,
)

INF = math.inf


def random_sequences(cubes, count, seed, max_support=12):
    rng = rng_stream(seed, 0x5E9)
    index = cubes.index_cubes()
    out = []
    for _ in range(count):
        size = int(rng.integers(1, min(max_support, len(index)) + 1))
        picks = rng.choice(len(index), size=size, replace=False)
        entries = {index[i]: float(v)
                   for i, v in zip(picks, rng.standard_normal(size))}
        out.append(CoefSequence(cubes, entries))
    return out


def oracle_data(cubes, entries):
    masses = {key: cubes.mass(*key) for key in entries}
    members = {key: [int(i) for i in cubes.members(*key)] for key in entries}
    return masses, members


PARAM_GRID = [
    (0.0, 2.0, 2.0), (0.7, 1.5, 0.8), (-0.4, 0.6, 3.0), (1.2, 3.0, 1.0),
    (0.3, 2.0, INF), (0.5, INF, 2.0), (-0.2, INF, INF), (0.0, 0.5, 0.5),
]


# ---------------------------------------------------------------------------
# closed forms and trivial values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s,p,q", PARAM_GRID)
def test_delta_sequence_closed_form_besov(grid64_cubes, s, p, q):
    cubes = grid64_cubes
    rng = rng_stream(21, 4)
    index = cubes.index_cubes()
    for i in rng.choice(len(index), size=8, replace=False):
        k0, a0 = index[i]
        seq = CoefSequence(cubes, {(k0, a0): 1.0})
        params = NormParams(s=s, p=p, q=q, delta=cubes.delta, family="besov")
        expected = cubes.delta ** (-k0 * s) * cubes.mass(k0, a0) ** (
            (0.0 if math.isinf(p) else 1.0 / p) - 0.5)
        assert besov_norm(seq, params) == pytest.approx(expected, rel=1e-12)
        assert delta_sequence_norm(cubes, k0, a0, params) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("s,p,q", [(0.0, 2.0, 2.0), (0.7, 1.5, 0.8), (0.3, 2.0, INF)])
def test_delta_sequence_tl_equals_besov(grid64_cubes, s, p, q):
    cubes = grid64_cubes
    k0, a0 = cubes.index_cubes()[3]
    seq = CoefSequence(cubes, {(k0, a0): 1.0})
    b = besov_norm(seq, NormParams(s=s, p=p, q=q, delta=cubes.delta, family="besov"))
    t = triebel_lizorkin_norm(
        seq, NormParams(s=s, p=p, q=q, delta=cubes.delta, family="triebel_lizorkin"))
    assert t == pytest.approx(b, rel=1e-12)


def test_zero_sequence_all_norms(grid64_cubes):
    key = grid64_cubes.index_cubes()[0]
    seq = CoefSequence(grid64_cubes, {key: 0.0})
    pb = NormParams(s=0.5, p=1.5, q=2.0, delta=grid64_cubes.delta, family="besov")
    pt = NormParams(s=0.5, p=1.5, q=2.0, delta=grid64_cubes.delta, family="triebel_lizorkin")
    assert besov_norm(seq, pb) == 0.0
    assert triebel_lizorkin_norm(seq, pt) == 0.0
    assert layer_cake_tl_norm(seq, pt) == 0.0


def test_two_cube_hand_value(four_point_cubes):
    # two fresh level-0 cubes of mass 1/4 with unit coefficients at s=0, p=q=2:
    # [(0.25^0 * 1)^2 + (0.25^0 * 1)^2]^(1/2) = sqrt(2)
    cubes = four_point_cubes
    fresh = [(0, int(a)) for a in fresh_at(cubes, 0)]
    assert len(fresh) >= 2
    for key in fresh[:2]:
        assert cubes.mass(*key) == pytest.approx(0.25)
    seq = CoefSequence(cubes, {fresh[0]: 1.0, fresh[1]: 1.0})
    params = NormParams(s=0.0, p=2.0, q=2.0, delta=cubes.delta, family="besov")
    assert besov_norm(seq, params) == pytest.approx(math.sqrt(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# identities and properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s,p", [(0.0, 2.0), (0.6, 1.3), (-0.5, 0.7)])
def test_p_equals_q_collapse(grid64_cubes, s, p):
    for seq in random_sequences(grid64_cubes, 10, seed=int(10 * p)):
        b = besov_norm(seq, NormParams(s=s, p=p, q=p, delta=grid64_cubes.delta, family="besov"))
        t = triebel_lizorkin_norm(
            seq, NormParams(s=s, p=p, q=p, delta=grid64_cubes.delta, family="triebel_lizorkin"))
        assert t == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("s,p,q", [(0.0, 2.0, 2.0), (0.7, 1.5, 0.8),
                                   (0.3, 2.5, INF), (-0.2, 0.8, 1.7)])
def test_layer_cake_agreement(grid64_cubes, s, p, q):
    params = NormParams(s=s, p=p, q=q, delta=grid64_cubes.delta, family="triebel_lizorkin")
    for seq in random_sequences(grid64_cubes, 8, seed=77):
        t = triebel_lizorkin_norm(seq, params)
        lc = layer_cake_tl_norm(seq, params)
        assert lc == pytest.approx(t, rel=1e-12)


def test_layer_cake_riemann_oracle(grid64_cubes):
    params = NormParams(s=0.4, p=1.7, q=1.2, delta=grid64_cubes.delta,
                        family="triebel_lizorkin")
    seq = random_sequences(grid64_cubes, 1, seed=5, max_support=20)[0]
    masses, members = oracle_data(grid64_cubes, seq.entries)
    space = grid64_cubes.space
    g = brute_tl_function(seq.entries, masses, members, space.n, grid64_cubes.delta,
                          params.s, params.q, lambda k: True)
    approx = midpoint_layer_cake(g, space.weight.tolist(), params.p, 40000)
    assert approx == pytest.approx(layer_cake_tl_norm(seq, params), rel=1e-3)


@pytest.mark.parametrize("s,p,q", PARAM_GRID)
def test_brute_force_oracle(grid64_cubes, s, p, q):
    level_ok = lambda k: True
    for seq in random_sequences(grid64_cubes, 4, seed=abs(hash((s, p, q))) % 2**31):
        masses, members = oracle_data(grid64_cubes, seq.entries)
        pb = NormParams(s=s, p=p, q=q, delta=grid64_cubes.delta, family="besov")
        expected = brute_besov(seq.entries, masses, grid64_cubes.delta, s, p, q, level_ok)
        assert besov_norm(seq, pb) == pytest.approx(expected, rel=1e-10, abs=1e-300)
        if not math.isinf(p):
            pt = NormParams(s=s, p=p, q=q, delta=grid64_cubes.delta,
                            family="triebel_lizorkin")
            space = grid64_cubes.space
            expected_tl = brute_tl(seq.entries, masses, members, space.weight,
                                   space.n, grid64_cubes.delta, s, p, q, level_ok)
            assert triebel_lizorkin_norm(seq, pt) == pytest.approx(expected_tl, rel=1e-10)


@pytest.mark.parametrize("c", [-3.0, 0.5, 7.0])
def test_absolute_homogeneity(grid64_cubes, c):
    pb = NormParams(s=0.3, p=1.4, q=2.2, delta=grid64_cubes.delta, family="besov")
    pt = NormParams(s=0.3, p=1.4, q=2.2, delta=grid64_cubes.delta, family="triebel_lizorkin")
    for seq in random_sequences(grid64_cubes, 6, seed=901):
        scaled = CoefSequence(seq.system, {key: c * v for key, v in seq.entries.items()})
        assert besov_norm(scaled, pb) == pytest.approx(
            abs(c) * besov_norm(seq, pb), rel=1e-12)
        assert triebel_lizorkin_norm(scaled, pt) == pytest.approx(
            abs(c) * triebel_lizorkin_norm(seq, pt), rel=1e-12)


@pytest.mark.parametrize("q_pair", [(0.5, 1.0), (1.0, 2.0), (2.0, INF)])
def test_q_monotonicity(grid64_cubes, q_pair):
    q_small, q_big = q_pair
    for seq in random_sequences(grid64_cubes, 8, seed=313):
        for family, fn in (("besov", besov_norm), ("triebel_lizorkin", triebel_lizorkin_norm)):
            lo = fn(seq, NormParams(s=0.2, p=1.8, q=q_big, delta=grid64_cubes.delta,
                                    family=family))
            hi = fn(seq, NormParams(s=0.2, p=1.8, q=q_small, delta=grid64_cubes.delta,
                                    family=family))
            assert lo <= hi * (1 + 1e-12)


def test_support_monotonicity(grid64_cubes):
    params = NormParams(s=0.4, p=1.1, q=0.9, delta=grid64_cubes.delta, family="besov")
    index = grid64_cubes.index_cubes()
    base = CoefSequence(grid64_cubes, {index[0]: 0.7, index[4]: -1.1})
    bigger = CoefSequence(grid64_cubes, {**base.entries, index[9]: 0.3})
    assert besov_norm(bigger, params) >= besov_norm(base, params)


# ---------------------------------------------------------------------------
# the batch kernel
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def weighted_cubes():
    # |x|^2 density on [-2, 2]: levels -1, 0, 1 and cube masses spread over
    # orders of magnitude
    sp = gallery.build(gallery.GallerySpec(kind="weighted_grid", n=65, dim=1,
                                           alpha=2.0, beta=0.0, extent=2.0))
    return conftest.build_system(sp)


@pytest.fixture(scope="module")
def weighted_plane_cubes():
    # |x|^1.5 / |x|^-1 density on [-2, 2]^2: 120 points (no origin) on
    # levels -1, 0, 1, so the kernel also sees cubes of a 2-D space
    sp = gallery.build(gallery.GallerySpec(kind="weighted_grid", n=11, dim=2,
                                           alpha=1.5, beta=-1.0, extent=2.0))
    return conftest.build_system(sp)


@pytest.fixture(scope="module")
def cantor_cubes():
    return conftest.build_system(gallery.build(gallery.GallerySpec(kind="cantor", depth=6)))


EXPONENTS = [1 / 3, 0.5, 1.0, 1.7, 2.0, INF]
COEFFICIENTS = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def cube_batches(draw, cubes):
    """(entries, batch): entries on any cube of any level, fresh or not, so
    the kernel is tested off the fresh index too; up to five sequences of up
    to eight entries, zero coefficients included, each sorted by (k, alpha)
    as ``CoefSequence`` sorts its entries."""
    keys = [(k, int(a)) for k in cubes.levels for a in cubes.cubes(k)]
    entries = []
    for _ in range(draw(st.integers(1, 5))):
        support = draw(st.lists(st.sampled_from(keys), max_size=8, unique=True))
        values = draw(st.lists(COEFFICIENTS, min_size=len(support), max_size=len(support)))
        entries.append(dict(sorted(zip(support, values))))
    flat = [(k, a, v) for seq in entries for (k, a), v in seq.items()]
    batch = SequenceBatch(system=cubes, labels=[None] * len(entries),
                          offsets=np.cumsum([0] + [len(seq) for seq in entries]),
                          level=np.array([k for k, _, _ in flat], dtype=int),
                          alpha=np.array([a for _, a, _ in flat], dtype=int),
                          value=np.array([v for _, _, v in flat], dtype=float))
    return entries, batch


@settings(max_examples=150, deadline=None)
@given(data=st.data(), family=st.sampled_from(["besov", "triebel_lizorkin"]),
       s=st.sampled_from([-0.6, 0.0, 0.45]), p=st.sampled_from(EXPONENTS),
       q=st.sampled_from(EXPONENTS), variant=st.sampled_from(["homogeneous", "inhomogeneous"]),
       dim=st.sampled_from([1, 2]))
def test_batch_norms_match_brute_force(weighted_cubes, weighted_plane_cubes, data, family, s, p,
                                       q, variant, dim):
    if family == "triebel_lizorkin" and math.isinf(p):
        p = 1.7
    cubes = weighted_cubes if dim == 1 else weighted_plane_cubes
    entries, batch = data.draw(cube_batches(cubes))
    params = NormParams(s=s, p=p, q=q, delta=cubes.delta, family=family, variant=variant)
    norms = batch_norms(batch, params)
    assert norms.shape == (len(entries),)
    space = cubes.space
    level_ok = lambda k: variant == "homogeneous" or k >= 0
    for seq, got in zip(entries, norms.tolist()):
        masses, members = oracle_data(cubes, seq)
        if family == "besov":
            want = brute_besov(seq, masses, cubes.delta, s, p, q, level_ok)
        else:
            want = brute_tl(seq, masses, members, space.weight, space.n, cubes.delta,
                            s, p, q, level_ok)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (seq, got, want)


@pytest.mark.parametrize("family", ["besov", "triebel_lizorkin"])
def test_batch_norms_empty_and_zero_sequences(grid64_cubes, family):
    cubes = grid64_cubes
    index = cubes.index_cubes()
    live = CoefSequence(cubes, {index[0]: 0.0, index[3]: -1.5, index[-1]: 0.25})
    seqs = [CoefSequence(cubes, {}), CoefSequence(cubes, {index[2]: 0.0, index[5]: 0.0}), live,
            CoefSequence(cubes, {})]
    params = NormParams(s=0.3, p=1.7, q=0.5, delta=cubes.delta, family=family)
    norms = batch_norms(SequenceBatch.of(seqs), params)
    assert norms.tolist() == [0.0, 0.0, sequence_norm(live, params), 0.0]
    assert batch_norms(SequenceBatch.of(seqs[:1]), params).tolist() == [0.0]


@pytest.mark.parametrize("q", [0.5, 2.0, INF])
@pytest.mark.parametrize("rows", [0, 7])
def test_tl_blocks_give_the_same_bits(grid64_cubes, monkeypatch, q, rows):
    # a block smaller than one row still takes one sequence; blocks of 7
    # rows leave a partial last block
    cubes = grid64_cubes
    seqs = random_sequences(cubes, 40, seed=606)
    params = NormParams(s=0.2, p=0.8, q=q, delta=cubes.delta, family="triebel_lizorkin")
    whole = batch_norms(SequenceBatch.of(seqs), params)
    monkeypatch.setattr(seqnorm, "BLOCK_ELEMENTS", rows * cubes.space.n + cubes.space.n // 2)
    assert batch_norms(SequenceBatch.of(seqs), params).tolist() == whole.tolist()
    monkeypatch.undo()
    assert whole.tolist() == [triebel_lizorkin_norm(seq, params) for seq in seqs]


def dense_reference(cubes, seqs, params):
    """``dense_tl_norm`` of each sequence: the norm summed over every point."""
    space = cubes.space
    return [dense_tl_norm(seq.entries, *oracle_data(cubes, seq.entries), space.weight, space.n,
                          cubes.delta, params.s, params.p, params.q, params.level_in_window)
            for seq in seqs]


@pytest.mark.parametrize("p", [1 / 3, 1.0, 2.5])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, INF])
@pytest.mark.parametrize("system", ["grid64", "cantor", "weighted"])
def test_tl_norms_match_the_dense_reference_bits(request, system, q, p):
    # the kernel sums over the points a sequence covers; the reference sums
    # over every point, so an uncovered point must add exactly nothing
    cubes = request.getfixturevalue(f"{system}_cubes")
    seqs = random_sequences(cubes, 24, seed=4242, max_support=20)
    params = NormParams(s=0.3, p=p, q=q, delta=cubes.delta, family="triebel_lizorkin")
    assert batch_norms(SequenceBatch.of(seqs), params).tolist() == \
        dense_reference(cubes, seqs, params)


@pytest.fixture(scope="module")
def snowflake_cubes():
    return conftest.build_system(gallery.build(gallery.GallerySpec(kind="snowflake", n=96,
                                                                   e=0.5)))


# the exponents the bit-for-bit tests run (Triebel-Lizorkin needs p < inf)
BIT_EXPONENTS = {"besov": ([0.5, 1.0, 2.0, 3.0, INF], [0.5, 1.0, 2.0, INF]),
                 "triebel_lizorkin": ([0.5, 1.0, 2.0, 3.0], [0.5, 1.0, 2.0, INF])}


def batch_entries(batch):
    """Each sequence of ``batch`` as an {(k, alpha): value} dict, in order."""
    keys = list(zip(batch.level.tolist(), batch.alpha.tolist()))
    values, cuts = batch.value.tolist(), batch.offsets.tolist()
    return [dict(zip(keys[i:j], values[i:j])) for i, j in zip(cuts[:-1], cuts[1:])]


def assert_bits_match_one_segment_at_a_time(batch, family, variant, s):
    """batch_norms against the one-sequence oracles, bit for bit, at every
    exponent pair of BIT_EXPONENTS: ``segment_besov_norm`` for Besov and
    ``dense_tl_norm`` for Triebel-Lizorkin (both fsum every segment and
    take Python's ** (1/p), ** 1.0 included)."""
    cubes, space = batch.system, batch.system.space
    seqs = batch_entries(batch)
    masses, members = oracle_data(cubes, {key for seq in seqs for key in seq})
    ps, qs = BIT_EXPONENTS[family]
    for p in ps:
        for q in qs:
            params = NormParams(s=s, p=p, q=q, delta=cubes.delta, family=family,
                                variant=variant)
            if family == "besov":
                want = [segment_besov_norm(seq, masses, cubes.delta, s, p, q,
                                           params.level_in_window) for seq in seqs]
            else:
                want = [dense_tl_norm(seq, masses, members, space.weight, space.n, cubes.delta,
                                      s, p, q, params.level_in_window) for seq in seqs]
            got = batch_norms(batch, params)
            assert np.array_equal(got, want), (p, q, np.flatnonzero(got != np.array(want)))


@pytest.mark.parametrize("variant", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("family", ["besov", "triebel_lizorkin"])
@pytest.mark.parametrize("system", ["grid64", "weighted", "cantor", "snowflake"])
def test_batch_norms_bits_on_scan_batches(request, system, family, variant):
    # the scan batches of embed-test (fresh-cube deltas, then single-level,
    # multi-level and adversarial draws), whose level segments have 1, 3 or
    # 6 terms on these systems, and random supports of every size up to 20
    cubes = request.getfixturevalue(f"{system}_cubes")
    assert_bits_match_one_segment_at_a_time(generate_batch(cubes, variant, 512, seed=23),
                                            family, variant, s=0.35)
    assert_bits_match_one_segment_at_a_time(
        SequenceBatch.of(random_sequences(cubes, 128, seed=77, max_support=20)),
        family, variant, s=-0.2)


# four_point: one cube of mass 1 at level -1 (center 1) and four of mass 1/4
# at level 0, so every factor m^(1/p - 1/2) at p in {1/2, 1, 2} is a power
# of two and these terms are exact
SHORT_SEGMENTS = [
    [],                                                 # no term
    [(0, 0, 2.0**54)],                                  # one term
    [(0, 0, 2.0**54), (0, 1, 2.0)],                     # [2^53, 1] at p = 1: a tie
    [(0, 0, 2.0**54), (0, 1, 2.0), (0, 2, 2.0)],        # [2^53, 1, 1]: 2^53 + 2
    [(0, 1, 2.0), (0, 2, 2.0**54), (0, 3, 2.0)],        # the same, 2^53 in the middle
    [(0, 0, 2.0**109), (0, 1, 8.0)],                    # [2^53, 1] at p = 1/2
    [(-1, 1, 2.0**53), (0, 0, 1.0)],                    # levels [2^53, 1] at p = 2, q = 1
    [(-1, 1, -3.0), (0, 0, 0.0), (0, 3, 1e-300), (0, 2, -2.5)],
    [(0, 0, 5e-324), (0, 1, 5e-324)],                   # subnormal terms
]


def short_segment_batch(cubes):
    rows = [sorted(row) for row in SHORT_SEGMENTS]
    flat = [entry for row in rows for entry in row]
    return SequenceBatch(system=cubes, labels=[None] * len(rows),
                         offsets=np.cumsum([0] + [len(row) for row in rows]),
                         level=np.array([k for k, _, _ in flat], dtype=int),
                         alpha=np.array([a for _, a, _ in flat], dtype=int),
                         value=np.array([v for _, _, v in flat], dtype=float))


@pytest.mark.parametrize("variant", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("family", ["besov", "triebel_lizorkin"])
def test_batch_norms_bits_on_short_segments_and_ties(four_point_cubes, family, variant):
    batch = short_segment_batch(four_point_cubes)
    assert_bits_match_one_segment_at_a_time(batch, family, variant, s=0.0)
    if family == "besov" and variant == "homogeneous":
        # an l^1 sum adding the pair first would lose the 2 of 2^53 + 2
        params = NormParams(s=0.0, p=1.0, q=1.0, delta=four_point_cubes.delta)
        assert batch_norms(batch, params)[:5].tolist() == \
            [0.0, 2.0**53, 2.0**53, 2.0**53 + 2, 2.0**53 + 2]


@pytest.mark.parametrize("family", ["besov", "triebel_lizorkin"])
@pytest.mark.parametrize("p, q, values", [
    (2.0, 2.0, [1e200]),                # the array or scalar power of a term
    (2.0, 2.0, [1.2e154] * 3),          # fsum of three finite terms
    (1.0, 2.0, [1e308] * 2),            # the outer l^2 of a finite level sum
    (0.5, 1.0, [1e308] * 4),            # the root sum ** 2
])
def test_norms_out_of_float_range_raise(four_point_cubes, family, p, q, values):
    # warnings are errors here, so no numpy overflow warning gets out
    batch = SequenceBatch(system=four_point_cubes, labels=[None],
                          offsets=np.array([0, len(values)]),
                          level=np.zeros(len(values), dtype=int),
                          alpha=np.arange(len(values)), value=np.array(values))
    params = NormParams(s=0.0, p=p, q=q, delta=four_point_cubes.delta, family=family)
    with pytest.raises(ValueError, match="leaves the float range"):
        batch_norms(batch, params)


def test_norms_near_the_float_range_keep_their_bits(four_point_cubes):
    # 0.5 * 1e308 twice is 1e308 exactly, and at p = q = 1 nothing overflows
    batch = SequenceBatch(system=four_point_cubes, labels=[None], offsets=np.array([0, 2]),
                          level=np.array([0, 0]), alpha=np.array([0, 1]),
                          value=np.array([1e308, -1e308]))
    params = NormParams(s=0.0, p=1.0, q=1.0, delta=four_point_cubes.delta)
    assert batch_norms(batch, params).tolist() == [1e308]


def test_tl_terms_that_underflow_drop_out(weighted_cubes):
    # (m^-1/2 * 1e-200)^2 is 0.0: its cube is covered, its term adds nothing
    cubes = weighted_cubes
    index = cubes.index_cubes()
    tiny = {index[0]: 1e-200, index[-1]: 1e-200}
    live = {index[3]: 0.8, index[-2]: -1.2}
    seqs = [CoefSequence(cubes, entries) for entries in (tiny, {**tiny, **live}, live)]
    params = NormParams(s=0.4, p=1.5, q=2.0, delta=cubes.delta, family="triebel_lizorkin")
    norms = batch_norms(SequenceBatch.of(seqs), params).tolist()
    assert norms[0] == 0.0
    assert norms[1] == norms[2] > 0.0
    assert norms == dense_reference(cubes, seqs, params)
    assert layer_cake_tl_norm(seqs[0], params) == 0.0


@pytest.mark.parametrize("q", [2.0, INF])
@pytest.mark.parametrize("rows", [1, 2])
def test_tl_blocks_that_cover_no_point(grid64_cubes, monkeypatch, q, rows):
    # blocks of one or two sequences: with two, the second block holds only
    # an empty and an all-zero sequence, so it has no covered cell
    cubes = grid64_cubes
    live = random_sequences(cubes, 2, seed=707)
    zero = CoefSequence(cubes, {cubes.index_cubes()[1]: 0.0})
    empty = CoefSequence(cubes, {})
    seqs = [live[0], zero, empty, zero, live[1], empty]
    params = NormParams(s=-0.2, p=0.7, q=q, delta=cubes.delta, family="triebel_lizorkin")
    whole = batch_norms(SequenceBatch.of(seqs), params).tolist()
    monkeypatch.setattr(seqnorm, "BLOCK_ELEMENTS", rows * cubes.space.n)
    assert batch_norms(SequenceBatch.of(seqs), params).tolist() == whole
    assert whole == dense_reference(cubes, seqs, params)
    assert [v == 0.0 for v in whole] == [False, True, True, True, False, True]


@pytest.mark.parametrize("q", [0.5, 2.0, INF])
def test_layer_cake_reads_the_dense_function(weighted_cubes, q):
    # layer_cake_tl_norm rebuilds g over every point from the covered cells
    cubes = weighted_cubes
    space = cubes.space
    index = cubes.index_cubes()
    params = NormParams(s=0.3, p=1.3, q=q, delta=cubes.delta, family="triebel_lizorkin")
    seqs = random_sequences(cubes, 6, seed=909) + [
        CoefSequence(cubes, {index[0]: 1e-200, index[2]: 0.6})]
    for seq in seqs:
        g = dense_tl_function(seq.entries, *oracle_data(cubes, seq.entries), space.n,
                              cubes.delta, params.s, q, params.level_in_window)
        assert layer_cake_tl_norm(seq, params) == \
            seqnorm._layer_cake_integral(g, space.weight, params.p)


# Norms of seeded sequences, recorded with the one-sequence-at-a-time
# evaluation that preceded the batch kernel: any moved ulp fails.
PINNED = {
    ("grid64", "besov", 0.3, 1.7, 1 / 3): [
        "38.84445979303671", "5.2685652304625705", "41.50580484034167", "27.167917583305904",
        "6.594220096276924", "76.98582159083038", "41.91616400289649", "50.70974981310445",
        "28.298411053709163", "45.449056599393685",
    ],
    ("grid64", "besov", -0.4, INF, 2.5): [
        "1.2196765129614993", "0.3376375935151184", "1.8266431064826234", "0.6850849657174569",
        "0.5414522643828116", "2.0591707476034946", "2.542603129142901", "2.4671592028978377",
        "2.078812724120972", "3.4660714596691187",
    ],
    ("grid64", "besov", 0.6, 0.5, INF): [
        "0.39039689349499374", "0.4588185457392194", "0.41538550636021015",
        "1.1412891078791776", "0.34536289306890305", "1.0518398890521679",
        "1.1348964721865644", "1.3576996336703917", "0.365134628343679", "0.9765931570828051",
    ],
    ("grid64", "triebel_lizorkin", 0.2, 1 / 3, 1.7): [
        "0.02291102960755899", "0.0012884964145595563", "0.004626942961958371",
        "0.006769078103515724", "0.0006601070612146905", "0.10665763160078176",
        "0.09375131714246172", "0.08872683288002979", "0.012289022583777521",
        "0.07195121785872201",
    ],
    ("grid64", "triebel_lizorkin", -0.1, 3.0, INF): [
        "1.6441947186329553", "0.7879860124739865", "1.985744586586664", "1.5425785845294657",
        "1.099054924484147", "3.3247147117714446", "2.667295261428052", "2.839989054742941",
        "2.2887458476807163", "3.2668479805231385",
    ],
    ("cantor", "besov", 0.3, 1.7, 1 / 3): [
        "11.368237211958578", "5.2685652304625705", "42.525597330435275", "11.152859343270356",
        "6.594220096276924", "67.18710660204441", "57.430234331801735", "67.39462923133027",
        "12.878157273363415", "19.628098920882447",
    ],
    ("cantor", "besov", -0.4, INF, 2.5): [
        "0.5779403805850348", "0.3376375935151184", "1.3785069996167665", "0.661035283652374",
        "0.5414522643828116", "1.5907826055350194", "1.8594875035199734", "1.3455214313099173",
        "0.7526578483132923", "1.0747647399446136",
    ],
    ("cantor", "besov", 0.6, 0.5, INF): [
        "1.723557752772722", "0.4588185457392194", "0.41538550636021015", "1.5247927194848576",
        "0.34536289306890305", "2.876350511227446", "2.0075234783891602", "2.325323694920527",
        "1.2147395542970738", "5.20017485122266",
    ],
    ("cantor", "triebel_lizorkin", 0.2, 1 / 3, 1.7): [
        "0.006675446412070489", "0.0012884964145595563", "0.011433445051831206",
        "0.005773706749814651", "0.0006601070612146905", "0.1793763702354378",
        "0.09722095850712177", "0.3951822627925628", "0.003480537312248169",
        "0.03624123777020657",
    ],
    ("cantor", "triebel_lizorkin", -0.1, 3.0, INF): [
        "1.4982434493377081", "0.7879860124739865", "1.8907674475484322", "1.5424430252584915",
        "1.099054924484147", "3.234471303168751", "2.30844644116152", "2.3070898350017686",
        "1.8823459016769888", "2.5863472008883264",
    ],
}


@pytest.mark.parametrize("system", ["grid64", "cantor"])
def test_pinned_norm_bits(grid64_cubes, cantor_cubes, system):
    cubes = grid64_cubes if system == "grid64" else cantor_cubes
    rng = rng_stream(2024, 0x919)
    index = cubes.index_cubes()
    seqs = []
    for _ in range(10):
        size = int(rng.integers(1, 9))
        picks = rng.choice(len(index), size=size, replace=False)
        seqs.append(CoefSequence(cubes, {index[i]: float(v)
                                         for i, v in zip(picks, rng.standard_normal(size))}))
    batch = SequenceBatch.of(seqs)
    checked = 0
    for (name, family, s, p, q), want in PINNED.items():
        if name != system:
            continue
        params = NormParams(s=s, p=p, q=q, delta=cubes.delta, family=family)
        assert [repr(v) for v in batch_norms(batch, params).tolist()] == want
        assert [repr(sequence_norm(seq, params)) for seq in seqs] == want
        checked += 1
    assert checked == 5


# ---------------------------------------------------------------------------
# variants, validation, errors
# ---------------------------------------------------------------------------

def test_inhomogeneous_window(grid16_cubes):
    # grid16 levels are {-1, 0}: the k = -1 root is never fresh, so put
    # coefficients at k = 0, which the window keeps
    key = (0, int(fresh_at(grid16_cubes, 0)[0]))
    seq = CoefSequence(grid16_cubes, {key: 1.0})
    params = NormParams(s=0.5, p=2.0, q=1.0, delta=grid16_cubes.delta,
                        family="besov", variant="inhomogeneous")
    assert besov_norm(seq, params) > 0.0


def test_inhomogeneous_ignores_negative_levels():
    import conftest
    from helpers import unit_spaced_grid

    # a line is a metric: declaring A0 = 1 spares the exact O(n^3) pass
    sp = dataclasses.replace(unit_spaced_grid(2500), declared_A0=1.0)
    cubes = conftest.build_system(sp)
    neg = [key for key in cubes.index_cubes() if key[0] < 0]
    assert neg
    seq = CoefSequence(cubes, {neg[0]: 2.5})
    params = NormParams(s=0.5, p=2.0, q=1.0, delta=cubes.delta,
                        family="besov", variant="inhomogeneous")
    assert besov_norm(seq, params) == 0.0


def test_invalid_index_rejected(grid64_cubes):
    net = grid64_cubes.net
    root = int(grid64_cubes.cubes(net.k_min)[0])
    with pytest.raises(ValueError, match="not a fresh cube"):
        CoefSequence(grid64_cubes, {(net.k_min, root): 1.0})
    with pytest.raises(ValueError):
        CoefSequence(grid64_cubes, {(99, 0): 1.0})
    # outside input: ids off the point range, levels off the window
    n = grid64_cubes.space.n
    for key in ((net.k_max, -1), (net.k_max, n), (net.k_min - 1, 0), (net.k_max + 1, 0)):
        with pytest.raises(ValueError, match="is not a fresh cube"):
            CoefSequence(grid64_cubes, {key: 1.0})


def test_delta_mismatch_rejected(grid64_cubes):
    seq = CoefSequence(grid64_cubes, {grid64_cubes.index_cubes()[0]: 1.0})
    params = NormParams(s=0.0, p=2.0, q=2.0, delta=0.25, family="besov")
    with pytest.raises(ValueError, match="delta"):
        besov_norm(seq, params)


def test_tl_requires_finite_p():
    with pytest.raises(ValueError, match="p < inf"):
        NormParams(s=0.0, p=INF, q=2.0, delta=0.5, family="triebel_lizorkin")


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        NormParams(s=0.0, p=0.0, q=2.0, delta=0.5)
    with pytest.raises(ValueError):
        NormParams(s=0.0, p=2.0, q=-1.0, delta=0.5)
    with pytest.raises(ValueError):
        NormParams(s=0.0, p=2.0, q=2.0, delta=1.5)
    with pytest.raises(ValueError):
        NormParams(s=0.0, p=2.0, q=2.0, delta=0.5, family="weird")


# ---------------------------------------------------------------------------
# sequence files
# ---------------------------------------------------------------------------

def test_load_sequence_roundtrip(tmp_path, grid64_cubes):
    index = grid64_cubes.index_cubes()
    rows = [{"k": k, "alpha": a, "value": 0.5 * i} for i, (k, a) in enumerate(index[:4])]
    path = tmp_path / "seq.json"
    path.write_text(__import__("json").dumps(rows))
    seq = load_sequence(str(path), grid64_cubes)
    assert len(seq.entries) == 4
    params = NormParams(s=0.2, p=2.0, q=2.0, delta=grid64_cubes.delta, family="besov")
    assert sequence_norm(seq, params) > 0


def test_load_sequence_bad_rows(tmp_path, grid64_cubes):
    path = tmp_path / "bad.json"
    path.write_text('[{"k": 1}]')
    with pytest.raises(ValueError, match="entry 0"):
        load_sequence(str(path), grid64_cubes)
    path.write_text('{"k": 1}')
    with pytest.raises(ValueError, match="JSON list"):
        load_sequence(str(path), grid64_cubes)
