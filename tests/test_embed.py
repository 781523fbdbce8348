import dataclasses
import functools
import math

import numpy as np
import pytest

from homspace import embed, gallery
from homspace.common import dumps_report, rng_stream
from homspace.embed import (
    REDRAW_FACTOR,
    EmbedParams,
    characterize,
    delta_necessity_test,
    embedding_ratio_scan,
    generate_batch,
    proof_constant_besov,
    scan_batch,
)
from homspace.seqnorm import CoefSequence, NormParams, SequenceBatch, batch_norms, sequence_norm
from homspace.space import FiniteHomSpace

from conftest import build_system
from helpers import brute_batch_shape, delta_ratio


def sequence_ratio(seq, params):
    """target/source norm ratio of one sequence; None for the neutral 0/0
    of a zero sequence."""
    batch = SequenceBatch.of([seq])
    src = batch_norms(batch, params.source)[0]
    tgt = batch_norms(batch, params.target)[0]
    return None if src == tgt == 0.0 else float(tgt / src)


def besov_pair(s1, p1, s2, p2, q=1.0, omega=1.0, variant="homogeneous"):
    return EmbedParams(
        source=NormParams(s=s2, p=p2, q=q, variant=variant, family="besov"),
        target=NormParams(s=s1, p=p1, q=q, variant=variant, family="besov"),
        omega=omega,
    )


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_trace_line_enforced():
    with pytest.raises(ValueError, match="trace-line"):
        besov_pair(s1=0.4, p1=2.0, s2=1.0, p2=1.0)  # 0.4 - 0.5 != 0


def test_family_and_variant_must_match():
    src = NormParams(s=1.0, p=1.0, q=1.0, family="besov")
    tgt = NormParams(s=0.5, p=2.0, q=1.0, family="triebel_lizorkin")
    with pytest.raises(ValueError, match="families"):
        EmbedParams(source=src, target=tgt, omega=1.0)
    tgt2 = NormParams(s=0.5, p=2.0, q=1.0, family="besov", variant="inhomogeneous")
    with pytest.raises(ValueError, match="variants"):
        EmbedParams(source=src, target=tgt2, omega=1.0)


def test_besov_requires_shared_q():
    src = NormParams(s=1.0, p=1.0, q=1.0, family="besov")
    tgt = NormParams(s=0.5, p=2.0, q=2.0, family="besov")
    with pytest.raises(ValueError, match="single q"):
        EmbedParams(source=src, target=tgt, omega=1.0)


def test_target_smoothness_cannot_exceed_source():
    with pytest.raises(ValueError, match="smoothness"):
        besov_pair(s1=1.0, p1=1.0, s2=0.5, p2=2.0)


def test_tl_pair_eta_gate():
    kw = dict(family="triebel_lizorkin")
    src = NormParams(s=2.0, p=1.0, q=1.0, **kw)     # s - omega/p = 1.0, at ETA
    tgt = NormParams(s=1.5, p=2.0, q=2.0, **kw)
    with pytest.raises(ValueError, match="ETA"):
        EmbedParams(source=src, target=tgt, omega=1.0)


# ---------------------------------------------------------------------------
# necessity
# ---------------------------------------------------------------------------

def test_implied_constants_match_brute(grid64_cubes):
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    report = delta_necessity_test(grid64_cubes, params)
    assert report.verdict == "PASS"
    for key, c in report.constants.items():
        k, alpha = map(int, key.split(":"))
        assert c == pytest.approx(
            grid64_cubes.mass(k, alpha) / grid64_cubes.delta ** k, rel=1e-12)
    brute_min = min(report.constants.values())
    assert report.witness["constant"] == pytest.approx(brute_min)


def test_necessity_vacuous_when_p_equal(grid64_cubes):
    params = besov_pair(s1=0.5, p1=2.0, s2=0.5, p2=2.0)
    report = delta_necessity_test(grid64_cubes, params)
    assert report.verdict == "VACUOUS"


def test_necessity_fails_on_singular_weight():
    sp = gallery.build(gallery.GallerySpec(kind="weighted_grid", n=129, dim=1,
                                           alpha=2.0, beta=0.0, extent=2.0))
    cubes = build_system(sp)
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0, variant="inhomogeneous")
    report = delta_necessity_test(cubes, params)
    assert report.verdict == "FAIL"
    assert report.worst_chain["flagged"]
    assert report.worst_chain["span"] <= 0.1


def test_ratio_rearrangement_recovers_constant(grid64_cubes):
    # embedding with constant C on deltas forces mass >= C' delta^{k omega}:
    # invert ratio = c^{1/p1 - 1/p2} per cube and compare
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    expo = 1.0 / 2.0 - 1.0 / 1.0
    for k, alpha in grid64_cubes.index_cubes()[::7]:
        ratio = delta_ratio(grid64_cubes, k, alpha, params)
        recovered = ratio ** (1.0 / expo)
        assert recovered == pytest.approx(
            grid64_cubes.implied_constant(k, alpha, 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# ratio scans
# ---------------------------------------------------------------------------

def test_scan_delta_ratios_match_closed_form(grid64_cubes):
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    index = grid64_cubes.index_cubes()
    for k, alpha in index[::9]:
        seq = CoefSequence(grid64_cubes, {(k, alpha): 1.0})
        measured = (sequence_norm(seq, params.target)
                    / sequence_norm(seq, params.source))
        assert measured == pytest.approx(delta_ratio(grid64_cubes, k, alpha, params),
                                         rel=1e-12)


def test_scan_sound_on_uniform_grid(grid64_cubes):
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    report = embedding_ratio_scan(grid64_cubes, params, n_sequences=128)
    assert report.verdict == "OK"
    assert not report.witnesses
    assert report.sup_ratio <= report.proof_constant * (1 + 1e-9)
    c_min, proof = proof_constant_besov(grid64_cubes, params)
    assert report.c_min == pytest.approx(c_min)
    assert proof == pytest.approx(c_min ** (1 / 2 - 1 / 1))


def test_zero_sequence_ratio_neutral(grid64_cubes):
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    index = grid64_cubes.index_cubes()
    zero = CoefSequence(grid64_cubes, {index[0]: 0.0})
    live = CoefSequence(grid64_cubes, {index[0]: 2.0})
    assert sequence_ratio(zero, params) is None
    assert sequence_ratio(live, params) is not None
    # in a scan, zero sequences (with and without entries) are skipped and
    # left out of n_nonzero
    empty = CoefSequence(grid64_cubes, {})
    batch = dataclasses.replace(SequenceBatch.of([zero, live, empty, zero]),
                                labels=["z0", "live", "e", "z1"])
    report = scan_batch(batch, params)
    assert (report.n_sequences, report.n_nonzero) == (4, 1)
    assert report.witness_id == "live"
    assert report.sup_ratio == sequence_ratio(live, params)


def test_scan_witness_is_first_maximum(grid64_cubes):
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    index = grid64_cubes.index_cubes()
    seqs = [CoefSequence(grid64_cubes, {key: 1.0}) for key in index[:12]]
    ratios = [sequence_ratio(seq, params) for seq in seqs]
    best = max(ratios)
    top = ratios.index(best)
    # the winner again at the end, under another label, and a copy of it
    # scaled: equal ratios must not move the witness off the first one
    seqs += [seqs[top], CoefSequence(grid64_cubes, {index[top]: 3.0})]
    labels = [f"s{i}" for i in range(len(seqs))]
    report = scan_batch(dataclasses.replace(SequenceBatch.of(seqs), labels=labels), params)
    assert report.witness_id == f"s{top}"
    assert report.sup_ratio == best


def test_scan_violations_keep_batch_order(grid64_cubes, monkeypatch):
    # the constructive constant holds on every batch, so lower it to the
    # median ratio: the violations are then the sequences above it
    from homspace import embed

    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    batch = generate_batch(grid64_cubes, params.variant, 96, seed=3)
    entries = np.split(np.stack([batch.level, batch.alpha, batch.value], axis=1),
                       batch.offsets[1:-1])
    ratios = [sequence_ratio(CoefSequence(grid64_cubes,
                                          {(int(k), int(a)): v for k, a, v in rows}), params)
              for rows in entries]
    bound = float(np.median(ratios))
    monkeypatch.setattr(embed, "proof_constant_besov", lambda cubes, params: (1.0, bound))
    report = scan_batch(batch, params, lower_bound_holds=True)
    assert report.verdict == "BOUND_VIOLATED"
    expected = [{"id": label, "ratio": ratio, "bound": bound}
                for label, ratio in zip(batch.labels, ratios) if ratio > bound * (1 + 1e-9)]
    assert len(expected) >= 10
    assert report.witnesses == expected


def test_scan_asserts_a_vanishing_source(grid64_cubes, monkeypatch):
    # source and target norms share their support, so no norm family makes
    # the source vanish alone: a kernel that zeroes the source norms does
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    kernel = embed.batch_norms
    monkeypatch.setattr(embed, "batch_norms",
                        lambda batch, norm: kernel(batch, norm) * (norm != params.source))
    with pytest.raises(AssertionError, match="source norm vanished"):
        embedding_ratio_scan(grid64_cubes, params, n_sequences=16)


@pytest.mark.parametrize("n_sequences", [-5, 0, 3, None])
def test_short_batches_keep_every_delta(grid64_cubes, n_sequences):
    index = grid64_cubes.index_cubes()
    n_sequences = len(index) if n_sequences is None else n_sequences
    batch = generate_batch(grid64_cubes, "homogeneous", n_sequences, seed=1)
    assert batch.labels == [f"delta:{k}:{a}" for k, a in index]
    assert batch.offsets.tolist() == list(range(len(index) + 1))
    assert list(zip(batch.level.tolist(), batch.alpha.tolist())) == index
    assert batch.value.tolist() == [1.0] * len(index)
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    report = embedding_ratio_scan(grid64_cubes, params, n_sequences=n_sequences)
    assert report.n_sequences == report.n_nonzero == len(index)


def test_batch_sequences_are_sorted_fresh_cubes(grid64_cubes):
    index = grid64_cubes.index_cubes()
    batch = generate_batch(grid64_cubes, "homogeneous", 300, seed=5)
    assert len(batch) == 300 and batch.offsets[-1] == batch.level.size
    kinds = [label.split(":")[0] for label in batch.labels[len(index):]]
    assert kinds[:6] == ["single-level", "multi-level", "adversarial"] * 2
    fresh = set(index)
    for i, j in zip(batch.offsets[:-1].tolist(), batch.offsets[1:].tolist()):
        keys = list(zip(batch.level[i:j].tolist(), batch.alpha[i:j].tolist()))
        assert keys and keys == sorted(set(keys)) and set(keys) <= fresh


# Gallery kinds for the draw-scheme tests. The 1-D grids put a fresh level
# on each side of the redraw threshold: 48 and 49 cubes for the six of a
# single-level draw, 24 and 25 for the three per level of a multi-level one.
BATCH_SPACES = {
    "grid66": gallery.GallerySpec(kind="euclidean_grid", n=66, dim=1),
    "grid67": gallery.GallerySpec(kind="euclidean_grid", n=67, dim=1),
    "grid88": gallery.GallerySpec(kind="euclidean_grid", n=88, dim=1),
    "grid91": gallery.GallerySpec(kind="euclidean_grid", n=91, dim=1),
    "grid12x12": gallery.GallerySpec(kind="euclidean_grid", n=12, dim=2),
    "cantor6": gallery.GallerySpec(kind="cantor", depth=6),
    "snowflake64": gallery.GallerySpec(kind="snowflake", n=64, dim=1, e=0.5),
    "snowflake10x10": gallery.GallerySpec(kind="snowflake", n=10, dim=2, e=0.3),
    "weighted_grid65": gallery.GallerySpec(kind="weighted_grid", n=65, dim=1, alpha=2.0,
                                           extent=2.0),
}


@functools.cache
def batch_system(name):
    return build_system(gallery.build(BATCH_SPACES[name]))


def test_batch_spaces_straddle_the_redraw_threshold():
    sizes = set()
    for name in BATCH_SPACES:
        for variant in ("homogeneous", "inhomogeneous"):
            level = batch_system(name).fresh_index(variant)[0]
            sizes.update(np.unique(level, return_counts=True)[1].tolist())
    for k in (6, 3):
        assert {REDRAW_FACTOR * k, REDRAW_FACTOR * k + 1} <= sizes


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("variant", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("name", sorted(BATCH_SPACES))
def test_batch_shape_matches_brute(name, variant, seed):
    cubes = batch_system(name)
    level, alpha = cubes.fresh_index(variant)
    batch = generate_batch(cubes, variant, alpha.size + 301, seed)
    assert len(batch) == alpha.size + 301
    assert brute_batch_shape(batch.labels, batch.offsets, batch.level, batch.alpha,
                             batch.value, level, alpha, cubes.cube_mass) == []


def test_batch_bytes_follow_the_seed():
    cubes = batch_system("grid67")

    def fields(seed):
        batch = generate_batch(cubes, "homogeneous", 1024, seed)
        return batch.labels, [a.tobytes() for a in (batch.offsets, batch.level,
                                                    batch.alpha, batch.value)]

    assert fields(3) == fields(3)
    labels, other = fields(4)
    assert labels == fields(3)[0]
    assert all(a != b for a, b in zip(other[2:], fields(3)[1][2:]))


class RecordingRng:
    """A generator that records which of its draws are called."""

    def __init__(self, rng):
        self.rng, self.calls = rng, set()

    def integers(self, *args, **kwargs):
        self.calls.add("integers")
        return self.rng.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        self.calls.add("random")
        return self.rng.random(*args, **kwargs)


@pytest.mark.parametrize("k", [3, 6])
@pytest.mark.parametrize("above,path", [(0, "random"), (1, "integers")], ids=["keys", "redraw"])
def test_distinct_positions_are_uniform_subsets(k, above, path):
    size, rows = REDRAW_FACTOR * k + above, 4000
    rng = RecordingRng(rng_stream(5, k, above))
    pos = embed._distinct_positions(rng, rows, size, k)
    assert rng.calls == {path}
    assert pos.shape == (rows, k) and pos.min() >= 0 and pos.max() < size
    ranked = np.sort(pos, axis=1)
    assert (ranked[:, 1:] > ranked[:, :-1]).all()
    # each position is taken with probability k / size: five standard
    # deviations of the binomial count
    hits = np.bincount(pos.ravel(), minlength=size)
    mean = rows * k / size
    assert np.abs(hits - mean).max() < 5 * math.sqrt(mean * (1 - k / size))


def test_distinct_positions_ignore_the_key_budget(monkeypatch):
    # the key table is drawn in row blocks; the positions do not depend on them
    whole = embed._distinct_positions(rng_stream(9), 500, 40, 6)
    monkeypatch.setattr(embed, "BLOCK_ELEMENTS", 40 * 7)
    assert np.array_equal(embed._distinct_positions(rng_stream(9), 500, 40, 6), whole)


def test_distinct_positions_take_a_small_level_whole():
    pos = embed._distinct_positions(rng_stream(1), 3, 4, 6)
    assert pos.tolist() == [[0, 1, 2, 3]] * 3


# Spaces whose lower bound PASSes, with their dimension omega.
PASS_SPACES = {
    "grid96": (gallery.GallerySpec(kind="euclidean_grid", n=96, dim=1), 1.0),
    "grid12x12": (gallery.GallerySpec(kind="euclidean_grid", n=12, dim=2), 2.0),
    "cantor6": (gallery.GallerySpec(kind="cantor", depth=6), math.log(2) / math.log(3)),
    "snowflake64": (gallery.GallerySpec(kind="snowflake", n=64, dim=1, e=0.5), 2.0),
    "weighted_grid65": (gallery.GallerySpec(kind="weighted_grid", n=65, dim=1, alpha=-0.5,
                                            extent=2.0), 1.0),
}


@functools.cache
def pass_system(name):
    space = gallery.build(PASS_SPACES[name][0])
    return space, build_system(space)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("variant", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("name", sorted(PASS_SPACES))
def test_scan_on_a_lower_bound_pass_stays_below_the_constant(name, variant, seed):
    space, cubes = pass_system(name)
    omega = PASS_SPACES[name][1]
    params = besov_pair(s1=omega / 2, p1=2.0, s2=omega, p2=1.0, omega=omega, variant=variant)
    report = characterize(space, cubes, params, n_sequences=2048, seed=seed)
    assert report.lower_bound.verdict == "PASS"
    scan = report.scan
    assert (scan.verdict, scan.witnesses, scan.exploratory) == ("OK", [], False)
    assert scan.n_nonzero == 2048
    assert scan.sup_ratio <= scan.proof_constant * (1 + 1e-9)


def test_scan_deterministic(grid64_cubes):
    params = besov_pair(s1=0.0, p1=math.inf, s2=1.0, p2=1.0)
    a = embedding_ratio_scan(grid64_cubes, params, n_sequences=64, seed=42)
    b = embedding_ratio_scan(grid64_cubes, params, n_sequences=64, seed=42)
    assert dumps_report(a) == dumps_report(b)


def test_scan_tl_exploratory(grid64_cubes):
    kw = dict(family="triebel_lizorkin")
    params = EmbedParams(
        source=NormParams(s=0.75, p=1.0, q=1.0, **kw),
        target=NormParams(s=0.25, p=2.0, q=2.0, **kw),
        omega=1.0,
    )
    report = embedding_ratio_scan(grid64_cubes, params, n_sequences=48)
    assert report.exploratory
    assert report.proof_constant is None
    assert report.sup_ratio > 0


# ---------------------------------------------------------------------------
# characterize
# ---------------------------------------------------------------------------

def test_characterize_uniform_pass(grid64, grid64_cubes):
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    report = characterize(grid64, grid64_cubes, params, n_sequences=96)
    assert report.verdict == "PASS"
    assert report.lower_bound.verdict == "PASS"
    assert report.necessity.verdict == "PASS"
    assert report.scan.sup_ratio <= report.scan.proof_constant * (1 + 1e-9)


def test_characterize_singular_weight_fails():
    sp = gallery.build(gallery.GallerySpec(kind="weighted_grid", n=129, dim=1,
                                           alpha=2.0, beta=0.0, extent=2.0))
    cubes = build_system(sp)
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0, variant="inhomogeneous")
    report = characterize(sp, cubes, params, n_sequences=64)
    assert report.verdict == "FAIL"
    assert report.lower_bound.verdict == "FAIL"
    assert report.necessity.verdict == "FAIL"


def test_characterize_vacuous_necessity_takes_the_lower_bound_verdict(grid64, grid64_cubes):
    # p1 = p2 forces s1 = s2 on the trace line: the embedding is the identity
    singular = gallery.build(gallery.GallerySpec(kind="weighted_grid", n=129, dim=1,
                                                 alpha=2.0, beta=0.0, extent=2.0))
    for sp, cubes, verdict in ((grid64, grid64_cubes, "PASS"),
                               (singular, build_system(singular), "FAIL")):
        params = besov_pair(s1=0.5, p1=2.0, s2=0.5, p2=2.0)
        report = characterize(sp, cubes, params, n_sequences=32)
        assert report.necessity.verdict == "VACUOUS"
        assert report.lower_bound.verdict == report.verdict == verdict
        assert report.notes == ["necessity scan vacuous (identity embedding); "
                                "verdict from the lower bound"]


def test_characterize_bound_violation_on_a_passing_space_is_a_discrepancy(
        grid64, grid64_cubes, monkeypatch):
    real = embed.proof_constant_besov
    monkeypatch.setattr(embed, "proof_constant_besov",
                        lambda cubes, params: (real(cubes, params)[0], 1e-6))
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    report = characterize(grid64, grid64_cubes, params, n_sequences=32)
    assert (report.lower_bound.verdict, report.necessity.verdict) == ("PASS", "PASS")
    assert report.scan.verdict == "BOUND_VIOLATED"
    assert report.verdict == "DISCREPANCY"
    assert report.notes == ["ratio scan exceeded the constructive constant on a "
                            "lower-bound-passing space"]


def test_characterize_atomic_space():
    sp = FiniteHomSpace(dist=np.zeros((1, 1)), weight=np.ones(1))
    report = characterize(sp, None, None)
    assert report.verdict == "NOT_APPLICABLE"
    assert "atomic" in report.notes[0]


def test_characterize_deterministic(grid64, grid64_cubes):
    params = besov_pair(s1=0.5, p1=2.0, s2=1.0, p2=1.0)
    a = characterize(grid64, grid64_cubes, params, n_sequences=48, seed=7)
    b = characterize(grid64, grid64_cubes, params, n_sequences=48, seed=7)
    assert dumps_report(a) == dumps_report(b)
