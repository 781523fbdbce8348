"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with:  pytest tests/test_acceptance.py -v -s
"""
import math
import time

import numpy as np
import pytest

from homspace import gallery
from homspace.cli import main as cli_main
from homspace.common import rng_stream
from homspace.dyadic import build_cubes, build_nets, default_constants, max_single_child_chain, verify_cube_axioms
from homspace.embed import EmbedParams, characterize, embedding_ratio_scan
from homspace.maximal import (
    KernelParams,
    calibrate_kernel_bound,
    default_r_exp,
    bound_holds,
    hl_maximal,
    kernel_bound_batch,
)
from homspace.seqnorm import (
    CoefSequence,
    NormParams,
    SequenceBatch,
    besov_norm,
    layer_cake_tl_norm,
    triebel_lizorkin_norm,
)
from homspace.space import check_lower_bound, fit_mass_exponent

from conftest import random_sequence
from helpers import fs_vector_ratio

REL = 1e-12


def _verdict(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _system(space, seed):
    delta, c0, C0 = default_constants(space)
    return build_cubes(build_nets(space, delta, c0, C0, seed=seed), space)


GALLERY_CONFIGS = [
    (gallery.GallerySpec(kind="euclidean_grid", n=64, dim=1), 101),
    (gallery.GallerySpec(kind="euclidean_grid", n=64, dim=1), 102),
    (gallery.GallerySpec(kind="euclidean_grid", n=256, dim=1), 103),
    (gallery.GallerySpec(kind="euclidean_grid", n=256, dim=1), 104),
    (gallery.GallerySpec(kind="euclidean_grid", n=1024, dim=1), 105),
    (gallery.GallerySpec(kind="euclidean_grid", n=1024, dim=1), 106),
    (gallery.GallerySpec(kind="euclidean_grid", n=8, dim=2), 107),
    (gallery.GallerySpec(kind="euclidean_grid", n=8, dim=2), 108),
    (gallery.GallerySpec(kind="euclidean_grid", n=16, dim=2), 109),
    (gallery.GallerySpec(kind="euclidean_grid", n=16, dim=2), 110),
    (gallery.GallerySpec(kind="euclidean_grid", n=32, dim=2), 111),
    (gallery.GallerySpec(kind="euclidean_grid", n=32, dim=2), 112),
    (gallery.GallerySpec(kind="cantor", depth=5), 113),
    (gallery.GallerySpec(kind="cantor", depth=6), 114),
    (gallery.GallerySpec(kind="cantor", depth=7), 115),
    (gallery.GallerySpec(kind="cantor", depth=7), 116),
    (gallery.GallerySpec(kind="snowflake", n=64, dim=1, e=0.5), 117),
    (gallery.GallerySpec(kind="snowflake", n=64, dim=1, e=0.8), 118),
    (gallery.GallerySpec(kind="snowflake", n=256, dim=1, e=0.5), 119),
    (gallery.GallerySpec(kind="snowflake", n=128, dim=1, e=0.8), 120),
]


@pytest.fixture(scope="module")
def gallery_systems():
    systems = []
    start = time.time()
    for spec, seed in GALLERY_CONFIGS:
        space = gallery.build(spec)
        systems.append((spec, seed, space, _system(space, seed)))
    return systems, time.time() - start


@pytest.fixture(scope="module")
def grid64_system():
    space = gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=64, dim=1))
    return space, _system(space, 0xD1AD1C)


def _random_batch(cubes, count, seed, max_support=14):
    rng = rng_stream(seed, 0xACC)
    index = cubes.index_cubes()
    out = []
    for _ in range(count):
        size = int(rng.integers(1, min(max_support, len(index)) + 1))
        picks = rng.choice(len(index), size=size, replace=False)
        out.append(CoefSequence(cubes, {
            index[i]: float(v) for i, v in zip(picks, rng.standard_normal(size))}))
    return out


def test_criterion_1_cube_axioms(gallery_systems):
    systems, build_time = gallery_systems
    start = time.time()
    ok = True
    for spec, seed, space, cubes in systems:
        report = verify_cube_axioms(cubes)
        if not report.ok:
            ok = False
            print(f"  axiom violation on {spec}: {report.violations[0]}")
    elapsed = build_time + (time.time() - start)
    ok = ok and len(systems) == 20 and elapsed < 60.0
    print(f"  20 systems built + verified in {elapsed:.1f}s")
    _verdict(1, "cube axioms on 20 gallery systems", ok)


def test_criterion_2_chain_bound(gallery_systems):
    systems, _ = gallery_systems
    ok = True
    for spec, seed, space, cubes in systems:
        report = max_single_child_chain(cubes)
        if not (report.max_chain_len <= report.bound_N):
            ok = False
            print(f"  chain bound broken on {spec}: {report.max_chain_len} > {report.bound_N}")
    _verdict(2, "single-child chain bound", ok)


def test_criterion_3_norm_identities(grid64_system):
    space, cubes = grid64_system
    start = time.time()
    batch = _random_batch(cubes, 100, seed=42)
    delta = cubes.delta
    ok = True

    pq = [(0.3, 1.4), (0.0, 2.0), (-0.5, 0.7)]
    for s, p in pq:
        pb = NormParams(s=s, p=p, q=p, delta=delta, family="besov")
        pt = NormParams(s=s, p=p, q=p, delta=delta, family="triebel_lizorkin")
        for seq in batch:
            b, t = besov_norm(seq, pb), triebel_lizorkin_norm(seq, pt)
            if abs(b - t) > REL * max(b, t):
                ok = False

    pt = NormParams(s=0.4, p=1.7, q=1.2, delta=delta, family="triebel_lizorkin")
    for seq in batch:
        t = triebel_lizorkin_norm(seq, pt)
        lc = layer_cake_tl_norm(seq, pt)
        if abs(t - lc) > REL * max(t, lc, 1e-300):
            ok = False

    pb = NormParams(s=0.4, p=1.7, q=1.2, delta=delta, family="besov")
    for c in (-3.0, 0.5, 7.0):
        for seq in batch[:40]:
            for fam, fn in ((pb, besov_norm), (pt, triebel_lizorkin_norm)):
                base = fn(seq, fam)
                scaled = fn(seq.scaled(c), fam)
                if abs(scaled - abs(c) * base) > REL * max(scaled, abs(c) * base):
                    ok = False

    for q_small, q_big in ((0.6, 1.3), (1.3, 2.6), (2.6, math.inf)):
        lo_p = NormParams(s=0.4, p=1.7, q=q_big, delta=delta, family="triebel_lizorkin")
        hi_p = NormParams(s=0.4, p=1.7, q=q_small, delta=delta, family="triebel_lizorkin")
        for seq in batch:
            if triebel_lizorkin_norm(seq, lo_p) > triebel_lizorkin_norm(seq, hi_p) * (1 + REL):
                ok = False

    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    print(f"  100-sequence batch checked in {elapsed:.1f}s")
    _verdict(3, "norm identities (p=q, layer cake, homogeneity, q-monotonicity)", ok)


def test_criterion_4_delta_closed_form(grid64_system):
    space, cubes = grid64_system
    rng = rng_stream(4, 4)
    index = cubes.index_cubes()
    picks = rng.choice(len(index), size=50, replace=True)
    s, p, q = 0.65, 1.3, 2.1
    params = NormParams(s=s, p=p, q=q, delta=cubes.delta, family="besov")
    ok = True
    for i in picks:
        k0, a0 = index[i]
        seq = CoefSequence(cubes, {(k0, a0): 1.0})
        value = besov_norm(seq, params)
        expected = cubes.delta ** (-k0 * s) * cubes.mass(k0, a0) ** (1.0 / p - 0.5)
        if abs(value - expected) > REL * expected:
            ok = False
    _verdict(4, "delta-sequence closed form (50 random cubes)", ok)


def _besov_pair(delta, omega, s1, p1, s2, p2, q, variant="homogeneous"):
    return EmbedParams(
        source=NormParams(s=s2, p=p2, q=q, delta=delta, variant=variant, family="besov"),
        target=NormParams(s=s1, p=p1, q=q, delta=delta, variant=variant, family="besov"),
        omega=omega,
    )


def test_criterion_5_characterization_equivalence():
    start = time.time()
    ok = True

    pass_cases = []
    for spec, omega in [
        (gallery.GallerySpec(kind="euclidean_grid", n=64, dim=1), 1.0),
        (gallery.GallerySpec(kind="euclidean_grid", n=16, dim=2), 2.0),
        (gallery.GallerySpec(kind="cantor", depth=6), None),   # measured exponent
    ]:
        space = gallery.build(spec)
        if omega is None:
            omega = fit_mass_exponent(space)
        cubes = _system(space, 0xD1AD1C)
        params = _besov_pair(cubes.delta, omega, s1=omega / 2, p1=2.0,
                             s2=omega, p2=1.0, q=1.0)
        report = characterize(space, cubes, params, n_sequences=128)
        pass_cases.append((spec.kind, report))
        if report.verdict != "PASS":
            ok = False
            print(f"  expected PASS on {spec.kind}: got {report.verdict}; notes {report.notes}")

    fail_cases = []
    for spec, variant in [
        (gallery.GallerySpec(kind="weighted_grid", n=257, dim=1, alpha=2.0,
                             beta=0.0, extent=2.0), "inhomogeneous"),
        (gallery.GallerySpec(kind="weighted_grid", n=1025, dim=1, alpha=0.0,
                             beta=-0.5, extent=512.0), "homogeneous"),
    ]:
        space = gallery.build(spec)
        cubes = _system(space, 0xD1AD1C)
        params = _besov_pair(cubes.delta, 1.0, s1=0.5, p1=2.0, s2=1.0, p2=1.0,
                             q=1.0, variant=variant)
        report = characterize(space, cubes, params, n_sequences=128)
        fail_cases.append((spec, report))
        if report.verdict != "FAIL":
            ok = False
            print(f"  expected FAIL ({variant}): got {report.verdict}; notes {report.notes}")
        span = report.necessity.worst_chain["span"]
        if not span <= 0.1:    # constants decay by >= 10x across the window
            ok = False
            print(f"  decay span {span} above 0.1 on {spec.kind} {variant}")

    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    print(f"  5 characterizations in {elapsed:.1f}s")
    _verdict(5, "characterization equivalence (3 PASS + 2 FAIL spaces)", ok)


def test_criterion_6_proof_constant_soundness(grid64_system):
    space, cubes = grid64_system
    lb = check_lower_bound(space, 1.0, space.r_floor, space.diameter)
    ok = lb.verdict == "PASS"
    pairs = [
        dict(s1=0.5, p1=2.0, s2=1.0, p2=1.0, q=1.0),
        dict(s1=-0.7, p1=2.0, s2=0.3, p2=2.0 / 3.0, q=0.8),
        dict(s1=0.0, p1=math.inf, s2=1.0, p2=1.0, q=2.0),
    ]
    for kw in pairs:
        params = _besov_pair(cubes.delta, 1.0, **kw)
        report = embedding_ratio_scan(cubes, params, n_sequences=256,
                                      lower_bound_holds=True)
        if report.witnesses or report.verdict != "OK":
            ok = False
            print(f"  bound violated for {kw}: {report.witnesses[:3]}")
        if not report.sup_ratio <= report.proof_constant * (1 + 1e-9):
            ok = False
    _verdict(6, "proof-constant soundness (3 trace-line pairs, 256 sequences)", ok)


def test_criterion_7_maximal_properties(grid64_system):
    space, _ = grid64_system
    rng = rng_stream(7, 7)
    ok = True
    for _ in range(100):
        f = rng.standard_normal(space.n)
        g = rng.standard_normal(space.n)
        mf, mg = hl_maximal(space, f), hl_maximal(space, g)
        if not np.all(mf >= np.abs(f)):
            ok = False
        if not np.all(hl_maximal(space, f + g) <= (mf + mg) * (1 + REL)):
            ok = False
    ratios = []
    for seed in range(50):
        srng = rng_stream(seed, 0x75)
        fns = np.stack([srng.standard_normal(space.n) for _ in range(4)])
        _, _, ratio = fs_vector_ratio(hl_maximal(space, fns), fns, space.weight, p=2.0, q=2.0)
        ratios.append(ratio)
    med = float(np.median(ratios))
    if not (max(ratios) <= 2.0 * med and min(ratios) >= med / 2.0):
        ok = False
        print(f"  fs ratios unstable: median {med}, range [{min(ratios)}, {max(ratios)}]")
    _verdict(7, "maximal operator properties + vector-valued stability", ok)


def test_criterion_8_kernel_bound_stability(grid64_system):
    space, cubes = grid64_system
    ok = True
    for p2 in (1.0, 2.0):
        params = KernelParams(epsilon=0.5, gamma=3.0, r_exp=default_r_exp(p2), omega=1.0)
        cal = calibrate_kernel_bound(cubes, params, n_sequences=32, seed=1000 + int(p2))
        rng = rng_stream(2000 + int(p2), 0x8)
        seqs = SequenceBatch.of([random_sequence(cubes, rng) for _ in range(100)])
        lhs, rhs = kernel_bound_batch(cubes, seqs, cal.probes, params)
        # a NEUTRAL pair (both sides 0) holds
        violations = int(np.count_nonzero(~bound_holds(lhs, rhs, 2.0 * cal.c_report)))
        if violations:
            ok = False
            print(f"  p2={p2}: {violations} ratios above 2x calibration {cal.c_report}")
    _verdict(8, "kernel bound stability (p2 in {1, 2}, 100 trials)", ok)


def test_criterion_9_reproducibility(tmp_path):
    ok = True
    jobs = [
        ["analyze", "--gallery", "cantor", "--depth", "6",
         "--check-lower-bound", "--omega", "0.6309"],
        ["embed-test", "--gallery", "euclidean_grid", "--n", "64", "--omega", "1.0",
         "--s1", "0.5", "--p1", "2", "--s2", "1.0", "--p2", "1", "--q", "1",
         "--n-sequences", "64", "--seed", "31415"],
        ["cubes", "--gallery", "snowflake", "--n", "64", "--snowflake-e", "0.5",
         "--seed", "31415"],
    ]
    for i, argv in enumerate(jobs):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        assert cli_main(argv + ["--out", str(a)]) in (0,)
        assert cli_main(argv + ["--out", str(b)]) in (0,)
        if a.read_bytes() != b.read_bytes():
            ok = False
            print(f"  report bytes differ for {argv[0]}")
    _verdict(9, "byte-identical reports for identical config + seed", ok)
