import math

import numpy as np
import pytest

from homspace.common import rng_stream
from homspace.gallery import unit_dyadic_lattice
from homspace.seqnorm import (
    CoefSequence,
    NormParams,
    besov_norm,
    delta_sequence_norm,
    layer_cake_tl_norm,
    load_sequence,
    sequence_norm,
    triebel_lizorkin_norm,
    weighted_rn_norm,
)

from helpers import brute_besov, brute_tl

INF = math.inf


def random_sequences(cubes, count, seed, max_support=12):
    rng = rng_stream(seed, 0x5E9)
    index = cubes.index_cubes("homogeneous", "fresh")
    out = []
    for _ in range(count):
        size = int(rng.integers(1, min(max_support, len(index)) + 1))
        picks = rng.choice(len(index), size=size, replace=False)
        entries = {index[i]: float(v)
                   for i, v in zip(picks, rng.standard_normal(size))}
        out.append(CoefSequence(cubes, entries))
    return out


def oracle_data(seq):
    cubes = seq.system
    masses = {key: cubes.mass(*key) for key in seq.entries}
    members = {key: [int(i) for i in cubes.members(*key)] for key in seq.entries}
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
    index = cubes.index_cubes("homogeneous", "fresh")
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
    k0, a0 = cubes.index_cubes("homogeneous", "fresh")[3]
    seq = CoefSequence(cubes, {(k0, a0): 1.0})
    b = besov_norm(seq, NormParams(s=s, p=p, q=q, delta=cubes.delta, family="besov"))
    t = triebel_lizorkin_norm(
        seq, NormParams(s=s, p=p, q=q, delta=cubes.delta, family="triebel_lizorkin"))
    assert t == pytest.approx(b, rel=1e-12)


def test_zero_sequence_all_norms(grid64_cubes):
    key = grid64_cubes.index_cubes("homogeneous", "fresh")[0]
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
    fresh = [(0, int(a)) for a in cubes.fresh_cubes(0)]
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
    exact = layer_cake_tl_norm(seq, params)
    approx = layer_cake_tl_norm(seq, params, quadrature="riemann:40000")
    assert approx == pytest.approx(exact, rel=1e-3)


@pytest.mark.parametrize("s,p,q", PARAM_GRID)
def test_brute_force_oracle(grid64_cubes, s, p, q):
    level_ok = lambda k: True
    for seq in random_sequences(grid64_cubes, 4, seed=abs(hash((s, p, q))) % 2**31):
        masses, members = oracle_data(seq)
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
        assert besov_norm(seq.scaled(c), pb) == pytest.approx(
            abs(c) * besov_norm(seq, pb), rel=1e-12)
        assert triebel_lizorkin_norm(seq.scaled(c), pt) == pytest.approx(
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
    index = grid64_cubes.index_cubes("homogeneous", "fresh")
    base = CoefSequence(grid64_cubes, {index[0]: 0.7, index[4]: -1.1})
    bigger = CoefSequence(grid64_cubes, {**base.entries, index[9]: 0.3})
    assert besov_norm(bigger, params) >= besov_norm(base, params)


# ---------------------------------------------------------------------------
# variants, validation, errors
# ---------------------------------------------------------------------------

def test_inhomogeneous_window(grid16_cubes):
    # grid16 levels are {-1, 0}: the k = -1 root is never fresh, so put
    # coefficients at k = 0 and check the zero-level flag
    key = (0, int(grid16_cubes.fresh_cubes(0)[0]))
    seq = CoefSequence(grid16_cubes, {key: 1.0})
    with_zero = NormParams(s=0.5, p=2.0, q=1.0, delta=grid16_cubes.delta,
                           family="besov", variant="inhomogeneous")
    without = NormParams(s=0.5, p=2.0, q=1.0, delta=grid16_cubes.delta,
                         family="besov", variant="inhomogeneous",
                         include_zero_level=False)
    assert besov_norm(seq, with_zero) > 0.0
    assert besov_norm(seq, without) == 0.0


def test_inhomogeneous_ignores_negative_levels():
    import conftest
    from helpers import unit_spaced_grid

    sp = unit_spaced_grid(2500)
    # a line is a metric: passing A0 = 1 spares the exact O(n^3) pass
    cubes = conftest.build_system(sp, a0=1.0)
    neg = [key for key in cubes.index_cubes("homogeneous", "fresh") if key[0] < 0]
    assert neg
    seq = CoefSequence(cubes, {neg[0]: 2.5})
    params = NormParams(s=0.5, p=2.0, q=1.0, delta=cubes.delta,
                        family="besov", variant="inhomogeneous")
    assert besov_norm(seq, params) == 0.0


def test_invalid_index_rejected(grid64_cubes):
    root = int(grid64_cubes.cubes(grid64_cubes.net.k_min)[0])
    with pytest.raises(ValueError, match="not a fresh cube"):
        CoefSequence(grid64_cubes, {(grid64_cubes.net.k_min, root): 1.0})
    with pytest.raises(ValueError):
        CoefSequence(grid64_cubes, {(99, 0): 1.0})


def test_index_mode_all_admits_root(grid64_cubes):
    root = int(grid64_cubes.cubes(grid64_cubes.net.k_min)[0])
    seq = CoefSequence(grid64_cubes, {(grid64_cubes.net.k_min, root): 1.0},
                       index_mode="all")
    params = NormParams(s=0.0, p=2.0, q=2.0, delta=grid64_cubes.delta, family="besov")
    assert besov_norm(seq, params) > 0


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
# weighted norms on the standard dyadic grid
# ---------------------------------------------------------------------------

def test_weighted_rn_lebesgue_case():
    grid = unit_dyadic_lattice(6)  # 64 points, level-j cubes carry mass 2^-j
    for j, k in [(0, (0,)), (3, (5,)), (6, (40,))]:
        assert grid.mass(j, k) == pytest.approx(2.0 ** (-j), rel=1e-12)
    s, p, q = 0.4, 1.5, 2.0
    entries = {(3, (5,)): 1.0}
    params = NormParams(s=s, p=p, q=q, delta=0.5, family="besov")
    expected = 2.0 ** (3 * s) * (2.0 ** (-3)) ** (1 / p - 0.5)
    assert weighted_rn_norm(entries, grid, params) == pytest.approx(expected, rel=1e-12)


def test_weighted_rn_delta_closed_form_weighted_density():
    from homspace.gallery import unit_dyadic_lattice

    grid = unit_dyadic_lattice(6, density=lambda pts: 0.5 + np.abs(pts[:, 0]) ** 0.5)
    j, k = 4, (3,)
    w_mass = grid.mass(j, k)
    s, p, q = 0.7, 2.0, 1.0
    entries = {(j, k): 1.0}
    params = NormParams(s=s, p=p, q=q, delta=0.5, family="besov")
    expected = 2.0 ** (j * s) * w_mass ** (1 / p - 0.5)
    assert weighted_rn_norm(entries, grid, params) == pytest.approx(expected, rel=1e-12)


def test_weighted_rn_zero_and_tl_matches_brute():
    grid = unit_dyadic_lattice(5)
    params = NormParams(s=0.3, p=1.6, q=1.1, delta=0.5, family="triebel_lizorkin")
    assert weighted_rn_norm({(2, (1,)): 0.0}, grid, params) == 0.0
    entries = {(2, (1,)): 1.0, (4, (7,)): -0.4, (0, (0,)): 0.2}
    masses = {(j, k): grid.mass(j, k) for (j, k) in entries}
    members = {(j, k): [int(i) for i in grid.members(j, k)] for (j, k) in entries}
    expected = brute_tl(entries, masses, members, grid.weights,
                        grid.points.shape[0], 0.5, params.s, params.p, params.q,
                        lambda k: True)
    assert weighted_rn_norm(entries, grid, params) == pytest.approx(expected, rel=1e-10)


def test_weighted_rn_outside_box_errors():
    grid = unit_dyadic_lattice(4)
    params = NormParams(s=0.0, p=2.0, q=2.0, delta=0.5, family="besov")
    with pytest.raises(KeyError, match="meets the box"):
        weighted_rn_norm({(2, (77,)): 1.0}, grid, params)
    with pytest.raises(ValueError, match="outside the grid window"):
        weighted_rn_norm({(9, (0,)): 1.0}, grid, params)


def test_weighted_rn_wrong_delta():
    grid = unit_dyadic_lattice(3)
    params = NormParams(s=0.0, p=2.0, q=2.0, delta=0.25, family="besov")
    with pytest.raises(ValueError, match="1/2"):
        weighted_rn_norm({(0, (0,)): 1.0}, grid, params)


# ---------------------------------------------------------------------------
# sequence files
# ---------------------------------------------------------------------------

def test_load_sequence_roundtrip(tmp_path, grid64_cubes):
    index = grid64_cubes.index_cubes("homogeneous", "fresh")
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
