import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from homspace import gallery
from homspace.cli import main
from homspace.gallery import (
    GallerySpec,
    build,
    cantor_points,
    load_space,
    space_to_dict,
)
from homspace.space import (
    FiniteHomSpace,
    check_local_lower_bound,
    estimate_quasi_triangle_constant,
    fit_mass_exponent,
    validate_quasi_metric,
)

from helpers import box_count_dimension


def test_euclidean_grid_mass_and_validity():
    sp = build(GallerySpec(kind="euclidean_grid", n=64, dim=1))
    assert sp.total_mass == pytest.approx(1.0, rel=1e-12)
    assert validate_quasi_metric(sp).ok
    assert fit_mass_exponent(sp) == pytest.approx(1.0, rel=0.25)


def test_euclidean_grid_2d_dimension():
    sp = build(GallerySpec(kind="euclidean_grid", n=16, dim=2))
    assert sp.n == 256
    assert fit_mass_exponent(sp) == pytest.approx(2.0, rel=0.25)


def test_cantor_dimension_against_box_count():
    sp = build(GallerySpec(kind="cantor", depth=6))
    assert sp.n == 64
    target = math.log(2) / math.log(3)
    fitted = fit_mass_exponent(sp)
    assert fitted == pytest.approx(target, rel=0.15)
    # independent box-count oracle on the raw construction
    oracle = box_count_dimension(cantor_points(6), [3.0**-j for j in range(1, 6)])
    assert oracle == pytest.approx(target, rel=0.15)
    assert fitted == pytest.approx(oracle, rel=0.25)


def test_snowflake_identity_exponent_equals_euclidean():
    flat = build(GallerySpec(kind="snowflake", n=32, dim=1, e=1.0))
    euclid = build(GallerySpec(kind="euclidean_grid", n=32, dim=1))
    assert np.array_equal(flat.dist, euclid.dist)


def test_snowflake_distances_and_measured_a0():
    sp = build(GallerySpec(kind="snowflake", n=32, dim=1, e=0.5))
    euclid = build(GallerySpec(kind="euclidean_grid", n=32, dim=1))
    assert np.allclose(sp.dist, euclid.dist**0.5)
    # a concave power of a metric is still a metric
    assert estimate_quasi_triangle_constant(sp).value == pytest.approx(1.0, abs=1e-9)
    assert fit_mass_exponent(sp) == pytest.approx(2.0, rel=0.3)


GALLERY_KINDS = [
    GallerySpec(kind="euclidean_grid", n=96, dim=1),
    GallerySpec(kind="euclidean_grid", n=12, dim=2),
    GallerySpec(kind="cantor", depth=7),
    GallerySpec(kind="snowflake", n=64, dim=1, e=0.5),
    GallerySpec(kind="snowflake", n=10, dim=2, e=0.3),
    GallerySpec(kind="weighted_grid", n=65, dim=1, alpha=2.0, extent=2.0),
    GallerySpec(kind="weighted_grid", n=11, dim=2, alpha=0.0, beta=-0.5, extent=3.0),
]


@pytest.mark.parametrize("spec", GALLERY_KINDS, ids=lambda s: f"{s.kind}-{s.dim}d")
def test_analytic_a0_agrees_with_exact_pass(spec):
    sp = build(spec)
    assert (sp.quasi_triangle.value, sp.quasi_triangle.source) == (1.0, "analytic")
    # the exact pass on the bare table stays the oracle
    table_only = FiniteHomSpace(dist=sp.dist, weight=sp.weight)
    exact = table_only.quasi_triangle
    assert exact.source == "exact"
    assert abs(exact.value - 1.0) <= 1e-12


def test_load_space_certifies_coordinate_metrics(tmp_path):
    pts = [[0.0], [0.3], [1.0], [2.5]]
    for metric in ("euclidean", "snowflake:0.5"):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps({"points": pts, "weights": [1.0] * 4, "metric": metric}))
        assert load_space(str(path)).quasi_triangle.source == "analytic"
    table = np.abs(np.asarray(pts) - np.asarray(pts).T)
    path.write_text(json.dumps({"dist": table.tolist(), "weights": [1.0] * 4}))
    assert load_space(str(path)).quasi_triangle.source == "exact"


def whole_table_dist(coords):
    """The Euclidean table from whole n x n difference blocks, one axis
    after another: the reference for the row-blocked build."""
    d = np.zeros((coords.shape[0],) * 2)
    for axis in coords.T:
        diff = axis[:, None] - axis[None, :]
        d += diff * diff
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


# point counts 130, 144 and 125: several row blocks and a short last one
@pytest.mark.parametrize("n,dim", [(130, 1), (12, 2), (5, 3)])
def test_euclidean_dist_is_bit_identical_to_whole_blocks(n, dim):
    coords = gallery._lattice(n, dim, -1.0, 1.0)
    assert np.array_equal(gallery._euclidean_dist(coords), whole_table_dist(coords))
    cloud = np.random.default_rng(n).standard_normal((n ** dim, dim))
    assert np.array_equal(gallery._euclidean_dist(cloud), whole_table_dist(cloud))


@pytest.mark.parametrize("spec", [GallerySpec(kind="euclidean_grid", n=32, dim=2),
                                  GallerySpec(kind="snowflake", n=32, dim=2, e=0.5)],
                         ids=["euclidean_grid", "snowflake"])
def test_lattice_build_allocates_little_beside_the_table(spec):
    tracemalloc.start()
    try:
        sp = build(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sp.dist.nbytes         # 8 MiB table


def test_snowflake_exponent_out_of_range():
    with pytest.raises(ValueError):
        build(GallerySpec(kind="snowflake", n=16, e=1.5))


def test_weighted_grid_local_bound_fails_at_origin():
    sp = build(GallerySpec(kind="weighted_grid", n=129, dim=1, alpha=2.0,
                           beta=0.0, extent=2.0))
    report = check_local_lower_bound(sp, 1.0)
    assert report.verdict == "FAIL"
    worst = min(report.witnesses, key=lambda f: f["c_min"])
    assert abs(sp.coords[worst["center"], 0]) < 0.25


def test_weighted_grid_origin_handling():
    dropped = build(GallerySpec(kind="weighted_grid", n=65, dim=1, alpha=2.0, extent=1.0))
    assert dropped.n == 64                      # odd lattice loses the origin
    assert np.all(dropped.weight > 0)
    kept = build(GallerySpec(kind="weighted_grid", n=65, dim=1, alpha=0.0,
                             beta=-0.5, extent=2.0))
    assert kept.n == 65
    assert np.all(kept.weight > 0)


def test_weighted_grid_alpha_gate():
    with pytest.raises(ValueError, match="-dim"):
        build(GallerySpec(kind="weighted_grid", n=17, dim=1, alpha=-1.0))
    # a non-finite parameter is refused by name before any point is placed
    for name in ("alpha", "beta", "extent"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number, got"):
                build(GallerySpec(kind="weighted_grid", n=17, dim=1, **{name: value}))
    # so is a finite one whose table or weights leave the float range, with
    # no numpy warning (warnings are errors here)
    for name, params in [("extent", dict(extent=1e-300)),   # the spacing squares to 0
                         ("extent", dict(extent=1e308)),
                         ("extent", dict(n=2, dim=3, extent=1e150)),    # cell volume inf
                         ("alpha", dict(alpha=1e308)),
                         ("beta", dict(beta=-1e308, extent=2.0)),
                         ("beta", dict(beta=1e308, extent=2.0))]:
        with pytest.raises(ValueError, match=f"^{name} = .* is out of range"):
            build(GallerySpec(kind="weighted_grid", **{"n": 17, "dim": 1, **params}))
    # every weight is finite but four ball masses add past the largest
    # float (the maximal operator's denominators warned of overflow)
    with pytest.raises(ValueError, match=r"the total mass 8\.1e\+307 is too large"):
        build(GallerySpec(kind="weighted_grid", n=9, dim=2, extent=4e153))


def test_gallery_bad_kind_and_size():
    with pytest.raises(ValueError, match="unknown gallery kind"):
        build(GallerySpec(kind="pyramid"))
    with pytest.raises(ValueError, match="cap"):
        build(GallerySpec(kind="euclidean_grid", n=200, dim=2))


# ---------------------------------------------------------------------------
# space files
# ---------------------------------------------------------------------------

def test_load_minimal_space(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"points": [[0.0], [1.0]], "weights": [1.0, 1.0],
                                "metric": "euclidean"}))
    sp = load_space(str(path))
    assert sp.n == 2
    assert estimate_quasi_triangle_constant(sp).value == 1.0


def test_load_rejects_negative_weight(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": [[0.0], [1.0]], "weights": [1.0, -1.0]}))
    with pytest.raises(ValueError, match=r"invalid measure: weights\[1\]"):
        load_space(str(path))


@pytest.mark.parametrize("weights, total", [([5e307, 1.0], "5e+307"),
                                            ([1e308, 1e308], "inf")])
def test_load_rejects_a_total_mass_out_of_range(tmp_path, weights, total):
    # the second total overflows fsum itself
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"points": [[0.0], [1.0]], "weights": weights}))
    with pytest.raises(ValueError,
                       match=re.escape(f"heavy.json: invalid measure: the total mass {total} ")):
        load_space(str(path))


def test_load_rejects_asymmetric_table(tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({
        "metric": "explicit",
        "dist": [[0, 1, 2], [1, 0, 3], [2, 9, 0]],
        "weights": [1, 1, 1],
    }))
    with pytest.raises(ValueError, match=r"asymmetric dist at \(1, 2\)"):
        load_space(str(path))


def test_load_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"points": [[0.0],')
    with pytest.raises(ValueError, match="malformed JSON at line"):
        load_space(str(path))


def test_load_schema_errors(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"points": [[0.0], [1.0]]}))
    with pytest.raises(ValueError, match="weights"):
        load_space(str(path))
    path.write_text(json.dumps({"weights": [1, 1], "metric": "explicit"}))
    with pytest.raises(ValueError, match="dist"):
        load_space(str(path))
    path.write_text(json.dumps({"points": [[0.0], [1.0]], "weights": [1, 1],
                                "metric": "snowflake:2.0"}))
    with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
        load_space(str(path))


TABLE = {"metric": "explicit", "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "weights": [1, 1, 1]}


@pytest.mark.parametrize("change,message", [
    ({"weights": {"a": 1}}, "'weights' must be a regular array of numbers"),
    ({"dist": [[0, 1, {}], [1, 0, 1], [2, 1, 0]]}, "'dist' must be a regular array of numbers"),
    ({"declared_A0": [2.0]}, r"'declared_A0' must be a finite number, got \[2.0\]"),
    ({"metric": 5}, "'metric' must be a string, got 5"),
    ({"declared_omega": "x"}, "'declared_omega' must be a finite number, got \"x\""),
    ({"dist": [[0, 1, None], [1, 0, 1], [None, 1, 0]]},
     r"non-finite entry in 'dist' at \[0, 2\]: nan"),
], ids=["weights-object", "object-in-dist", "list-A0", "metric-number", "string-omega",
        "null-in-dist"])
def test_load_rejects_badly_typed_files(tmp_path, change, message):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({**TABLE, **change}))
    with pytest.raises(ValueError, match=message):
        load_space(str(path))
    assert main(["analyze", "--space", str(path)]) == 2
    path.write_text(json.dumps(TABLE))
    assert load_space(str(path)).n == 3


POINTS = {"points": [[0], [1], [3]], "weights": [1, 1, 1]}


@pytest.mark.parametrize("bad", ["1", True], ids=["string", "bool"])
@pytest.mark.parametrize("base,key,at", [
    (TABLE, "weights", [1]),
    (TABLE, "dist", [1, 2]),
    (POINTS, "points", [1, 0]),
], ids=["weights", "dist", "points"])
def test_load_rejects_strings_and_booleans(tmp_path, base, key, at, bad):
    data = json.loads(json.dumps(base))
    if len(at) == 1:
        data[key][at[0]] = bad
    else:
        data[key][at[0]][at[1]] = bad
        if key == "dist":
            data[key][at[1]][at[0]] = bad
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=rf"'{key}' must hold numbers only, "
                                         rf"got {re.escape(json.dumps(bad))} at {re.escape(str(at))}"):
        load_space(str(path))


def test_space_roundtrip(tmp_path):
    sp = build(GallerySpec(kind="snowflake", n=16, dim=1, e=0.8))
    path = tmp_path / "round.json"
    path.write_text(json.dumps(space_to_dict(sp)))
    back = load_space(str(path))
    assert back.metric == "snowflake:0.8"
    assert np.allclose(back.dist, sp.dist)
    assert np.allclose(back.weight, sp.weight)


def test_space_roundtrip_explicit(tmp_path):
    cantor = build(GallerySpec(kind="cantor", depth=4))
    sp = FiniteHomSpace(dist=cantor.dist, weight=cantor.weight)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(space_to_dict(sp)))
    back = load_space(str(path))
    assert back.metric == "explicit"
    assert np.allclose(back.dist, sp.dist)
