"""Tests of the benchmark itself: its oracles, its checks, its tracer and
its inputs.

    python3 -m pytest bench/test_bench.py -q
"""
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from homspace import cli  # noqa: E402
from tracing import Tracer  # noqa: E402

LINE3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])   # points 0, 1, 2


# -- oracles against hand-counted cases ------------------------------------

def test_quasi_triangle_constant_by_hand():
    assert oracles.quasi_triangle_constant(LINE3) == 1.0
    # squared distances: d(0,2) = 4 against d(0,1) + d(1,2) = 2
    assert oracles.quasi_triangle_constant(LINE3**2) == 2.0


def test_maximal_function_by_hand():
    w = np.full(3, 1.0 / 3.0)
    # at 0: {0} averages 3; at 1: {1} gives 0, all three give 1; at 2: {2}
    # and {1, 2} give 0, all three give 1
    got = oracles.maximal_function(LINE3, w, np.array([3.0, 0.0, 0.0]))
    assert got.tolist() == [3.0, 1.0, 1.0]
    # uneven weights: at 1, the ball {0, 1, 2} averages (1*3 + 2*0 + 1*0) / 4
    got = oracles.maximal_function(LINE3, np.array([1.0, 2.0, 1.0]), np.array([-3.0, 0.0, 0.0]))
    assert got.tolist() == [3.0, 0.75, 0.75]


def test_point_sets_by_hand():
    assert oracles.lattice(3, 1).ravel().tolist() == [0.0, 0.5, 1.0]
    assert oracles.lattice(2, 2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert np.allclose(oracles.cantor_midpoints(1), [1 / 6, 5 / 6])
    assert np.allclose(oracles.cantor_midpoints(2), [1 / 18, 5 / 18, 13 / 18, 17 / 18])
    assert oracles.min_positive(LINE3) == 1.0
    assert np.array_equal(oracles.distance_table([0.0, 3.0, 4.0]),
                          [[0, 3, 4], [3, 0, 1], [4, 1, 0]])


def test_constants_by_hand():
    # 12 * 1 * 2 * 2^-j <= 1 first holds at j = 5
    assert oracles.admissible_delta(1.0, 1.0, 2.0) == 1 / 32
    # diameter 1: C0 delta^0 = 2 spans it, C0 delta^1 = 1/16 does not;
    # r_floor 1/63: delta^1 = 1/32 is above it, delta^2 = 1/1024 below
    assert oracles.level_window(1.0, 1 / 63, 1 / 32, 1.0, 2.0) == (0, 2)


def _three_point_system(coarse_assign, fine_assign):
    return {"delta": 0.5, "c0": 1.0, "C0": 2.0, "c1": 1 / 3, "C1": 4.0,
            "levels": [{"k": -2, "centers": [0], "assignment": coarse_assign},
                       {"k": 0, "centers": [0, 1, 2], "assignment": fine_assign}]}


def test_cube_system_problems_by_hand():
    # one cube of scale 4 over the points 0, 1, 2; singletons at scale 1
    assert oracles.cube_system_problems(LINE3, _three_point_system([0, 0, 0], [0, 1, 2])) == []
    bad = oracles.cube_system_problems(LINE3, _three_point_system([0, 0, 0], [0, 2, 2]))
    assert any("outside its own cube" in p for p in bad)
    # the point 1 sits at distance 1 from 0, inside B(0, c1 * 4)
    split = {"delta": 0.5, "c0": 1.0, "C0": 2.0, "c1": 1 / 3, "C1": 4.0,
             "levels": [{"k": -2, "centers": [0, 2], "assignment": [0, 2, 2]}]}
    assert any("inner ball leaves the cube" in p
               for p in oracles.cube_system_problems(LINE3, split))


# -- checks on real reports, and on corrupted ones -------------------------

def _run(argv, out: Path) -> dict:
    """Run one command in the current directory, as the benchmark does."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def _command(wl, label):
    return next(c for c in wl.commands if c.label == label)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """Every workload for seed 3, run from one directory that holds all
    their inputs."""
    root = tmp_path_factory.mktemp("bench")
    out = {}
    for name, make in workloads.WORKLOADS.items():
        out[name] = make(3)
        out[name].write_inputs(root)
    return out, root


def _corrupt(rep: dict, path: list, value):
    rep = json.loads(json.dumps(rep))
    node = rep
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return rep


CASES = [
    # (workload, command label, corruption path, corrupted value)
    ("ingest", "analyze plane_table.json", ["stats", "a0_est"], lambda v: v * (1 + 1e-9)),
    ("ingest", "analyze plane_table.json", ["r_floor"], lambda v: v * 1.5),
    ("ingest", "gallery plane_table.json", ["space", "dist", 3, 7], lambda v: v + 1e-6),
    ("ingest", "gallery plane_table.json", ["space", "weights", 0], lambda v: v * 2),
    ("characterize", "embed-test cantor7 besov", ["verdict"], "FAIL"),
    ("characterize", "embed-test cantor7 besov", ["sup_ratio"], lambda v: v * 1.01),
    ("characterize", "cubes cantor8", ["system", "levels", 2, "assignment", 0],
     lambda v: v + 1),
    ("maximal", "maximal grid16x16 values", ["maximal", 17], lambda v: v * (1 + 1e-9)),
    ("maximal", "maximal grid256 random", ["max_over_sup_ratios", 5], 0.99),
    ("maximal", "kernel-check cantor6", ["calibration", "n_samples"], lambda v: v + 32),
]


@pytest.mark.parametrize("name,label,path,value", CASES,
                         ids=[f"{c[1]}:{c[2][-1]}" for c in CASES])
def test_check_passes_and_corruption_fails(built, tmp_path, monkeypatch, name, label, path,
                                           value):
    monkeypatch.chdir(built[1])
    cmd = _command(built[0][name], label)
    rep = _run(cmd.argv, tmp_path / "report.json")
    assert cmd.check(rep) == []
    assert cmd.check(_corrupt(rep, path, value)) != []


def test_lower_bound_check_on_a_regular_space(built, tmp_path, monkeypatch):
    monkeypatch.chdir(built[1])
    cmd = _command(built[0]["ingest"], "analyze grid24.json")
    rep = _run(cmd.argv, tmp_path / "report.json")
    assert cmd.check(rep) == []
    assert cmd.check(_corrupt(rep, ["lower_bound", "verdict"], "FAIL")) != []


# -- the tracer ------------------------------------------------------------

TRACED = [("characterize", "embed-test cantor7 besov"), ("characterize", "cubes cantor8"),
          ("maximal", "kernel-check cantor6"), ("maximal", "maximal grid16x16 values"),
          ("ingest", "gallery plane_table.json")]


def test_traced_reports_are_byte_identical(built, tmp_path, monkeypatch):
    monkeypatch.chdir(built[1])
    plain = {}
    for name, label in TRACED:
        _run(_command(built[0][name], label).argv, tmp_path / "plain.json")
        plain[label] = (tmp_path / "plain.json").read_bytes()
    tracer = Tracer()
    tracer.install()
    try:
        for name, label in TRACED:
            _run(_command(built[0][name], label).argv, tmp_path / "traced.json")
            assert (tmp_path / "traced.json").read_bytes() == plain[label], label
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    assert metrics["space.a0_calls"]["value"] > 0
    assert metrics["maximal.hl_calls"]["value"] > 0
    assert 0 < metrics["maximal.hl_rows_used_ratio"]["value"] <= 1
    assert metrics["common.report_mb"]["value"] > 0
    # the self times add up to the time spent inside cli.main
    assert math.isclose(tracer.total_self(), tracer.root_s, rel_tol=1e-9)


def test_uninstall_restores_the_library():
    from homspace import dyadic, space
    before = (space.validate_quasi_metric, cli.build_cubes, space.FiniteHomSpace.ball)
    tracer = Tracer()
    tracer.install()
    assert cli.build_cubes is not before[1]
    tracer.uninstall()
    assert (space.validate_quasi_metric, cli.build_cubes, space.FiniteHomSpace.ball) == before
    assert dyadic.build_cubes is before[1]


# -- inputs follow the seed ------------------------------------------------

def _generated(wl):
    return wl.inputs, [c.argv for c in wl.commands]


@pytest.mark.parametrize("name", ["ingest", "maximal"])
def test_seed_sets_the_inputs(name):
    make = workloads.WORKLOADS[name]
    assert _generated(make(1)) == _generated(make(1))
    assert _generated(make(1)) != _generated(make(2))


def test_characterize_takes_no_seed():
    # its commands all build cube systems, which keep the CLI's default
    # --seed (workloads.py)
    assert _generated(workloads.characterize(1)) == _generated(workloads.characterize(2))


# -- the benchmark's declaration -------------------------------------------

def test_benchmark_json_names_what_the_runs_print():
    import run
    import tracing
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in tracing.PER_LAYER]
