import dataclasses
import hashlib
import json
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

from homspace import cli, common, dyadic, embed, gallery, maximal, seqnorm, space as space_mod
from homspace.cli import main
from homspace.gallery import MAX_POINTS, load_space

from helpers import dense_tl_function, dense_tl_norm


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_analyze_writes_report(tmp_path):
    code, text = run(tmp_path, "analyze", "--gallery", "euclidean_grid",
                     "--n", "64", "--dim", "1", "--check-lower-bound", "--omega", "1.0")
    assert code == 0
    report = json.loads(text)
    assert report["schema"] == 1
    assert report["n_points"] == 64
    assert 0.75 <= report["stats"]["omega_est"] <= 1.6
    assert report["lower_bound"]["verdict"] == "PASS"


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    code = main(["analyze", "--space", str(tmp_path / "missing.json")])
    assert code == 2
    assert "missing.json" in capsys.readouterr().err


def test_analyze_weighted_local_bound_fails(tmp_path):
    code, text = run(tmp_path, "analyze", "--gallery", "weighted_grid",
                     "--n", "129", "--alpha", "2", "--beta", "0", "--extent", "2",
                     "--check-local-lower-bound", "--omega", "1.0")
    assert code == 0
    report = json.loads(text)
    assert report["local_lower_bound"]["verdict"] == "FAIL"


def test_cubes_default_pass(tmp_path):
    code, text = run(tmp_path, "cubes", "--gallery", "euclidean_grid", "--n", "64")
    assert code == 0
    report = json.loads(text)
    assert report["axioms"]["ok"] is True
    assert report["chain"]["max_chain_len"] <= report["chain"]["bound_N"]
    levels = report["system"]["levels"]
    assert levels[0]["k"] <= levels[-1]["k"]
    assert report["system"]["c1"] == pytest.approx(1.0 / 3.0)
    assert report["system"]["C1"] == pytest.approx(4.0)


def test_cubes_inadmissible_exit_3(tmp_path, capsys):
    code = main(["cubes", "--gallery", "euclidean_grid", "--n", "16",
                 "--delta", "0.2", "--c0", "1", "--C0", "2", "--A0", "1"])
    assert code == 3
    assert "inadmissible" in capsys.readouterr().err


@pytest.mark.parametrize("k_min,k_max", [(-300, 2), (0, 400)],
                         ids=["scale-overflows", "separation-underflows"])
def test_cubes_level_window_off_the_float_range_exit_2(tmp_path, capsys, k_min, k_max):
    # (1/32)^-300 overflows a float, and c0 * (1/32)^400 underflows to 0,
    # where every center would be reborn at each finer level
    code, text = run(tmp_path, "cubes", "--gallery", "euclidean_grid", "--n", "8",
                     "--k-min", str(k_min), "--k-max", str(k_max))
    assert (code, text) == (2, "")
    assert "finite positive floats" in capsys.readouterr().err


def test_embed_test_uniform_pass(tmp_path):
    code, text = run(tmp_path, "embed-test", "--gallery", "euclidean_grid",
                     "--n", "64", "--omega", "1.0",
                     "--s1", "0.5", "--p1", "2", "--s2", "1.0", "--p2", "1", "--q", "1",
                     "--n-sequences", "64")
    assert code == 0
    report = json.loads(text)
    assert report["verdict"] == "PASS"
    assert report["result"]["scan"]["sup_ratio"] <= report["result"]["scan"]["proof_constant"] * (1 + 1e-9)


def test_embed_test_weighted_fail_consistent(tmp_path):
    code, text = run(tmp_path, "embed-test", "--gallery", "weighted_grid",
                     "--n", "129", "--alpha", "2", "--beta", "0", "--extent", "2",
                     "--omega", "1.0", "--variant", "inhomogeneous",
                     "--s1", "0.5", "--p1", "2", "--s2", "1.0", "--p2", "1", "--q", "1",
                     "--n-sequences", "48")
    assert code == 0      # a consistent FAIL is a clean exit
    assert json.loads(text)["verdict"] == "FAIL"


def test_embed_test_bad_trace_line_exit_2(tmp_path, capsys):
    code = main(["embed-test", "--gallery", "euclidean_grid", "--n", "16",
                 "--omega", "1.0", "--s1", "0.4", "--p1", "2", "--s2", "1.0",
                 "--p2", "1", "--q", "1"])
    assert code == 2
    assert "trace-line" in capsys.readouterr().err


GRID16 = ["--gallery", "euclidean_grid", "--n", "16"]
EMBED_GRID16 = ["embed-test", *GRID16, "--p1", "2", "--p2", "1", "--n-sequences", "8"]
WEIGHTED17 = ["--gallery", "weighted_grid", "--n", "17"]
GRID64 = ["--gallery", "euclidean_grid", "--n", "64", "--dim", "1"]
# parameters that are NaN (or infinite where a scale needs a finite one),
# and sequences whose norm leaves the floats: each once produced a report
# or an unnamed error
BAD_PARAMETERS = {
    "embed-test s1 nan": ([*EMBED_GRID16, "--omega", "1", "--s1", "nan", "--s2", "1"],
                          "s must be a number"),
    "embed-test s2 nan": ([*EMBED_GRID16, "--omega", "1", "--s1", "0.5", "--s2", "nan"],
                          "s must be a number"),
    "embed-test omega nan": ([*EMBED_GRID16, "--omega", "nan", "--s1", "0.5", "--s2", "1"],
                             "omega must be a number"),
    "analyze lower bound omega nan": (["analyze", *GRID16, "--check-lower-bound",
                                       "--omega", "nan"], "omega must be positive"),
    "analyze reverse doubling nan": (["analyze", *GRID16, "--check-reverse-doubling", "nan"],
                                     "kappa must be positive"),
    "kernel-check omega nan": (["kernel-check", *GRID16, "--omega", "nan"],
                               "omega must be a number"),
    "kernel-check gamma nan": (["kernel-check", *GRID16, "--omega", "1", "--gamma", "nan"],
                               "gamma must be positive"),
    "kernel-check p2 nan": (["kernel-check", *GRID16, "--omega", "1", "--p2", "nan"],
                            "p2 must be positive"),
    "norms s nan": (["norms", *GRID16, "--seq", "seq.json", "--s", "nan"],
                    "s must be a number"),
    # the cross-check exists for Triebel-Lizorkin norms only: with Besov
    # norms the flag was echoed and did nothing (exit 0)
    "norms layer-cake besov": (["norms", *GRID16, "--seq", "seq.json", "--layer-cake"],
                               "--layer-cake needs --family triebel_lizorkin"),
    "cubes c0 nan": (["cubes", *GRID16, "--c0", "nan"], "c0 must be a finite positive number"),
    "cubes A0 nan": (["cubes", *GRID16, "--A0", "nan"], "A0 must be a finite positive number"),
    "cubes C0 inf": (["cubes", *GRID16, "--C0", "inf"], "C0 must be a finite positive number"),
    "cubes A0 inf": (["cubes", *GRID16, "--A0", "inf"], "A0 must be a finite positive number"),
    "weighted_grid alpha nan": (["analyze", *WEIGHTED17, "--alpha", "nan"],
                                "alpha must be a finite number, got nan"),
    "weighted_grid alpha inf": (["analyze", *WEIGHTED17, "--alpha", "inf"],
                                "alpha must be a finite number, got inf"),
    "weighted_grid extent inf": (["analyze", *WEIGHTED17, "--extent", "inf"],
                                 "extent must be a finite number, got inf"),
    "weighted_grid beta nan": (["analyze", *WEIGHTED17, "--beta", "nan"],
                               "beta must be a finite number, got nan"),
    # fsum overflowed past three terms of 1.44e308 with a traceback (exit 1)
    "norms fsum overflow": (["norms", *GRID64, "--seq", "huge3.json", "--p", "2"],
                            "a besov norm (s=0.0, p=2.0, q=2.0) leaves the float range"),
    # a norm of about 2.5e307 came out Infinity, with a numpy warning (exit 0)
    "norms powered overflow": (["norms", *GRID64, "--seq", "huge2.json", "--p", "1"],
                               "a besov norm (s=0.0, p=1.0, q=2.0) leaves the float range"),
}
# the sequence files the cases read
SEQUENCE_FILES = {
    "seq.json": [{"k": 1, "alpha": 0, "value": 1.0}],
    "huge3.json": [{"k": 2, "alpha": a, "value": 1.2e154} for a in (1, 2, 4)],
    "huge2.json": [{"k": 2, "alpha": a, "value": 1e308} for a in (1, 2)],
}


@pytest.mark.parametrize("case", BAD_PARAMETERS)
def test_bad_parameters_exit_2_naming_them(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    for name, rows in SEQUENCE_FILES.items():
        (tmp_path / name).write_text(json.dumps(rows))
    argv, message = BAD_PARAMETERS[case]
    code, text = run(tmp_path, *argv)
    assert (code, text) == (2, "")
    assert message in capsys.readouterr().err


def test_cubes_checks_a0_against_the_space(tmp_path, capsys):
    # the grid's A0 is 1: at 0.5 its collinear triples break the inequality
    code, text = run(tmp_path, "cubes", *GRID16, "--A0", "0.5")
    assert (code, text) == (2, "")
    assert "--A0 0.5 fails on this space: {'kind': 'triangle', 'triple': [0, 2, 1]" \
        in capsys.readouterr().err
    # on an explicit table the value is checked against the exact pass:
    # squared distances on a line measure A0 > 1
    pts = np.sort(np.random.default_rng(4).random(20))
    path = tmp_path / "squared20.json"
    path.write_text(json.dumps({"metric": "explicit",
                                "dist": ((pts[:, None] - pts[None]) ** 2).tolist(),
                                "weights": [1.0] * 20}))
    assert load_space(str(path)).quasi_triangle.value > 1.0
    for argv in (["cubes"], ["embed-test", *EMBED_ARGS]):
        code, text = run(tmp_path, *argv, "--space", str(path), "--A0", "1")
        assert (code, text) == (2, "")
        assert "--A0 1.0 fails on this space: {'kind': 'triangle', 'triple': [" \
            in capsys.readouterr().err


def test_norms_command_matches_library(tmp_path, grid64_cubes):
    from homspace.seqnorm import CoefSequence, NormParams, besov_norm

    index = grid64_cubes.index_cubes()
    rows = [{"k": k, "alpha": a, "value": 1.0 + i} for i, (k, a) in enumerate(index[:3])]
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps(rows))
    code, text = run(tmp_path, "norms", "--gallery", "euclidean_grid", "--n", "64",
                     "--seq", str(seq_path), "--family", "besov",
                     "--s", "0.5", "--p", "2", "--q", "1")
    assert code == 0
    report = json.loads(text)
    seq = CoefSequence(grid64_cubes, {(r["k"], r["alpha"]): r["value"] for r in rows})
    expected = besov_norm(seq, NormParams(s=0.5, p=2.0, q=1.0,
                                          delta=grid64_cubes.delta, family="besov"))
    assert report["value"] == pytest.approx(expected, rel=1e-12)


def test_norms_rejects_index_outside_the_system(tmp_path, grid64_cubes, capsys):
    net = grid64_cubes.net
    seq_path = tmp_path / "seq.json"
    for k, alpha in ((net.k_max, -1), (net.k_max, 64), (net.k_min - 1, 0), (net.k_max + 1, 0)):
        seq_path.write_text(json.dumps([{"k": k, "alpha": alpha, "value": 1.0}]))
        code, _ = run(tmp_path, "norms", "--gallery", "euclidean_grid", "--n", "64",
                      "--seq", str(seq_path))
        assert code == 2
        assert "is not a fresh cube" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    {"k": 1.7, "alpha": 0, "value": 1.0},
    {"k": "1", "alpha": 0, "value": 1.0},
    {"k": 1, "alpha": True, "value": 1.0},
    {"k": 1, "alpha": 0, "value": "1.0"},
    {"k": 1, "alpha": 0, "value": True},
    {"k": 1, "alpha": 0, "value": float("nan")},
], ids=["float-k", "string-k", "bool-alpha", "string-value", "bool-value", "nan-value"])
def test_norms_rejects_badly_typed_entries(tmp_path, capsys, row):
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps([{"k": 1, "alpha": 0, "value": 1.0}, row]))
    code, text = run(tmp_path, "norms", "--gallery", "euclidean_grid", "--n", "16",
                     "--seq", str(seq_path))
    assert (code, text) == (2, "")
    assert "entry 1 must carry integer k and alpha" in capsys.readouterr().err


def test_norms_layer_cake_flag(tmp_path, grid64_cubes):
    index = grid64_cubes.index_cubes()
    rows = [{"k": k, "alpha": a, "value": 0.3} for k, a in index[:4]]
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps(rows))
    code, text = run(tmp_path, "norms", "--gallery", "euclidean_grid", "--n", "64",
                     "--seq", str(seq_path), "--family", "triebel_lizorkin",
                     "--s", "0.2", "--p", "1.5", "--q", "2", "--layer-cake")
    assert code == 0
    report = json.loads(text)
    assert report["layer_cake_value"] == pytest.approx(report["value"], rel=1e-12)


@pytest.mark.parametrize("q", ["2", "inf"])
def test_norms_layer_cake_bits_match_the_dense_reference(tmp_path, grid64_cubes, q):
    # an entry of 1e-200 covers points whose q = 2 term underflows to 0.0
    index = grid64_cubes.index_cubes()
    rows = [{"k": k, "alpha": a, "value": v}
            for (k, a), v in zip(index[:5], [1e-200, 0.3, -0.7, 0.0, 1.1])]
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps(rows))
    code, text = run(tmp_path, "norms", "--gallery", "euclidean_grid", "--n", "64",
                     "--seq", str(seq_path), "--family", "triebel_lizorkin",
                     "--s", "0.2", "--p", "1.5", "--q", q, "--layer-cake")
    assert code == 0
    report = json.loads(text)
    entries = {(r["k"], r["alpha"]): r["value"] for r in rows}
    masses = {key: grid64_cubes.mass(*key) for key in entries}
    members = {key: grid64_cubes.members(*key) for key in entries}
    space = grid64_cubes.space
    level_ok = lambda k: True
    g = dense_tl_function(entries, masses, members, space.n, grid64_cubes.delta, 0.2, float(q),
                          level_ok)
    assert report["value"] == dense_tl_norm(entries, masses, members, space.weight, space.n,
                                            grid64_cubes.delta, 0.2, 1.5, float(q), level_ok)
    assert report["layer_cake_value"] == seqnorm._layer_cake_integral(g, space.weight, 1.5)


def test_gallery_space_file_roundtrip(tmp_path):
    # the report is itself a space file, as `gallery --out space.json` promises
    code, _ = run(tmp_path, "gallery", "--gallery", "cantor", "--depth", "5", name="space.json")
    assert code == 0
    sp = load_space(str(tmp_path / "space.json"))
    assert sp.n == 32
    assert main(["analyze", "--space", str(tmp_path / "space.json"),
                 "--out", str(tmp_path / "a.json")]) == 0


def test_gallery_keeps_points_of_a_coordinate_file(tmp_path):
    path = tmp_path / "flake.json"
    path.write_text(json.dumps({"metric": "snowflake:0.5", "points": [[0.0], [1.0], [3.0]],
                                "weights": [1.0, 2.0, 1.0]}))
    code, text = run(tmp_path, "gallery", "--space", str(path))
    assert code == 0
    report = json.loads(text)
    assert report["metric"] == "snowflake:0.5"
    assert report["points"] == [[0.0], [1.0], [3.0]]
    assert "dist" not in report


def test_gallery_space_with_string_and_bool_weights_exits_2(tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"points": [[0], [1], [3]], "weights": ["1", True, "2.5"]}))
    code, text = run(tmp_path, "gallery", "--space", str(path))
    assert code == 2
    assert text == ""
    assert "'weights' must hold numbers only, got \"1\" at [0]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--n", "256"],
    ["--n", "200", "--dim", "1", "--seed", "1570764153"],
])
def test_cubes_one_dimensional_grids_build(tmp_path, argv):
    # both builds broke the sandwich axiom under the top-down assignment
    code, text = run(tmp_path, "cubes", "--gallery", "euclidean_grid", *argv)
    assert code == 0
    assert json.loads(text)["axioms"]["ok"] is True


def test_embed_test_pass_has_no_witnesses(tmp_path):
    args = ["embed-test", "--gallery", "euclidean_grid", "--n", "64", "--omega", "1.0",
            "--s1", "0.5", "--p1", "2", "--s2", "1.0", "--p2", "1", "--q", "1",
            "--n-sequences", "64"]
    code, text = run(tmp_path, *args)
    assert code == 0
    report = json.loads(text)
    assert report["verdict"] == "PASS"
    assert report["result"]["necessity"]["witness"] is not None
    assert report["witnesses"] == []
    code, text = run(tmp_path, *args, "--format", "csv", name="out.csv")
    assert code == 0
    assert len(text.strip().splitlines()) == 2
    assert "witness.kind" not in text.splitlines()[0]


def test_maximal_values(tmp_path):
    values = tmp_path / "f.json"
    values.write_text(json.dumps([1.0] * 16))
    code, text = run(tmp_path, "maximal", "--gallery", "euclidean_grid",
                     "--n", "16", "--values", str(values))
    assert code == 0
    report = json.loads(text)
    assert np.allclose(report["maximal"], 1.0)


@pytest.mark.parametrize("values,entry", [
    ({"a": 1}, "JSON array"),
    ([1, {}], "entry 1 "),
    ([1, None], "entry 1 "),
    ([[1.0] * 16], "entry 0 "),
    ([1, "2"], "entry 1 "),
    ([1, True], "entry 1 "),
    ([1.0] * 15, "15 values for 16 points"),
], ids=["object", "object-entry", "null-entry", "nested", "string-entry", "bool-entry", "short"])
def test_maximal_values_malformed_exit_2(tmp_path, capsys, values, entry):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(values))
    code, text = run(tmp_path, *MAXIMAL, "--values", str(path))
    assert code == 2
    assert text == ""
    assert entry in capsys.readouterr().err


def test_maximal_values_non_finite_exit_2(tmp_path, capsys):
    path = tmp_path / "f.json"
    for literal in ("NaN", "Infinity", "1e400", "1" + "0" * 400):
        path.write_text(f"[{literal}" + ", 1.0" * 15 + "]")
        assert run(tmp_path, *MAXIMAL, "--values", str(path))[0] == 2
        assert "entry 0 must be a finite number" in capsys.readouterr().err


def test_kernel_check_small(tmp_path):
    code, text = run(tmp_path, "kernel-check", "--gallery", "euclidean_grid",
                     "--n", "16", "--omega", "1.0", "--p2", "1",
                     "--calibration", "4", "--trials", "4")
    assert code == 0
    report = json.loads(text)
    assert report["verdict"] == "PASS"
    assert report["calibration"]["c_report"] > 0


KERNEL_CASES = {
    "grid64 p2=1": [*GRID64, "--p2", "1"],
    "grid64 p2=2": [*GRID64, "--p2", "2"],
    "cantor6": ["--gallery", "cantor", "--depth", "6"],
    "weighted_grid65": ["--gallery", "weighted_grid", "--n", "65", "--alpha", "2"],
    "snowflake64": ["--gallery", "snowflake", "--n", "64", "--snowflake-e", "0.5",
                    "--gamma", "8"],
    "cantor6 calibration 1": ["--gallery", "cantor", "--depth", "6", "--calibration", "1"],
}
# SHA-256 of the reports written by the one-sequence-at-a-time evaluation
# that preceded the batched one
KERNEL_DIGESTS = {
    ("grid64 p2=1", "1"): "64fd4b292dc18d16998b91866e2e8e820c17e318414e374986de9d0dcc451c4f",
    ("grid64 p2=1", "7"): "490d22fa5a11a7ebb041ecdfaf54e9df3e98e9a319e7581e8de2d58fbe4ccd81",
    ("grid64 p2=2", "1"): "92b670a9dfc56878e4e77c430e807b9b85d8dd36fd0cf8db64fb32d0242b2cef",
    ("grid64 p2=2", "7"): "f7d8f9b7e5a71ab5a6e6871c25c29ff90ca7b71f18293c9a99580db07dd3e051",
    ("cantor6", "1"): "a3e890e30b2349fafc3f46f241ed486d6b7d98022f49281da7a0857efb803bf0",
    ("cantor6", "7"): "d748fbd03badf0cbc190f6cacfce6b2fd7ebccfc3ece609e0e0d01403038463c",
    ("weighted_grid65", "1"): "8a6d77bee5d29732987daa6f946e50772c1c4bb4eac662ed9f828a2be11d39ae",
    ("weighted_grid65", "7"): "a9b404b9d00600393c4061fefa569dd6f6536d25b9ed4eb68d602a0270cfb6a0",
    ("snowflake64", "1"): "e202f379f472f6ae04f5aa1082393942e7240c2d38c5f65b2a943ae60af69c24",
    ("snowflake64", "7"): "891d5926cd28e1badf43fd7c30ab80c5a1839fd40affe7885e8fd56c58a60b49",
    # a FAIL report: 12 witnesses in trial-major, probe-minor order
    ("cantor6 calibration 1", "1"):
        "de070ccf735d50eb90c3f6788d07a98235412a4d16dcc77ebc153ca09f4dfd4f",
}


@pytest.mark.parametrize("case,seed", sorted(KERNEL_DIGESTS),
                         ids=[" seed ".join(key) for key in sorted(KERNEL_DIGESTS)])
def test_kernel_check_reports_are_pinned(tmp_path, case, seed):
    code, text = run(tmp_path, "kernel-check", *KERNEL_CASES[case], "--seed", seed)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_DIGESTS[case, seed]


# Input files of the pinned command reports, written to the working directory
# so that the paths echoed in each report's config do not depend on it.
REPORT_INPUTS = {
    "seq.json": [{"k": 1, "alpha": 0, "value": 1.0}, {"k": 1, "alpha": 3, "value": -2.5},
                 {"k": 1, "alpha": 12, "value": 0.75}],
    "values.json": [float(i % 5) - 1.5 for i in range(16)],
    "one.json": {"points": [[0.0]], "weights": [1.0]},
    "table.json": {"dist": [[0.0, 1.0, 2.0, 4.0], [1.0, 0.0, 1.5, 3.0],
                            [2.0, 1.5, 0.0, 2.5], [4.0, 3.0, 2.5, 0.0]],
                   "weights": [0.25, 0.5, 0.125, 0.125]},
}
# squared distances of 48 seeded points on a line: ball masses grow like
# r^(1/2), so a lower bound with omega = 1 fails at almost every center
_LINE = np.sort(np.random.default_rng(5).random(48))
REPORT_INPUTS["squared_line.json"] = {"metric": "explicit",
                                      "dist": ((_LINE[:, None] - _LINE[None, :]) ** 2).tolist(),
                                      "weights": [1.0] * _LINE.size}
BESOV_EMBED = ["--omega", "1.0", "--s1", "0.5", "--p1", "2", "--s2", "1.0", "--p2", "1",
               "--q", "1"]
REPORT_CASES = {
    "analyze grid32": ["analyze", "--gallery", "euclidean_grid", "--n", "32",
                       "--check-lower-bound", "--check-local-lower-bound",
                       "--check-reverse-doubling", "1"],
    "analyze weighted_grid65": ["analyze", "--gallery", "weighted_grid", "--n", "65",
                                "--alpha", "2", "--omega", "1.0", "--check-lower-bound",
                                "--check-local-lower-bound", "--check-reverse-doubling", "1"],
    "analyze table": ["analyze", "--space", "table.json", "--check-lower-bound",
                      "--omega", "1.0"],
    "cubes grid32": ["cubes", "--gallery", "euclidean_grid", "--n", "32"],
    "cubes cantor5": ["cubes", "--gallery", "cantor", "--depth", "5"],
    "norms besov": ["norms", *GRID64, "--seq", "seq.json", "--s", "0.5", "--p", "2",
                    "--q", "1"],
    "norms tl layer-cake": ["norms", *GRID64, "--seq", "seq.json",
                            "--family", "triebel_lizorkin", "--s", "0.2", "--p", "1.5",
                            "--q", "2", "--layer-cake"],
    "embed-test besov pass": ["embed-test", *GRID64, *BESOV_EMBED, "--n-sequences", "64"],
    "embed-test tl": ["embed-test", "--gallery", "euclidean_grid", "--n", "32",
                      "--family", "triebel_lizorkin", "--omega", "1.0", "--s1", "0.5",
                      "--p1", "2", "--s2", "1.0", "--p2", "1", "--q1", "2", "--q2", "1",
                      "--n-sequences", "48", "--seed", "3"],
    "embed-test inhomogeneous fail": ["embed-test", "--gallery", "weighted_grid",
                                      "--n", "129", "--alpha", "2", "--extent", "2",
                                      "--variant", "inhomogeneous", *BESOV_EMBED,
                                      "--n-sequences", "48"],
    "embed-test one point": ["embed-test", "--space", "one.json", *BESOV_EMBED],
    "kernel-check cantor6 calibration 1": ["kernel-check",
                                           *KERNEL_CASES["cantor6 calibration 1"]],
    "maximal values": ["maximal", "--gallery", "euclidean_grid", "--n", "16",
                       "--values", "values.json"],
    "maximal random": ["maximal", "--gallery", "cantor", "--depth", "4", "--random", "5",
                       "--seed", "11"],
    "gallery table": ["gallery", "--space", "table.json"],
    "analyze squared line": ["analyze", "--space", "squared_line.json", "--omega", "1.0",
                             "--check-lower-bound", "--check-local-lower-bound"],
    "embed-test tail fail": ["embed-test", "--gallery", "weighted_grid", "--n", "129",
                             "--alpha", "0", "--beta", "-0.5", "--extent", "64",
                             *BESOV_EMBED, "--n-sequences", "48"],
    "cubes weighted_grid65": ["cubes", "--gallery", "weighted_grid", "--n", "65",
                              "--alpha", "2", "--extent", "2"],
    "cubes weighted_grid17 atomic": ["cubes", "--gallery", "weighted_grid", "--n", "17",
                                     "--alpha", "2", "--extent", "2", "--k-min", "0",
                                     "--k-max", "3"],
}
# (exit code, SHA-256 of the report) per case and format
REPORT_DIGESTS = {
    ('analyze grid32', 'csv'):
        (0, '099d43344f20d02230d8aacf896d8dec39b02d0820c7e335d94ae191073914cc'),
    ('analyze grid32', 'json'):
        (0, '56798ccfc9ca3ae1ddd37164544a711e552bbab6e7373a684586e4cbd59f7952'),
    ('analyze table', 'csv'):
        (0, '0661dbc69d7d9a7ce2c634acb6661c5905c8ac65d49de27e396601ebddb87b06'),
    ('analyze table', 'json'):
        (0, '7bd2aae07a44777b4246878bde700bfa3bcdec4d9c776ab76bc4cec2053e8db4'),
    ('analyze weighted_grid65', 'csv'):
        (0, 'a5e583c815989c609479a2cd19886a899e42b2ec4759e404d004c22df8d24102'),
    ('analyze weighted_grid65', 'json'):
        (0, '8b8580bbfe5759074f955f9a7fea791475b031d0bce57f23681452147dc614d4'),
    ('cubes cantor5', 'csv'):
        (0, '4f1f36a5cf316088230c8ff638c4a08bc9356e21b18e55bf39acfebc49bc158d'),
    ('cubes cantor5', 'json'):
        (0, 'e2b6667bc3e29955f958d049421a5dbccf733efb3b15f56a1eb2f2d3de1895ef'),
    ('cubes grid32', 'csv'):
        (0, '24924497ee984a5b65cb5a1798b39f2fb124cd06921766b094adeab4db75d40c'),
    ('cubes grid32', 'json'):
        (0, '18eb47a45d922d63128558fef95835cda31526491217f18e224288e1d47295e2'),
    ('embed-test besov pass', 'csv'):
        (0, 'bb6a4149d630f9851111646d8b5314e6260be936dd76cbff0433df7e4ebc4d65'),
    ('embed-test besov pass', 'json'):
        (0, 'd06c8b16d6e911e8cfcb00634ca6c04c7bbb3cd76b4a466638d60088d860d6f6'),
    ('embed-test inhomogeneous fail', 'csv'):
        (0, '45c03f9c0ca81950035ef28aed242be692568ab4a2b5520ccdc573c52ec5cf69'),
    ('embed-test inhomogeneous fail', 'json'):
        (0, '8d0bfa78700019e0f76bc0ab70793397ab0edb049e3ffcfa36bcda5a211c2fb3'),
    ('embed-test one point', 'csv'):
        (0, '9c3212e91e23d9b89e4e24e6d41b3a2851092eee6a0e34e066f1b2cf9a4a25fe'),
    ('embed-test one point', 'json'):
        (0, '2e31ae7a10e820521746459d8ddd19e210a2fa3669f993a14ddeea94f8666114'),
    ('embed-test tl', 'csv'):
        (0, 'a2b5929b78aac2adaf389b5f75707efbc20a7bffef4e8f2493c03b5b77907374'),
    ('embed-test tl', 'json'):
        (0, 'bbfae4abd0aaf254c2dc048559d724e8dcf5f446ffb2f9e44c76f146a26b2462'),
    ('gallery table', 'csv'):
        (0, 'ccd424fb8a5efdf82f6359ab18812622707f21df1399e9e1c11a6f208f4ee7d8'),
    ('gallery table', 'json'):
        (0, '86f3d3b43204b837bc41ae778d25a399ddecc541298f68c6e2aebfdca27f8c2d'),
    ('kernel-check cantor6 calibration 1', 'csv'):
        (0, '7028ec69b2e72c84e9157c67b93150550c1e64a923d1ce8a6d7ab56093db59b1'),
    ('kernel-check cantor6 calibration 1', 'json'):
        (0, 'b4697c3d9f5272c36e2f425628a80eedf640611ef5b7a864cce31c050cc12431'),
    ('maximal random', 'csv'):
        (0, '8393ebb4e6ba330a93cfaaec1f8c6359a8f2a354c7e7020940d4022600318e54'),
    ('maximal random', 'json'):
        (0, '91f7c7ef95b4f1132ff0eb26d066e89eff4e70515a75fc7ef3829e4aacdd2d3f'),
    ('maximal values', 'csv'):
        (0, 'f8d554d58ba4005c723947d506b3e04e627fca02e08a13af1a83b7e91b6b4f9a'),
    ('maximal values', 'json'):
        (0, 'ce72cabdbe659154f9c93b9ad237b43d992f9d9d7109517c76c7f7bab4419b11'),
    ('norms besov', 'csv'):
        (0, '39a7675c5f80f9856c6bcddafd73019196cd894a3012519a67f3dd3302a4a517'),
    ('norms besov', 'json'):
        (0, '3eaafc2054f7db8773e3e1feded6bb7dd2eb41688b5650aeb336dfef11001224'),
    ('norms tl layer-cake', 'csv'):
        (0, '666824f7ac6ca77d150cc0e9d18971c9be8ee48fdfac8b4ebbc523404251f395'),
    ('norms tl layer-cake', 'json'):
        (0, '465a885bacbfa969405cb4903064c269bcde9b7586bd02b0fb1ccac06289031e'),
    ('analyze squared line', 'csv'):
        (0, 'c706736c87a18457687776db2446fd028ca231df725bcec47935d1f595d63cce'),
    ('analyze squared line', 'json'):
        (0, 'edd2ae476d7f49cdeaf0898700ff1d48a1fcbecb43f57c2314d8a4957894a7d9'),
    ('embed-test tail fail', 'csv'):
        (0, '5362eefd71ace44e38649b91c79131ad50ea1fcd144a0766d33a70d84fa6d134'),
    ('embed-test tail fail', 'json'):
        (0, 'd5c521f18bb3b322e282e7f3a10b2dd467cbadffadcd6c1554ae3941a4650fce'),
    ('cubes weighted_grid65', 'csv'):
        (0, '88a29427bfc0e25559daed3784ca24ad987a8c261de437c42e2461569bc7a249'),
    ('cubes weighted_grid65', 'json'):
        (0, '3c1c58ff1fc79880064d3190b074d4e9c12f029f505253ba4a8573f9ae2c907a'),
    ('cubes weighted_grid17 atomic', 'csv'):
        (0, '48666893f331f7f5ef92ac5aba4a83d128fa7d9295c75157e602400cbcfc5c7b'),
    ('cubes weighted_grid17 atomic', 'json'):
        (0, 'de5c45859c9a1f42a0afef1c5ab11bbb7cd241eaa48b84af53f28ec749390798'),
}


@pytest.mark.parametrize("case,fmt", sorted(REPORT_DIGESTS),
                         ids=[" ".join(key) for key in sorted(REPORT_DIGESTS)])
def test_command_reports_are_pinned(tmp_path, monkeypatch, case, fmt):
    monkeypatch.chdir(tmp_path)
    for name, content in REPORT_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(content))
    code, text = run(tmp_path, *REPORT_CASES[case], "--format", fmt, name=f"out.{fmt}")
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == REPORT_DIGESTS[case, fmt]


GALLERY_CASES = {
    "euclidean_grid 8x8": ["--gallery", "euclidean_grid", "--n", "8", "--dim", "2"],
    "weighted_grid 17": ["--gallery", "weighted_grid", "--n", "17", "--alpha", "2",
                         "--extent", "2"],
    "weighted_grid 9x9": ["--gallery", "weighted_grid", "--n", "9", "--dim", "2",
                          "--beta", "-0.5", "--extent", "3"],
    "cantor 5": ["--gallery", "cantor", "--depth", "5"],
    "snowflake e=0.3": ["--gallery", "snowflake", "--n", "16", "--snowflake-e", "0.3"],
    "snowflake e=0.5": ["--gallery", "snowflake", "--n", "6", "--dim", "2",
                        "--snowflake-e", "0.5"],
    "snowflake e=1": ["--gallery", "snowflake", "--n", "16", "--snowflake-e", "1"],
}
# SHA-256 of each gallery report and of the bytes of its distance table, as
# written when each kind built its own table
GALLERY_DIGESTS = {
    'euclidean_grid 8x8': ('a1afd669c5333c77224aeeaae00352231389bfed6624304c7551b87085bd70d5',
        '059f76cded29d69df748097eb23a4af5a049b88b9d40b615e62950f00c0b724f'),
    'weighted_grid 17': ('24af6669647910b639f4193a67eec8cfada1d461a92543c40a17692c479dcc92',
        'b01d9b782cc684bb331b0ab8dd6eff7649d938ebafe864e22bdb608b24cfa76e'),
    'weighted_grid 9x9': ('bfc6c61540513d9f9c504ea4f5b3eea84f6fd37b2b0517e2399adbbf59089c6c',
        '53d0b857febd681dffff12cae11303daf825f62a442af41873ad2fdcae9e35c5'),
    'cantor 5': ('c52288ca7d455147021d300330937d10c339fc12a6905d7706740b13ea465633',
        '583addc22545945a0b899fc8b90dd27d6cdb146a3cdc56c74c7d9ac3e79bd97f'),
    'snowflake e=0.3': ('8f76d3e17cd785790a5edbc623de6a153c82e80e0f021486cc195501b54141f5',
        'd124d03f97e62c35769e51f6f5a5ef09685723998ef9b8b713356173404feb5f'),
    'snowflake e=0.5': ('97647fbfdc1d1c867ae47d899c1821bf8395ebd84a1b4f6071592262e3ae82a3',
        '5213b47771b7a3e8cca954742127ae0f7ad0150c4622f8318778ee3b89b58d45'),
    'snowflake e=1': ('a8a3aa7da4324c64f7c1d213479ae94cc5340a1597f79904c95f08c926589dae',
        'a5fe01c90beb40c4116acd630321cf3c37caff8f90664de7f28d17bfd37b9891'),
}


@pytest.mark.parametrize("case", GALLERY_CASES)
def test_gallery_reports_and_tables_are_pinned(tmp_path, case):
    code, text = run(tmp_path, "gallery", *GALLERY_CASES[case])
    sp = cli._resolve_space(cli.build_parser().parse_args(["gallery", *GALLERY_CASES[case]]))
    assert code == 0
    assert (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(sp.dist.tobytes()).hexdigest()) == GALLERY_DIGESTS[case]


def test_kernel_check_witnesses_are_trial_major(tmp_path):
    code, text = run(tmp_path, "kernel-check", *KERNEL_CASES["cantor6 calibration 1"],
                     "--seed", "7")
    report = json.loads(text)
    assert code == 0 and report["verdict"] == "FAIL"
    probes = maximal._probe_points(
        _cantor6_cubes(), common.rng_stream(7, 0xCA11B))
    keys = [(w["trial"], probes.index((*w["level_pair"], w["point"])))
            for w in report["witnesses"]]
    assert keys == sorted(keys) and len(set(keys)) == len(keys) > 1


def _cantor6_cubes():
    sp = gallery.build(gallery.GallerySpec(kind="cantor", depth=6))
    delta, c0, C0 = dyadic.default_constants(sp)
    return dyadic.build_cubes(dyadic.build_nets(sp, delta, c0, C0, seed=7), sp)


def test_kernel_check_one_sequence_each(tmp_path):
    code, text = run(tmp_path, *KERNEL, "--calibration", "1", "--trials", "1")
    assert code == 0
    report = json.loads(text)
    assert report["verdict"] in ("PASS", "FAIL")
    assert report["calibration"]["n_samples"] > 0
    assert all(w["trial"] == 0 for w in report["witnesses"])


@pytest.mark.parametrize("command", ["analyze", "gallery"])
def test_seed_is_not_an_option_of(tmp_path, command):
    # nothing these commands run draws a random number
    assert main([command, "--gallery", "euclidean_grid", "--n", "8", "--seed", "1"]) == 2
    code, _ = run(tmp_path, command, "--gallery", "euclidean_grid", "--n", "8")
    assert code == 0


def test_csv_format(tmp_path):
    code, text = run(tmp_path, "analyze", "--gallery", "euclidean_grid", "--n", "32",
                     "--format", "csv", name="out.csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) >= 2
    assert "n_points" in lines[0]


def test_reports_byte_identical(tmp_path):
    args = ["analyze", "--gallery", "cantor", "--depth", "5",
            "--check-lower-bound", "--omega", "0.6309"]
    _, first = run(tmp_path, *args, name="a.json")
    _, second = run(tmp_path, *args, name="b.json")
    assert first == second
    args2 = ["embed-test", "--gallery", "euclidean_grid", "--n", "32",
             "--omega", "1.0", "--s1", "0.5", "--p1", "2", "--s2", "1.0",
             "--p2", "1", "--q", "1", "--n-sequences", "32", "--seed", "7"]
    _, third = run(tmp_path, *args2, name="c.json")
    _, fourth = run(tmp_path, *args2, name="d.json")
    assert third == fourth


def test_analyze_reverse_doubling_flag(tmp_path):
    code, text = run(tmp_path, "analyze", "--gallery", "euclidean_grid",
                     "--n", "64", "--check-reverse-doubling", "1.0")
    assert code == 0
    report = json.loads(text)
    assert report["reverse_doubling"]["verdict"] == "PASS"
    assert report["stats"]["kappa_est"] is None or report["stats"]["kappa_est"] > 0


def test_analyze_reverse_doubling_alone_needs_no_omega(tmp_path):
    # a one-point space has no mass exponent to infer omega from, and the
    # reverse-doubling check takes none
    path = tmp_path / "one.json"
    path.write_text(json.dumps(REPORT_INPUTS["one.json"]))
    code, text = run(tmp_path, "analyze", "--space", str(path), "--check-reverse-doubling", "1")
    assert code == 0
    report = json.loads(text)
    assert report["reverse_doubling"]["verdict"] == "NOT_APPLICABLE"
    assert "omega_used" not in report


def test_maximal_random_mode(tmp_path):
    code, text = run(tmp_path, "maximal", "--gallery", "euclidean_grid",
                     "--n", "32", "--random", "5")
    assert code == 0
    report = json.loads(text)
    assert len(report["max_over_sup_ratios"]) == 5
    assert all(r >= 1.0 - 1e-12 for r in report["max_over_sup_ratios"])


def test_maximal_random_chunks_match_one_function_at_a_time(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "BLOCK_ELEMENTS", 10 * 16)    # chunks of 10 functions
    code, text = run(tmp_path, *MAXIMAL, "--random", "37", "--seed", "4")
    assert code == 0
    sp = gallery.build(gallery.GallerySpec(kind="euclidean_grid", n=16))
    rng = common.rng_stream(4, 0x3A2)
    want = []
    for _ in range(37):
        f = rng.standard_normal(sp.n)
        want.append(float(maximal.hl_maximal(sp, f).max() / np.abs(f).max()))
    assert json.loads(text)["max_over_sup_ratios"] == want


def test_maximal_random_memory_stays_bounded(tmp_path):
    # scoring 2000 functions of the 256-point grid as one stack would trace
    # about 27 MB; in chunks the space's table and ball index dominate
    argv = ["maximal", "--gallery", "euclidean_grid", "--n", "256", "--dim", "1",
            "--random", "2000"]
    assert run(tmp_path, *argv)[0] == 0          # warm-up
    tracemalloc.start()
    try:
        assert run(tmp_path, *argv)[0] == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_usage_error_exit_2():
    assert main(["analyze"]) == 2          # no space given
    assert main(["nonsense"]) == 2         # argparse rejects the command


EMBED = ["embed-test", "--gallery", "euclidean_grid", "--n", "16",
         "--s1", "0.5", "--p1", "2", "--s2", "1", "--p2", "1"]
KERNEL = ["kernel-check", "--gallery", "euclidean_grid", "--n", "16"]
MAXIMAL = ["maximal", "--gallery", "euclidean_grid", "--n", "16"]
MAXIMAL_VALUES = [*MAXIMAL, "--values", "values.json"]     # excludes --random


@pytest.mark.parametrize("argv,flag,value", [
    (EMBED, "--n-sequences", "-3"),
    (EMBED, "--n-sequences", "0"),
    (KERNEL, "--calibration", "0"),
    (KERNEL, "--trials", "-2"),
    (MAXIMAL, "--random", "-1"),
    (MAXIMAL, "--random", "0"),
    (MAXIMAL, "--random", "two"),
    (MAXIMAL_VALUES, "--random", "4"),
])
def test_counts_below_one_exit_2(tmp_path, capsys, argv, flag, value):
    code, text = run(tmp_path, *argv, flag, value)
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    if argv is MAXIMAL_VALUES:
        assert f"argument {flag}: not allowed with argument --values" in err
        return
    expected = f"got {value}" if value.lstrip("-").isdigit() else f"got {value!r}"
    assert f"argument {flag}: must be" in err and expected in err


def test_python_m_homspace_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "homspace", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "embed-test" in done.stdout


def test_analyze_squared_line_above_512_points(tmp_path):
    # (a + b)^2 <= 2 (a^2 + b^2): squared distances on a line have A0 <= 2
    pts = np.sort(np.random.default_rng(1).random(520))
    path = tmp_path / "squared520.json"
    path.write_text(json.dumps({"metric": "explicit",
                                "dist": ((pts[:, None] - pts[None, :]) ** 2).tolist(),
                                "weights": [1.0] * pts.size}))
    code, text = run(tmp_path, "analyze", "--space", str(path))
    assert code == 0
    stats = json.loads(text)["stats"]
    assert stats["a0_source"] == "exact"
    assert 1.0 < stats["a0_est"] <= 2.0 * (1 + 1e-12)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


EMBED_ARGS = ["--omega", "1.0", "--s1", "0.5", "--p1", "2", "--s2", "1.0",
              "--p2", "1", "--q", "1", "--n-sequences", "16"]


def _explicit_file(tmp_path, name, pts):
    """A space file holding only the table of a point set in the plane."""
    pts = np.asarray(pts, dtype=float)
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    path = tmp_path / name
    path.write_text(json.dumps({"metric": "explicit", "dist": dist.tolist(),
                                "weights": [1.0 / len(pts)] * len(pts)}))
    return str(path)


def test_broken_cube_axioms_exit_5_with_no_report(tmp_path, monkeypatch, capsys):
    broken = dyadic.AxiomReport(ok=False, violations=[{"axiom": "partition", "level": 0}])
    monkeypatch.setattr(dyadic, "verify_cube_axioms", lambda cubes: broken)
    code, text = run(tmp_path, "cubes", *GRID16)
    assert code == 5
    assert "internal invariant failure: cube axioms violated" in capsys.readouterr().err
    assert text == "" and not (tmp_path / "out.json").exists()


def test_discrepancy_exits_4_and_writes_the_report(tmp_path, monkeypatch):
    # a proof constant below every ratio: the scan breaks the bound on a
    # space whose lower bound and necessity scan pass
    monkeypatch.setattr(embed, "proof_constant_besov", lambda cubes, params: (1.0, 1e-6))
    code, text = run(tmp_path, "embed-test", *GRID16, *EMBED_ARGS)
    assert code == 4
    result = json.loads(text)["result"]
    assert result["verdict"] == "DISCREPANCY"
    assert result["lower_bound"]["verdict"] == result["necessity"]["verdict"] == "PASS"
    assert result["scan"]["verdict"] == "BOUND_VIOLATED"


def test_declared_a0_sets_the_cube_constants(tmp_path):
    # the table of a plane point set measures A0 = 1; the file declares 1.5
    pts = np.random.default_rng(2).random((24, 2))
    path = tmp_path / "declared.json"
    data = json.loads(pathlib.Path(_explicit_file(tmp_path, "plane24.json", pts)).read_text())
    path.write_text(json.dumps({**data, "declared_A0": 1.5}))
    sp = load_space(str(path))
    assert sp.quasi_triangle.value == 1.0 and sp.resolved_a0() == 1.5
    delta = dyadic.default_constants(sp)[0]
    declaring = lambda a0: dataclasses.replace(sp, declared_A0=a0)
    assert delta == dyadic.default_constants(declaring(1.5))[0] \
        < dyadic.default_constants(declaring(1.0))[0]
    net = dyadic.build_nets(sp, delta, 1.0, 2.0)
    assert net.a0 == 1.5
    code, text = run(tmp_path, "cubes", "--space", str(path))
    assert code == 0
    system = json.loads(text)["system"]
    assert (system["delta"], system["c1"], system["C1"]) == (delta, 1 / (3 * 1.5 ** 2), 6.0)

    code, text = run(tmp_path, "gallery", "--space", str(path), name="copy.json")
    assert code == 0
    assert json.loads(text)["declared_A0"] == 1.5
    copy = load_space(str(tmp_path / "copy.json"))
    assert copy.declared_A0 == 1.5 and np.array_equal(copy.dist, sp.dist)


def test_one_a0_pass_per_command(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, space_mod, "estimate_quasi_triangle_constant")
    line = _explicit_file(tmp_path, "line32.json", [[i / 31, 0.0] for i in range(32)])
    code, _ = run(tmp_path, "embed-test", "--space", line, *EMBED_ARGS)
    assert code == 0
    assert len(calls) == 1
    plane = _explicit_file(tmp_path, "plane40.json", np.random.default_rng(5).random((40, 2)))
    code, _ = run(tmp_path, "analyze", "--space", plane, "--check-lower-bound")
    assert code == 0
    assert len(calls) == 2
    # loading checks the declared A0 with the one pass; --A0 is checked
    # against that same pass, and the cubes read the value it installs
    declared = _declaring_file(plane, 1.2)
    code, _ = run(tmp_path, "cubes", "--space", declared, "--A0", "1.5")
    assert code == 0
    assert len(calls) == 3


def _declaring_file(path, a0):
    """A copy of the space file at ``path`` that declares A0 = ``a0``."""
    path = pathlib.Path(path)
    copy = path.with_suffix(".declared.json")
    copy.write_text(json.dumps({**json.loads(path.read_text()), "declared_A0": a0}))
    return str(copy)


def _without_config(text):
    """A JSON report without its ``config`` block (its last line is the
    first "  }," after it, as config holds scalars only)."""
    head, rest = text.split('\n  "config": {\n', 1)
    return head + "\n" + rest.split("\n  },\n", 1)[1]


@pytest.mark.parametrize("argv", [["cubes"], ["embed-test", *EMBED_ARGS]],
                         ids=["cubes", "embed-test"])
def test_a0_flag_is_the_declared_a0(tmp_path, argv):
    # the table of a plane point set measures A0 = 1: --A0 1.5 gives the
    # report of the same file declaring 1.5, apart from the echoed flag
    plane = _explicit_file(tmp_path, "plane24.json", np.random.default_rng(2).random((24, 2)))
    code, flagged = run(tmp_path, *argv, "--space", plane, "--A0", "1.5", name="flag.json")
    assert code == 0
    code, declared = run(tmp_path, *argv, "--space", _declaring_file(plane, 1.5),
                         name="declared.json")
    assert code == 0
    assert json.loads(flagged)["config"]["A0"] == 1.5
    assert _without_config(flagged) == _without_config(declared)
    if argv == ["cubes"]:
        assert json.loads(flagged)["system"]["C1"] == 2 * 1.5 * 2.0


@pytest.mark.parametrize("argv", [
    ["analyze", "--gallery", "euclidean_grid", "--n", "12", "--dim", "2"],
    ["embed-test", "--gallery", "euclidean_grid", "--n", "32", *EMBED_ARGS],
    ["cubes", "--gallery", "snowflake", "--n", "8", "--dim", "2", "--snowflake-e", "0.5"],
    ["analyze", "--gallery", "cantor", "--depth", "6", "--check-lower-bound"],
    ["cubes", "--gallery", "cantor", "--depth", "5"],
    ["kernel-check", "--gallery", "weighted_grid", "--n", "17", "--alpha", "1",
     "--omega", "1.0", "--calibration", "2", "--trials", "2"],
    ["analyze", "--gallery", "weighted_grid", "--n", "33", "--alpha", "0", "--beta", "-0.5",
     "--extent", "4"],
])
def test_gallery_metrics_make_no_a0_pass(tmp_path, monkeypatch, argv):
    calls = _count_calls(monkeypatch, space_mod, "estimate_quasi_triangle_constant")
    code, text = run(tmp_path, *argv)
    assert code == 0
    assert calls == []
    if argv[0] == "analyze":
        stats = json.loads(text)["stats"]
        assert (stats["a0_est"], stats["a0_source"]) == (1.0, "analytic")


def test_gallery_of_explicit_file_makes_no_a0_pass(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, space_mod, "estimate_quasi_triangle_constant")
    table = _explicit_file(tmp_path, "plane30.json", np.random.default_rng(3).random((30, 2)))
    code, _ = run(tmp_path, "gallery", "--space", table, name="copy.json")
    assert code == 0
    assert calls == []          # validation without a declared A0 needs none
    code, text = run(tmp_path, "analyze", "--space", str(tmp_path / "copy.json"))
    assert code == 0
    assert len(calls) == 1
    assert json.loads(text)["stats"]["a0_source"] == "exact"


def test_index_set_built_once_per_system(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, dyadic.CubeSystem, "index_cubes")
    builds = []
    memo = dyadic.CubeSystem.memo

    def counted(self, key, build):
        def counted_build():
            builds.append(key)
            return build()
        return memo(self, key, counted_build)

    monkeypatch.setattr(dyadic.CubeSystem, "memo", counted)
    code, _ = run(tmp_path, "embed-test", "--gallery", "euclidean_grid", "--n", "32",
                  "--omega", "1.0", "--s1", "0.5", "--p1", "2", "--s2", "1.0",
                  "--p2", "1", "--q", "1", "--n-sequences", "64")
    assert code == 0
    assert len(calls) <= 2
    assert [key for key in builds if key[0] == "fresh_index"] == [("fresh_index", "homogeneous")]
    # random_sequence and the kernel checks read the one cached index
    builds.clear()
    code, _ = run(tmp_path, "kernel-check", "--gallery", "euclidean_grid", "--n", "16",
                  "--omega", "1.0", "--calibration", "4", "--trials", "4")
    assert code == 0
    assert len(calls) <= 3
    assert [key for key in builds if key[0] == "fresh_index"] == [("fresh_index", "homogeneous")]


def test_ball_index_built_once_per_space(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, space_mod, "build_ball_index")
    code, _ = run(tmp_path, "kernel-check", "--gallery", "euclidean_grid",
                  "--n", "16", "--omega", "1.0", "--p2", "1",
                  "--calibration", "4", "--trials", "4")
    assert code == 0
    assert len(calls) == 1


def test_cubes_verifies_axioms_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, dyadic, "verify_cube_axioms")
    code, text = run(tmp_path, "cubes", "--gallery", "cantor", "--depth", "5")
    assert code == 0
    assert json.loads(text)["axioms"]["ok"] is True
    assert len(calls) == 1


def test_point_cap_exits_2_before_building(tmp_path, capsys):
    path = tmp_path / "big.json"
    m = MAX_POINTS + 1
    path.write_text(json.dumps({"points": [[float(i)] for i in range(m)],
                                "weights": [1.0] * m}))
    for argv in (["analyze", "--gallery", "cantor", "--depth", "13"],
                 ["analyze", "--space", str(path)]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 10.0
        assert "cap" in capsys.readouterr().err


def test_duplicate_points_fail_fast(tmp_path, capsys):
    path = tmp_path / "same.json"
    path.write_text(json.dumps({"points": [[0.5]] * 1500, "weights": [1.0] * 1500}))
    # refused after the first 20 zero pairs: a scan of every pair in Python
    # took about 6 s on a 2-core VM, the row-blocked check 0.03 s
    start = time.perf_counter()
    assert main(["analyze", "--space", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "invalid space: {'kind': 'identity', 'pair': [0, 1], 'value': 0.0}" \
        in capsys.readouterr().err


def test_threads_flag_removed():
    assert main(["maximal", "--gallery", "euclidean_grid", "--n", "8",
                 "--random", "1", "--threads", "2"]) == 2
