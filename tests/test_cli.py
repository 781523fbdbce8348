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
    assert report["schema"] == 2
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
    # a gallery parameter next to --space was ignored and echoed in config
    "cubes space with n": (["cubes", "--space", "one.json", "--n", "8"],
                           "--n applies to --gallery, not to --space"),
    "analyze space with snowflake-e": (["analyze", "--space", "one.json",
                                        "--snowflake-e", "0.5"],
                                       "--snowflake-e applies to --gallery, not to --space"),
    # a parameter the gallery kind does not read was echoed in config (exit 0)
    "cubes cantor with n": (["cubes", "--gallery", "cantor", "--depth", "4", "--n", "8",
                             "--alpha", "3"], "--n does not apply to --gallery cantor"),
    "cubes cantor with dim": (["cubes", "--gallery", "cantor", "--dim", "2"],
                              "--dim does not apply to --gallery cantor"),
    "analyze euclidean_grid with alpha": (["analyze", *GRID16, "--alpha", "1"],
                                          "--alpha does not apply to --gallery euclidean_grid"),
    "analyze euclidean_grid with depth": (["analyze", *GRID16, "--depth", "3"],
                                          "--depth does not apply to --gallery euclidean_grid"),
    "analyze snowflake with extent": (["analyze", "--gallery", "snowflake", "--n", "8",
                                       "--extent", "2"],
                                      "--extent does not apply to --gallery snowflake"),
    "cubes weighted_grid with snowflake-e": (["cubes", *WEIGHTED17, "--snowflake-e", "0.5"],
                                             "--snowflake-e does not apply to "
                                             "--gallery weighted_grid"),
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
# the sequence and space files the cases read
CASE_FILES = {
    "one.json": {"points": [[0.0]], "weights": [1.0]},
    "seq.json": [{"k": 1, "alpha": 0, "value": 1.0}],
    "huge3.json": [{"k": 2, "alpha": a, "value": 1.2e154} for a in (1, 2, 4)],
    "huge2.json": [{"k": 2, "alpha": a, "value": 1e308} for a in (1, 2)],
}


@pytest.mark.parametrize("case", BAD_PARAMETERS)
def test_bad_parameters_exit_2_naming_them(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    for name, content in CASE_FILES.items():
        (tmp_path / name).write_text(json.dumps(content))
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


def test_norms_integer_past_64_bits_is_read_as_a_float(tmp_path, capsys):
    # JSON integers outside [-2^63, 2^64) parse as the nearest float, so a
    # k of 10^20 is refused for its type, not as an index off the system
    seq_path = tmp_path / "seq.json"
    seq_path.write_text('[{"k": 100000000000000000000, "alpha": 0, "value": 1.0}]')
    code, text = run(tmp_path, "norms", *GRID16, "--seq", str(seq_path))
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {seq_path}: entry 0 must carry integer k and alpha and a finite real value, "
        'got {"k": 1e+20, "alpha": 0, "value": 1.0}\n')


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
# SHA-256 of the schema-2 reports; every value in them is the one the
# one-sequence-at-a-time evaluation that preceded the batched one wrote
KERNEL_DIGESTS = {
    ("grid64 p2=1", "1"): "1dd50b8a9a6214d72654fca135905c8fb8ae7d4d3ae7222ac8c5e56244b0422f",
    ("grid64 p2=1", "7"): "01b1bec62e00f265cabd90356a2dfcbf48afd2a6f6b3be024193353af1260e29",
    ("grid64 p2=2", "1"): "45a381e90b3cffa44116cd89edbfffad7a65b7a586fc005633cfb27d54c9960d",
    ("grid64 p2=2", "7"): "59a3d2a3e2d3c14117e33bafdf6744acdbe3bb713a00c33afb58f9bb79a39523",
    ("cantor6", "1"): "525eaa7bd4485547a0e2f2b91ff1d5b317fbcf18c5e4eecce08bbcb3d52af7a7",
    ("cantor6", "7"): "29805911976af382d584fdd54159e542626642b67372bfdea49d19decefb6dea",
    ("weighted_grid65", "1"): "cb1f4de66e7baa8218ca7199c7a4d9ef3cc066203edd2bc890e08085b56ff021",
    ("weighted_grid65", "7"): "3dbdfd77f60f01b233e3d3ece23b9a528489741df625cb4fef587f3d47e69a80",
    ("snowflake64", "1"): "28b3a9f96693ff4958959d41e75c6c6d281f2742ee6c98ae997c3cd409962523",
    ("snowflake64", "7"): "2b5c50bd78adb84fa39d24ef61233864b0d9c0380250803d4c9b77086e84c199",
    # a FAIL report: 12 witnesses in trial-major, probe-minor order
    ("cantor6 calibration 1", "1"):
        "45bc6d74f71464e673a0a26d6eb47e395efe1697c5e7578d3ff1bd4b2ce025af",
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
        (0, 'f8b0f9bc57dd229945285a481cefe2f4808f7c0e771a8b5030ffaba6d0de1ccc'),
    ('analyze grid32', 'json'):
        (0, '46d22e25e79cd0c0fbd7e5172e294527df08fa91d3b4b1bb2223081854c4bc09'),
    ('analyze table', 'csv'):
        (0, '3674f9631581db77ffe87485e9619ec4124a3eda7abbee633ec38d1c361ba74a'),
    ('analyze table', 'json'):
        (0, 'bdccf4391ab8ed62056119070ba5359a539043cf7c1ce29de58a83a588c77b8a'),
    ('analyze weighted_grid65', 'csv'):
        (0, 'd1818b34ae1c09a167115fc8e69ad1c71f4995b41e247e107cd3aced0b186aac'),
    ('analyze weighted_grid65', 'json'):
        (0, '4790929f9d3c0363126e4396eeb745625c476ee2ee3152a0e4b5dd5c2b150d1a'),
    ('cubes cantor5', 'csv'):
        (0, '15a98693d2970853acabb3e7454f88441615f20d1bce5c1c8259e5c792703265'),
    ('cubes cantor5', 'json'):
        (0, '1cc43f7922b600984fed9dd7faa179c2b6e8ad7ae673bc6e8ebb463aa3fc82e0'),
    ('cubes grid32', 'csv'):
        (0, '53052c36810d0d35017130b51c5a5206845d8a178b4358a39a8a7ecee704fd5f'),
    ('cubes grid32', 'json'):
        (0, 'bd70b6b95a9362c51b26f7e187190f2a34bddbe9fd02924c032cb8b02b8d838a'),
    ('embed-test besov pass', 'csv'):
        (0, 'b29da91a5b2779d49b42f792e563a0b38c81ec3dc78021c89731a64b9fc8a0a0'),
    ('embed-test besov pass', 'json'):
        (0, 'bb58ac66d8f03c61c043a326e75d84696c43eaf29b8d5b1f73ccc2e70f9a2925'),
    ('embed-test inhomogeneous fail', 'csv'):
        (0, '89332e7b3aff6c67bdc6603d33ceb306863569e603f2713c3405dd022d276338'),
    ('embed-test inhomogeneous fail', 'json'):
        (0, 'ce221704ab8f066e1a3d94fceecdcea35ae646dcb5173c3815424d5542b4fbd9'),
    ('embed-test one point', 'csv'):
        (0, '4af9afc7c19db5a3071fbd379eb55de4789d63c12b256ad810ec6358fabb10d5'),
    ('embed-test one point', 'json'):
        (0, '754299ba5ced13c3b0c0bfff1160b9911b239d23b36d5fa6b1620bef380fba05'),
    ('embed-test tl', 'csv'):
        (0, '33894d2067f21d48cc8faa4a6d619ed2fc7519e42ef624ccf975bb60d6d48bba'),
    ('embed-test tl', 'json'):
        (0, 'b72cacfd249b3332b50098ec2f57a99365d7d1095c8aa196cabc0d8d9c252969'),
    ('gallery table', 'csv'):
        (0, '3059fd03d74d405d301f6950beb0265a4b0273d9ac76fee51f776e14b212a32b'),
    ('gallery table', 'json'):
        (0, '93bee53934a8e1ac7afb76e2f2882be82de720b464a6e6b038d737766e1cd2b2'),
    ('kernel-check cantor6 calibration 1', 'csv'):
        (0, 'a8712dfb4c83b15701ffd32366c839b1fb5aa7c54d5d9c232bb559b3981efeca'),
    ('kernel-check cantor6 calibration 1', 'json'):
        (0, '07b44f550a748199a1aceea8aec8fe9ff67b28fa41151bd4495f633ffc4a107e'),
    ('maximal random', 'csv'):
        (0, '30a34c0128d462febe15284ccdb73ce914f24bf4529a142d177427a9306cb6f6'),
    ('maximal random', 'json'):
        (0, 'f3949f412fbcb40bb530422dc01f450bff0cca37d79183b5a46583d18f312644'),
    ('maximal values', 'csv'):
        (0, '55d0f01afad2d5c8fc94b39e5de9cdccd7b1e7296019f5e08502f14a7fcd9b67'),
    ('maximal values', 'json'):
        (0, '546b67dc9dd001567c15d379f9898b95c01175f2569ee1b9636699b5739a3f1d'),
    ('norms besov', 'csv'):
        (0, '286485ac1317a22222c57a20c9a4e3f06f13ef625d5446b7ecf59cc20cc894ce'),
    ('norms besov', 'json'):
        (0, '6ad916bd37818d730217f981c22ebb0281f1b095262c8a89abc83d93351c8b2c'),
    ('norms tl layer-cake', 'csv'):
        (0, 'a906654fa2b5d10ad542c1082251aefc4627a560e689abade57531fe4a94816b'),
    ('norms tl layer-cake', 'json'):
        (0, '169b2fd107153180976411c7688119e91d049518265676c8c66386431fabd3d9'),
    ('analyze squared line', 'csv'):
        (0, '537a89e77e16bb8c3083fd10f746210940508745792a49380e1915c82312be42'),
    ('analyze squared line', 'json'):
        (0, '4b4eb8ab4214ab8797efb3b7d60930864142e40da53daa082855234cb6976a51'),
    ('embed-test tail fail', 'csv'):
        (0, 'c40382dcbdca70ab74a324c762a50056a286cc5dd3a648d6c67aa4efffa2340c'),
    ('embed-test tail fail', 'json'):
        (0, 'd8a8037248c4f7d7deda8f4b479741afa8b974428a1aafe8f57e86557e5cfdd8'),
    ('cubes weighted_grid65', 'csv'):
        (0, '41276ed27096ad327b6c2588d62fdf32d6dcaf0e169e8b0d148c6c5e33ffa38c'),
    ('cubes weighted_grid65', 'json'):
        (0, '62c46ce27d67bc9599f63ae868e7aba504148e687ac133c84f94a1de749a3285'),
    ('cubes weighted_grid17 atomic', 'csv'):
        (0, 'bce96cd6243d2df3a5232eb8d1f706c85428093f621efc1cf07aa1ee2974f0b1'),
    ('cubes weighted_grid17 atomic', 'json'):
        (0, 'ded53eaea3d70c21c4fb6589b66b7b78a2c3fa7560344e310700b8ca9dc8f788'),
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
# SHA-256 of each schema-2 gallery report and of the bytes of its distance
# table; tables and points are those written when each kind built its own
# table
GALLERY_DIGESTS = {
    'euclidean_grid 8x8': ('062ab244fb2ff509ceb29cf2d0b381ebf26e3a4846f0dd8ed6d446152f33c1ea',
        '059f76cded29d69df748097eb23a4af5a049b88b9d40b615e62950f00c0b724f'),
    'weighted_grid 17': ('ccf036d789add5bac9c9b2c63e60d99ad0fbab2af29062f2b780ac79e043d597',
        'b01d9b782cc684bb331b0ab8dd6eff7649d938ebafe864e22bdb608b24cfa76e'),
    'weighted_grid 9x9': ('ae7c39e75e10a64ec7e56bb4387d12561a5ec8e593d540e8e21e81898bd9d98e',
        '53d0b857febd681dffff12cae11303daf825f62a442af41873ad2fdcae9e35c5'),
    'cantor 5': ('18da0f2f63e19e0e350687b0f83528e0e3d47e019fd713a1809daebd12f03954',
        '583addc22545945a0b899fc8b90dd27d6cdb146a3cdc56c74c7d9ac3e79bd97f'),
    'snowflake e=0.3': ('602df2eb3eab5dde3f7ee8bb29995d8ef50f257d42fc82698e81786fbe1a326d',
        'd124d03f97e62c35769e51f6f5a5ef09685723998ef9b8b713356173404feb5f'),
    'snowflake e=0.5': ('e638673c345525bc307e87a32159902fb6b7adc47e7952b5b4dbae52550ca363',
        '5213b47771b7a3e8cca954742127ae0f7ad0150c4622f8318778ee3b89b58d45'),
    'snowflake e=1': ('f9a1bb436d5a7f328909cd3609bc206af04b48fbb776a7e2f58d2efe2eb54b3c',
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
    assert "lower_bound" not in report and "local_lower_bound" not in report


def test_maximal_random_mode(tmp_path):
    code, text = run(tmp_path, "maximal", "--gallery", "euclidean_grid",
                     "--n", "32", "--random", "5")
    assert code == 0
    report = json.loads(text)
    assert len(report["max_over_sup_ratios"]) == 5
    assert all(r >= 1.0 - 1e-12 for r in report["max_over_sup_ratios"])


def test_maximal_random_chunks_match_one_function_at_a_time(tmp_path, monkeypatch):
    monkeypatch.setattr(maximal, "BLOCK_ELEMENTS", 10 * 16)    # chunks of 10 functions
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


@pytest.mark.parametrize("argv", [
    ["gallery", "--space", "{path}"],
    [*MAXIMAL, "--values", "{path}"],
    ["norms", *GRID16, "--seq", "{path}"],
], ids=["space", "values", "seq"])
def test_deeply_nested_input_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, text = run(tmp_path, *[arg.format(path=path) for arg in argv])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to parse\n"


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


@pytest.mark.parametrize("argv", [
    ["analyze", "--check-local-lower-bound", "--omega", "1"],
    ["embed-test", "--variant", "inhomogeneous", *EMBED_ARGS],
], ids=["analyze", "embed-test"])
def test_local_lower_bound_on_a_coarse_space(tmp_path, argv):
    # the lattice step is 4, so r_floor = 4 and the local window is degenerate
    code, text = run(tmp_path, *argv, "--gallery", "weighted_grid", "--n", "5",
                     "--extent", "8")
    assert code == 0
    report = json.loads(text)
    local = report["local_lower_bound"] if argv[0] == "analyze" else report["result"]["lower_bound"]
    assert (local["r_min"], local["verdict"]) == (4.0, "PASS")


@pytest.mark.parametrize("a0", ["-1", "0", "declared 0"])
def test_nonpositive_a0_exits_2_before_any_pass(tmp_path, monkeypatch, capsys, a0):
    # an explicit table's A0 needs the exact pass, which a nonpositive A0
    # must not reach: it used to come out as a triangle violation after it
    calls = _count_calls(monkeypatch, space_mod, "estimate_quasi_triangle_constant")
    plane = _explicit_file(tmp_path, "plane24.json", np.random.default_rng(2).random((24, 2)))
    if a0 == "declared 0":
        argv = ["--space", _declaring_file(plane, 0)]
    else:
        argv = ["--space", plane, "--A0", a0]
    code, text = run(tmp_path, "cubes", *argv)
    assert (code, text) == (2, "")
    assert "A0 must be a finite positive number" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["analyze", "cubes"])
def test_config_echoes_the_given_flags_and_the_command_defaults(tmp_path, command):
    # GallerySpec holds the gallery defaults: config names a gallery
    # parameter only when the command line sets it
    plane = _explicit_file(tmp_path, "plane12.json", np.random.default_rng(1).random((12, 2)))
    defaults = {"analyze": {"check_lower_bound": False, "check_local_lower_bound": False},
                "cubes": {"c0": 1.0, "C0": 2.0, "seed": common.DEFAULT_SEED}}[command]
    for argv, given in ((["--space", plane], {"space": plane}),
                        (["--gallery", "cantor", "--depth", "4"],
                         {"gallery": "cantor", "depth": 4})):
        code, text = run(tmp_path, command, *argv)
        assert code == 0
        assert json.loads(text)["config"] == {**given, **defaults}


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


# each command, and how many times it sorts the rows of its space: only
# the maximal operator and the kernel's per-center radii read the ball index
INDEX_BUILDS = [
    (["analyze", "--gallery", "weighted_grid", "--n", "17", "--check-lower-bound",
      "--check-local-lower-bound", "--check-reverse-doubling", "1"], 0),
    (["analyze", *GRID16, "--check-lower-bound"], 0),
    (["embed-test", *GRID16, "--s1", "0.5", "--p1", "2", "--s2", "1", "--p2", "1",
      "--q", "1", "--n-sequences", "8"], 0),
    (["cubes", *GRID16], 0),
    (["norms", *GRID16, "--seq", "seq.json"], 0),
    (["gallery", "--gallery", "cantor", "--depth", "4"], 0),
    (["maximal", *GRID16, "--random", "2"], 1),
    (["kernel-check", *GRID16, "--omega", "1.0", "--p2", "1", "--calibration", "4",
      "--trials", "4"], 1),
]


def test_ball_index_built_once_per_space(tmp_path, monkeypatch):
    (tmp_path / "seq.json").write_text(json.dumps([{"k": 1, "alpha": 0, "value": 1.0}]))
    monkeypatch.chdir(tmp_path)
    calls = _count_calls(monkeypatch, space_mod, "build_ball_index")
    for argv, builds in INDEX_BUILDS:
        calls.clear()
        code, _ = run(tmp_path, *argv)
        assert (argv[0], code, len(calls)) == (argv[0], 0, builds)


@pytest.mark.parametrize("space", [["--gallery", "weighted_grid", "--n", "33", "--alpha", "2"],
                                   ["--gallery", "cantor", "--depth", "5"]])
def test_analyze_blocks_do_not_depend_on_the_other_checks(tmp_path, space):
    # every check reads masses off one table; which checks run must not
    # move a bit of the others
    reports = []
    for extra in ([], ["--check-local-lower-bound", "--check-reverse-doubling", "1"]):
        code, text = run(tmp_path, "analyze", *space, "--check-lower-bound", *extra)
        assert code == 0
        reports.append(json.loads(text))
    for block in ("stats", "lower_bound"):
        assert json.dumps(reports[0][block]) == json.dumps(reports[1][block])


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
