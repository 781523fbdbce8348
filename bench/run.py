"""Benchmark for the homspace CLI.

    python3 bench/run.py [--workload ingest|characterize|maximal|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in one Python process that calls ``homspace.cli.main``
in-process, pass after pass over the workload's fixed command list, until
``--seconds`` of passes are done; every pass is whole. ``--seconds`` is the
measuring time of one workload and defaults to ``run_seconds`` in
BENCHMARK.json, so ``--workload all`` measures three times that. Commands
are timed one by one; their reports are checked after each pass, untimed. Every
time reported is scaled to a fixed machine speed by a probe timed before
each command (reference.py); the raw times go to the result file.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` wraps the
library's public functions (tracing.py) and prints the per-layer metrics
instead. ``--workload all`` runs every workload, each in its own process,
one after the other. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the details of a
run (every pass and command time, every failure, report digests) go to
bench/results/.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
NAMES = ("ingest", "characterize", "maximal")
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("cmd_p50_s", "s"), ("peak_rss_mb", "MB"))
IMPORT_REPEATS = 9
SETUP_REPEATS = 3
WARMUP = ["analyze", "--gallery", "euclidean_grid", "--n", "8"]
IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import homspace.cli"
# the traced self times must cover the traced command time to this share
COVERAGE_TOL = 0.01


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time of one workload (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_cli():
    if not (SRC / "homspace" / "cli.py").is_file():
        sys.exit(f"error: the homspace sources are missing: no {SRC / 'homspace' / 'cli.py'}")
    sys.path.insert(0, str(SRC))
    from homspace import cli
    return cli


def run_command(cli, argv, out: str):
    """Time one command from the call until its report is written."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", out])
    except Exception:   # a crash is a failed command, not the end of the run
        code = "exception"
        err.write(traceback.format_exc())
    return time.perf_counter() - t0, code, err.getvalue()


def time_import() -> float:
    """Wall time of a fresh interpreter that imports ``homspace.cli``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT, str(SRC)], check=True)
    return time.perf_counter() - t0


def scaled_median(timed, repeats):
    """The median of ``repeats`` calls of ``timed``, which returns seconds,
    each scaled by the mean of the probes taken just before and just after
    it; and the raw times and probes."""
    raw, probes = [], [reference.probe()]
    for _ in range(repeats):
        raw.append(timed())
        probes.append(reference.probe())
    scaled = [t * reference.REFERENCE_S / statistics.mean(probes[i:i + 2])
              for i, t in enumerate(raw)]
    return statistics.median(scaled), {"raw_s": raw, "probes": probes}


def setup(cli, name, seed, workdir, tracer):
    """What a workload's process does before its first timed command: a
    fresh interpreter imports ``homspace``, then the inputs are written and
    the warm-up command runs. The import is timed IMPORT_REPEATS times in
    child processes, since this one can import it only once, and the rest
    SETUP_REPEATS times; set-up time is the sum of the two scaled medians.
    Leaves the process in ``workdir``, where the commands find their
    inputs."""
    import workloads

    wl = None

    def prepare() -> float:
        nonlocal wl
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed)
        wl.write_inputs(workdir)
        os.chdir(workdir)
        _, code, err = run_command(cli, WARMUP, "warmup.json")
        if code != 0:
            sys.exit(f"error: warm-up command failed: {err}")
        return time.perf_counter() - t0

    if tracer:
        tracer.install()
    import_s, import_detail = scaled_median(time_import, IMPORT_REPEATS)
    prepare_s, prepare_detail = scaled_median(prepare, SETUP_REPEATS)
    # the inputs are on disk now; their memory must not count as the program's
    wl.inputs.clear()
    if tracer:
        tracer.reset()
    return wl, import_s + prepare_s, {"import": import_detail, "prepare": prepare_detail}


def measure(cli, wl, seconds):
    """Whole passes until the next one would mostly fall past ``seconds``.

    Per pass, the raw time of each command and the probe taken just before
    it. The reports of a pass are checked after its last command, so the
    checks' own memory never adds to the program's. The peak memory is read
    after the first pass, which has run every command; later passes only
    move it by where earlier commands and checks left holes in the heap."""
    passes, failures, digests = [], [], {}
    correct = True
    start = time.perf_counter()
    while True:
        raw, probes, exits = [], [], []
        for i, cmd in enumerate(wl.commands):
            out = Path(f"report-{i}.json")
            out.unlink(missing_ok=True)
            probes.append(reference.probe())
            dt, code, err = run_command(cli, cmd.argv, str(out))
            raw.append(dt)
            exits.append((code, err))
        passes.append({"raw": raw, "probes": probes})
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        for i, (cmd, (code, err)) in enumerate(zip(wl.commands, exits)):
            if code != 0:
                failures.append({"command": cmd.label, "exit": code, "stderr": err[-2000:]})
                continue
            data = Path(f"report-{i}.json").read_bytes()
            try:
                problems = cmd.check(json.loads(data))
            except (ValueError, LookupError, TypeError) as exc:   # a report of another shape
                problems = [f"the check cannot read the report: {exc!r}"]
            digest = hashlib.sha256(data).hexdigest()
            if digests.setdefault(cmd.label, digest) != digest:
                problems.append("report differs from the previous pass")
            if problems:
                correct = False
                failures.append({"command": cmd.label, "exit": 0, "problems": problems})
        if time.perf_counter() - start + sum(raw) / 2 >= seconds:
            break
    scale(passes)
    return {"passes": passes, "failures": failures, "digests": digests,
            "attempted": len(passes) * len(wl.commands), "correct": correct,
            "peak_rss_mb": peak_rss_mb}


def scale(passes) -> None:
    """Add each pass's ``scaled`` command times: raw * REFERENCE_S over the
    mean of the five probes nearest the command, in the order they were
    taken (the one just before it, two earlier and two later). A probe is
    an instant and the machine's speed flips between two levels from one
    second to the next, so one probe would often stand for a level that a
    command of a second or two spends only part of its time in."""
    raw = [t for p in passes for t in p["raw"]]
    probes = [x for p in passes for x in p["probes"]]
    scaled = [t * reference.REFERENCE_S / statistics.mean(probes[max(0, j - 2):j + 3])
              for j, t in enumerate(raw)]
    n = len(passes[0]["raw"])
    for i, p in enumerate(passes):
        p["scaled"] = scaled[i * n:(i + 1) * n]


def median_pass(passes, key):
    """The median over the passes of one pass's time."""
    return statistics.median(sum(p[key]) for p in passes)


def median_command(passes):
    """The median over the command list of each command's median scaled
    time: the median of all command times would fall between the slowest
    run of one command and the fastest run of the next."""
    n = len(passes[0]["scaled"])
    return statistics.median(statistics.median(p["scaled"][i] for p in passes) for i in range(n))


def run_workload(args):
    cli = import_cli()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        wl, setup_s, setup_detail = setup(cli, args.workload, args.seed, workdir, tracer)
        res = measure(cli, wl, args.seconds)
    finally:
        os.chdir(HERE)
        shutil.rmtree(workdir, ignore_errors=True)

    passes = len(res["passes"])
    raw_total = sum(sum(p["raw"]) for p in res["passes"])
    scaled_total = sum(sum(p["scaled"]) for p in res["passes"])
    if tracer:
        res["coverage"] = tracer.total_self() / raw_total
        if abs(res["coverage"] - 1.0) > COVERAGE_TOL:
            res["correct"] = False
            print(f"traced self times cover {res['coverage']:.4f} of the pass time",
                  file=sys.stderr)
        metrics = tracer.metrics(passes, scale=scaled_total / raw_total)
    else:
        values = {"setup_s": setup_s,
                  "pass_s": median_pass(res["passes"], "scaled"),
                  "cmd_p50_s": median_command(res["passes"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for f in res["failures"]:
        print(f"FAILED {f['command']}: {f.get('problems') or f['stderr'].strip()[-300:]}",
              file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:<13} {name:<28} {m['value']:>14.6g} {m['unit']}")
    failed_ids = sorted({f["command"] for f in res["failures"]})
    print(f"{args.workload:<13} passes {passes}, commands {res['attempted']}, "
          f"failed {len(res['failures'])} ({', '.join(failed_ids) or 'none'})")

    result = {"correct": res["correct"], "attempted": res["attempted"],
              "failed": len(res["failures"]), "metrics": metrics}
    (HERE / "results").mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup=setup_detail,
                  setup_raw_s=sum(statistics.median(d["raw_s"]) for d in setup_detail.values()),
                  raw_pass_s=median_pass(res["passes"], "raw"),
                  commands=[c.label for c in wl.commands], **res)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "results" / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
