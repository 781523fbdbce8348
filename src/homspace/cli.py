"""
Command-line front door: space -> stats -> cubes -> norms -> characterization.

Commands: analyze, cubes, norms, embed-test, kernel-check, maximal, gallery.
Reports are deterministic JSON (same config + seed => byte-identical) or a
flattened CSV with one row per witness. Each command returns its own keys,
result dataclasses included as they are; ``main`` adds the shared
``schema``, ``command`` and ``config`` keys. ``config`` echoes the options
that hold a value: the flags given and the command's own defaults. The
--gallery parameters have no CLI defaults (``GallerySpec`` holds them), so
they appear only when given; one that the chosen kind does not read exits 2.

Exit codes: 0 ok; 2 usage or input problems; 3 inadmissible dyadic
constants; 4 characterization discrepancy; 5 internal invariant failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from homspace import gallery, maximal, seqnorm, space as space_mod
from homspace.common import (DEFAULT_SEED, dumps_report, finite_number, read_json, report_to_csv,
                             rng_stream)
from homspace.dyadic import (
    VARIANTS,
    CubeConstructionError,
    InadmissibleConstants,
    build_cubes,
    build_nets,
    default_constants,
    max_single_child_chain,
)
from homspace.embed import EmbedParams, characterize
from homspace.seqnorm import NormParams

SCHEMA = 2


def _count(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# --gallery parameters, by GallerySpec field: their defaults are
# GallerySpec's, so a flag reaches the spec (and the config echo) only when
# it is given
GALLERY_FLAGS = {"n": "--n", "dim": "--dim", "depth": "--depth", "alpha": "--alpha",
                 "beta": "--beta", "e": "--snowflake-e", "extent": "--extent"}


def _add_space_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", help="path to a JSON space file")
    p.add_argument("--gallery", choices=gallery.KINDS, help="built-in space kind")
    p.add_argument("--n", type=int, help="lattice points per axis")
    p.add_argument("--dim", type=int)
    p.add_argument("--depth", type=int, help="cantor depth")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--snowflake-e", type=float, dest="e")
    p.add_argument("--extent", type=float)


def _add_cube_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, help="scale base (default: largest admissible power of 1/2)")
    p.add_argument("--c0", type=float, default=1.0)
    p.add_argument("--C0", type=float, default=2.0)
    p.add_argument("--A0", type=float,
                   help="declare the quasi-triangle constant (checked against the space)")
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seeds the nets and the sampled sequences")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homspace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="space statistics and lower-bound checks")
    _add_space_args(p)
    _add_common(p)
    p.add_argument("--omega", type=float,
                   help="scaling exponent (default: declared, else measured)")
    p.add_argument("--check-lower-bound", action="store_true")
    p.add_argument("--check-local-lower-bound", action="store_true")
    p.add_argument("--check-reverse-doubling", type=float, metavar="KAPPA")

    p = sub.add_parser("cubes", help="build a dyadic cube system and verify its axioms")
    _add_space_args(p)
    _add_cube_args(p)
    _add_common(p)

    p = sub.add_parser("norms", help="sequence norms over a built cube system")
    _add_space_args(p)
    _add_cube_args(p)
    _add_common(p)
    p.add_argument("--seq", required=True, help="JSON list of {k, alpha, value}")
    p.add_argument("--family", choices=seqnorm.FAMILIES, default="besov")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--variant", choices=VARIANTS, default="homogeneous")
    p.add_argument("--layer-cake", action="store_true",
                   help="cross-check the Triebel-Lizorkin norm via the distribution function "
                        "(needs --family triebel_lizorkin)")

    p = sub.add_parser("embed-test", help="full characterization loop")
    _add_space_args(p)
    _add_cube_args(p)
    _add_common(p)
    p.add_argument("--family", choices=seqnorm.FAMILIES, default="besov")
    p.add_argument("--variant", choices=VARIANTS, default="homogeneous")
    p.add_argument("--omega", type=float, help="default: declared, else measured")
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--p1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--p2", type=float, required=True)
    p.add_argument("--q", type=float, default=1.0, help="shared q (besov)")
    p.add_argument("--q1", type=float)
    p.add_argument("--q2", type=float)
    p.add_argument("--n-sequences", type=_count, default=256)

    p = sub.add_parser("kernel-check", help="kernel bound calibration and stability")
    _add_space_args(p)
    _add_cube_args(p)
    _add_common(p)
    p.add_argument("--omega", type=float)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--p2", type=float, default=1.0,
                   help="source integrability fixing r = p2/(1+p2)")
    p.add_argument("--r-exp", type=float, help="override the sub-exponent r")
    p.add_argument("--calibration", type=_count, default=32)
    p.add_argument("--trials", type=_count, default=50)

    p = sub.add_parser("maximal", help="Hardy-Littlewood maximal function values")
    _add_space_args(p)
    _add_common(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seeds --random")
    inputs = p.add_mutually_exclusive_group()
    inputs.add_argument("--values", help="JSON array of per-point values")
    inputs.add_argument("--random", type=_count, metavar="COUNT",
                        help="evaluate on COUNT seeded random functions and report ratios")

    p = sub.add_parser("gallery", help="construct a space and write its space file")
    _add_space_args(p)
    _add_common(p)

    return parser


def _resolve_space(args) -> space_mod.FiniteHomSpace:
    """The space of --space or --gallery; a --A0 becomes its declared A0."""
    if args.space and args.gallery:
        raise ValueError("pass either --space or --gallery, not both")
    given = {name: getattr(args, name) for name in GALLERY_FLAGS
             if getattr(args, name) is not None}
    if args.space:
        if given:
            raise ValueError(f"{GALLERY_FLAGS[next(iter(given))]} applies to --gallery, "
                             "not to --space")
        sp = gallery.load_space(args.space)
    elif args.gallery:
        unread = [name for name in given if name not in gallery.KINDS[args.gallery]]
        if unread:
            raise ValueError(f"{GALLERY_FLAGS[unread[0]]} does not apply to "
                             f"--gallery {args.gallery}")
        sp = gallery.build(gallery.GallerySpec(kind=args.gallery, **given))
    else:
        raise ValueError("a space is required: pass --space PATH or --gallery KIND")
    a0 = getattr(args, "A0", None)
    if a0 is not None:
        # checked exactly as a space file's declared_A0 is, on the space
        # that holds any exact pass its loading made
        result = space_mod.validate_quasi_metric(sp, a0=a0)
        if not result.ok:
            raise ValueError(f"--A0 {a0!r} fails on this space: {result.violations[0]}")
        sp = dataclasses.replace(sp, declared_A0=a0)
    return sp


def _resolve_omega(args, sp) -> float:
    if getattr(args, "omega", None) is not None:
        return args.omega
    if sp.declared_omega is not None:
        return float(sp.declared_omega)
    fitted = space_mod.fit_mass_exponent(sp)
    if fitted is None:
        raise ValueError("cannot infer omega on this space; pass --omega")
    return fitted


def _resolve_cubes(args, sp):
    if args.delta is None:
        delta, c0, C0 = default_constants(sp, c0=args.c0, C0=args.C0)
    else:
        delta, c0, C0 = args.delta, args.c0, args.C0
    k_range = None
    if args.k_min is not None or args.k_max is not None:
        if args.k_min is None or args.k_max is None:
            raise ValueError("pass both --k-min and --k-max or neither")
        k_range = (args.k_min, args.k_max)
    net = build_nets(sp, delta, c0, C0, k_range=k_range, seed=args.seed)
    return build_cubes(net, sp)


def _config_echo(args) -> dict:
    skip = {"out", "format", "command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def cmd_analyze(args) -> dict:
    sp = _resolve_space(args)
    report = {
        "n_points": sp.n,
        "total_mass": sp.total_mass,
        "diameter": sp.diameter,
        "r_floor": sp.r_floor,
        "stats": space_mod.space_stats(sp),
    }
    if args.check_lower_bound or args.check_local_lower_bound:
        omega = _resolve_omega(args, sp)
        if args.check_lower_bound:
            report["lower_bound"] = space_mod.check_lower_bound(
                sp, omega, *space_mod.lower_bound_window(sp))
        if args.check_local_lower_bound:
            report["local_lower_bound"] = space_mod.check_local_lower_bound(sp, omega)
    if args.check_reverse_doubling is not None:
        report["reverse_doubling"] = space_mod.check_reverse_doubling(
            sp, args.check_reverse_doubling)
    return report


def cmd_cubes(args) -> dict:
    sp = _resolve_space(args)
    cubes = _resolve_cubes(args, sp)
    return {
        "axioms": cubes.axioms,
        "chain": max_single_child_chain(cubes),
        "system": cubes.to_dict(),
    }


def cmd_norms(args) -> dict:
    if args.layer_cake and args.family != "triebel_lizorkin":
        raise ValueError("--layer-cake needs --family triebel_lizorkin")
    sp = _resolve_space(args)
    cubes = _resolve_cubes(args, sp)
    seq = seqnorm.load_sequence(args.seq, cubes)
    params = NormParams(s=args.s, p=args.p, q=args.q, variant=args.variant, family=args.family)
    value = seqnorm.sequence_norm(seq, params)
    report = {
        "family": args.family,
        "s": args.s,
        "p": args.p,
        "q": args.q,
        "variant": args.variant,
        "value": value,
    }
    if args.layer_cake:
        report["layer_cake_value"] = seqnorm.layer_cake_tl_norm(seq, params)
    return report


def cmd_embed_test(args) -> dict:
    sp = _resolve_space(args)
    omega = _resolve_omega(args, sp)
    cubes = _resolve_cubes(args, sp)
    q1 = args.q1 if args.q1 is not None else args.q
    q2 = args.q2 if args.q2 is not None else args.q
    params = EmbedParams(
        source=NormParams(s=args.s2, p=args.p2, q=q2, variant=args.variant,
                          family=args.family),
        target=NormParams(s=args.s1, p=args.p1, q=q1, variant=args.variant,
                          family=args.family),
        omega=omega,
    )
    result = characterize(sp, cubes, params, n_sequences=args.n_sequences, seed=args.seed)
    witnesses = []
    if result.necessity and result.necessity.verdict == "FAIL":
        witnesses.append({"kind": "necessity", **result.necessity.witness})
    if result.scan:
        witnesses.extend({"kind": "scan", **v} for v in result.scan.witnesses)
    return {
        "params": params,
        "sup_ratio": result.scan.sup_ratio if result.scan else None,
        "proof_constant": result.scan.proof_constant if result.scan else None,
        "result": result,
        "witnesses": witnesses,
        "verdict": result.verdict,
    }


def cmd_kernel_check(args) -> dict:
    sp = _resolve_space(args)
    omega = _resolve_omega(args, sp)
    cubes = _resolve_cubes(args, sp)
    r_exp = args.r_exp if args.r_exp is not None else maximal.default_r_exp(args.p2)
    params = maximal.KernelParams(gamma=args.gamma, r_exp=r_exp, omega=omega)
    # the calibration and the trials are scored in one batch
    cal = maximal.calibrate_kernel_bound(cubes, params, n_sequences=args.calibration,
                                         seed=args.seed, trials=args.trials)
    lhs, rhs = cal.trial_lhs, cal.trial_rhs
    ratio = maximal.bound_ratio(lhs, rhs)
    failed = ~maximal.bound_holds(lhs, rhs, 2.0 * cal.c_report)
    failures = [{"trial": i, "level_pair": cal.probes[p][:2], "point": cal.probes[p][2],
                 "ratio": float(ratio[i, p])} for i, p in np.argwhere(failed).tolist()]
    return {
        "params": params,
        "calibration": {"c_report": cal.c_report, "n_samples": cal.n_samples,
                        "cube_bound_constant": cal.cube_bound_constant},
        "fresh_worst_ratio": float(ratio[~np.isnan(ratio)].max(initial=0.0)),
        "witnesses": failures,
        "verdict": "PASS" if not failures else "FAIL",
    }


def _load_values(path: str, n: int) -> np.ndarray:
    """The --values file: a flat JSON array of n finite numbers."""
    values = read_json(path)
    if not isinstance(values, list):
        raise ValueError(f"{path}: --values must be a JSON array of {n} numbers")
    for i, v in enumerate(values):
        if not finite_number(v):
            raise ValueError(f"{path}: entry {i} must be a finite number, got {json.dumps(v)}")
    if len(values) != n:
        raise ValueError(f"{path}: {len(values)} values for {n} points")
    return np.asarray(values, dtype=float)


def cmd_maximal(args) -> dict:
    sp = _resolve_space(args)
    report = {"n_points": sp.n}
    if args.values:
        mf = maximal.hl_maximal(sp, _load_values(args.values, sp.n))
        report["maximal"] = [float(v) for v in mf]
    elif args.random:
        # one stacked call per chunk of functions; the (c, n) draw is the
        # stream of c single draws
        rng = rng_stream(args.seed, 0x3A2)
        chunk = maximal.functions_per_call(sp.n)
        ratios = []
        for first in range(0, args.random, chunk):
            f = rng.standard_normal((min(chunk, args.random - first), sp.n))
            mf = maximal.hl_maximal(sp, f)
            ratios.extend((mf.max(axis=1) / np.abs(f).max(axis=1)).tolist())
        report["max_over_sup_ratios"] = ratios
    else:
        raise ValueError("pass --values FILE or --random COUNT")
    return report


def cmd_gallery(args) -> dict:
    """The report is itself a space file: --space reads it back."""
    sp = _resolve_space(args)
    return {
        "n_points": sp.n,
        "total_mass": sp.total_mass,
        **gallery.space_to_dict(sp),
    }


COMMANDS = {
    "analyze": cmd_analyze,
    "cubes": cmd_cubes,
    "norms": cmd_norms,
    "embed-test": cmd_embed_test,
    "kernel-check": cmd_kernel_check,
    "maximal": cmd_maximal,
    "gallery": cmd_gallery,
}


def _emit(report: dict, args) -> None:
    text = dumps_report(report) if args.format == "json" else report_to_csv(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = {"schema": SCHEMA, "command": args.command, "config": _config_echo(args),
                  **COMMANDS[args.command](args)}
    except InadmissibleConstants as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CubeConstructionError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 5
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(report, args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.get("verdict") == "DISCREPANCY":
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
