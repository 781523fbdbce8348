"""
Shared plumbing: deterministic RNG streams, stable summation, log-log fits,
trend thresholds, the kernel model's regularity budget, JSON input reading
and deterministic report serialization.
"""
from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from itertools import chain

import numpy as np
import orjson

# Default seed for every sampled scan; the CLI --seed flag overrides it.
DEFAULT_SEED = 0xD1AD1C

# Most entries one block of a batched temporary holds (128 KiB of float64):
# the Triebel-Lizorkin accumulator, the scan's random keys, the maximal
# operator's cumsum gathers and ``maximal --random``'s functions go in
# blocks of whole rows under it, one row at least. The maximal operator's
# row walk reads it as lanes: (point, function) pairs per block.
BLOCK_ELEMENTS = 1 << 14

# Regularity budget of the kernel model: a kernel's decay epsilon and each
# side's |s - omega/p| of a Triebel-Lizorkin embedding stay below it.
ETA = 1.0


# Thresholds used to call a decaying-constant trend on finite data. On a
# finite space every scaling bound holds with *some* constant, so a failure
# verdict is a trend statement. A check fails only when both prongs fire for
# some probe (a center's radial curve, or a cube ancestry chain):
#   * the fitted mass-scaling exponent deviates from the declared omega by
#     more than EXPONENT_TOL, and
#   * the running constant decays by at least a factor 1/DECAY_FRAC between
#     its extremes over the resolved scale window.
EXPONENT_TOL = 0.2
DECAY_FRAC = 0.1


def trend_flags(x, masses, consts, omega: float) -> tuple:
    """(span, exponent, flagged) arrays, one entry per probe, of the
    (probes x scales) tables ``masses`` and ``consts`` (the running
    constant) at the scales ``x``.

    ``span`` is a row's min/max over its positive finite constants (1.0
    with fewer than two). The log-log exponent of the masses is fitted
    only where the decay prong fires, ``span <= DECAY_FRAC``; it is NaN
    elsewhere and where no fit exists. ``flagged`` marks the rows where
    both prongs fire.
    """
    consts = np.asarray(consts, dtype=float)
    ok = (consts > 0) & np.isfinite(consts)
    span = np.ones(consts.shape[0])
    np.divide(np.where(ok, consts, np.inf).min(axis=1), np.where(ok, consts, 0.0).max(axis=1),
              out=span, where=ok.sum(axis=1) >= 2)
    decays = span <= DECAY_FRAC
    exponent = np.full(span.size, np.nan)
    for row in np.flatnonzero(decays).tolist():
        fit = fit_loglog(x, masses[row])
        if fit:
            exponent[row] = fit[0]
    return span, exponent, decays & (np.abs(exponent - omega) > EXPONENT_TOL)


def rng_stream(seed: int, *salt: int) -> np.random.Generator:
    """Deterministic generator for (seed, salt...); salts decorrelate uses."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFF] + [int(s) & 0xFFFFFFFF for s in salt])


def finite_number(value) -> bool:
    """Whether a parsed JSON value is a finite real number: not a bool, not
    NaN or an infinity, and not an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def read_json(path: str):
    """The parsed JSON file at ``path``, read by orjson.

    orjson refuses what RFC 8259 does (NaN and Infinity, numbers past the
    float range, a BOM, invalid UTF-8, lone surrogates, nesting past 1024);
    only then is the file parsed again as text by ``json.load``, which gives
    those inputs their verdicts and messages. orjson reads an integer outside
    [-2^63, 2^64) as the nearest float. A decoding error or nesting too deep
    for ``json`` raises ValueError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        del raw
    with open(path) as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def reciprocal(p: float) -> float:
    """1/p for an integrability exponent, with 1/inf = 0."""
    return 0.0 if math.isinf(p) else 1.0 / p


def stable_sum(values) -> float:
    """Correctly rounded sum (fsum), so the order of the terms does not
    matter (stable for q < 1 piles)."""
    return math.fsum(np.asarray(values, dtype=float).ravel().tolist())


def fit_loglog(x, y):
    """OLS (slope, intercept) of log y on log x, x broadcast against y and
    both read in C order; None when degenerate."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    keep = (x > 0) & (y > 0)
    if int(keep.sum()) < 2:
        return None
    lx = np.log(x[keep])
    ly = np.log(y[keep])
    if float(np.ptp(lx)) == 0.0:
        return None
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# Report serialization. Reports must be byte-identical across runs for the
# same config + seed, and floats carry 17 significant digits.
# ---------------------------------------------------------------------------

def _plain_floats(obj) -> bool:
    """True for a nonempty list whose items are all plain ``float``."""
    return type(obj) is list and bool(obj) and set(map(type, obj)) == {float}


class _FloatRows(list):
    """A nonempty list of equally long lists of plain ``float``, as
    ``sanitize`` found it: the encoder checks only that its entries are
    finite before writing it one format per row."""


def _float_table(obj) -> bool:
    """True for a sanitized table that ``_encode`` writes one format per row:
    float rows of one width whose entries are all finite."""
    return type(obj) is _FloatRows and all(map(math.isfinite, chain.from_iterable(obj)))


_PLAIN_SCALARS = frozenset({int, float, str, bool, type(None)})


def sanitize(obj):
    """Convert numpy containers/scalars to plain Python for serialization.
    A plain scalar or a list of plain floats is returned as it is, a list of
    equally long plain-float lists as ``_FloatRows``, and a dataclass
    instance becomes the dict of its fields, so a report's keys are its
    fields."""
    if type(obj) in _PLAIN_SCALARS:
        return obj
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if _plain_floats(obj):
        return obj
    if isinstance(obj, (list, tuple)):
        if obj and all(map(_plain_floats, obj)) and len(set(map(len, obj))) == 1:
            return _FloatRows(obj)
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: sanitize(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _float_list_format(width: int, indent: int) -> str:
    """A %-format string that writes a list of ``width`` finite floats at
    ``indent`` as the generic path of ``_encode`` writes it, element by
    element."""
    pad_in = "  " * (indent + 1)
    return "[\n" + pad_in + (",\n" + pad_in).join(["%.17g"] * width) + "\n" + "  " * indent + "]"


def _encode(obj, indent: int) -> str:
    # a container's joined body is wrapped by one f-string, which copies it
    # once; a chain of + would copy a table's megabytes at every step
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad_in}{json.dumps(str(k))}: {_encode(v, indent + 1)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        body = ",\n".join(items)
        return f"{{\n{body}\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _float_table(obj):
            row_fmt = _float_list_format(len(obj[0]), indent + 1)
            body = (",\n" + pad_in).join([row_fmt % tuple(row) for row in obj])
            return f"[\n{pad_in}{body}\n{pad}]"
        if _plain_floats(obj) and all(map(math.isfinite, obj)):
            return _float_list_format(len(obj), indent) % tuple(obj)
        items = [f"{pad_in}{_encode(v, indent + 1)}" for v in obj]
        body = ",\n".join(items)
        return f"[\n{body}\n{pad}]"
    raise TypeError(f"unserializable report value of type {type(obj)!r}")


def dumps_report(obj) -> str:
    """Deterministic JSON: sorted keys, 2-space indent, 17-digit floats."""
    return _encode(sanitize(obj), 0) + "\n"


def flatten_scalars(obj, prefix="") -> dict:
    """Flatten nested dicts to dotted keys, keeping scalar leaves only."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}{k}" if not prefix else f"{prefix}.{k}"
            out.update(flatten_scalars(v, key))
    elif isinstance(obj, (list, tuple)):
        pass  # lists handled by the per-witness expansion
    else:
        out[prefix] = obj
    return out


def report_to_csv(report) -> str:
    """Flatten a report to CSV: one row per witness dict, else one row."""
    report = sanitize(report)
    base = flatten_scalars(report)
    witnesses = report.get("witnesses") if isinstance(report, dict) else None
    rows = []
    if isinstance(witnesses, list) and witnesses and all(isinstance(w, dict) for w in witnesses):
        for w in witnesses:
            row = dict(base)
            row.update({f"witness.{k}": v for k, v in flatten_scalars(w).items()})
            rows.append(row)
    else:
        rows.append(base)
    cols = sorted({k for row in rows for k in row})
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c, "")
            if isinstance(v, float):
                cells.append(_fmt_float(v))
            else:
                cells.append(json.dumps(v) if isinstance(v, str) and ("," in v or '"' in v) else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
