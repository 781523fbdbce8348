"""A fixed computation that tells how fast the machine runs right now.

On a shared machine the same command can take up to 1.7 times as long
when neighbours are busy, for minutes at a time, and its CPU time moves
with its wall time. The benchmark therefore times this probe just before
every command and reports the command's time scaled by ``REFERENCE_S``
over the mean of the probes around it (run.py): the time the command
would take at the speed the probe was measured at. The raw times are kept
in the result files.

The probe mixes what the homspace commands spend their time on: numpy
passes over a dense distance table, row sorts and prefix sums, Python
loops over dicts of tuples, and JSON encoding. It imports nothing from
homspace, so no change to the program changes it.
"""
from __future__ import annotations

import json
import time

import numpy as np

# The probe's median time on the 2-core Xeon VM the reference figures in
# README.md come from, in a quiet phase.
REFERENCE_S = 0.008

_N = 96         # a table that fits in a core's cache
_BIG = 512      # one that does not


def _table(n: int) -> np.ndarray:
    pts = np.random.default_rng(0x5EED).random((n, 2))
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))


_D = _table(_N)
_D_BIG = _table(_BIG)
_W_BIG = np.full(_BIG, 1.0 / _BIG)


def _work() -> float:
    d = _D
    best = 0.0
    for z in range(_N):
        den = d[:, z][:, None] + d[z, :][None, :] + 1.0
        best = max(best, float((d / den).max()))
    order = np.argsort(d, axis=1, kind="stable")
    prefix = np.cumsum(np.take_along_axis(d, order, axis=1), axis=1)
    masses = [float(((_D_BIG < r) @ _W_BIG).sum()) for r in (0.1, 0.3)]
    cells = {}
    for i in range(6_000):
        cells[(i % 97, i)] = float(i)
    text = json.dumps(d[:40].tolist())
    return best + float(prefix[0, -1]) + sum(masses) + len(cells) + len(text)


def probe() -> float:
    """Seconds the fixed computation takes now: the median of three runs,
    so that one interrupted run does not set a command's scale."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]
