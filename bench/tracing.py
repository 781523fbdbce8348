"""Per-layer spans for the traced run.

The tracer wraps public functions and methods of homspace from outside
the package: a function is replaced in every homspace module that binds
it, so each caller finds the wrapper where it looks the name up, and a
method is replaced on its class. Nothing in homspace changes, and reports
stay byte-identical.

A span's self time is its duration minus the durations of the spans it
directly contains, so the self times of one command add up to the
command's wall time: the root span is ``cli.main`` and whatever no other
span covers is ``cli`` self time.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

MODULES = ("space", "gallery", "dyadic", "seqnorm", "embed", "maximal", "common", "cli")

# layer -> callables timed as that layer ("module:qualname")
SPANS = {
    "cli": ["cli:main"],
    "space.validate": ["space:validate_quasi_metric"],
    "space.a0": ["space:estimate_quasi_triangle_constant"],
    "space.ball_mass": ["space:FiniteHomSpace.ball_mass"],
    "space.checks": ["space:space_stats", "space:estimate_doubling",
                     "space:estimate_reverse_doubling_exponent", "space:fit_mass_exponent",
                     "space:check_lower_bound", "space:check_local_lower_bound",
                     "space:check_reverse_doubling"],
    "gallery.build": ["gallery:build"],
    "gallery.load": ["gallery:load_space"],
    "gallery.write": ["gallery:space_to_dict"],
    "dyadic.nets": ["dyadic:default_constants", "dyadic:build_nets"],
    "dyadic.cubes": ["dyadic:build_cubes"],
    "dyadic.verify": ["dyadic:verify_cube_axioms"],
    "dyadic.chain": ["dyadic:max_single_child_chain"],
    "seqnorm.seq_init": ["seqnorm:CoefSequence.__post_init__"],
    "seqnorm.norm": ["seqnorm:besov_norm", "seqnorm:triebel_lizorkin_norm",
                     "seqnorm:layer_cake_tl_norm"],
    "embed.batch": ["embed:generate_batch"],
    "embed.scan": ["embed:embedding_ratio_scan", "embed:proof_constant_besov"],
    "embed.necessity": ["embed:delta_necessity_test"],
    "maximal.hl": ["maximal:hl_maximal"],
    "maximal.kernel": ["maximal:kernel_maximal_bound_check"],
    "maximal.calibrate": ["maximal:calibrate_kernel_bound"],
    "common.report": ["common:dumps_report"],
}

# counter -> callables whose calls it counts, without a span
COUNTS = {
    "dyadic.fresh": ["dyadic:NetSystem.new_centers"],
    "seqnorm.index_rebuilds": ["dyadic:CubeSystem.index_cubes"],
    "space.ball": ["space:FiniteHomSpace.ball"],
}

# (metric, unit, source): "self" is the layer's self time, "calls" its span
# count, "count" a counter; values are per pass
PER_LAYER = [
    ("space.validate_s", "s", "self", "space.validate"),
    ("space.a0_s", "s", "self", "space.a0"),
    ("space.a0_calls", "count", "calls", "space.a0"),
    ("space.ball_mass_s", "s", "self", "space.ball_mass"),
    ("space.ball_mass_calls", "count", "calls", "space.ball_mass"),
    ("space.checks_s", "s", "self", "space.checks"),
    ("gallery.build_s", "s", "self", "gallery.build"),
    ("gallery.load_s", "s", "self", "gallery.load"),
    ("gallery.write_s", "s", "self", "gallery.write"),
    ("dyadic.nets_s", "s", "self", "dyadic.nets"),
    ("dyadic.cubes_s", "s", "self", "dyadic.cubes"),
    ("dyadic.verify_s", "s", "self", "dyadic.verify"),
    ("dyadic.verify_calls", "count", "calls", "dyadic.verify"),
    ("dyadic.chain_s", "s", "self", "dyadic.chain"),
    ("dyadic.fresh_calls", "count", "count", "dyadic.fresh"),
    ("seqnorm.seq_init_s", "s", "self", "seqnorm.seq_init"),
    ("seqnorm.sequences", "count", "calls", "seqnorm.seq_init"),
    ("seqnorm.index_rebuilds", "count", "count", "seqnorm.index_rebuilds"),
    ("seqnorm.norm_s", "s", "self", "seqnorm.norm"),
    ("seqnorm.norm_calls", "count", "calls", "seqnorm.norm"),
    ("embed.batch_s", "s", "self", "embed.batch"),
    ("embed.scan_s", "s", "self", "embed.scan"),
    ("embed.necessity_s", "s", "self", "embed.necessity"),
    ("maximal.hl_s", "s", "self", "maximal.hl"),
    ("maximal.hl_calls", "count", "calls", "maximal.hl"),
    ("maximal.hl_rows_used_ratio", "ratio", "ratio", None),
    ("maximal.kernel_s", "s", "self", "maximal.kernel"),
    ("maximal.kernel_calls", "count", "calls", "maximal.kernel"),
    ("maximal.calibrate_s", "s", "self", "maximal.calibrate"),
    ("common.report_s", "s", "self", "common.report"),
    ("common.report_mb", "MB", "count", "common.report_bytes"),
    ("cli.self_s", "s", "self", "cli"),
    ("trace.pass_s", "s", "pass", None),
]


class Tracer:
    """Span stack, per-layer self time, and counters for one process."""

    def __init__(self):
        self.stack = []                  # open spans: [layer, time of closed children]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.root_s = 0.0                # time inside outermost spans
        self._undo = []

    # -- wrappers -------------------------------------------------------

    def _span(self, layer, fn):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            calls[layer] += 1
            if layer == "maximal.hl" and len(stack) > 1 and stack[-2][0] == "maximal.kernel":
                self.counts["maximal.hl_rows_evaluated"] += args[0].n
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    self.root_s += dt
            if layer == "common.report":
                self.counts["common.report_bytes"] += len(result)
            return result
        return wrapper

    def _count(self, name, fn):
        stack, counts = self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if name == "space.ball" and stack and stack[-1][0] == "maximal.kernel":
                counts["maximal.hl_rows_used"] += result.members.size
            return result
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"homspace.{name}") for name in MODULES}
        everywhere = [m for name, m in sys.modules.items()
                      if name == "homspace" or name.startswith("homspace.")]
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for layer, targets in table.items():
                for target in targets:
                    mod_name, qualname = target.split(":")
                    owner = modules[mod_name]
                    *path, attr = qualname.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                    wrapped = make(layer, original)
                    if path:
                        self._replace(owner, attr, wrapped)
                    else:
                        for mod in everywhere:
                            if getattr(mod, attr, None) is original:
                                self._replace(mod, attr, wrapped)

    def _replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.root_s = 0.0

    def total_self(self) -> float:
        return sum(self.self_s.values())

    def metrics(self, passes: int, scale: float = 1.0) -> dict:
        """Every per-layer metric, as a mean per pass; times are multiplied
        by ``scale``, the run's ratio of scaled to raw command time."""
        out = {}
        for name, unit, source, key in PER_LAYER:
            if source == "self":
                value = self.self_s[key] * scale / passes
            elif source == "calls":
                value = self.calls[key] / passes
            elif source == "count":
                value = self.counts[key] / passes
            elif source == "pass":
                value = self.root_s * scale / passes
            else:   # share of M u points that the kernel check reads
                evaluated = self.counts["maximal.hl_rows_evaluated"]
                value = self.counts["maximal.hl_rows_used"] / evaluated if evaluated else 0.0
            if unit == "MB":
                value /= 1e6
            out[name] = {"value": value, "unit": unit}
        return out
