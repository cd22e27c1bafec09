"""Benchmark-owned spans around the public functions of each ispband module.

The package itself is not changed. `Tracer.install` replaces every module
attribute inside `ispband` that is bound to a traced function with a
wrapper, so each call is seen where its caller looks the name up:
`psi_eval` inside `forward` and `tsvd`, `log_hankel_abs2_row` inside
`singular_system`, `report` under its alias in `tsvd`. A traced name that
the package no longer defines is skipped and reports 0 calls.

Spans stay in memory as small lists and are written out when the run
ends. Each span carries the phase it was recorded in ("setup" or
"timed"). A layer's self time is its span's duration minus the time its
direct child spans cover; calls in this package are single-threaded, so
children nest inside their parent.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# the layers are the package's modules; each lists the public functions
# whose calls and self time the traced run reports
TARGETS = {
    "specfun": ("log_hankel_abs2_row", "first_zero_j", "first_zero_y",
                "hankel_phase"),
    "singular_system": ("a_m", "build_spectrum", "psi_eval", "phi_eval"),
    "bandwidth": ("bandwidth", "bound_lower", "bound_upper", "report"),
    "forward": ("source_grid", "apply_forward_analytic",
                "synthesize_measurement"),
    "tsvd": ("modal_decompose", "pick_truncation", "tsvd_reconstruct"),
    "experiments": ("run_sweep", "fit_linear"),
    "csvio": ("write_spectrum", "write_sweep", "write_fits",
              "write_boundary", "write_source", "write_reconstruction"),
}
CLI_SUBCOMMANDS = ("bandwidth", "spectrum", "sweep", "reconstruct")
_ZERO_FUNCS = ("first_zero_j", "first_zero_y")
_BOUND_SPANS = ("bandwidth.bound_lower", "bandwidth.bound_upper")
_ZERO_SPANS = ("specfun.first_zero_j", "specfun.first_zero_y")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_points(tracer, args, kwargs):
    rho = _arg(args, kwargs, 2, "rho")
    theta = _arg(args, kwargs, 3, "theta")
    tracer.add("singular_system.psi_eval.points",
               np.broadcast(np.asarray(rho), np.asarray(theta)).size)


def _count_bytes(tracer, args, kwargs):
    path = _arg(args, kwargs, 1, "path")
    if isinstance(path, (str, os.PathLike)) and path != "-":
        tracer.add("csvio.write.bytes", os.path.getsize(path))


_EXTRA = {"singular_system.psi_eval": _count_points}
_EXTRA.update({f"csvio.{name}": _count_bytes for name in TARGETS["csvio"]})


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        # each span is [name, parent index or -1, start, end, phase]
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.phase = "setup"
        self._stack: list[int] = []

    def add(self, name: str, amount: float) -> None:
        self.counters[self.phase][name] += amount

    def _wrap(self, name: str, fn):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), 0.0, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if extra is not None:
                    extra(self, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an ispband module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ispband" or n.startswith("ispband.")]
        for layer, names in TARGETS.items():
            mod = sys.modules.get(f"ispband.{layer}")
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def totals(self) -> dict[str, dict[str, float]]:
        """Additive per-phase totals: calls, self time and counters.

        Totals from several processes (the cli workload) merge by summing.
        """
        child = defaultdict(float)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for i, (name, parent, t0, t1, phase) in enumerate(self.spans):
            tot = out[phase]
            tot[f"{name}.calls"] += 1
            tot[f"{name}.self_s"] += (t1 - t0) - child[i]
            if name in _ZERO_SPANS and parent >= 0 \
                    and self.spans[parent][0] in _BOUND_SPANS:
                tot["zero_probes_in_bounds"] += 1
        for phase, counters in self.counters.items():
            for key, value in counters.items():
                out[phase][key] += value
        return {phase: dict(tot) for phase, tot in out.items()}


def zero_cache_counts() -> tuple[int, int]:
    """Summed (hits, misses) of the first-zero caches, 0 when absent."""
    spec = sys.modules.get("ispband.specfun")
    hits = misses = 0
    for name in _ZERO_FUNCS:
        fn = getattr(spec, name, None)
        # look through the tracing wrapper to the cached function
        while fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)
        if fn is not None:
            ci = fn.cache_info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses


def merge(into: dict, other: dict) -> dict:
    """Sum per-phase totals `other` into `into` and return it."""
    for phase, tot in other.items():
        dst = into.setdefault(phase, {})
        for key, value in tot.items():
            dst[key] = dst.get(key, 0.0) + value
    return into


def layer_metrics(totals: dict) -> dict[str, float]:
    """Per-layer metric values from merged per-phase totals.

    `<module>.<function>.calls` and `.self_s` cover the timed phase; the
    set-up phase is summarised as `setup.<module>.self_s`.
    """
    timed = totals.get("timed", {})
    setup = totals.get("setup", {})
    out: dict[str, float] = {}
    for layer, names in TARGETS.items():
        for name in names:
            key = f"{layer}.{name}"
            out[f"{key}.calls"] = int(timed.get(f"{key}.calls", 0))
            out[f"{key}.self_s"] = timed.get(f"{key}.self_s", 0.0)
        out[f"setup.{layer}.self_s"] = sum(
            setup.get(f"{layer}.{name}.self_s", 0.0) for name in names)
    lookups = (timed.get("zero_cache_hits", 0)
               + timed.get("zero_cache_misses", 0))
    out["specfun.first_zero.hit_ratio"] = (
        timed.get("zero_cache_hits", 0) / lookups if lookups else 0.0)
    bounds = sum(timed.get(f"{s}.calls", 0) for s in _BOUND_SPANS)
    out["bandwidth.zero_probes_per_bound"] = (
        timed.get("zero_probes_in_bounds", 0) / bounds if bounds else 0.0)
    out["singular_system.psi_eval.points"] = int(
        timed.get("singular_system.psi_eval.points", 0))
    out["csvio.write.bytes"] = int(timed.get("csvio.write.bytes", 0))
    return out
