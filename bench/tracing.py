"""Spans around calls into wdmqkd's public functions, installed from outside.

Every public function (a name in its module's ``__all__``) is wrapped in the
namespace of each wdmqkd module that calls it, and in its own module's
namespace for calls the benchmark makes.  The package's files are not
changed.  A wrapper times the call and attributes it to the layer that
defines the function.

Spans are folded into totals as they close: the audit workload opens over
fifteen thousand spans per operation, too many to keep.  Open spans sit on
a stack; a span's time not covered by nested spans of other layers is its
layer's self time, and only spans entered from another layer add to a
layer's total, so nested calls within one layer are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import types

LAYERS = ("cli", "config", "spectral", "biphoton", "correlation", "detection", "scanfit", "qkd")

# source_channels lives in config.py but does the spectral layer's work
# (it builds the channel table), so its spans count there.
LAYER_OF = {"source_channels": "spectral"}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.layer_total = dict.fromkeys(LAYERS, 0.0)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.points = 0  # scan points simulated
        self.pairs = 0  # pairs keyed
        self.sifted = 0
        self.fits = 0
        self.converged = 0
        self.peak_alloc = 0  # bytes, largest over run_bbm92 calls
        self._stack: list[list] = []
        self._patches: list[tuple[types.ModuleType, str, object, object]] = []
        modules = [sys.modules[f"wdmqkd.{name}"] for name in LAYERS]
        public = {}
        for module in modules:
            for name in module.__all__:
                fn = getattr(module, name)
                if isinstance(fn, types.FunctionType):
                    public[fn] = self._wrap(fn, LAYER_OF.get(name, module.__name__.split(".")[1]))
        for module in modules:
            for name, obj in vars(module).items():
                if isinstance(obj, types.FunctionType) and obj in public:
                    self._patches.append((module, name, obj, public[obj]))

    def install(self) -> None:
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def _wrap(self, fn, layer: str):
        key = f"{layer}.{fn.__name__}"
        self.calls[key] = 0
        self.seconds[key] = 0.0
        record = getattr(self, "_record_" + fn.__name__, None)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]  # layer, time covered by nested spans of other layers
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[key] += 1
                self.seconds[key] += elapsed
                parent = stack[-1] if stack else None
                if parent is None or parent[0] != layer:
                    self.layer_total[layer] += elapsed
                    self.layer_self[layer] += elapsed - frame[1]
                    if parent is not None:
                        parent[1] += elapsed
                else:
                    parent[1] += frame[1]
            if record is not None:
                record(args, kwargs, result)
            return result

        if fn.__name__ == "run_bbm92":
            return self._with_alloc_peak(wrapper)
        return wrapper

    def _with_alloc_peak(self, wrapper):
        @functools.wraps(wrapper)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return wrapper(*args, **kwargs)
            finally:
                self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def _record_simulate_scan(self, args, kwargs, result) -> None:
        self.points += len(result.counts)

    def _record_fit_scan(self, args, kwargs, result) -> None:
        self.fits += 1
        self.converged += bool(result.converged)

    def _record_run_bbm92(self, args, kwargs, result) -> None:
        config = args[1] if len(args) > 1 else kwargs["config"]
        self.pairs += config.n_pairs
        self.sifted += result.sifted_bits

    def per_op(self, n_ops: int, files: int, nbytes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per traced operation, as name -> (value, unit)."""
        c = lambda key: (self.calls[key] / n_ops, "count")
        s = lambda key: (self.seconds[key] / n_ops, "s")
        ratio = lambda num, den: (num / den if den else 0.0, "ratio")
        return {
            "cli.main.calls": c("cli.main"),
            "cli.main.s": s("cli.main"),
            "cli.self_s": (self.layer_self["cli"] / n_ops, "s"),
            "cli.files_written": (files / n_ops, "count"),
            "cli.bytes_written": (nbytes / n_ops, "bytes"),
            "config.load_config.s": s("config.load_config"),
            "spectral.source_channels.s": s("spectral.source_channels"),
            "spectral.channel_state.calls": c("spectral.channel_state"),
            "biphoton.coincidence_probability.calls": c("biphoton.coincidence_probability"),
            "biphoton.joint_outcome_distribution.calls": c("biphoton.joint_outcome_distribution"),
            "biphoton.correlation_E.calls": c("biphoton.correlation_E"),
            "biphoton.s": (self.layer_total["biphoton"] / n_ops, "s"),
            "correlation.chsh_optimize.calls": c("correlation.chsh_optimize"),
            "correlation.chsh_optimize.s": s("correlation.chsh_optimize"),
            "correlation.find_theta_max.calls": c("correlation.find_theta_max"),
            "correlation.find_theta_max.s": s("correlation.find_theta_max"),
            "correlation.self_s": (self.layer_self["correlation"] / n_ops, "s"),
            "detection.simulate_scan.calls": c("detection.simulate_scan"),
            "detection.simulate_scan.s": s("detection.simulate_scan"),
            "detection.derive_stream.calls": c("detection.derive_stream"),
            "detection.derive_stream.s": s("detection.derive_stream"),
            "detection.points": (self.points / n_ops, "count"),
            "scanfit.fit_scan.calls": c("scanfit.fit_scan"),
            "scanfit.fit_scan.s": s("scanfit.fit_scan"),
            "scanfit.converged_ratio": ratio(self.converged, self.fits),
            "qkd.run_bbm92.calls": c("qkd.run_bbm92"),
            "qkd.run_bbm92.s": s("qkd.run_bbm92"),
            "qkd.run_bbm92.peak_alloc_mb": (self.peak_alloc / 2**20, "MB"),
            "qkd.pairs": (self.pairs / n_ops, "count"),
            "qkd.sifted_ratio": ratio(self.sifted, self.pairs),
        }
