"""Span recorder for the traced benchmark run.

The recorder wraps the module attributes through which one qbflow layer
calls another.  Where a function is imported by name into other modules,
every binding is replaced, so calls through ``histories.propagate_mixture``
and ``gaussian_engine.propagate_mixture`` land in the same span name.
Spans (name, start, end, parent, op id, error flag) are kept in memory and
written out once, when the benchmark ends.  ``remove`` puts every original
binding back; an untraced run never calls ``install``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (span name, defining module, attribute).  "Class.method" attributes are
# wrapped on the class.  histories calls the split-step through its own
# by-name binding of grid_engine._propagate_density_split_raw.
TARGETS = (
    ("grid_engine.split_step", "qbflow.grid_engine", "_propagate_density_split_raw"),
    ("grid_engine.density_matrix_from_state", "qbflow.grid_engine", "density_matrix_from_state"),
    ("grid_engine.propagate_wigner_qbm", "qbflow.grid_engine", "propagate_wigner_qbm"),
    ("grid_engine.wigner_grid_from_state", "qbflow.grid_engine", "wigner_grid_from_state"),
    ("gaussian_engine.propagate_mixture", "qbflow.gaussian_engine", "propagate_mixture"),
    ("gaussian_engine.evaluate_state", "qbflow.gaussian_engine", "evaluate_state"),
    ("lindblad_dynamics.continuity_residual", "qbflow.lindblad_dynamics", "continuity_residual"),
    ("histories.class_operator_probability", "qbflow.histories", "class_operator_probability"),
    ("histories.f_integral", "qbflow.histories", "f_integral"),
    ("histories.decoherence_verdict", "qbflow.histories", "decoherence_verdict"),
    ("histories.delta_exact", "qbflow.histories", "delta_exact"),
    ("histories.delta_free", "qbflow.histories", "delta_free"),
    ("histories.delta_intermediate", "qbflow.histories", "delta_intermediate"),
    ("histories.delta_strong", "qbflow.histories", "delta_strong"),
    ("arrival.backflow_scan", "qbflow.arrival", "backflow_scan"),
    ("arrival.arrival_current", "qbflow.arrival", "arrival_current"),
    ("arrival.arrival_probability", "qbflow.arrival", "arrival_probability"),
    ("arrival.PovmEffect.expectation", "qbflow.arrival", "PovmEffect.expectation"),
    ("arrival.arrival_probability_stochastic", "qbflow.arrival", "arrival_probability_stochastic"),
    ("scenario_cli.run_scenario", "qbflow.scenario_cli", "run_scenario"),
    ("scenario_cli.load_config", "qbflow.scenario_cli", "load_config"),
)

SPLIT = "grid_engine.split_step"
COP = "histories.class_operator_probability"

# Metrics beyond (calls, self_s, errors) per span name.
EXTRA_METRICS = (
    (SPLIT + ".grid_n", "count", "lower"),
    (SPLIT + ".n_over_requested", "ratio", "lower"),
    (SPLIT + ".flops_computed", "flop", "lower"),
    (SPLIT + ".bytes_computed", "B", "lower"),
    (SPLIT + ".gflops", "GFLOP/s", "higher"),
    ("histories.f_integral.points", "count", "lower"),
    ("gaussian_engine.evaluate_state.points", "count", "lower"),
    ("arrival.arrival_probability.quad_evals", "count", "lower"),
    ("arrival.march_steps", "count", "lower"),
    ("scenario_cli.bytes_written", "B", "lower"),
    ("setup.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_specs() -> list:
    """(name, unit, better) for every per-layer metric the traced run prints."""
    out = []
    for name, _, _ in TARGETS:
        out += [
            (name + ".calls", "count", "lower"),
            (name + ".self_s", "s", "lower"),
            (name + ".errors", "count", "lower"),
        ]
    return out + list(EXTRA_METRICS)


def split_step_cost(n: int, noisy: bool) -> tuple:
    """(flops, bytes) of one n x n density split-step, from array sizes.

    Four complex fft2 of N = n^2 points at 5 N log2 N flops each; bytes are
    one read and one write of N complex128 per FFT plus read-read-write for
    each elementwise kernel product (two free half-steps, and the two noise
    factors when D > 0).  Cache misses and kernel construction are ignored,
    so both numbers are labelled computed.
    """
    big_n = n * n
    flops = 4 * 5.0 * big_n * math.log2(big_n)
    products = 4 if noisy else 2
    return flops, (4 * 2 + products * 3) * 16.0 * big_n


class Recorder:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id, error]
        self.passes = []         # finished span lists, kept for dump()
        self.counters = defaultdict(float)
        self.op = None
        self._stack = []
        self._saved = []         # (owner, attribute, original)
        self._requested_n = None

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every target with a recording wrapper."""
        if self._saved:
            raise RuntimeError("recorder already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qbflow" or name.startswith("qbflow.")]
        hooks = self._hooks()
        for span_name, mod_name, attr in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._replace(cls, meth, self._wrap(span_name, original, hooks.get(span_name)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original, hooks.get(span_name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def remove(self) -> None:
        """Restore every original binding, in reverse order of installation."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def _replace(self, owner, key, wrapper) -> None:
        self._saved.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec._stack[-1] if rec._stack else -1
            span = [name, 0.0, 0.0, parent, rec.op, False]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            if hook is not None:
                hook(args, kwargs)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                rec._stack.pop()

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    def _hooks(self) -> dict:
        """Counters taken at call time, keyed by span name.

        Each hook reads its arguments by the wrapped function's position
        and keyword names, e.g. ``_propagate_density_split_raw(values, axis,
        t, params, ...)``.
        """
        import numpy as np

        c = self.counters

        def arg(args, kwargs, pos, key, default=None):
            return args[pos] if len(args) > pos else kwargs.get(key, default)

        def parent_name():
            parent = self._stack[-2] if len(self._stack) > 1 else -1
            return self.spans[parent][0] if parent >= 0 else None

        def split_step(args, kwargs):
            n = int(arg(args, kwargs, 0, "values").shape[0])
            flops, nbytes = split_step_cost(n, arg(args, kwargs, 3, "params").D > 0.0)
            c[SPLIT + ".grid_n"] = max(c[SPLIT + ".grid_n"], n)
            if self._requested_n:
                c[SPLIT + ".n_over_requested"] = max(
                    c[SPLIT + ".n_over_requested"], n / self._requested_n
                )
            c[SPLIT + ".flops_computed"] += flops
            c[SPLIT + ".bytes_computed"] += nbytes

        def class_op(args, kwargs):
            # class_operator_probability(state, intervals, params, eps, n, ...)
            self._requested_n = arg(args, kwargs, 4, "n") or 1024

        def f_integral(args, kwargs):
            c["histories.f_integral.points"] += np.size(arg(args, kwargs, 0, "u"))

        def evaluate_state(args, kwargs):
            c["gaussian_engine.evaluate_state.points"] += np.broadcast(
                np.asarray(arg(args, kwargs, 1, "p")), np.asarray(arg(args, kwargs, 2, "q"))
            ).size

        def arrival_current(_args, _kwargs):
            if parent_name() == "arrival.arrival_probability":
                c["arrival.arrival_probability.quad_evals"] += 1

        def propagate_wigner(_args, _kwargs):
            if parent_name() == "arrival.arrival_probability_stochastic":
                c["arrival.march_steps"] += 1

        return {
            SPLIT: split_step,
            COP: class_op,
            "histories.f_integral": f_integral,
            "gaussian_engine.evaluate_state": evaluate_state,
            "arrival.arrival_current": arrival_current,
            "grid_engine.propagate_wigner_qbm": propagate_wigner,
        }

    # -- reduction --------------------------------------------------------

    def reset(self) -> None:
        """Forget spans and counters (between passes); keeps the wrappers."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans = []
        self.counters.clear()
        self._requested_n = None

    def layer_totals(self) -> dict:
        """calls, self_s and errors per span name, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _err in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for span_name, _, _ in TARGETS:
            out[span_name + ".calls"] = 0
            out[span_name + ".self_s"] = 0.0
            out[span_name + ".errors"] = 0
        for (name, start, end, _parent, _op, err), covered in zip(self.spans, child):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - covered
            out[name + ".errors"] += int(err)
        out.update(self.counters)
        split_s = out[SPLIT + ".self_s"]
        out[SPLIT + ".gflops"] = (
            out.get(SPLIT + ".flops_computed", 0.0) / split_s / 1e9 if split_s > 0 else 0.0
        )
        return out

    def dump(self, path) -> None:
        """Write the kept span lists (set-up, then each traced pass) as JSON."""
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "error"],
                 "passes": self.passes},
                fh,
            )
