"""Spans around the public functions of every coxaffine module.

The tracer lives in the benchmark, not in the package: ``install`` replaces
each public function at every module name that binds it (so
``estimate.filter_kernel``, ``estimate.cir_transform_closed_form``,
``cox_dist.laplace_hazard`` and the names ``cli`` imports are all covered)
and wraps the arithmetic methods of ``Jet`` at class level, where they are
only counted: a span per jet operation would cost more than the operation.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

LAYERS = ("data_io", "estimate", "simulate", "cox_dist", "affine_core", "cli")
JET_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "exp", "expm1", "log", "log1p", "sqrt",
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same process, -1 at top level
    run_id: int
    units: float  # work units the call handled (steps, rows, coefficients, draws)
    ok: bool


def _kernel_units(args, out):
    return len(args[0]), math.isfinite(out[0]) and out[1] < 0


def _rows_units(args, out):
    return len(out) + out.n_rejected, True


def _pmf_units(args, out):
    return out.probs.size, True


def _draw_units(args, out):
    return getattr(args[1], "size", 1), True


_UNITS = {
    "estimate.filter_kernel": _kernel_units,
    "data_io.load_events": _rows_units,
    "cox_dist.pmf": _pmf_units,
    "simulate.sample_cir_transition": _draw_units,
}


class Tracer:
    """Records spans and counts for one process; ``reset`` starts a new run id."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    def reset(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()

    def wrap(self, name: str, fn):
        units = _UNITS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            index = len(self.spans)
            self.spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.spans[index] = Span(name, start, clock(), parent, self.run_id, 0, False)
                raise
            finally:
                stack.pop()
            end = clock()
            n, ok = units(args, out) if units else (0, True)
            self.spans[index] = Span(name, start, end, parent, self.run_id, n, ok)
            if name == "data_io.load_events":
                self.counts["data_io.load_events.rejected"] += out.n_rejected
            return out

        return traced

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        from coxaffine import _backend, jets

        modules = [importlib.import_module(f"coxaffine.{layer}") for layer in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        kernel = _backend.filter_kernel
        wrapped[id(kernel)] = (kernel, self.wrap("estimate.filter_kernel", kernel))

        for name, mod in list(sys.modules.items()):
            if not (name == "coxaffine" or name.startswith("coxaffine.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):  # dispatch tables such as cli._DISPATCH
                    for key, fn in list(value.items()):
                        hit = wrapped.get(id(fn))
                        if hit is not None and hit[0] is fn:
                            self._patched.append((value, key, fn))
                            value[key] = hit[1]
        for op in JET_OPS:
            original = jets.Jet.__dict__[op]
            self._patched.append((jets.Jet, op, original))
            setattr(jets.Jet, op, self.count("jets.ops", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched = []

    def dump(self, path) -> None:
        doc = {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def load(path) -> tuple:
    with open(path) as fh:
        doc = json.load(fh)
    return [Span(*s) for s in doc["spans"]], Counter(doc["counts"])


def _union(intervals) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list, wall: float) -> tuple:
    """Self time of each span, and of the process outside every span.

    A span's self time is its duration minus the part of it that its direct
    children cover; the process's is ``wall`` minus what top-level spans cover.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s.parent].append((s.start, s.end))
    own = []
    for i, s in enumerate(spans):
        inner = [(max(a, s.start), min(b, s.end)) for a, b in children[i]]
        own.append(s.end - s.start - _union([iv for iv in inner if iv[1] > iv[0]]))
    return own, wall - _union(children[-1])


def _under(spans: list, i: int, ancestor: str) -> bool:
    i = spans[i].parent
    while i >= 0:
        if spans[i].name == ancestor:
            return True
        i = spans[i].parent
    return False


# name -> unit, better; every traced run reports each of these
PER_LAYER = {
    "estimate.fit.s": ("s", "lower"),
    "estimate.filter_kernel.calls": ("count", "lower"),
    "estimate.filter_kernel.s": ("s", "lower"),
    "estimate.filter_kernel.ns_per_step": ("ns", "lower"),
    "estimate.filter_kernel.finite_ratio": ("ratio", "higher"),
    "estimate.objective_overhead_us": ("us", "lower"),
    "estimate.std_errors.s": ("s", "lower"),
    "estimate.std_errors.kernel_calls": ("count", "lower"),
    "estimate.simulate_observations.s": ("s", "lower"),
    "estimate.replication_study.s": ("s", "lower"),
    "data_io.load_events.s": ("s", "lower"),
    "data_io.load_events.us_per_row": ("us", "lower"),
    "data_io.load_events.rejected": ("count", "lower"),
    "data_io.aggregate.s": ("s", "lower"),
    "data_io.to_observable.s": ("s", "lower"),
    "simulate.sample_cir_transition.calls": ("count", "lower"),
    "simulate.sample_cir_transition.s": ("s", "lower"),
    "simulate.monte_carlo_pmf.s": ("s", "lower"),
    "simulate.simulate_path.s": ("s", "lower"),
    "simulate.simulate_arrivals.s": ("s", "lower"),
    "cox_dist.pmf.calls": ("count", "lower"),
    "cox_dist.pmf.s": ("s", "lower"),
    "cox_dist.pmf.us_per_coeff": ("us", "lower"),
    "affine_core.cir_transform_closed_form.calls": ("count", "lower"),
    "affine_core.cir_transform_closed_form.s": ("s", "lower"),
    "affine_core.solve_transform_ode.calls": ("count", "lower"),
    "affine_core.solve_transform_ode.s": ("s", "lower"),
    "jets.ops": ("count", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def op_metrics(traces: list) -> dict:
    """Per-layer figures of one workload operation.

    ``traces`` holds one ``(spans, counts, wall)`` per process the operation
    ran in; ``wall`` is the time a CLI child took up to the end of its last
    span, and None for work done inside the benchmark process.  Ratios over
    zero calls read 0.
    """
    k = "estimate.filter_kernel"
    calls, secs, units, counts = Counter(), Counter(), Counter(), Counter()
    finite = fit_kernel_s = fit_kernel_calls = se_kernel_calls = 0
    cli_self = 0.0
    for spans, cnt, wall in traces:
        counts.update(cnt)
        own, outside = self_times(spans, wall or 0.0)
        if wall is not None:
            cli_self += outside
        for i, s in enumerate(spans):
            dur = s.end - s.start
            calls[s.name] += 1
            secs[s.name] += dur
            units[s.name] += s.units
            if s.name.startswith("cli."):
                cli_self += own[i]
            if s.name == k:
                finite += bool(s.ok)
                if _under(spans, i, "estimate.fit"):
                    fit_kernel_s += dur
                    fit_kernel_calls += 1
                if _under(spans, i, "estimate.std_errors"):
                    se_kernel_calls += 1

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {
        "estimate.fit.s": secs["estimate.fit"],
        f"{k}.calls": calls[k],
        f"{k}.s": secs[k],
        f"{k}.ns_per_step": ratio(secs[k], units[k], 1e9),
        f"{k}.finite_ratio": ratio(finite, calls[k]),
        "estimate.objective_overhead_us": ratio(
            secs["estimate.fit"] - fit_kernel_s, fit_kernel_calls, 1e6
        ),
        "estimate.std_errors.s": secs["estimate.std_errors"],
        "estimate.std_errors.kernel_calls": se_kernel_calls,
        "data_io.load_events.us_per_row": ratio(
            secs["data_io.load_events"], units["data_io.load_events"], 1e6
        ),
        "data_io.load_events.rejected": counts["data_io.load_events.rejected"],
        "simulate.sample_cir_transition.calls": calls["simulate.sample_cir_transition"],
        "cox_dist.pmf.calls": calls["cox_dist.pmf"],
        "cox_dist.pmf.us_per_coeff": ratio(secs["cox_dist.pmf"], units["cox_dist.pmf"], 1e6),
        "affine_core.solve_transform_ode.calls": calls["affine_core.solve_transform_ode"],
        "jets.ops": counts["jets.ops"],
        "cli.self_s": cli_self,
    }
    out["affine_core.cir_transform_closed_form.calls"] = calls[
        "affine_core.cir_transform_closed_form"
    ]
    for name in (
        "estimate.simulate_observations", "estimate.replication_study",
        "data_io.load_events", "data_io.aggregate", "data_io.to_observable",
        "simulate.sample_cir_transition", "simulate.monte_carlo_pmf",
        "simulate.simulate_path", "simulate.simulate_arrivals", "cox_dist.pmf",
        "affine_core.cir_transform_closed_form", "affine_core.solve_transform_ode",
    ):
        out[f"{name}.s"] = secs[name]
    return out
