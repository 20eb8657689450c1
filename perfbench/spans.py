"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: the tracer replaces module
attributes that callers look up at call time (``consyn.cli.integrate``,
``consyn.lmi.solve``, ...) with timing wrappers, and puts the originals back
afterwards. A binding missing from the program (renamed or removed by a
refactor) is skipped and listed, so the traced run keeps working.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (module, attribute) pairs wrapped with a span. Every binding a caller
# actually goes through is listed, since `from x import f` copies f.
SPANNED = (
    ("consyn.cli", "main"),
    ("consyn.cli", "design_leaderless"),
    ("consyn.cli", "design_hinf"),
    ("consyn.cli", "design_leader_follower"),
    ("consyn.cli", "inject_certificate"),
    ("consyn.cli", "integrate"),
    ("consyn.cli", "lyapunov_diag"),
    ("consyn.cli", "hinf_cost"),
    ("consyn.cli", "write_csv"),
    ("consyn.cli", "spectra"),
    ("consyn.cli", "classify"),
    ("consyn.cli", "leader_follower_data"),
    ("consyn.cli", "left_perron"),
    ("consyn.lmi", "solve"),
    ("consyn.lmi", "verify"),
    ("consyn.sim", "classify"),
    ("consyn.sim", "left_perron"),
    ("consyn.graph", "spectra"),
    ("consyn.graph", "classify"),
    ("consyn.graph", "left_perron"),
    ("consyn.graph", "leader_follower_data"),
)
# The scipy minimiser lmi calls: counted (nfev, runs) on the enclosing span,
# not given a span of its own, so lmi self time includes it.
COUNTED = (("consyn.lmi", "minimize"),)


def _layer(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "consyn" else parts[0]


def _solve_hook(span, args, kwargs, result):
    span["attrs"]["feasible"] = bool(getattr(result, "feasible", False))


def _integrate_hook(span, args, kwargs, result):
    scenario = args[0] if args else kwargs.get("scenario")
    dist = getattr(getattr(scenario, "disturbance", None), "kind", "none")
    span["attrs"]["steps"] = int(len(result.times) - 1)
    span["attrs"]["disturbed"] = dist != "none"


def _write_csv_hook(span, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    span["attrs"]["bytes"] = os.path.getsize(path)


# Every per-layer metric with its unit, in the order BENCHMARK.json lists
# them. A layer the workload never enters reports 0.
PER_LAYER = {
    "lmi.solve_s": "s", "lmi.solve_calls": "count", "lmi.nfev": "count",
    "lmi.inner_runs": "count", "lmi.verify_s": "s",
    "lmi.infeasible_solve_s": "s", "lmi.feasible_ratio": "share",
    "lmi.self_s": "s",
    "sim.integrate_s": "s", "sim.rk4_steps": "count",
    "sim.step_us.undisturbed": "us", "sim.step_us.disturbed": "us",
    "sim.lyapunov_s": "s", "sim.hinf_cost_s": "s", "sim.write_csv_s": "s",
    "sim.csv_bytes": "bytes", "sim.self_s": "s",
    "graph.spectra_s": "s", "graph.spectra_calls": "count",
    "graph.classify_calls": "count", "graph.left_perron_calls": "count",
    "graph.leader_follower_s": "s", "graph.self_s": "s",
    "synthesis.design_s": "s", "synthesis.self_s": "s",
    "cli.self_s": "s", "cli.report_bytes": "bytes",
    "trace.spans": "count", "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}

HOOKS = {"solve": _solve_hook, "integrate": _integrate_hook,
         "write_csv": _write_csv_hook}


class Tracer:
    """Records spans while an operation is open; passes through otherwise."""

    def __init__(self):
        self.spans: list[dict] = []
        self.trace_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.skipped: list[str] = []

    def install(self) -> None:
        for mod_name, attr in SPANNED + COUNTED:
            module = sys.modules.get(mod_name)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                self.skipped.append(f"{mod_name}.{attr}")
                continue
            wrap = self._counted if (mod_name, attr) in COUNTED else self._span
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrap(f"{mod_name}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def begin(self, trace_id) -> None:
        self.trace_id = trace_id

    def end(self) -> None:
        self.trace_id = None
        self._stack.clear()

    def _span(self, name, fn):
        layer = _layer(fn)
        hook = HOOKS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.trace_id is None:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "trace": self.trace_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "name": name, "fn": fn.__name__, "layer": layer,
                    "start": time.perf_counter(), "end": None, "attrs": {}}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.trace_id is not None and self._stack:
                attrs = self.spans[self._stack[-1]]["attrs"]
                attrs["nfev"] = attrs.get("nfev", 0) + int(result.nfev)
                attrs["inner_runs"] = attrs.get("inner_runs", 0) + 1
            return result
        return wrapper


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in spans}


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced operation."""
    own = self_times(spans)
    tot = defaultdict(float)

    def add(key, value):
        tot[key] += value

    for s in spans:
        dur = s["end"] - s["start"]
        fn, layer, attrs = s["fn"], s["layer"], s["attrs"]
        if layer != "synthesis":
            add(f"{layer}.self_s", own[s["id"]])
        if layer == "lmi" and fn == "solve":
            add("lmi.solve_s", dur)
            add("lmi.solve_calls", 1)
            add("lmi.feasible_solves", attrs.get("feasible", False))
            if not attrs.get("feasible", False):
                add("lmi.infeasible_solve_s", dur)
            add("lmi.nfev", attrs.get("nfev", 0))
            add("lmi.inner_runs", attrs.get("inner_runs", 0))
        elif layer == "lmi" and fn == "verify":
            add("lmi.verify_s", dur)
        elif fn == "integrate":
            kind = "disturbed" if attrs.get("disturbed") else "undisturbed"
            add("sim.integrate_s", dur)
            add("sim.rk4_steps", attrs.get("steps", 0))
            add(f"sim.steps.{kind}", attrs.get("steps", 0))
            add(f"sim.integrate_s.{kind}", dur)
        elif fn == "lyapunov_diag":
            add("sim.lyapunov_s", dur)
        elif fn == "hinf_cost":
            add("sim.hinf_cost_s", dur)
        elif fn == "write_csv":
            add("sim.write_csv_s", dur)
            add("sim.csv_bytes", attrs.get("bytes", 0))
        elif fn == "spectra":
            add("graph.spectra_s", dur)
            add("graph.spectra_calls", 1)
        elif fn == "classify":
            add("graph.classify_calls", 1)
        elif fn == "left_perron":
            add("graph.left_perron_calls", 1)
        elif fn == "leader_follower_data":
            add("graph.leader_follower_s", dur)
        elif layer == "synthesis" and fn.startswith("design_"):
            # design time minus its lmi children; inject_certificate, the
            # other synthesis binding, is left in its caller's time
            add("synthesis.design_s", dur)
            add("synthesis.self_s", own[s["id"]])
        elif layer == "cli" and fn == "main":
            add("cli.report_bytes", attrs.get("report_bytes", 0))
    out = dict.fromkeys(PER_LAYER, 0.0)
    for kind in ("undisturbed", "disturbed"):
        steps = tot.pop(f"sim.steps.{kind}", 0)
        secs = tot.pop(f"sim.integrate_s.{kind}", 0.0)
        out[f"sim.step_us.{kind}"] = 1e6 * secs / steps if steps else 0.0
    calls = tot.get("lmi.solve_calls", 0)
    out["lmi.feasible_ratio"] = (tot.pop("lmi.feasible_solves", 0) / calls
                                 if calls else 0.0)
    for key, value in tot.items():
        if key in out:
            out[key] = value / n_ops
    out["trace.spans"] = len(spans) / n_ops
    return out
