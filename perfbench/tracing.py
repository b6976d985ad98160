"""Spans around the package's functions, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module (and
the public methods of the classes defined there) with a wrapper that records
a span: name, start, end, parent span and call id. Spans stay in memory and
are written out when the run ends. Nothing under ``src/`` knows about this.

``layer_metrics`` turns one traced pass into the per-layer metrics; the
names and the end-to-end metric each one should move are listed in
``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "covmodel", "decoupling", "szego", "brascamp", "verify")

# Private functions wrapped as well: each Philox sampling pass happens here.
EXTRA = {"verify": ("_product_moments",)}

BUILD_FUNCS = {
    "covmodel.from_stationary",
    "covmodel.hilbert_covariance",
    "covmodel.build_dense",
    "covmodel.from_moving_average",
    "covmodel.sparse_support_covariance",
}
GAMMA_FUNCS = {
    "covmodel.inverse_power_gamma_sequence",
    "covmodel.inverse_power_gamma",
    "covmodel.MovingAverageSpec.autocovariance",
    "covmodel.SparseSupportSpec.autocovariance",
}
SYMBOL_FUNCS = {
    "covmodel.symbol_from_name",
    "covmodel.symbol_from_grid",
    "covmodel.constant_symbol",
    "covmodel.ma1_symbol",
    "covmodel.inverse_power_symbol",
}
SAMPLING_FUNCS = {"verify._product_moments", "verify.sample_gaussian"}
# Spans that keep a few numbers read from their arguments (sizes) or result.
SIZED_FUNCS = BUILD_FUNCS | SAMPLING_FUNCS
RESULT_FUNCS = {"szego.szego_asymptote", "brascamp.eb_optimize"} | SYMBOL_FUNCS


def _facts(name: str, bound: dict, result) -> dict:
    """Counts read from a span's bound arguments and result, as plain numbers."""
    facts = {}
    if name in SAMPLING_FUNCS:
        facts["dim"] = int(bound["C"].n)
        facts["samples"] = int(bound["n_samples"])
    elif name == "covmodel.build_dense":
        facts["dim"] = len(bound["entries"])
    elif name in BUILD_FUNCS:
        facts["dim"] = int(bound["n"])
    if result is None:
        return facts
    if name == "szego.szego_asymptote":
        facts["exact"] = getattr(result, "exact_log_det", None) is not None
    elif name == "brascamp.eb_optimize":
        facts["iters"] = int(getattr(result, "n_iter", 0))
        facts["converged"] = bool(getattr(result, "converged", False))
    elif name in SYMBOL_FUNCS:
        grid = getattr(result, "grid", None)
        facts["points"] = 0 if grid is None else int(grid.size)
    return facts


class Tracer:
    """Records spans; one instance per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, call_id, ok, facts]
        self._stack = []
        self.call_id = -1

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn) if name in SIZED_FUNCS else None
        keeps_facts = name in SIZED_FUNCS or name in RESULT_FUNCS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id, True, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[5] = False
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if keeps_facts:
                    bound = sig.bind(*args, **kwargs).arguments if sig is not None else {}
                    span[6] = _facts(name, bound, result)

        return wrapper

    def install(self) -> list:
        """Wrap the layer modules' functions in place; returns the span names."""
        wrappers, names = {}, []
        for layer in LAYERS:
            mod = importlib.import_module(f"gaussdecoup.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if inspect.isfunction(obj) and public:
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                    names.append(f"{layer}.{attr}")
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
                            names.append(f"{layer}.{attr}.{meth}")
        # Rebind every reference to a wrapped function: module globals (which
        # covers `from .x import f` copies) and dispatch tables held in dicts.
        for name, mod in list(sys.modules.items()):
            if name != "gaussdecoup" and not name.startswith("gaussdecoup."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and id(val) in wrappers:
                            obj[key] = wrappers[id(val)]
        return sorted(names)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, call_id, ok, facts) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                       "call": call_id, "ok": ok, "facts": facts or {}}
                fh.write(json.dumps(rec) + "\n")


def read_spans(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _outermost(spans: list, names: set) -> list:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    out = []
    for s in spans:
        if s["name"] not in names:
            continue
        parent = s["parent"]
        while parent >= 0 and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent < 0:
            out.append(s)
    return out


def _total(spans: list) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def self_times(spans: list) -> dict:
    """Self time per layer: each span's duration minus its direct children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    per_layer = {layer: 0.0 for layer in LAYERS}
    for s, c in zip(spans, child):
        per_layer[s["name"].split(".", 1)[0]] += (s["end"] - s["start"]) - c
    return per_layer


def _has_ancestor(spans: list, s: dict, name: str) -> bool:
    parent = s["parent"]
    while parent >= 0:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(spans: list, requested_draws: int) -> dict:
    """Per-layer metrics of one traced pass of a workload's call list.

    ``requested_draws`` is the sum over verify points of samples x dimension,
    the Gaussian draws a single pass per point would make.
    """

    def named(name):
        return [s for s in spans if s["name"] == name]

    def outer_time(names):
        return _total(_outermost(spans, set(names)))

    builds = _outermost(spans, BUILD_FUNCS)
    symbols = _outermost(spans, SYMBOL_FUNCS)
    asymptotes = named("szego.szego_asymptote")
    solves = named("brascamp.eb_optimize")
    objective_in_solve = [
        s for s in named("brascamp.eb_objective") if _has_ancestor(spans, s, "brascamp.eb_optimize")
    ]
    passes = _outermost(spans, SAMPLING_FUNCS)
    draws = sum(s["facts"]["samples"] * s["facts"]["dim"] for s in passes)
    gemm = sum(2.0 * s["facts"]["samples"] * s["facts"]["dim"] ** 2 for s in passes)
    selfs = self_times(spans)

    m = {
        "covmodel.build_s": _total(builds),
        "covmodel.builds": len(builds),
        "covmodel.build_ok_ratio": (sum(s["ok"] for s in builds) / len(builds)) if builds else 1.0,
        "covmodel.matrix_mb": sum(8.0 * s["facts"]["dim"] ** 2 for s in builds) / 1e6,
        "covmodel.gamma_s": outer_time(GAMMA_FUNCS),
        "covmodel.symbol_s": _total(symbols),
        "covmodel.symbol_points": sum(s["facts"].get("points", 0) for s in symbols),
        "decoupling.bound_s": outer_time({"decoupling.decoupling_bound"}),
        "decoupling.refined_s": outer_time({"decoupling.refined_constant"}),
        "decoupling.coef_calls": len(named("decoupling.decoupling_coefficient"))
        + len(named("decoupling.stationary_decoupling_coefficient")),
        "szego.asymptote_s": _total(asymptotes),
        "szego.exact_dets": sum(bool(s["facts"].get("exact")) for s in asymptotes),
        "szego.logsym_s": outer_time({"szego.log_symbol_coefficients"}),
        "brascamp.matrix_B_s": outer_time({"brascamp.matrix_B"}),
        "brascamp.eb_s": _total(solves),
        "brascamp.starts_per_solve": len(objective_in_solve) / len(solves) if solves else 0.0,
        "brascamp.iters": sum(s["facts"].get("iters", 0) for s in solves),
        "brascamp.converged_ratio": (
            sum(bool(s["facts"].get("converged")) for s in solves) / len(solves)
            if solves else 1.0
        ),
        "verify.theorem1_s": outer_time({"verify.verify_theorem1"}),
        "verify.khatri_sidak_s": outer_time({"verify.verify_khatri_sidak"}),
        "verify.kls_s": outer_time({"verify.verify_kls"}),
        "verify.marginal_s": outer_time({"verify.marginal_p_norm"}),
        "verify.draws_per_requested": draws / requested_draws if requested_draws else 0.0,
        "verify.gemm_gflop": gemm / 1e9,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfs[layer]
    return m
