"""Spans around calls into medscm's modules, installed from outside.

A traced round replaces the public functions named in LAYERS, wherever the
package holds a reference to them (module globals and registries such as
identify.FUNCTIONALS), by wrappers that record a span: name, start, end and
parent. ObservedLaw queries are counted. Counts the benchmark derives from a
model (units, distinct profiles, law cells, strata) are computed with the
numpy reference; that work is kept out of every span's time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

from reference import GridModel

MODEL_FACTORIES = (
    "thm1_counterexample", "thm2_counterexample", "thm3_counterexample",
    "pe_counterexample", "separable_scm", "additive_outcome_scm", "random_scm",
    "random_additive_scm", "random_separable_scm", "random_null_mediator_scm",
    "scm_from_json", "scm_from_dict",
)

LAYERS = {
    "engine": ("profiles", "observational_law", "g_draw_mean", "h_draw_mean"),
    "effects": ("effect_report",),
    "identify": ("psi_te", "psi_cde", "psi_pe", "psi_nie", "psi_nie_r_L", "psi_nie_rl",
                 "check_assumption"),
    "criteria": ("null_status", "criterion_verdicts", "reproduce"),
    "sample": ("draw_samples", "write_csv", "read_csv", "empirical_law", "estimate"),
    "cli": ("main",),
}

LAW_QUERIES = ("prob", "cond_prob", "mean_y")

# metric -> (unit, kind, span or counter name); kind is total time of the
# outermost spans of that name, their count, their self time, or a counter
PER_LAYER = {
    "model.build.s": ("s", "total", "model.build"),
    "model.build.calls": ("count", "calls", "model.build"),
    "engine.profiles.s": ("s", "total", "engine.profiles"),
    "engine.profiles.units": ("count", "counter", "units"),
    "engine.profiles.distinct": ("count", "counter", "distinct"),
    "engine.profiles.cache_hits": ("count", "counter", "cache_hits"),
    "engine.profiles.cache_misses": ("count", "counter", "cache_misses"),
    "engine.observational_law.s": ("s", "total", "engine.observational_law"),
    "engine.law.cells": ("count", "counter", "law_cells"),
    "engine.g_draw_mean.s": ("s", "total", "engine.g_draw_mean"),
    "engine.h_draw_mean.s": ("s", "total", "engine.h_draw_mean"),
    "engine.strata": ("count", "counter", "strata"),
    "effects.effect_report.self_s": ("s", "self", "effects.effect_report"),
    "identify.psi_te.s": ("s", "total", "identify.psi_te"),
    "identify.psi_cde.s": ("s", "total", "identify.psi_cde"),
    "identify.psi_nie.s": ("s", "total", "identify.psi_nie"),
    "identify.psi_nie_r_L.s": ("s", "total", "identify.psi_nie_r_L"),
    "identify.psi_nie_rl.s": ("s", "total", "identify.psi_nie_rl"),
    "identify.law_queries": ("count", "counter", "law_queries"),
    "identify.check_assumption.s": ("s", "total", "identify.check_assumption"),
    "criteria.null_status.s": ("s", "total", "criteria.null_status"),
    "criteria.criterion_verdicts.s": ("s", "total", "criteria.criterion_verdicts"),
    "criteria.reproduce.self_s": ("s", "self", "criteria.reproduce"),
    "sample.draw_samples.s": ("s", "total", "sample.draw_samples"),
    "sample.write_csv.s": ("s", "total", "sample.write_csv"),
    "sample.read_csv.s": ("s", "total", "sample.read_csv"),
    "sample.empirical_law.s": ("s", "total", "sample.empirical_law"),
    "sample.estimate.self_s": ("s", "self", "sample.estimate"),
    "sample.estimate.replicates": ("count", "counter", "replicates"),
    "cli.main.self_s": ("s", "self", "cli.main"),
}


class Tracer:
    """Span recorder for traced rounds; spans stay in memory until the run
    ends."""

    def __init__(self):
        # span: [name, start, end, parent index, nested in a span of the same
        # name, bench seconds at start, bench seconds at end]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.rounds = 0
        self.bench_s = 0.0     # time of the benchmark's own counting, kept out of spans
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._grids: dict[int, tuple] = {}
        self._undo: list = []
        self._profiles = None

    # -- installation -------------------------------------------------------

    def begin_round(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "medscm" or n.startswith("medscm.")}
        targets = [("model", name, "model.build", None) for name in MODEL_FACTORIES]
        hooks = {
            "profiles": self._after_profiles, "observational_law": self._after_law,
            "g_draw_mean": self._after_draw, "h_draw_mean": self._after_draw,
            "estimate": self._after_estimate,
        }
        targets += [(layer, name, f"{layer}.{name}", hooks.get(name))
                    for layer, names in LAYERS.items() for name in names]
        self._profiles = getattr(mods["medscm.engine"], "profiles", None)
        self._cache_before = self._cache_info()
        for layer, name, span, hook in targets:
            orig = getattr(mods.get(f"medscm.{layer}"), name, None)
            if orig is None:
                continue
            self._replace(mods.values(), orig, self._wrap(span, orig, hook))
        law_cls = mods["medscm.engine"].ObservedLaw
        for name in LAW_QUERIES:
            orig = getattr(law_cls, name)
            setattr(law_cls, name, self._counting(orig))
            self._undo.append((setattr, law_cls, name, orig))

    def end_round(self) -> None:
        for restore, where, key, orig in reversed(self._undo):
            restore(where, key, orig)
        self._undo = []
        hits, misses = self._cache_info()
        self.counters["cache_hits"] += hits - self._cache_before[0]
        self.counters["cache_misses"] += misses - self._cache_before[1]
        self._grids.clear()
        self.rounds += 1

    def _cache_info(self) -> tuple[int, int]:
        info = getattr(self._profiles, "cache_info", None)
        return (info().hits, info().misses) if info else (0, 0)

    def _replace(self, modules, orig, wrapper) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, orig))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is orig:
                            value[dkey] = wrapper
                            self._undo.append((dict.__setitem__, value, dkey, orig))

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        tracer = self
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack, active = tracer.spans, tracer._stack, tracer._active
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] > 0,
                   tracer.bench_s, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                active[name] -= 1
                stack.pop()
                rec[6] = tracer.bench_s
            if hook:
                t0 = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments)
                tracer.bench_s += time.perf_counter() - t0
            return result

        return wrapper

    def _counting(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters["law_queries"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counts from the numpy reference -------------------------------------

    def _grid(self, model) -> tuple:
        entry = self._grids.get(id(model))
        if entry is None:
            entry = (model, GridModel(model), {})
            self._grids[id(model)] = entry
        return entry

    def _after_profiles(self, args) -> None:
        model, grid, seen = self._grid(args["model"])
        if not seen.get("profiles"):
            seen["profiles"] = True
            self.counters["units"] += grid.w.size
            self.counters["distinct"] += grid.distinct_profiles()

    def _after_law(self, args) -> None:
        self.counters["law_cells"] += len(self._grid(args["model"])[1].law())

    def _after_draw(self, args) -> None:
        grid = self._grid(args["model"])[1]
        self.counters["strata"] += grid.strata(args.get("conditioning", "C"), args["a_draw"])

    def _after_estimate(self, args) -> None:
        self.counters["replicates"] += args["n_boot"]

    # -- reduction ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per traced round."""
        effective = [(s[2] - s[1]) - (s[6] - s[5]) for s in self.spans]
        children = [0.0] * len(self.spans)
        for s, eff in zip(self.spans, effective):
            if s[3] >= 0:
                children[s[3]] += eff
        total, calls, own = Counter(), Counter(), Counter()
        for i, s in enumerate(self.spans):
            own[s[0]] += effective[i] - children[i]
            if not s[4]:
                total[s[0]] += effective[i]
                calls[s[0]] += 1
        per = max(self.rounds, 1)
        source = {"total": total, "calls": calls, "self": own, "counter": self.counters}
        return {metric: (source[kind][key] / per, unit)
                for metric, (unit, kind, key) in PER_LAYER.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "bench_s": s[6] - s[5]}) + "\n")
