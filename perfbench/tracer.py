"""Spans and counters around freewalk's layers, installed from outside.

`Tracer.install()` rebinds the layer functions of the imported freewalk
modules to timed wrappers.  A name bound with `from ... import` in another
module is a second reference to the same function, so every freewalk
module attribute that is the original function is rebound, not just the
defining one.  Spans are kept in memory as (name, start, end, parent) and
written as JSONL by `flush`; a layer's self time is its spans' duration
minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from freewalk import ancona, automaton, engine, green, groups, measures, parabolic, tauberian

# counts that depend only on the workload and its budgets, never on timing
EXACT_COUNTS = (
    "engine.elements", "engine.dp_steps", "engine.dp_states", "engine.dp_edges",
    "engine.green_field_calls", "green.pair_matrix_cells", "groups.multiply_calls",
    "measures.dict_fallback_calls", "engine.budget_exceeded",
)

# self-time metric -> span name
SPAN_METRICS = {
    "engine.build_s": "engine.build",
    "engine.inverse_perm_s": "engine.inverse_perm",
    "engine.dp_step_s": "engine.dp_step",
    "engine.pairing_s": "engine.pruned_power_sequence",
    "engine.green_field_s": "engine.green_field",
    "engine.absorbed_profile_s": "engine.absorbed_profile",
    "green.pair_matrix_s": "green.pair_matrix_ids",
    "green.spectral_radius_s": "green.spectral_radius",
    "green.pruned_return_weights_s": "green.pruned_return_weights",
    "measures.return_sequence_s": "measures.return_sequence",
    "parabolic.kernel_power_s": "parabolic.kernel_power_series",
    "parabolic.classify_s": "parabolic.classify",
    "parabolic.equadiff_s": "parabolic.equadiff_table",
    "automaton.build_s": "automaton.build",
    "automaton.verify_s": "automaton.verify_structure",
    "ancona.triangle_s": "ancona.triangle_audit",
    "ancona.ratio_s": "ancona.ratio_audit",
    "tauberian.fit_s": "tauberian.fit_llt_exponent",
}


def _ratio(hits: int, requests: int) -> float:
    return hits / requests if requests else 0.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen_budget_errors: set[int] = set()

    @contextmanager
    def span(self, name: str):
        rec = [name, time.monotonic(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except engine.BudgetExceededError as exc:
            if id(exc) not in self._seen_budget_errors:
                self._seen_budget_errors.add(id(exc))
                self.counts["engine.budget_exceeded"] += 1
            raise
        finally:
            rec[2] = time.monotonic()
            self._stack.pop()

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out

    def flush(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent}) + "\n")

    def layer_metrics(self) -> dict:
        """Every per-layer metric except the two the worker adds
        (build_peak_bytes_per_elem, trace.overhead_frac)."""
        st, c = self.self_times(), self.counts
        out = {metric: float(st[span]) for metric, span in SPAN_METRICS.items()}
        for name in EXACT_COUNTS + ("engine.inverse_perm_calls", "green.field_requests",
                                    "measures.table_requests", "parabolic.kernel_power_calls",
                                    "automaton.cone_types", "automaton.vertices"):
            out[name] = c[name]
        out["engine.build_us_per_elem"] = (
            1e6 * out["engine.build_s"] / c["engine.elements"] if c["engine.elements"] else 0.0
        )
        out["green.field_hit_ratio"] = _ratio(c["green.field_hits"], c["green.field_requests"])
        out["measures.table_hit_ratio"] = _ratio(c["measures.table_hits"],
                                                 c["measures.table_requests"])
        out["parabolic.absorption_hit_ratio"] = _ratio(c["parabolic.absorption_hits"],
                                                       c["parabolic.absorption_requests"])
        return out

    # -- instrumentation --------------------------------------------------------

    def install(self) -> None:
        c = self.counts

        def timed(name, fn, count=None):
            def wrapper(*args, **kwargs):
                if count:
                    c[count] += 1
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper

        def build(orig):
            def wrapper(table, max_elements):
                with self.span("engine.build"):
                    orig(table, max_elements)
                c["engine.builds"] += 1
                c["engine.elements"] += table.size
            return wrapper

        def step(orig):
            def wrapper(table, w, col_weights, bound):
                with self.span("engine.dp_step"):
                    out = orig(table, w, col_weights, bound)
                with self.span("trace.bookkeeping"):
                    used = [j for j, cj in enumerate(col_weights) if cj != 0]
                    c["engine.dp_steps"] += 1
                    if bound is None or bound >= table.cap:
                        cols = table.columns()
                        c["engine.dp_states"] += table.size
                        c["engine.dp_edges"] += sum(len(cols[j][0]) for j in used)
                    else:
                        live = int(np.count_nonzero(w))
                        c["engine.dp_states"] += live
                        c["engine.dp_edges"] += live * len(used)
                return out
            return wrapper

        def table(orig):
            def wrapper(measure, cap, max_elements=None):
                before = c["engine.builds"]
                with self.span("measures.table"):
                    out = orig(measure, cap, max_elements)
                c["measures.table_requests"] += 1
                c["measures.table_hits"] += c["engine.builds"] == before
                return out
            return wrapper

        def field(orig):
            def wrapper(measure, r_values, order, radius):
                before = c["engine.green_field_calls"]
                with self.span("green.field"):
                    out = orig(measure, r_values, order, radius)
                c["green.field_requests"] += 1
                c["green.field_hits"] += c["engine.green_field_calls"] == before
                return out
            return wrapper

        built_pairs: set[int] = set()

        def pair_ids(orig):
            # a cached result hands back the same pair array; count each array once
            def wrapper(measure, m, B, radius):
                with self.span("green.pair_matrix_ids"):
                    out = orig(measure, m, B, radius)
                if id(out[3]) not in built_pairs:
                    built_pairs.add(id(out[3]))
                    c["green.pair_matrix_cells"] += out[3].size
                return out
            return wrapper

        def absorption(orig):
            def wrapper(measure, k, horizon, radius):
                before = c["engine.absorbed_profile_calls"]
                with self.span("parabolic.absorption"):
                    out = orig(measure, k, horizon, radius)
                c["parabolic.absorption_requests"] += 1
                c["parabolic.absorption_hits"] += c["engine.absorbed_profile_calls"] == before
                return out
            return wrapper

        def auto_build(orig):
            def wrapper(*args, **kwargs):
                with self.span("automaton.build"):
                    out = orig(*args, **kwargs)
                c["automaton.cone_types"] += len(out.cone_types)
                c["automaton.vertices"] += len(out.vertices)
                return out
            return wrapper

        def multiply(orig):
            def wrapper(group, a, b):
                c["groups.multiply_calls"] += 1
                return orig(group, a, b)
            return wrapper

        patches = [
            (engine.BallTable, "_build", build),
            (engine.BallTable, "inverse_perm",
             lambda f: timed("engine.inverse_perm", f, "engine.inverse_perm_calls")),
            (engine, "_step", step),
            (engine, "pruned_power_sequence",
             lambda f: timed("engine.pruned_power_sequence", f)),
            (engine, "green_field",
             lambda f: timed("engine.green_field", f, "engine.green_field_calls")),
            (engine, "absorbed_profile",
             lambda f: timed("engine.absorbed_profile", f, "engine.absorbed_profile_calls")),
            (measures.Measure, "table", table),
            (measures, "return_sequence", lambda f: timed("measures.return_sequence", f)),
            (measures, "_dict_power_sequence",
             lambda f: timed("measures.dict_power_sequence", f, "measures.dict_fallback_calls")),
            (green, "_field", field),
            (green, "_pair_matrix_ids", pair_ids),
            (green, "spectral_radius", lambda f: timed("green.spectral_radius", f)),
            (green, "pruned_return_weights", lambda f: timed("green.pruned_return_weights", f)),
            (parabolic, "_absorption", absorption),
            (parabolic, "_kernel_power_series",
             lambda f: timed("parabolic.kernel_power_series", f, "parabolic.kernel_power_calls")),
            (parabolic, "classify", lambda f: timed("parabolic.classify", f)),
            (parabolic, "equadiff_table", lambda f: timed("parabolic.equadiff_table", f)),
            (automaton, "_build", auto_build),
            (automaton, "verify_structure", lambda f: timed("automaton.verify_structure", f)),
            (groups.FreeProduct, "multiply", multiply),
            (ancona, "triangle_audit", lambda f: timed("ancona.triangle_audit", f)),
            (ancona, "ratio_audit", lambda f: timed("ancona.ratio_audit", f)),
            (tauberian, "fit_llt_exponent", lambda f: timed("tauberian.fit_llt_exponent", f)),
        ]
        for owner, attr, make in patches:
            orig = getattr(owner, attr)
            wrapped = make(orig)
            setattr(owner, attr, wrapped)
            if not isinstance(owner, type):
                _rebind_imported(orig, wrapped)


def _rebind_imported(orig, wrapped) -> None:
    """Point every freewalk module global that names `orig` at `wrapped`."""
    for name, mod in list(sys.modules.items()):
        if name == "freewalk" or name.startswith("freewalk."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)
