"""Span tracing of haarlab from outside the package.

`Tracer.install()` rebinds every traced function wherever a haarlab module
holds it: on its defining module, on each module that imported it by name
(`haarlab.search.testing_constants`, `haarlab.operators.tree_distance`),
in module-level dicts (`runner.SUITE_RUNNERS`), and, for methods, on the
defining class.  `uninstall()` restores every binding.

Spans (name, start, end, parent span, run id) stay in memory until `write`.
Hot leaf calls get no span: `Lattice.indicator` is only counted, and
`tree_distance` is counted and timed, its time charged to the enclosing
span as child time.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

from workloads import accepted_moves

MODULES = ("lattice", "measures", "operators", "paraproduct", "analysis",
           "search", "io", "runner")

SPAN_FUNCTIONS = {
    "lattice": ["build_lattice"],
    "measures": ["generate_measure"],
    "operators": ["random_band", "induce", "haar_system", "check_band",
                  "check_well_localized"],
    "paraproduct": ["build_paraproduct", "paraproduct_structure_verify",
                    "remainder_diagonals", "carleson_sequence",
                    "carleson_property", "carleson_constant",
                    "embedding_constant"],
    "analysis": ["operator_norm", "testing_constants", "decomposition_identity"],
    "search": ["extremal_search", "replay_artifact", "greedy_embedding_sequence"],
    "io": ["band_to_json", "band_from_json", "lattice_to_json",
           "lattice_from_json", "measure_from_json"],
    # run's own span keeps validation and the report and CSV writes; the
    # suites get spans of their own
    "runner": ["run", "suite_verify", "suite_testing", "suite_carleson",
               "suite_search", "suite_decompose"],
}
# (module, class, method); cached properties are traced on first access
SPAN_METHODS = [
    ("measures", "MeasureGrid", "weighted_haar_basis"),
    ("measures", "MeasureGrid", "martingale_difference"),
    ("measures", "MeasureGrid", "martingale_decompose"),
    ("measures", "MeasureGrid", "delta_level_within"),
    ("operators", "BandOperator", "leaf_matrix"),
    ("search", "SearchResult", "to_artifact"),
]
TIMED_LEAVES = [("lattice", "tree_distance")]
COUNTED_METHODS = [("lattice", "Lattice", "indicator")]


def _report_bytes(args, kwargs, ret):
    out_dir = kwargs["out_dir"] if "out_dir" in kwargs else args[1]
    return {"runner.report_bytes": os.path.getsize(
        os.path.join(out_dir, "report.json"))}


# Counts taken from a traced call's result, at the layer that does the work.
RESULT_COUNTERS = {
    "operators.random_band":
        lambda args, kwargs, band: {"operators.band_nnz": len(band.entries)},
    "search.extremal_search":
        lambda args, kwargs, res: {
            "search.accepted_moves": accepted_moves(res.history),
            "search.attempted_moves": len(res.history) - 1},
    "runner.run": _report_bytes,
}


class Tracer:
    def __init__(self):
        self.spans: list = []                  # (name, start, end, parent, run id)
        self.stack: list[int] = []             # indices of the open spans
        self.leaf_child_ns = defaultdict(int)  # span index -> leaf time inside it
        self.leaf_ns = defaultdict(int)
        self.calls = defaultdict(int)          # span-less call counts
        self.counters = defaultdict(int)
        self.run_id = 0
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if counter is not None:
                for key, value in counter(args, kwargs, ret).items():
                    self.counters[key] += value
            return ret
        return traced

    def _timed_leaf(self, name, fn):
        calls, leaf_ns, child, stack = (self.calls, self.leaf_ns,
                                        self.leaf_child_ns, self.stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                calls[name] += 1
                leaf_ns[name] += dt
                if stack:
                    child[stack[-1]] += dt
        return timed

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installation -----------------------------------------------------
    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._restore.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._restore.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        mods = {name: sys.modules["haarlab." + name] for name in MODULES}
        replace = {}
        for module, names in SPAN_FUNCTIONS.items():
            for fname in names:
                orig = getattr(mods[module], fname)
                replace[orig] = self._span(f"{module}.{fname}", orig)
        for module, fname in TIMED_LEAVES:
            orig = getattr(mods[module], fname)
            replace[orig] = self._timed_leaf(f"{module}.{fname}", orig)

        holders = [sys.modules["haarlab"], *mods.values()]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if callable(value) and value in replace:
                    self._set(holder, attr, replace[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if callable(item) and item in replace:
                            self._set(value, key, replace[item])

        for module, cls, meth in SPAN_METHODS + COUNTED_METHODS:
            klass = getattr(mods[module], cls)
            orig = klass.__dict__[meth]
            name = f"{module}.{meth}"
            wrap = self._counted if (module, cls, meth) in COUNTED_METHODS else self._span
            if isinstance(orig, functools.cached_property):
                new = functools.cached_property(wrap(name, orig.func))
                new.__set_name__(klass, meth)
            else:
                new = wrap(name, orig)
            self._set(klass, meth, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results ----------------------------------------------------------
    @staticmethod
    def metric_names() -> set[str]:
        """Every name `summary` reports, traced or not."""
        names = {f"{m}.self_s" for m in MODULES}
        for module, fnames in SPAN_FUNCTIONS.items():
            names |= {f"{module}.{f}.{x}" for f in fnames for x in ("s", "calls")}
        for module, _, meth in SPAN_METHODS:
            names |= {f"{module}.{meth}.s", f"{module}.{meth}.calls"}
        for module, fname in TIMED_LEAVES:
            names |= {f"{module}.{fname}.s", f"{module}.{fname}.calls"}
        names |= {f"{module}.{meth}.calls" for module, _, meth in COUNTED_METHODS}
        names |= {"operators.band_nnz", "search.accepted_moves",
                  "search.attempted_moves", "search.accept_ratio",
                  "runner.report_bytes"}
        return names

    def summary(self) -> dict:
        """Self time (span duration minus child spans and leaf time) and
        call count per traced name, module self-time totals, counters."""
        spans = self.spans
        child = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns = defaultdict(int, self.leaf_ns)
        calls = defaultdict(int, self.calls)
        for i, (name, start, end, _, _) in enumerate(spans):
            self_ns[name] += end - start - child[i] - self.leaf_child_ns.get(i, 0)
            calls[name] += 1
        out = {name: 0 for name in self.metric_names()}
        for name, ns in self_ns.items():
            out[f"{name}.s"] = ns / 1e9
            module = name.split(".")[0]
            out[f"{module}.self_s"] += ns / 1e9
        for name, n in calls.items():
            out[f"{name}.calls"] = n
        out.update(self.counters)
        attempted = out["search.attempted_moves"]
        out["search.accept_ratio"] = (out["search.accepted_moves"] / attempted
                                      if attempted else 0.0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
                       "spans": self.spans}, fh)
