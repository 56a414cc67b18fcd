"""Spans around the public functions of each jshm layer.

``Tracer.install`` replaces every listed function, in every loaded jshm
module that holds a reference to it, by a wrapper that records a span
(name, start, end, parent span, operation).  Calls one layer makes into
another therefore pass through the wrappers too.  Methods of the value
classes (Polynomial, RationalFunction, KSubset, ...) are not wrapped; their
cost lands in the self time of the traced function that calls them.

Spans are kept in memory, written out once at the end, and reduced to
per-layer self times, per-function inclusive times and counts.  A listed
function that does not exist is skipped and reported, not fatal, so a
later refactor that renames one only zeroes the metrics built on it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "exact": ["binom", "rat_to_str", "rat_from_str", "poly_gcd", "poly_to_str",
              "rf_to_str", "binom_poly", "binom_rf"],
    "subsets": ["make_subset", "colex_rank", "colex_unrank", "all_ksubsets",
                "inter_size", "make_family", "family_from_dict", "load_family",
                "family_to_dict", "star_family"],
    "johnson": ["class_size", "basis_vector", "identity_vector", "all_ones_vector",
                "entry", "colex_masks", "dense", "schur", "inner", "trace",
                "entry_sum", "inclusion_matrix", "disjointness_matrix",
                "wilson_basis_vector", "intersection_number", "eigensystem",
                "eigenvalues", "psd_report", "mat_transpose", "mat_mul"],
    "projection": ["pair_distribution", "project_family", "project_dense",
                   "family_lemma_report"],
    "designs": ["verify_design", "as_design", "partition_design", "block_count",
                "excess_sum", "design_matrix", "design_matrix_symbolic",
                "design_projection_report", "admissible", "admissible_range",
                "search_design"],
    "wilson": ["wilson_matrix", "certificate_matrix", "wilson_matrix_symbolic",
               "support_ok", "sum_trace_ratio", "clique_coclique", "ekr_certificate",
               "bound_from_design"],
    "identity": ["symbolic_side", "numeric_side", "compare_symbolic",
                 "compare_pointwise", "design_witness_check"],
    "oracles": ["float_spectrum", "max_family", "brute_projection"],
    "cli": ["main"],
}

OP_SPAN = "op"


def _ksubsets_built(args, result):
    return len(result)


def _search_nodes(args, result):
    return result.nodes


def _pairs_counted(args, result):
    return sum(result.counts)


# Counts taken at a function boundary from its arguments and result.
COUNTERS = {
    "subsets.all_ksubsets": ("subsets.ksubsets_built", _ksubsets_built),
    "designs.search_design": ("designs.search_nodes", _search_nodes),
    "oracles.max_family": ("oracles.max_family_nodes", _search_nodes),
    "projection.pair_distribution": ("projection.pairs_counted", _pairs_counted),
}


class Tracer:
    """Records spans for one worker process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name_id, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.enumerated: dict[tuple, int] = {}
        self.skipped: list[str] = []
        self.op_name = self._name_id(OP_SPAN)
        self.recording = True

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "jshm" or name.startswith("jshm."))]
        for layer, names in LAYERS.items():
            try:
                mod = importlib.import_module(f"jshm.{layer}")
            except ImportError:
                self.skipped += [f"{layer}.{name}" for name in names]
                continue
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn) or isinstance(fn, type):
                    self.skipped.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        enumerates = name == "johnson.colex_masks"
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name_id, 0.0, 0.0, parent, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                self._count(counter, args, result)
            if enumerates:
                self.enumerated.setdefault(tuple(args), len(result))
            return result

        return wrapper

    def _count(self, counter, args, result) -> None:
        metric, fn = counter
        try:
            self.counts[metric] += fn(args, result)
        except (AttributeError, TypeError):
            self.skipped.append(metric)

    # -- recording around operations ---------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block record no spans and no counts."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    def run_op(self, op_index: int, fn):
        """Run one operation under a root span; returns fn()."""
        self.op = op_index
        idx = len(self.spans)
        span = [self.op_name, 0.0, 0.0, -1, op_index]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn()
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.op = -1

    # -- output -----------------------------------------------------------

    def write(self, path: str, op_labels: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op"],
                       "names": self.names, "ops": op_labels,
                       "spans": self.spans}, fh, separators=(",", ":"))

    def summary(self) -> dict:
        """Per-layer self time, per-function inclusive/self time and calls."""
        names = self.names
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        inclusive: defaultdict = defaultdict(float)
        for idx, (name_id, start, end, parent, _) in enumerate(self.spans):
            name = names[name_id]
            calls[name] += 1
            self_s[name] += end - start - child_time[idx]
            if not self._has_ancestor(idx, name_id):
                inclusive[name] += end - start
        layer_self: defaultdict = defaultdict(float)
        for name, value in self_s.items():
            layer_self[name.split(".")[0]] += value
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "inclusive_s": dict(inclusive),
            "layer_self_s": dict(layer_self),
            "counts": dict(self.counts),
            "enumerated": sum(self.enumerated.values()),
            "spans": len(self.spans),
            "skipped": sorted(set(self.skipped)),
        }

    def _has_ancestor(self, idx: int, name_id: int) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name_id:
                return True
            parent = self.spans[parent][3]
        return False


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced round."""
    calls = summary["calls"]
    incl = summary["inclusive_s"]
    self_s = summary["self_s"]
    counts = summary["counts"]
    layer_self = summary["layer_self_s"]
    out = {f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "exact.poly_gcd_calls": calls.get("exact.poly_gcd", 0),
        "exact.poly_gcd_s": incl.get("exact.poly_gcd", 0.0),
        "exact.binom_rf_s": incl.get("exact.binom_rf", 0.0),
        "subsets.all_ksubsets_s": incl.get("subsets.all_ksubsets", 0.0),
        "subsets.ksubsets_built": counts.get("subsets.ksubsets_built", 0),
        "johnson.eigensystem_calls": calls.get("johnson.eigensystem", 0),
        "johnson.eigensystem_s": incl.get("johnson.eigensystem", 0.0),
        "johnson.colex_masks_s": incl.get("johnson.colex_masks", 0.0),
        "johnson.subsets_enumerated": summary["enumerated"],
        "johnson.psd_report_s": incl.get("johnson.psd_report", 0.0),
        "johnson.dense_s": incl.get("johnson.dense", 0.0),
        "wilson.wilson_matrix_symbolic_s": incl.get("wilson.wilson_matrix_symbolic", 0.0),
        "identity.compare_symbolic_self_s": self_s.get("identity.compare_symbolic", 0.0),
        "identity.compare_pointwise_self_s": self_s.get("identity.compare_pointwise", 0.0),
        "designs.design_matrix_symbolic_s": incl.get("designs.design_matrix_symbolic", 0.0),
        "designs.search_design_s": incl.get("designs.search_design", 0.0),
        "designs.search_nodes": counts.get("designs.search_nodes", 0),
        "designs.verify_design_s": incl.get("designs.verify_design", 0.0),
        "projection.project_family_s": incl.get("projection.project_family", 0.0),
        "projection.family_lemma_report_s": incl.get("projection.family_lemma_report", 0.0),
        "projection.pairs_counted": counts.get("projection.pairs_counted", 0),
        "oracles.max_family_s": incl.get("oracles.max_family", 0.0),
        "oracles.max_family_nodes": counts.get("oracles.max_family_nodes", 0),
        "oracles.float_spectrum_s": incl.get("oracles.float_spectrum", 0.0),
        "oracles.brute_projection_s": incl.get("oracles.brute_projection", 0.0),
        "cli.main_s": incl.get("cli.main", 0.0),
        "trace.spans": summary["spans"],
        "trace.functions_skipped": len(summary["skipped"]),
    })
    return out
