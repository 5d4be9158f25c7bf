"""Span tracing at the program's layer boundaries, from outside the program.

The tracer replaces every binding of the listed public functions (the module
attribute and each ``from ... import`` alias, e.g. ``decomp.buchberger`` and
``ci.components_of``) with a wrapper that records one span per call: name,
start, end, parent span and job id.  Spans live in flat arrays in memory and
are written out once, when the run ends.  Self time and counts are computed
at the same boundaries, so ratios are measured where the work happens.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter


def _count_graph(args, kwargs, result, counts):
    counts["graph.vertices"] += len(result.vertices)
    counts["graph.edges"] += result.num_edges()


def _count_enumerate(args, kwargs, result, counts):
    graph = args[0] if args else kwargs["graph"]
    counts["graph.masks_visited"] += 1 << len(graph.vertices)
    counts["graph.structures_found"] += len(result)


def _count_spec_pairs(args, kwargs, result, counts):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    counts["ci.spec_pairs"] += len(spec)


def _count_basis(args, kwargs, result, counts):
    counts["ideal.basis_elements"] += len(result)


def _count_reduce(args, kwargs, result, counts):
    counts["polyengine.reduce_nonzero"] += bool(result)


def _count_admissible(args, kwargs, result, counts):
    counts["decomp.admissible_count"] += len(result)


# (module, function, layer, count hook).  The JSON loaders of the graph and
# gibbs modules belong to the model layer's load time, as read_json does.
BOUNDARIES = (
    ("cli", "main", "cli", None),
    ("cli", "_emit", "cli", None),
    ("model", "read_json", "model", None),
    ("model", "model_from_json", "model", None),
    ("model", "distribution_from_json", "model", None),
    ("graph", "graph_from_json", "model", None),
    ("gibbs", "modalities_from_json", "model", None),
    ("model", "validate_spec", "model", None),
    ("model", "validate_distribution", "model", None),
    ("graph", "build_graph", "graph", _count_graph),
    ("graph", "enumerate_maximal_structures", "graph", _count_enumerate),
    ("graph", "components_of", "graph", None),
    ("ci", "robustness_report", "ci", _count_spec_pairs),
    ("ci", "classify_structure", "ci", None),
    ("ideal", "groebner_set", "ideal", _count_basis),
    ("ideal", "is_reduced", "ideal", None),
    ("polyengine", "buchberger", "polyengine", None),
    ("polyengine", "buchberger_criterion", "polyengine", None),
    ("polyengine", "s_polynomial", "polyengine", None),
    ("polyengine", "reduce", "polyengine", _count_reduce),
    ("polyengine", "intersect_ideals", "polyengine", None),
    ("decomp", "verify_primary_decomposition", "decomp", None),
    ("decomp", "verify_union_decomposition", "decomp", None),
    ("decomp", "admissible_sets", "decomp", _count_admissible),
    ("gibbs", "moebius_potentials", "gibbs", None),
    ("gibbs", "gibbs_kernel", "gibbs", None),
    ("gibbs", "check_robust_at", "gibbs", None),
    ("gibbs", "k_interaction_decompose", "gibbs", None),
    ("gibbs", "tilde_constraint_report", "gibbs", None),
)

LAYERS = ("model", "graph", "ci", "ideal", "polyengine", "decomp", "gibbs", "cli")

# Inclusive time of a group of boundaries; a span nested in another span of
# the same group is counted once, through its ancestor.
TIME_METRICS = {
    "model.load_s": ("model.read_json", "model.model_from_json",
                     "model.distribution_from_json", "graph.graph_from_json",
                     "gibbs.modalities_from_json"),
    "model.validate_s": ("model.validate_spec", "model.validate_distribution"),
    "graph.build_graph_s": ("graph.build_graph",),
    "graph.enumerate_s": ("graph.enumerate_maximal_structures",),
    "graph.components_s": ("graph.components_of",),
    "ci.robustness_report_s": ("ci.robustness_report",),
    "ci.classify_structure_s": ("ci.classify_structure",),
    "ideal.groebner_set_s": ("ideal.groebner_set",),
    "ideal.is_reduced_s": ("ideal.is_reduced",),
    "polyengine.buchberger_s": ("polyengine.buchberger",),
    "polyengine.buchberger_criterion_s": ("polyengine.buchberger_criterion",),
    "polyengine.reduce_s": ("polyengine.reduce",),
    "polyengine.intersect_ideals_s": ("polyengine.intersect_ideals",),
    "decomp.verify_primary_s": ("decomp.verify_primary_decomposition",),
    "decomp.verify_union_s": ("decomp.verify_union_decomposition",),
    "decomp.admissible_sets_s": ("decomp.admissible_sets",),
    "gibbs.moebius_potentials_s": ("gibbs.moebius_potentials",),
    "gibbs.gibbs_kernel_s": ("gibbs.gibbs_kernel",),
    "gibbs.check_robust_at_s": ("gibbs.check_robust_at",),
    "gibbs.k_interaction_decompose_s": ("gibbs.k_interaction_decompose",),
    "gibbs.tilde_constraint_report_s": ("gibbs.tilde_constraint_report",),
    "cli.emit_s": ("cli._emit",),
}

CALL_METRICS = {
    "graph.components_calls": "graph.components_of",
    "polyengine.buchberger_calls": "polyengine.buchberger",
    "polyengine.s_pairs": "polyengine.s_polynomial",
    "polyengine.reduce_calls": "polyengine.reduce",
    "gibbs.check_robust_at_calls": "gibbs.check_robust_at",
}

COUNT_METRICS = ("graph.vertices", "graph.edges", "graph.masks_visited",
                 "graph.structures_found", "ci.spec_pairs", "ideal.basis_elements",
                 "decomp.admissible_count")


def program_modules() -> list:
    return [m for name, m in sys.modules.items()
            if name == "robustci" or name.startswith("robustci.")]


class Tracer:
    """Span recorder; :meth:`installed` patches the bindings for its duration."""

    def __init__(self):
        self.names = []
        self.name_layer = []
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job = -1
        self.counts = Counter()
        self.errors = Counter()
        self._patches = None

    @contextlib.contextmanager
    def installed(self):
        if self._patches is None:
            self._patches = self._bindings()
        try:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def _bindings(self) -> list:
        """(owner module, attribute, original, wrapper) for every binding."""
        from robustci.errors import InputError, ResourceLimitError

        errors = (InputError, ResourceLimitError)
        modules = {m.__name__.rpartition(".")[2]: m for m in program_modules()}
        patches = []
        for module, function, layer, hook in BOUNDARIES:
            target = getattr(modules[module], function)
            wrapper = self._wrap(target, f"{module}.{function}", layer, hook, errors)
            for owner in modules.values():
                for attr, value in vars(owner).items():
                    if value is target:
                        patches.append((owner, attr, target, wrapper))
        return patches

    def _wrap(self, fn, span_name, layer, hook, errors):
        name_id = len(self.names)
        self.names.append(span_name)
        self.name_layer.append(layer)
        names, parents, jobs = self.name, self.parent, self.job_of
        starts, ends, stack, counts = self.start, self.end, self.stack, self.counts
        name_layer = self.name_layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(name_id)
            parents.append(parent)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors:
                if parent < 0 or name_layer[names[parent]] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                starts[idx] = begin
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counts)
            return result

        return wrapper

    def __len__(self):
        return len(self.start)

    def metrics(self) -> dict:
        """Per-layer times, self times, counts and ratios, as {name: (value, unit)}."""
        n = len(self.start)
        span_names = [self.names[k] for k in self.name]
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += duration[i]
        self_time = Counter()
        calls = Counter(span_names)
        for i in range(n):
            self_time[self.name_layer[self.name[i]]] += duration[i] - covered[i]

        times = Counter()
        metrics_of = {name: [m for m, group in TIME_METRICS.items() if name in group]
                      for name in self.names}
        for i in range(n):
            for metric in metrics_of[span_names[i]]:
                p = self.parent[i]
                if p < 0 or span_names[p] not in TIME_METRICS[metric]:
                    times[metric] += duration[i]
        out = {metric: (times[metric], "s") for metric in TIME_METRICS}
        for metric, span in CALL_METRICS.items():
            out[metric] = (calls[span], "count")
        for metric in COUNT_METRICS:
            out[metric] = (self.counts[metric], "count")
        out["graph.enumerate_hit_ratio"] = (
            _ratio(self.counts["graph.structures_found"], self.counts["graph.masks_visited"]),
            "ratio")
        out["polyengine.reduce_nonzero_ratio"] = (
            _ratio(self.counts["polyengine.reduce_nonzero"], calls["polyengine.reduce"]),
            "ratio")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_time[layer], "s")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return out

    def dump(self, path) -> None:
        """Write every span as gzip-compressed JSON columns."""
        origin = self.start[0] if len(self.start) else 0.0
        obj = {
            "names": self.names,
            "layers": self.name_layer,
            "columns": ["name", "parent", "job", "start_s", "end_s"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job_of.tolist(),
            "start_s": [round(t - origin, 7) for t in self.start],
            "end_s": [round(t - origin, 7) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(obj, handle, separators=(",", ":"))


def _ratio(num, den) -> float:
    return num / den if den else 0.0
