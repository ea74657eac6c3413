"""Spans around calls into mergespace's public functions, from outside the package.

Each traced function is replaced, in every mergespace module that binds it,
by a wrapper that records a span (name, parent span, start, end).  Spans
stay in memory until the run ends; layer totals are derived from them.
A layer's self time is its spans' durations minus the durations of their
direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time

# span name -> (module, attribute); ensure_valid is a method of both tree classes
TRACED = {
    "fileio.parse_tree": ("fileio", "parse_tree"),
    "trees.canonicalize_tree": ("trees", "canonicalize_tree"),
    "trees.lca": ("trees", "lca"),
    "matrices.induced_matrix": ("matrices", "induced_matrix"),
    "matrices.tree_of_matrix": ("matrices", "tree_of_matrix"),
    "matrices.ultrafy": ("matrices", "ultrafy"),
    "matrices.is_valid": ("matrices", "is_valid"),
    "matrices.is_ultra": ("matrices", "is_ultra"),
    "matrices.linf_distance": ("matrices", "linf_distance"),
    "metrics.labeled_interleaving": ("metrics", "labeled_interleaving"),
    "metrics.geodesic_point": ("metrics", "geodesic_point"),
    "metrics.one_center": ("metrics", "one_center"),
    "unlabeled.unlabeled_interleaving": ("unlabeled", "unlabeled_interleaving"),
    "unlabeled.candidate_shifts": ("unlabeled", "candidate_shifts"),
    "persistence.persistence_diagram": ("persistence", "persistence_diagram"),
    "persistence.bottleneck_distance": ("persistence", "bottleneck_distance"),
}
METHODS = {"trees.ensure_valid": ("trees", ("MergeTree", "LabeledMergeTree"), "ensure_valid")}

COUNTED = [
    "fileio.parse_tree", "trees.ensure_valid", "trees.canonicalize_tree", "trees.lca",
    "matrices.induced_matrix", "matrices.tree_of_matrix", "matrices.ultrafy",
    "matrices.is_valid", "matrices.is_ultra",
]
WORK = ["matrices.induced_matrix.repeat_calls", "unlabeled.candidates", "persistence.diagram_points"]

# the per-layer metrics, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    **{f"{name}.calls": "count" for name in COUNTED},
    **{f"{name}.self_s": "s" for name in [*TRACED, *METHODS]},
    **{name: "count" for name in WORK},
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._open = []
        self.active = False
        self._seen_trees = {}  # id -> tree, kept alive so ids stay unique
        self.counts = {}

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _after(self, name: str, args, result):
        """Work counters read from the arguments and results of a call."""
        if name == "matrices.induced_matrix":
            tree = args[0]
            if id(tree) in self._seen_trees:
                self._count("matrices.induced_matrix.repeat_calls")
            self._seen_trees[id(tree)] = tree
        elif name == "unlabeled.candidate_shifts":
            self._count("unlabeled.candidates", len(result))
        elif name == "persistence.bottleneck_distance":
            self._count("persistence.diagram_points", len(args[0]) + len(args[1]))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, self._open[-1] if self._open else -1, 0.0, 0.0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            self._after(name, args, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function wherever a mergespace module binds it."""
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "mergespace"]
        for name, (mod, attr) in TRACED.items():
            original = getattr(sys.modules["mergespace." + mod], attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        for name, (mod, classes, attr) in METHODS.items():
            for cls in classes:
                owner = getattr(sys.modules["mergespace." + mod], cls)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def start(self):
        self.spans, self._open, self.counts = [], [], {}
        self._seen_trees = {}
        self.active = True

    def stop(self) -> dict:
        """Per-layer metrics of the spans recorded since start()."""
        self.active = False
        self._seen_trees = {}
        values = dict.fromkeys(LAYER_METRICS, 0)
        values.update(self.counts)
        for name, parent, start, end in self.spans:
            values[f"{name}.self_s"] += end - start
            if parent >= 0:
                values[f"{self.spans[parent][0]}.self_s"] -= end - start
            if name in COUNTED:
                values[f"{name}.calls"] += 1
        return {name: values[name] for name in LAYER_METRICS}

    def write(self, path):
        """Write the recorded spans, one per line: index, parent, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for k, (name, parent, start, end) in enumerate(self.spans):
                f.write(f"{k}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
