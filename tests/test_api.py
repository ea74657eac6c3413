"""The public API: each name declared once, in its module's `__all__`, and
re-exported by the package."""

from __future__ import annotations

import importlib
import pkgutil
import types

import mergespace

MODULES = ["errors", "fileio", "goodmaps", "matrices", "metrics", "persistence", "trees", "unlabeled"]

PUBLIC = [
    "BudgetExceededError", "FormatError", "GoodMapReport", "InfeasibleLabeling",
    "InvalidMatrixError", "InvalidTreeError", "LabelPairing", "LabeledMergeTree",
    "MalformedMapError", "MatrixCheck", "MergeTree", "MergespaceError",
    "PersistenceDiagram", "PointOnTree", "SymMatrix", "UnlabeledDistance",
    "ValidationReport", "VertexMap", "apply_pairing", "as_sym_matrix",
    "bottleneck_distance", "bottleneck_tree_distance", "candidate_shifts",
    "canonicalize", "canonicalize_tree", "geodesic_length", "geodesic_point",
    "induced_matrix", "is_ultra", "is_valid", "labeled_interleaving",
    "labeled_trees_equal", "labeling_from_map", "lca", "linf_distance",
    "map_from_labeling", "map_point", "one_center", "parse_diagram", "parse_map",
    "parse_matrix", "parse_pairing", "parse_tree", "persistence_diagram",
    "point_at", "refine_at", "tree_of_matrix", "trees_equal", "ultrafy",
    "unlabeled_interleaving", "verify_delta_good", "vertex_point",
    "write_diagram", "write_map", "write_matrix", "write_pairing", "write_tree",
]


def test_the_package_exports_the_public_names_once():
    assert len(PUBLIC) == 57
    assert sorted(mergespace.__all__) == PUBLIC
    assert len(set(mergespace.__all__)) == len(mergespace.__all__)
    # the submodules aside, the package's public attributes are the names
    public = {
        n for n, v in vars(mergespace).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert public == set(PUBLIC)
    assert all(isinstance(getattr(mergespace, m), types.ModuleType) for m in MODULES)


def test_each_public_name_is_declared_in_exactly_one_module():
    owners = {}
    for m in MODULES:
        for n in getattr(mergespace, m).__all__:
            owners.setdefault(n, []).append(m)
    assert sorted(owners) == PUBLIC
    for n, where in owners.items():
        assert len(where) == 1, (n, where)
        assert getattr(mergespace, n) is getattr(getattr(mergespace, where[0]), n)


def test_every_name_in_a_module_all_exists():
    for info in pkgutil.iter_modules(mergespace.__path__):
        module = importlib.import_module(f"mergespace.{info.name}")
        for n in getattr(module, "__all__", ()):
            assert hasattr(module, n), (info.name, n)
