"""Merge trees, their matrix representations, and interleaving geometry.

The package models merge trees (finite rooted height trees with a ray to
infinity above the top vertex), labeled variants, and the pseudometrics
defined on them through induced matrices: labeled and unlabeled
interleaving, geodesics and 1-centers in the labeled space, shift maps
between trees, and bottleneck distance between persistence diagrams.
"""

from .errors import (
    BudgetExceededError,
    FormatError,
    InvalidMatrixError,
    InvalidTreeError,
    MalformedMapError,
    MergespaceError,
)
from .fileio import (
    parse_diagram,
    parse_map,
    parse_matrix,
    parse_pairing,
    parse_tree,
    write_diagram,
    write_map,
    write_matrix,
    write_pairing,
    write_tree,
)
from .goodmaps import (
    GoodMapReport,
    InfeasibleLabeling,
    LabelPairing,
    VertexMap,
    apply_pairing,
    labeling_from_map,
    map_from_labeling,
    map_point,
    verify_delta_good,
)
from .matrices import (
    MatrixCheck,
    SymMatrix,
    as_sym_matrix,
    induced_matrix,
    is_ultra,
    is_valid,
    linf_distance,
    tree_of_matrix,
    ultrafy,
)
from .metrics import (
    geodesic_length,
    geodesic_point,
    labeled_interleaving,
    one_center,
)
from .persistence import (
    PersistenceDiagram,
    bottleneck_distance,
    bottleneck_tree_distance,
    persistence_diagram,
)
from .trees import (
    LabeledMergeTree,
    MergeTree,
    PointOnTree,
    ValidationReport,
    canonicalize,
    canonicalize_tree,
    labeled_trees_equal,
    lca,
    point_at,
    refine_at,
    trees_equal,
    vertex_point,
)
from .unlabeled import (
    UnlabeledDistance,
    candidate_shifts,
    unlabeled_interleaving,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "FormatError",
    "GoodMapReport",
    "InfeasibleLabeling",
    "InvalidMatrixError",
    "InvalidTreeError",
    "LabelPairing",
    "LabeledMergeTree",
    "MalformedMapError",
    "MatrixCheck",
    "MergeTree",
    "MergespaceError",
    "PersistenceDiagram",
    "PointOnTree",
    "SymMatrix",
    "UnlabeledDistance",
    "ValidationReport",
    "VertexMap",
    "apply_pairing",
    "as_sym_matrix",
    "bottleneck_distance",
    "bottleneck_tree_distance",
    "candidate_shifts",
    "canonicalize",
    "canonicalize_tree",
    "geodesic_length",
    "geodesic_point",
    "induced_matrix",
    "is_ultra",
    "is_valid",
    "labeled_interleaving",
    "labeled_trees_equal",
    "labeling_from_map",
    "lca",
    "linf_distance",
    "map_from_labeling",
    "map_point",
    "one_center",
    "parse_diagram",
    "parse_map",
    "parse_matrix",
    "parse_pairing",
    "parse_tree",
    "persistence_diagram",
    "point_at",
    "refine_at",
    "tree_of_matrix",
    "trees_equal",
    "ultrafy",
    "unlabeled_interleaving",
    "vertex_point",
    "verify_delta_good",
    "write_diagram",
    "write_map",
    "write_matrix",
    "write_pairing",
    "write_tree",
]
