"""Distance, geodesics, and centers for labeled merge trees.

Everything here is read through induced matrices: the distance between two
labeled trees is the largest entrywise gap of their matrices, straight-line
matrix interpolation projects back to a geodesic of trees, and the entrywise
midrange of a collection gives a smallest enclosing ball.  Geodesics and
centers read the inputs' matrices through `matrices.induced_matrix`, whose
store of the last few it built (up to 4 MiB) serves a tree again: three
geodesics and a center over five trees build five matrices, not eleven.
The distance builds none: it is read from the two trees' own label walks,
with O(n) arrays per tree and no n x n array, and so is tree equality
(`trees.labeled_trees_equal`).  A blend, clipped between its ends, and a
midrange are valid by construction and not checked.  The center's radius
reads the midrange matrix's walk.
"""

from __future__ import annotations

from typing import Sequence

from .errors import MergespaceError
from .matrices import (SymMatrix, _linkage, _midpoint, induced_matrix, linf_distance,
                       tree_of_matrix, ultrafy)
from .trees import LabeledMergeTree, _as_id, _number, _walk_gap, _walk_spans, height_tol, np

__all__ = [
    "labeled_interleaving",
    "geodesic_point",
    "geodesic_length",
    "one_center",
]


def _same_label_count(t1: LabeledMergeTree, t2: LabeledMergeTree) -> None:
    """Raise MergespaceError unless the two trees carry equally many labels."""
    if t1.n_labels != t2.n_labels:
        raise MergespaceError(f"label count mismatch: {t1.n_labels} vs {t2.n_labels}")


def labeled_interleaving(t1: LabeledMergeTree, t2: LabeledMergeTree) -> float:
    """Largest entrywise gap between the two induced matrices A and B.

    Read from the two label walks, with no matrix built (`trees._walk_gap`).
    In B's walk order the label pairs split into rectangles, one per gap of
    the walk, on each of which B equals that gap's height; the largest A
    entry on a rectangle is one range maximum over A's walk.  So each way's
    largest excess costs a few O(n) passes, and the value is bit for bit
    ``linf_distance(induced_matrix(t1), induced_matrix(t2))``.
    """
    t1.ensure_valid()
    t2.ensure_valid()
    _same_label_count(t1, t2)
    return _walk_gap(t1.walk_spans, t2.walk_spans)


def _blend(m1: SymMatrix, m2: SymMatrix, lam: float) -> SymMatrix:
    """(1 - lam) a + lam b, clipped in place to [min(a, b), max(a, b)]: monotone
    steps, so valid ends give a valid blend, and equal ends give that end."""
    a, b = m1.array, m2.array
    with np.errstate(over="ignore"):  # an overflow is clipped to its end
        mix = (1.0 - lam) * a + lam * b
    np.maximum(mix, np.minimum(a, b), out=mix)
    return SymMatrix._unchecked(np.minimum(mix, np.maximum(a, b), out=mix))


def geodesic_point(
    t1: LabeledMergeTree, t2: LabeledMergeTree, lam: float
) -> LabeledMergeTree:
    """Tree at parameter lam on the matrix-interpolation geodesic.

    The blended matrix of two valid matrices is valid, so the sublevel
    construction applies at every lam in [0, 1]; the endpoints reproduce the
    inputs up to canonical form.
    """
    lam = _number(lam, "interpolation parameter")
    if not 0.0 <= lam <= 1.0:
        raise MergespaceError(f"interpolation parameter {lam} outside [0, 1]")
    _same_label_count(t1, t2)
    return tree_of_matrix(_blend(induced_matrix(t1), induced_matrix(t2), lam))


def geodesic_length(
    t1: LabeledMergeTree, t2: LabeledMergeTree, samples: int = 10
) -> float:
    """Sum of step distances along a uniform partition of the geodesic.

    Any partition reproduces the endpoint distance; the function checks that
    identity within `height_tol` per rounded step, as a guard on the construction.
    """
    samples = _as_id(samples, "sample count")
    if samples < 1:
        raise MergespaceError("need at least one sample segment")
    _same_label_count(t1, t2)
    m1, m2 = induced_matrix(t1), induced_matrix(t2)
    total = 0.0
    prev = m1  # a tree's matrix is its own ultrafy, the geodesic's first point
    for k in range(1, samples + 1):
        cur = ultrafy(_blend(m1, m2, k / samples))  # the next point's matrix
        total += linf_distance(prev, cur)
        prev = cur
    direct = linf_distance(m1, m2)
    if abs(total - direct) > samples * height_tol(t1, t2):
        raise MergespaceError(
            f"geodesic additivity broken: partition sum {total} vs {direct}"
        )
    return total


def one_center(trees: Sequence[LabeledMergeTree]):
    """Smallest enclosing ball center and radius for labeled trees.

    The center is the tree of the entrywise midrange matrix; no other tree
    lies closer to all the inputs than half the largest entrywise range.
    The radius is the center's largest distance to the inputs, rounded
    once: that exact distance lies between the exact half range and it
    plus 1/2 ULP of the largest |height| (the midrange rounds), and its
    rounding can land just below the half range or just above that bound.
    A running maximum and minimum keep the first of equal entries, as
    reductions do.  The radius reads the walk of the midrange matrix's
    sweep, not the center's.

    Returns (center, radius).
    """
    trees = list(trees)
    if not trees:
        raise MergespaceError("cannot take the center of an empty collection")
    for t in trees:
        _same_label_count(trees[0], t)
    first, *rest = (induced_matrix(t).array for t in trees)
    hi, lo = first.copy(), first.copy()
    for a in rest:
        np.maximum(hi, a, out=hi)
        np.minimum(lo, a, out=lo)
    mid = SymMatrix._unchecked(_midpoint(hi, lo))
    center = tree_of_matrix(mid)
    spans = _walk_spans(*_linkage(mid)[1])
    return center, max(_walk_gap(spans, t.walk_spans) for t in trees)
