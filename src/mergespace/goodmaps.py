"""Continuous shift maps between merge trees, and label transfer.

A :class:`VertexMap` records where every source vertex lands in the target;
edges follow by continuity (the image of an edge is the target path between
the endpoint images), so the finite data fully encodes a continuous map of
geometric realizations.  A map is delta-good when it shifts heights by
exactly delta, merges branches no earlier than 2*delta above them, and
misses no target branch deeper than 2*delta.  Good maps, optimal label
pairings, and the conversions between them live here.

Float discipline: stored heights are compared exactly where possible, but
image heights arise as sums (height + delta), so point lookups snap within
`height_tol` of the two trees rather than demand bit equality; scaling
every height by a power of two changes no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from .errors import MalformedMapError, MergespaceError
from .matrices import induced_matrix
from .trees import (
    LabeledMergeTree,
    MergeTree,
    PointOnTree,
    ancestor_at,
    as_point,
    height_tol,
    is_vertex_point,
    lca,
    refine_at,
    vertex_point,
)

__all__ = [
    "VertexMap",
    "GoodMapReport",
    "LabelPairing",
    "InfeasibleLabeling",
    "verify_delta_good",
    "labeling_from_map",
    "map_from_labeling",
    "apply_pairing",
]


@dataclass(frozen=True)
class VertexMap:
    """A height-shifting map given by the images of all source vertices."""

    source: MergeTree
    target: MergeTree
    delta: float
    images: tuple  # ((vertex id, PointOnTree), ...) sorted by vertex id

    def __init__(self, source, target, delta, images: Union[Mapping, tuple]):
        source.ensure_valid()
        target.ensure_valid()
        delta = float(delta)
        if delta < 0:
            raise MalformedMapError(f"negative shift {delta}")
        if isinstance(images, Mapping):
            items = images.items()
        else:
            items = images
        norm = {}
        for v, p in items:
            v = int(v)
            if v not in source.height:
                raise MalformedMapError(f"image given for unknown source vertex {v}")
            try:
                norm[v] = as_point(target, p)
            except MergespaceError as exc:
                raise MalformedMapError(
                    f"image of vertex {v} is not a point of the target: {exc}"
                ) from exc
        missing = sorted(set(source.height) - set(norm))
        if missing:
            raise MalformedMapError(f"source vertices without images: {missing}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "images", tuple(sorted(norm.items())))

    @property
    def image_of(self) -> dict:
        return dict(self.images)

    @cached_property
    def tol(self) -> float:
        return height_tol(self.source, self.target)


@dataclass(frozen=True)
class GoodMapReport:
    """Verdict of the goodness check, with the condition name and a witness."""

    good: bool
    condition: str = None  # height-shift | edge-coherence | merge-spread | missed-depth
    witness: tuple = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.good


@dataclass(frozen=True)
class LabelPairing:
    """An ordered list of point pairs; position k carries label k+1."""

    source: MergeTree
    target: MergeTree
    pairs: tuple  # ((PointOnTree on source, PointOnTree on target), ...)

    @property
    def n_labels(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class InfeasibleLabeling:
    """Returned when a labeling does not admit a map at the requested shift."""

    entry: tuple  # (i, j), one-based label indices
    gap: float
    delta: float

    def __bool__(self) -> bool:
        return False


# -- point plumbing -------------------------------------------------------


def _points_at(t: MergeTree, h: float, tol: float):
    """All points of the realization at height h, snapped within tol.

    One point per branch: a vertex when its height is within tol of h,
    otherwise an interior edge (or ray) point.  Sorted by anchor id.
    """
    pts = []
    for v in sorted(t.height):
        hv = t.height[v]
        if abs(hv - h) <= tol:
            pts.append(vertex_point(t, v))
            continue
        if hv > h:
            continue
        par = t.parent[v]
        if par is None:
            pts.append(PointOnTree(v, h))
        elif h < t.height[par] and abs(t.height[par] - h) > tol:
            pts.append(PointOnTree(v, h))
    return pts


def _points_close(t: MergeTree, a: PointOnTree, b: PointOnTree, tol: float) -> bool:
    if abs(a.height - b.height) > tol:
        return False
    if a.anchor == b.anchor:
        return True
    # distinct anchors may still be the same point up to tolerance when the
    # branches merge within tol above (heights that differ by one rounding
    # step straddle the merge vertex)
    hi = max(a.height, b.height) + tol
    return ancestor_at(t, a, hi).anchor == ancestor_at(t, b, hi).anchor


def _is_ancestor_close(
    t: MergeTree, below: PointOnTree, above: PointOnTree, tol: float
) -> bool:
    if below.height > above.height + tol:
        return False
    hi = max(below.height, above.height)
    return _points_close(t, ancestor_at(t, below, hi), above, tol)


def _snap_point(t: MergeTree, p: PointOnTree, tol: float) -> PointOnTree:
    """Pull a point onto a vertex it misses by at most tol."""
    if p.height - t.height[p.anchor] <= tol:
        return vertex_point(t, p.anchor)
    parent = t.parent[p.anchor]
    if parent is not None and t.height[parent] - p.height <= tol:
        return vertex_point(t, parent)
    return p


def map_point(vm: VertexMap, x: Union[PointOnTree, int]) -> PointOnTree:
    """Image of an arbitrary source point, by continuity from its anchor.

    Heights recombine as x.height + delta, which can land a rounding step
    away from a vertex the exact map would hit; the result snaps onto any
    vertex within the map's tolerance."""
    x = as_point(vm.source, x)
    base = vm.image_of[x.anchor]
    h = x.height + vm.delta
    if h < base.height:
        # sub-tolerance shift wobble; never more once the map verifies
        h = base.height
    return _snap_point(vm.target, ancestor_at(vm.target, base, h), vm.tol)


def preimage_of(vm: VertexMap, p: PointOnTree):
    """All source points mapping to p, one per branch, sorted by anchor."""
    src_h = p.height - vm.delta
    out = []
    for x in _points_at(vm.source, src_h, vm.tol):
        if _points_close(vm.target, map_point(vm, x), p, 2 * vm.tol):
            out.append(x)
    return out


# -- goodness -------------------------------------------------------------


def _missed_branches(vm: VertexMap, vertices):
    """(w, attach) for each target vertex w whose branch no leaf image reaches,
    attach being the lowest meet of w with a leaf image."""
    t = vm.target
    leaf_images = [vm.image_of[leaf] for leaf in vm.source.leaves]
    for w in vertices:
        wp = vertex_point(t, w)
        if not any(_is_ancestor_close(t, li, wp, vm.tol) for li in leaf_images):
            yield w, min((lca(t, wp, li) for li in leaf_images), key=lambda p: p.height)


def verify_delta_good(vm: VertexMap) -> GoodMapReport:
    """Check the three goodness conditions, reporting the first failure.

    height-shift: every vertex image sits exactly delta above its vertex.
    edge-coherence: edge endpoint images are nested along one target path,
    which makes the vertex data a genuine continuous map.
    merge-spread: wherever preimage branches join, they join within 2*delta
    below the joining image point.
    missed-depth: any target branch the image misses is shallower than
    2*delta.
    """
    s, t, d, tol = vm.source, vm.target, vm.delta, vm.tol
    img = vm.image_of

    for v in sorted(s.height):
        want = s.height[v] + d
        got = img[v].height
        if abs(got - want) > tol:
            return GoodMapReport(
                False, "height-shift", (v,),
                f"vertex {v} at {s.height[v]} maps to height {got}, not {want}",
            )

    for c, p in s.edges:
        lifted = ancestor_at(t, img[c], max(img[c].height, img[p].height))
        if not _points_close(t, lifted, img[p], tol):
            return GoodMapReport(
                False, "edge-coherence", (c, p),
                f"images of edge ({c}, {p}) do not lie on one target path",
            )

    # merge-spread: preimage structure only changes where some source vertex
    # maps, or at a target vertex, so those heights carry the binding checks
    crit = sorted(
        {img[v].height for v in s.height} | {t.height[w] for w in t.height}
    )
    for g in crit:
        if g - d < min(s.subtree_min.values()) - tol:
            continue
        for p in _points_at(t, g, 0.0):
            pre = preimage_of(vm, p)
            if len(pre) < 2:
                continue
            meet = pre[0]
            for q in pre[1:]:
                meet = lca(s, meet, q)
            low = min(x.height for x in pre)
            spread = meet.height - low
            if spread > 2 * d + tol:
                return GoodMapReport(
                    False, "merge-spread", (p, tuple(pre), meet),
                    f"branches merging at {meet.height} share the image point "
                    f"({p.anchor}, {p.height}) but lie {spread} below it",
                )

    for w, attach in _missed_branches(vm, sorted(t.height)):
        gap = attach.height - t.subtree_min[w]
        if gap > 2 * d + tol:
            return GoodMapReport(
                False, "missed-depth", (w, attach),
                f"the image misses the branch at vertex {w}, leaving depth {gap} "
                f"unreached",
            )

    return GoodMapReport(True)


# -- map -> labeling ------------------------------------------------------


def labeling_from_map(vm: VertexMap) -> LabelPairing:
    """Optimal label transfer along a delta-good map.

    Every source leaf contributes its whole image preimage as pairs; every
    target leaf the image misses is paired with a deterministic preimage
    (smallest anchor) of the lowest image point above it.  Labels are the
    insertion positions.  The applied pairing realizes a labeled distance of
    at most delta when the map is delta-good.
    """
    s, t, tol = vm.source, vm.target, vm.tol
    pairs = []
    seen = []
    for v in s.leaves:
        w = map_point(vm, v)
        if any(_points_close(t, w, u, tol) for u in seen):
            continue
        seen.append(w)
        for x in preimage_of(vm, w):
            pairs.append((x, w))

    for w, attach in _missed_branches(vm, t.leaves):
        pre = preimage_of(vm, _snap_point(t, attach, tol))
        if not pre:
            raise MalformedMapError(
                f"no preimage for the image point above target leaf {w}; "
                f"is the map delta-good?"
            )
        pairs.append((pre[0], vertex_point(t, w)))
    return LabelPairing(s, t, tuple(pairs))


def apply_pairing(pairing: LabelPairing):
    """Materialize a pairing as two labeled trees (refining where needed)."""
    s_points = [a for a, _ in pairing.pairs]
    t_points = [b for _, b in pairing.pairs]
    s_ref, s_where = refine_at(pairing.source, s_points)
    t_ref, t_where = refine_at(pairing.target, t_points)
    s_labels = {k + 1: s_where[p] for k, p in enumerate(s_points)}
    t_labels = {k + 1: t_where[p] for k, p in enumerate(t_points)}
    return (
        LabeledMergeTree(s_ref, s_labels).ensure_valid(),
        LabeledMergeTree(t_ref, t_labels).ensure_valid(),
    )


# -- labeling -> map ------------------------------------------------------


def map_from_labeling(t1: LabeledMergeTree, t2: LabeledMergeTree, delta: float):
    """Shift map determined by a shared labeling, if one exists at this delta.

    Sends each source vertex to the point delta above where its subtree's
    labels sit in the target.  Feasible exactly when the two induced
    matrices differ by at most delta; otherwise the first offending entry is
    returned as :class:`InfeasibleLabeling`.
    """
    t1.ensure_valid()
    t2.ensure_valid()
    delta = float(delta)
    if delta < 0:
        raise MergespaceError(f"negative shift {delta}")
    if t1.n_labels != t2.n_labels:
        raise MergespaceError(
            f"label count mismatch: {t1.n_labels} vs {t2.n_labels}"
        )
    a = induced_matrix(t1).array
    b = induced_matrix(t2).array
    gaps = np.abs(a - b)
    tol = height_tol(t1, t2)
    first = int(np.argmax(gaps > delta + tol))  # first offending entry, row-major
    if gaps.flat[first] > delta + tol:
        i, j = divmod(first, t1.n_labels)
        return InfeasibleLabeling((i + 1, j + 1), float(gaps.flat[first]), delta)

    s = t1.tree
    t = t2.tree
    below = {}  # vertex -> sorted labels in its subtree (itself included)
    for v in s.postorder:
        acc = list(t1.labels_of[v])
        for c in s.children[v]:
            acc.extend(below[c])
        below[v] = sorted(acc)

    def lift(label: int, target_h: float) -> PointOnTree:
        w = t2.label_to_vertex[label]
        # the label vertex may sit a hair above h+delta inside the tolerance
        return ancestor_at(t, w, max(target_h, t.height[w]))

    images = {}
    for v, hv in s.vertices:
        labs = below[v]
        target_h = hv + delta
        first = lift(labs[0], target_h)
        for i in labs[1:]:
            other = lift(i, target_h)
            if not _points_close(t, other, first, tol):
                # labels of one subtree split in the target: only possible in
                # the tolerance slack, and means no map exists at this delta
                gap = float(abs(a[labs[0] - 1, i - 1] - b[labs[0] - 1, i - 1]))
                return InfeasibleLabeling((labs[0], i), gap, delta)
        images[v] = first
    return VertexMap(s, t, delta, images)
