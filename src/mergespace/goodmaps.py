"""Continuous shift maps between merge trees, and label transfer.

A :class:`VertexMap` records where every source vertex lands in the target;
edges follow by continuity (the image of an edge is the target path between
the endpoint images), so the finite data fully encodes a continuous map of
geometric realizations.  A map is delta-good when it shifts heights by
exactly delta, merges branches no earlier than 2*delta above them, and
misses no target branch deeper than 2*delta.  Good maps, label pairings,
and the conversions between them live here: a labeling at distance delta
gives a delta-good map, and a delta-good map gives a labeling at distance
at most delta, with one label per source leaf and per missed target leaf.

Every ancestry test reads the meet identity of `matrices.meet_table`, from
tables a map caches for both trees, whose rows follow each tree's walk and
are found by vertex id.  Merge-spread is one comparison over pairs of
source leaves, missed-depth one row minimum over leaf images.

Float discipline: stored heights are compared exactly where possible, but
image heights arise as sums (height + delta), so point lookups snap within
`height_tol` of the two trees rather than demand bit equality; scaling
every height by a power of two changes no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping, Union

import math

import numpy as np

from .errors import MalformedMapError, MergespaceError
from .matrices import induced_matrix, meet_table
from .metrics import _same_label_count
from .trees import (
    LabeledMergeTree,
    MergeTree,
    PointOnTree,
    _as_id,
    as_point,
    height_tol,
    point_at,
    points_at,
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
        if not 0 <= delta < math.inf:
            raise MalformedMapError(f"shift {delta} is not finite and nonnegative")
        if isinstance(images, Mapping):
            items = images.items()
        else:
            items = images
        norm = {}
        for v, p in items:
            v = _as_id(v)
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

    @cached_property
    def image_of(self) -> dict:
        return dict(self.images)

    @cached_property
    def tol(self) -> float:
        return height_tol(self.source, self.target)

    @cached_property
    def meets(self) -> tuple:
        return meet_table(self.source), meet_table(self.target)


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


def _points_close(meets, a: PointOnTree, b: PointOnTree, tol: float) -> bool:
    """Whether two points coincide up to tol, by their tree's meet table: the
    heights agree and the paths join within tol above the higher one."""
    rows, h = meets
    return (
        abs(a.height - b.height) <= tol
        and h[rows[a.anchor], rows[b.anchor]] <= max(a.height, b.height) + tol
    )


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
    return _snap_point(vm.target, point_at(vm.target, base.anchor, h), vm.tol)


def preimage_of(vm: VertexMap, p: PointOnTree):
    """All source points mapping to p, one per branch, sorted by anchor."""
    src_h = p.height - vm.delta
    out = []
    for x in points_at(vm.source, src_h, vm.tol):
        if _points_close(vm.meets[1], map_point(vm, x), p, 2 * vm.tol):
            out.append(x)
    return out


# -- goodness -------------------------------------------------------------


def _missed_branches(vm: VertexMap, vertices):
    """(w, attach, leaf) for each target vertex w whose branch no leaf image
    reaches: attach is the lowest meet of w with a leaf image, and leaf the
    first source leaf whose image meets w there."""
    t, tol, leaves = vm.target, vm.tol, vm.source.leaves
    rows, h = vm.meets[1]
    images = [vm.image_of[leaf] for leaf in leaves]
    lh = np.array([p.height for p in images])
    hw = np.array([t.height[w] for w in vertices])[:, None]
    joins = h[np.ix_([rows[w] for w in vertices], [rows[p.anchor] for p in images])]
    up = np.maximum(lh, hw)
    # w is reached when some leaf image lies below it on its path, up to tol
    reached = (lh <= hw + tol) & (up - hw <= tol) & (joins <= up + tol)
    meet = np.maximum(up, joins)
    nearest = meet.argmin(axis=1)
    for k in np.flatnonzero(~reached.any(axis=1)):
        u = nearest[k]
        yield vertices[k], point_at(t, vertices[k], meet[k, u]), leaves[u]


def _merge_spread(vm: VertexMap):
    """The merge-spread failure report, or None when there is none.

    Source leaves i and j share an image point from the lowest critical
    height g where both reach g - delta and their images meet, up to the
    tolerance of `preimage_of`; their branches must join by g + delta + tol.
    The witness is sought point by point at offending heights only.
    """
    s, t, d, tol = vm.source, vm.target, vm.delta, vm.tol
    (srows, sh), (trows, th) = vm.meets
    crit = np.unique([p.height for _, p in vm.images] + list(t.height.values()))
    images = [vm.image_of[leaf] for leaf in s.leaves]
    fh = np.array([p.height for p in images])
    fr = [trows[p.anchor] for p in images]
    together = np.searchsorted(crit + 2 * tol, np.maximum(np.maximum.outer(fh, fh), th[np.ix_(fr, fr)]))
    sr = [srows[leaf] for leaf in s.leaves]
    hl = sh[sr, sr][:, None]
    # a leaf's branch reaches g - delta from its first critical g on; its
    # point there is the leaf itself while that lies within tol
    born = len(crit) - np.count_nonzero(hl - (crit - d) <= tol, axis=1)
    g = np.append(crit, np.inf)[np.maximum(together, np.maximum.outer(born, born))]
    at = np.where(abs(hl - (g - d)) <= tol, hl, g - d)
    bad = sh[np.ix_(sr, sr)] - np.minimum(at, at.T) > 2 * d + tol
    for h in np.unique(g[bad]).tolist():
        for p in points_at(t, h, 0.0):
            pre = preimage_of(vm, p)
            if len(pre) < 2:
                continue
            base = srows[pre[0].anchor]
            top = float(max(max(x.height, sh[base, srows[x.anchor]]) for x in pre))
            spread = top - min(x.height for x in pre)
            if spread > 2 * d + tol:
                return GoodMapReport(
                    False, "merge-spread", (p, tuple(pre), point_at(s, pre[0].anchor, top)),
                    f"branches merging at {top} share the image point "
                    f"({p.anchor}, {p.height}) but lie {spread} below it",
                )
    return None


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
        # the child's image raised to the parent's image's height lands on it
        lifted = PointOnTree(img[c].anchor, max(img[c].height, img[p].height))
        if not _points_close(vm.meets[1], lifted, img[p], tol):
            return GoodMapReport(
                False, "edge-coherence", (c, p),
                f"images of edge ({c}, {p}) do not lie on one target path",
            )

    spread = _merge_spread(vm)
    if spread is not None:
        return spread

    rows, h = vm.meets[1]
    for w, attach, _ in _missed_branches(vm, sorted(t.height)):
        below = h[rows[w]] <= t.height[w]  # w's subtree: it meets w at w
        gap = attach.height - float(np.diag(h)[below].min())
        if gap > 2 * d + tol:
            return GoodMapReport(
                False, "missed-depth", (w, attach),
                f"the image misses the branch at vertex {w}, leaving depth {gap} "
                f"unreached",
            )

    return GoodMapReport(True)


# -- map -> labeling ------------------------------------------------------


def labeling_from_map(vm: VertexMap) -> LabelPairing:
    """Label transfer along a delta-good map f, one label per leaf.

    Each source leaf v is paired with f(v).  Each target leaf w that the
    image misses first meets a leaf image f(u) at some height a; w is paired
    with the point of u's branch at max(a - delta, h(u)), which f sends to
    that meeting point.  Labels are the insertion positions.

    On a delta-good map the applied pairing's labeled distance is at most
    delta, up to the tolerance:
    - two source leaves meet within delta of where their images meet, by
      the height-shift and merge-spread conditions;
    - a missed leaf's own height is within delta of its partner's, since
      a - h(w) <= 2*delta by missed depth;
    - a missed leaf meets any other label at max(a, m) in the target and
      at max(a - delta, m') in the source, where m and m' are that label's
      meets with f(u) and with u, which agree within delta; max is
      1-Lipschitz.  The exception, a missed leaf joining w below a, has the
      same u and a, so both of its meets lie within delta of a - delta.
    """
    s, t, d, tol = vm.source, vm.target, vm.delta, vm.tol
    pairs = [(vertex_point(s, v), map_point(vm, v)) for v in s.leaves]
    for w, attach, u in _missed_branches(vm, t.leaves):
        x = point_at(s, u, max(attach.height - d, s.height[u]))
        pairs.append((_snap_point(s, x, tol), vertex_point(t, w)))
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
    if not 0 <= delta < math.inf:
        raise MergespaceError(f"shift {delta} is not finite and nonnegative")
    _same_label_count(t1, t2)
    a, b = induced_matrix(t1).array, induced_matrix(t2).array
    gaps = np.abs(a - b)
    tol = height_tol(t1, t2)
    first = int(np.argmax(gaps > delta + tol))  # first offending entry, row-major
    if gaps.flat[first] > delta + tol:
        i, j = divmod(first, t1.n_labels)
        return InfeasibleLabeling((i + 1, j + 1), float(gaps.flat[first]), delta)

    s, t = t1.tree, t2.tree
    least = {}  # vertex -> smallest label in its subtree
    for v, _ in sorted(s.vertices, key=itemgetter(1)):  # children first: edges climb
        least[v] = min([*t1.labels_of[v], *(least[c] for c in s.children[v])])
    images = {}
    for v, hv in s.vertices:
        i = least[v] - 1
        labs = np.flatnonzero(a[i] <= hv)  # the labels of v's subtree, i first
        # each lifted to hv + delta on its target path (a label may sit a
        # hair above); they split only in the tolerance slack, and then no
        # map exists at this delta
        up = np.maximum(hv + delta, np.diag(b)[labs])
        split = (np.abs(up - up[0]) > tol) | (b[i, labs] > np.maximum(up, up[0]) + tol)
        if split.any():
            j = int(labs[np.argmax(split)])
            return InfeasibleLabeling((i + 1, j + 1), float(abs(a[i, j] - b[i, j])), delta)
        images[v] = point_at(t, t2.label_to_vertex[i + 1], up[0])
    return VertexMap(s, t, delta, images)
