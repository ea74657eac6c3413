"""Merge trees with an implicit root at +infinity.

A merge tree is stored as its finite part only: vertices carrying real
heights, and child->parent edges where the parent is strictly higher.  The
single vertex without a parent (the top vertex) is joined to an implicit
root at +infinity by a ray, so the geometric realization of a tree always
extends upward without bound.  Leaves are the vertices without children.
Edges climb and no vertex has two parents, so a valid tree has no cycle.

Labeled trees attach label indices 1..n to vertices.  Several labels may sit
on one vertex, labels may sit on internal vertices, and every leaf must
carry at least one label.

Points of the realization are addressed by :class:`PointOnTree`: the anchor
is the highest vertex at or below the point on its branch, so a point is a
vertex exactly when its height equals the anchor's height, an interior edge
point when it lies strictly between the anchor and the anchor's parent, and
a ray point when the anchor is the top vertex and the height exceeds it.
That addressing is canonical, which makes point equality plain field
equality.  Every coercion to a point goes through :func:`point_at`.

Vertex ids are opaque nonnegative integers and survive canonicalization, so
references held by callers stay meaningful.

Every caller id, label and count goes through `_as_id`, and every caller
real (height, birth, death, shift, interpolation parameter) through `_number`.

numpy is imported on first use.  `np` here, which every numpy module of the
package imports from this one, is a stand-in module: its first attribute
read imports numpy (or finds it already loaded), copies numpy's namespace
into the stand-in and makes it a plain module, so later reads cost what any
module attribute costs.  The import lock makes
that first read safe from several threads at once.  The stand-in never
enters `sys.modules`, so another module's `import numpy` loads numpy as
usual.  Reading, validating and canonicalizing trees, elder-rule diagrams,
small bottleneck matchings and an unlabeled search settled by its first
probe never read `np`.
"""

from __future__ import annotations

import importlib
import math
import sys
import types
from dataclasses import dataclass
from functools import cached_property
from operator import index, itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import InvalidTreeError, MergespaceError


class _Numpy(types.ModuleType):
    """numpy, imported by the first attribute read (see the module docstring)."""

    def __getattr__(self, name):
        numpy = importlib.import_module("numpy")
        vars(self).update(vars(numpy))
        self.__class__ = types.ModuleType
        return getattr(numpy, name)


np = _Numpy("numpy")

__all__ = [
    "MergeTree",
    "LabeledMergeTree",
    "PointOnTree",
    "ValidationReport",
    "vertex_point",
    "point_at",
    "lca",
    "canonicalize_tree",
    "canonicalize",
    "trees_equal",
    "labeled_trees_equal",
    "refine_at",
]


class PointOnTree(NamedTuple):
    """A location on the geometric realization of a merge tree; equal to,
    and hashed like, its (anchor, height) tuple."""

    anchor: int
    height: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of structural validation; violations name vertices/edges."""

    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _as_id(x, what: str = "vertex id") -> int:
    """An integer id (numpy integers too) as an int; anything else raises.

    `operator.index` refuses floats and strings, which `int()` would
    truncate or parse, and numpy bools; a Python bool it reads as 0 or 1,
    so that one is refused here.
    """
    if x.__class__ is not bool:
        try:
            return index(x)
        except TypeError:
            pass
    raise MergespaceError(f"{what} {x!r} is not an integer")


def _number(x, what: str = "height") -> float:
    """A real (int, float, numpy integer or floating) as a float; float()
    would also read "1.5", b"3" and True.  Any other type (bools too), or an
    int too large for a float, raises MergespaceError naming `what`.

    numpy's scalar types are looked up only once numpy is loaded, as a
    numpy scalar implies, so a caller's int or float never loads it."""
    if x.__class__ is float:  # as the text readers give: kept as it is
        return x
    if x.__class__ is not bool and (
        isinstance(x, (int, float))
        or (numpy := sys.modules.get("numpy")) is not None
        and isinstance(x, (numpy.integer, numpy.floating))
    ):
        try:
            return float(x)
        except OverflowError:
            raise MergespaceError(f"{what} is too large for a float") from None
    raise MergespaceError(f"non-numeric {what}")


@dataclass(frozen=True)
class MergeTree:
    """Finite part of a merge tree: (id, height) vertices and child->parent edges.

    Construction never validates; the `validation` property reports violations
    as data and operations raise :class:`InvalidTreeError` lazily on first use.
    That split lets tools load a broken tree and describe what is wrong with
    it instead of refusing to look.
    """

    vertices: tuple
    edges: tuple

    def __init__(self, vertices: Union[Mapping, Iterable], edges: Iterable):
        if isinstance(vertices, Mapping):
            vertices = vertices.items()
        vertices = tuple(sorted((_as_id(v), _number(h)) for v, h in vertices))
        edges = tuple(sorted((_as_id(c), _as_id(p)) for c, p in edges))
        self.__dict__.update(vertices=vertices, edges=edges)

    # -- validation ------------------------------------------------------

    @cached_property
    def validation(self) -> ValidationReport:
        return _validate(self)

    def ensure_valid(self) -> "MergeTree":
        if not self.validation.ok:
            raise InvalidTreeError(self.validation.violations)
        return self

    # -- derived structure (requires validity) ---------------------------

    @cached_property
    def height(self) -> dict:
        """Vertex id -> height; validation's own map when it built one."""
        self.ensure_valid()
        return self.__dict__.get("height") or dict(self.vertices)

    @cached_property
    def parent(self) -> dict:
        """Vertex id -> parent id, or None for the top vertex."""
        self.ensure_valid()
        par = {v: None for v, _ in self.vertices}
        for c, p in self.edges:
            par[c] = p
        return par

    @cached_property
    def children(self) -> dict:
        """Vertex id -> tuple of child ids, sorted."""
        self.ensure_valid()
        ch = {v: [] for v, _ in self.vertices}
        for c, p in self.edges:
            ch[p].append(c)
        return {v: tuple(c) for v, c in ch.items()}

    @cached_property
    def top(self) -> int:
        """The highest vertex: edges climb, so it is unique and has no parent."""
        return max(self.height, key=self.height.__getitem__)

    @cached_property
    def leaves(self) -> tuple:
        return tuple(v for v, _ in self.vertices if not self.children[v])


@dataclass(frozen=True)
class LabeledMergeTree:
    """A merge tree plus a label map {1..n} -> vertices, onto the leaves."""

    tree: MergeTree
    labels: tuple

    def __init__(self, tree: MergeTree, labels: Union[Mapping, Iterable]):
        if isinstance(labels, Mapping):
            items = labels.items()
        else:
            items = labels
        object.__setattr__(self, "tree", tree)
        object.__setattr__(
            self,
            "labels",
            tuple(sorted((_as_id(i, "label"), _as_id(v)) for i, v in items)),
        )

    @cached_property
    def label_to_vertex(self) -> dict:
        return dict(self.labels)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @cached_property
    def labels_of(self) -> dict:
        """Vertex id -> tuple of label indices on it (possibly empty)."""
        out = {v: [] for v, _ in self.tree.vertices}
        for i, v in self.labels:
            if v in out:
                out[v].append(i)
        return {v: tuple(l) for v, l in out.items()}

    @cached_property
    def label_walk(self) -> tuple:
        """(labels, heights, gaps) of `_label_walk` over this tree's labels."""
        on = {}
        for i, v in self.labels:
            on.setdefault(v, []).append(i)
        return _label_walk(self.tree, on)

    @cached_property
    def walk_spans(self) -> tuple:
        """`_walk_spans` of this tree's own `label_walk`."""
        return _walk_spans(*self.label_walk)

    @cached_property
    def validation(self) -> ValidationReport:
        problems = list(self.tree.validation.violations)
        seen = {}
        for i, v in self.labels:
            if i in seen:
                problems.append(f"label {i} assigned twice")
            seen[i] = v
            if not self.tree.validation.ok:
                continue
            if v not in self.tree.height:
                problems.append(f"label {i} names unknown vertex {v}")
        n = len(seen)
        expected = set(range(1, n + 1))
        if set(seen) != expected:
            problems.append(
                f"label indices must cover 1..{n} exactly, got {sorted(seen)}"
            )
        if self.tree.validation.ok:
            labeled = set(self.label_to_vertex.values())
            for leaf in self.tree.leaves:
                if leaf not in labeled:
                    problems.append(f"leaf {leaf} carries no label")
        return ValidationReport(tuple(problems))

    ensure_valid = MergeTree.ensure_valid  # the same function; no subclassing


def _label_walk(t: MergeTree, labels_of: Mapping) -> tuple:
    """(labels, heights, gaps) met by a depth-first walk of a valid tree.

    `labels_of` maps a vertex to its labels, if any.  The labels in walk
    order, the height of each one's vertex, and for each neighbouring pair
    the height where the two meet: the highest vertex the walk passes
    between them.  Every subtree's labels are contiguous in this order, so
    any two labels meet at the highest gap between them.  The walk starts
    at the top, the highest vertex, and pushes each child with its parent's
    height, so it needs no `parent` map; `meet` rises as `max` would.
    """
    height, children = t.height, t.children
    labels, heights, gaps = [], [], []
    meet = -math.inf  # highest vertex on the path since the last label
    stack = [(t.top, -math.inf)]
    while stack:
        v, up = stack.pop()
        if up > meet:
            meet = up
        h = height[v]
        for i in labels_of.get(v, ()):
            if labels:
                gaps.append(meet)
            labels.append(i)
            heights.append(h)
            meet = h
        stack.extend([(c, h) for c in reversed(children[v])])
    return tuple(labels), tuple(heights), tuple(gaps)


def _walk_spans(labels, own, gaps) -> tuple:
    """O(n) arrays of a walk of n labels that `_walk_gap` reads.

    `order` holds the label index (label - 1) at each walk position, plus a
    spare 0; `rank` the walk position of each label index; `own` each
    label's height by label index; `gaps` the walk's gaps, plus a spare
    -inf.  Gap k is the leftmost largest gap between positions p <= k < q
    exactly when l <= p and q <= r: l is one past the previous gap at or
    above gap k, and r is the next gap above it (n - 1 if none).  `spans`
    holds l and r + 1 for each gap, found in one stack pass.  The spares
    keep every `reduceat` index below its array's length; what they add
    lands only in the discarded slots between the spans.
    """
    n = len(labels)
    spans, stack = [0, n] * (n - 1), []
    for k, g in enumerate(gaps):
        while stack and gaps[stack[-1]] < g:
            spans[2 * stack.pop() + 1] = k + 1
        if stack:
            spans[2 * k] = stack[-1] + 1
        stack.append(k)
    order = np.array(labels + (1,), dtype=np.intp) - 1
    rank = np.empty(n, dtype=np.intp)
    rank[order[:n]] = np.arange(n)
    own = np.array(own)[rank]
    return order, rank, own, np.array(gaps + (-math.inf,)), np.array(spans, dtype=np.intp)


def _walk_gap(a, b) -> float:
    """Largest |A_ij - B_ij| of two trees' induced matrices, from their
    `walk_spans`: the diagonal's largest gap, then `_walk_excess` each way.
    The final `abs` turns a zero gap into 0.0, as in `linf_distance`.

    Neither matrix is built.  In walk order each matrix is a range maximum
    over the walk's gaps, so the pairs of one tree fall into rectangles,
    one per gap, on which that tree's matrix is constant, and the other
    tree's largest entry on a rectangle is one range maximum over its own
    walk.  Each tree caches O(n) arrays for this
    (`LabeledMergeTree.walk_spans`), and a pair costs a few numpy
    reductions.
    """
    d = np.abs(a[2] - b[2]).max()
    return abs(float(max(d, _walk_excess(a, b), _walk_excess(b, a))))


def _walk_excess(a, b) -> float:
    """Largest A_ij - B_ij over i != j, or -inf for one label.

    B equals gap k's height g on the pairs of B walk positions l..k with
    k+1..r (see `_walk_spans`), and those rectangles cover every pair.
    Rounding is monotone, so a rectangle's best is its largest A entry
    minus g.  Take the least and greatest A walk positions, lo and
    hi, of the labels at B positions l..r.  Every cross pair's A entry is
    the highest A gap between its positions, so none tops the highest gap
    in [lo, hi).  Labels lie on both sides of that gap; were no cross pair
    to straddle it, all of them would come from one side of the rectangle.
    So one does, and the largest A entry is that gap.  Each candidate
    subtracts the same two copied heights as the dense route.
    """
    _, rank, _, a_gaps, _ = a
    order, _, _, b_gaps, spans = b
    x = rank[order]  # A's walk position at each B walk position, and a spare
    ends = np.minimum.reduceat(x, spans)  # each rectangle's lo, then junk
    ends[1::2] = np.maximum.reduceat(x, spans)[::2]  # and its hi
    top = np.maximum.reduceat(a_gaps, ends)[::2]
    return (top - b_gaps[:-1]).max(initial=-np.inf)


def _validate(t: MergeTree) -> ValidationReport:
    """Every structural violation of `t`, in a fixed order.  On a valid
    tree the id -> height map built here is kept as `t.height`."""
    problems = []
    if not t.vertices:
        return ValidationReport(("tree has no vertices",))

    heights = {}
    for v, h in t.vertices:
        if v < 0:
            problems.append(f"vertex id {v} is negative")
        if v in heights:
            problems.append(f"duplicate vertex id {v}")
        if not math.isfinite(h):
            problems.append(f"vertex {v} has non-finite height {h}")
        heights[v] = h
    if problems:
        return ValidationReport(tuple(problems))

    parents = {}
    last = None  # edges are sorted as whole pairs: a repeat follows its first
    for edge in t.edges:
        c, p = edge
        if edge == last:
            problems.append(f"duplicate edge ({c}, {p})")
            continue
        last = edge
        if c not in heights or p not in heights:
            problems.append(f"edge ({c}, {p}) references an unknown vertex")
            continue
        if c == p:
            problems.append(f"edge ({c}, {p}) is a self loop")
            continue
        if heights[c] == heights[p]:
            problems.append(f"edge ({c}, {p}) has equal function value on both ends")
        elif heights[c] > heights[p]:
            problems.append(f"edge ({c}, {p}) runs downward: child above parent")
        if c in parents:
            problems.append(f"vertex {c} has multiple ancestors ({parents[c]} and {p})")
        else:
            parents[c] = p
    if problems:
        return ValidationReport(tuple(problems))

    # every edge climbs strictly and no vertex has two parents: parent chains
    # end, so there is no cycle, the highest vertex is a top, and so is every
    # other vertex without a parent
    if len(parents) < len(heights) - 1:
        tops = tuple(sorted(v for v in heights if v not in parents))
        problems.append(f"disconnected: multiple top vertices {tops}")
    else:
        t.__dict__["height"] = heights
    return ValidationReport(tuple(problems))


_VALID = ValidationReport(())


def _stored(vertices: tuple, edges: tuple, labels: tuple = None):
    """A tree over parts already in normal form, stored as they are.

    The parts are what the normalizing constructors would store: (id,
    height) pairs sorted by id, (child, parent) pairs sorted as whole pairs
    (so `_validate` finds a repeated edge right after its first copy), and
    (label, vertex) pairs sorted by label, with int ids and float heights.
    With `labels` the result is a labeled tree over the bare one.  Nothing
    is checked: `validation` runs `_validate` on first use as usual.
    """
    t = object.__new__(MergeTree)
    t.__dict__.update(vertices=vertices, edges=edges)
    if labels is None:
        return t
    lt = object.__new__(LabeledMergeTree)
    lt.__dict__.update(tree=t, labels=labels)
    return lt


def _trusted(vertices: tuple, edges: tuple, labels: tuple = None):
    """`_stored`, for parts its builder made valid: each `validation` is
    seeded with an empty report, so first use skips `_validate`; nothing
    else is seeded, so `label_walk` and `walk_spans` come from a tree's own
    depth-first walk."""
    out = _stored(vertices, edges, labels)
    out.__dict__["validation"] = _bare(out).__dict__["validation"] = _VALID
    return out


def _bare(t: Union[MergeTree, LabeledMergeTree]) -> MergeTree:
    """The underlying tree of a labeled tree; a bare tree as it is."""
    return t.tree if isinstance(t, LabeledMergeTree) else t


REL_TOL = 1e-9


def slack_of(heights) -> float:
    """REL_TOL of the heights' span, floored at their rounding."""
    lo, hi = float(min(heights)), float(max(heights))
    span = hi - lo
    # a span past the float range is scaled before the subtraction instead
    rel = REL_TOL * span if span != math.inf else REL_TOL * hi - REL_TOL * lo
    # 8 ULPs: a compared height is a sum or difference of a few rounded ones
    return max(rel, 8 * math.ulp(max(-lo, hi)))


def height_tol(*trees) -> float:
    """Height slack of these trees, by `slack_of` over all their heights."""
    return slack_of([h for t in trees for _, h in _bare(t).vertices])


# -- points ---------------------------------------------------------------


def vertex_point(t: MergeTree, v: int) -> PointOnTree:
    """The vertex v as a point; v must be a vertex of t (unchecked)."""
    return PointOnTree(v, t.height[v])


def point_at(t: MergeTree, anchor: int, height: float) -> PointOnTree:
    """Canonical point from a below-vertex anchor and a height.

    Walks upward so the stored anchor is the highest vertex at or below the
    point.  The anchor must be a vertex of t and the height finite and at or
    above it, or MergespaceError is raised.
    """
    anchor, h = _as_id(anchor), _number(height)
    if anchor not in t.height:
        raise MergespaceError(f"unknown vertex {anchor}")
    if not t.height[anchor] <= h < math.inf:
        raise MergespaceError(
            f"no point at height {h} at or above vertex {anchor}"
        )
    v = anchor
    while True:
        p = t.parent[v]
        if p is None or t.height[p] > h:
            return PointOnTree(v, h)
        v = p


def points_at(t: MergeTree, h: float, tol: float):
    """All points of the realization at height h, snapped within tol.

    One point per branch: a vertex when its height is within tol of h,
    otherwise an interior edge (or ray) point.  Sorted by anchor id.
    """
    parent, height = t.parent, t.height
    branches = [
        (hv, math.inf if parent[v] is None else height[parent[v]], v) for v, hv in t.vertices
    ]
    return [PointOnTree(b[2], x) for x, b in _branches_at(branches, h, tol)]


def _branches_at(branches, h: float, tol: float) -> list:
    """(height, branch) of each branch that holds a point at height h.

    A branch is a sequence whose first two items are its vertex's height
    and its parent's, inf for the top's ray.  The point is the vertex when
    its height is within tol of h; otherwise a branch holds h above its
    vertex and, unless it is the ray, more than tol below its parent.  The
    order is the branches' own.
    """
    out = []
    for b in branches:
        hv = b[0]
        if abs(hv - h) <= tol:
            out.append((hv, b))
        elif hv < h:
            hp = b[1]
            if hp == math.inf or h < hp and abs(hp - h) > tol:
                out.append((h, b))
    return out


def as_point(t: MergeTree, p: Union[PointOnTree, int, tuple]) -> PointOnTree:
    """Coerce a vertex id, (anchor, height) pair, or point to canonical form;
    an unknown vertex or a height off the tree raises MergespaceError."""
    if isinstance(p, tuple):  # a PointOnTree too
        anchor, height = p
    else:  # a vertex id; point_at refuses an unknown one before its height
        anchor = _as_id(p)
        height = t.height.get(anchor, 0.0)
    return point_at(t, anchor, height)


def is_vertex_point(t: MergeTree, p: PointOnTree) -> bool:
    return p.height == t.height[p.anchor]


def lca(
    t: MergeTree, a: Union[PointOnTree, int], b: Union[PointOnTree, int]
) -> PointOnTree:
    """Lowest common ancestor of two points; always a finite point.

    When one point sits on the upward path of the other, the higher point is
    returned; otherwise the paths first meet at a merge vertex.  Found by
    stepping the lower anchor up until the anchors agree.
    """
    a, b = as_point(t, a), as_point(t, b)
    u, v = a.anchor, b.anchor
    while u != v:
        if t.height[u] <= t.height[v]:
            u = t.parent[u]
        else:
            v = t.parent[v]
    return point_at(t, u, max(a.height, b.height, t.height[u]))


# -- canonical form and equality ------------------------------------------


def _contract(t: MergeTree, keep, labels: tuple = None):
    """Drop removable vertices, reconnecting children to the nearest kept
    ancestor; with `labels`, a labeled tree carrying them."""
    kept = set(keep)

    def kept_ancestor(v):
        u = t.parent[v]
        while u is not None and u not in kept:
            u = t.parent[u]
        return u

    vertices = tuple((v, h) for v, h in t.vertices if v in kept)
    edges = []
    for v, _ in vertices:
        u = kept_ancestor(v)
        if u is not None:
            edges.append((v, u))
    # the callers keep every leaf and branch point: kept ancestors are
    # strictly higher, and every kept vertex lies below the first kept one
    # down the top's chain of single children, so there is one top
    return _trusted(vertices, tuple(edges), labels)


def canonicalize_tree(t: MergeTree) -> MergeTree:
    """Remove every vertex with exactly one child (no labels to protect).

    A tree with no such vertex is already canonical and comes back as it is.
    """
    children = t.children
    keep = [v for v, _ in t.vertices if len(children[v]) != 1]
    return t if len(keep) == len(t.vertices) else _contract(t, keep)


def canonicalize(lt: LabeledMergeTree) -> LabeledMergeTree:
    """Smallest tree of the subdivision class, labels kept in place.

    Removes every unlabeled vertex with exactly one child.  The top vertex
    counts as removable too: the ray above it plays the role of its parent
    edge, so an unlabeled single-child top is a subdivision point like any
    other.  Idempotent, and vertex ids of kept vertices are unchanged.
    """
    lt.ensure_valid()
    t = lt.tree
    keep = [
        v
        for v, _ in t.vertices
        if len(t.children[v]) != 1 or lt.labels_of[v]
    ]
    # every labeled vertex and every leaf is kept, and no new leaf appears
    return _contract(t, keep, lt.labels)


def _interned_top(t: MergeTree, table: dict) -> int:
    """Id of the top's signature in `table`, built bottom-up without nesting.

    Each vertex's (height, sorted child ids) gets one integer id, so two
    vertices share an id exactly when their signatures are equal, and no
    step recurses as deep as the tree.  Edges climb, so height order visits
    every child before its parent.
    """
    ids = {}
    for v, _ in sorted(t.vertices, key=itemgetter(1)):
        key = (t.height[v], tuple(sorted(ids[c] for c in t.children[v])))
        ids[v] = table.setdefault(key, len(table))
    return ids[t.top]


def trees_equal(a: MergeTree, b: MergeTree) -> bool:
    """Structural equality after canonicalization, exact heights, ids ignored."""
    table = {}
    return _interned_top(canonicalize_tree(a), table) == _interned_top(
        canonicalize_tree(b), table
    )


def labeled_trees_equal(a: LabeledMergeTree, b: LabeledMergeTree) -> bool:
    """Equal canonical forms, exact heights, vertex ids ignored.

    A canonical tree and its induced matrix determine each other, so the
    trees are equal exactly when they carry equally many labels and their
    labeled distance, read off the two label walks, is zero.
    """
    a.ensure_valid()
    b.ensure_valid()
    return a.n_labels == b.n_labels and _walk_gap(a.walk_spans, b.walk_spans) == 0.0


# -- refinement -----------------------------------------------------------


def refine_at(t: MergeTree, points: Sequence[PointOnTree]):
    """Insert vertices so every given point is a vertex.

    Returns (refined tree, mapping from each requested point to its vertex
    id).  Points already at vertices map to the existing id; the others get
    ids past the current maximum in (anchor, height) order, each spliced
    into the parent map above the last vertex inserted over its anchor.
    Each lies strictly inside its edge or on the ray, and the parent map
    keeps id order, so the parts are valid and sorted: stored as built.
    """
    t.ensure_valid()
    points = [as_point(t, p) for p in points]
    vertices, parent = list(t.vertices), dict(t.parent)
    ids, last = {}, {}  # (anchor, height) -> new id; anchor -> last vertex above it
    new = sorted({p for p in points if not is_vertex_point(t, p)})
    for v, (anchor, h) in enumerate(new, max(t.height) + 1):
        below = last.get(anchor, anchor)
        parent[v], parent[below] = parent[below], v
        ids[anchor, h] = last[anchor] = v
        vertices.append((v, h))
    edges = tuple((c, p) for c, p in parent.items() if p is not None)
    return _trusted(tuple(vertices), edges), {p: ids.get(p, p.anchor) for p in points}
