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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import index, itemgetter
from typing import Iterable, Mapping, Sequence, Union

from .errors import InvalidTreeError, MergespaceError


@dataclass(frozen=True)
class PointOnTree:
    """A location on the geometric realization of a merge tree."""

    anchor: int
    height: float

    def __iter__(self):
        return iter((self.anchor, self.height))


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
    truncate or parse.
    """
    try:
        return index(x)
    except TypeError:
        raise MergespaceError(f"{what} {x!r} is not an integer") from None


def _normalize_vertices(vertices) -> tuple:
    if isinstance(vertices, Mapping):
        items = vertices.items()
    else:
        items = vertices
    return tuple(sorted((_as_id(v), float(h)) for v, h in items))


def _normalize_edges(edges) -> tuple:
    return tuple(sorted((_as_id(c), _as_id(p)) for c, p in edges))


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
        object.__setattr__(self, "vertices", _normalize_vertices(vertices))
        object.__setattr__(self, "edges", _normalize_edges(edges))

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
        """Vertex id -> height."""
        self.ensure_valid()
        return dict(self.vertices)

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
        """The unique vertex without a finite parent."""
        return next(v for v, p in self.parent.items() if p is None)

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
        return _label_walk(self.tree, self.labels_of)

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

    def ensure_valid(self) -> "LabeledMergeTree":
        if not self.validation.ok:
            raise InvalidTreeError(self.validation.violations)
        return self


def _label_walk(t: MergeTree, labels_of: Mapping) -> tuple:
    """(labels, heights, gaps) met by a depth-first walk of a valid tree.

    `labels_of` maps every vertex to the labels on it.  The labels in walk
    order, the height of each one's vertex, and for each neighbouring pair
    the height where the two meet: the highest vertex the walk passes
    between them.  Every subtree's labels are contiguous in this order, so
    any two labels meet at the highest gap between them.
    """
    height, parent, children = t.height, t.parent, t.children
    labels, heights, gaps = [], [], []
    meet = -math.inf  # highest vertex on the path since the last label
    stack = [t.top]
    while stack:
        v = stack.pop()
        if parent[v] is not None:
            meet = max(meet, height[parent[v]])
        for i in labels_of[v]:
            if labels:
                gaps.append(meet)
            labels.append(i)
            heights.append(height[v])
            meet = height[v]
        stack.extend(reversed(children[v]))
    return tuple(labels), tuple(heights), tuple(gaps)


def _validate(t: MergeTree) -> ValidationReport:
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
    seen_edges = set()
    for c, p in t.edges:
        if (c, p) in seen_edges:
            problems.append(f"duplicate edge ({c}, {p})")
            continue
        seen_edges.add((c, p))
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
    # end, so there is no cycle and the highest vertex is a top
    tops = [v for v in heights if v not in parents]
    if len(tops) > 1:
        problems.append(
            "disconnected: multiple top vertices " + str(tuple(sorted(tops)))
        )
    return ValidationReport(tuple(problems))


def _valid_by_construction(t):
    """Seed a tree's `validation` with an empty report and return the tree.

    For trees their builder makes valid, such as canonical forms and single
    linkage trees, so their first use skips `_validate`; a labeled tree's
    underlying tree is seeded too.
    """
    for u in (t, _bare(t)):
        u.__dict__["validation"] = ValidationReport(())  # the cached_property's slot
    return t


def _bare(t: Union[MergeTree, LabeledMergeTree]) -> MergeTree:
    """The underlying tree of a labeled tree; a bare tree as it is."""
    return t.tree if isinstance(t, LabeledMergeTree) else t


REL_TOL = 1e-9


def slack_of(heights) -> float:
    """REL_TOL of the heights' span, floored at their rounding."""
    lo, hi = float(min(heights)), float(max(heights))
    # 8 ULPs: a compared height is a sum or difference of a few rounded ones
    return max(REL_TOL * (hi - lo), 8 * math.ulp(max(-lo, hi)))


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
    h = float(height)
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
    pts = []
    for v, hv in t.vertices:
        par = t.parent[v]
        if abs(hv - h) <= tol:
            pts.append(vertex_point(t, v))
        elif hv < h and (par is None or h < t.height[par] and abs(t.height[par] - h) > tol):
            pts.append(PointOnTree(v, h))
    return pts


def as_point(t: MergeTree, p: Union[PointOnTree, int, tuple]) -> PointOnTree:
    """Coerce a vertex id, (anchor, height) pair, or point to canonical form;
    an unknown vertex or a height off the tree raises MergespaceError."""
    if isinstance(p, (PointOnTree, tuple)):
        anchor, height = p
        anchor = _as_id(anchor)
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


def _contract(t: MergeTree, keep) -> MergeTree:
    """Drop removable vertices, reconnecting children to the nearest kept ancestor."""
    kept = set(keep)

    def kept_ancestor(v):
        u = t.parent[v]
        while u is not None and u not in kept:
            u = t.parent[u]
        return u

    vertices = [(v, t.height[v]) for v in kept]
    edges = []
    for v in kept:
        u = kept_ancestor(v)
        if u is not None:
            edges.append((v, u))
    # the callers keep every leaf and branch point: kept ancestors are
    # strictly higher, and every kept vertex lies below the first kept one
    # down the top's chain of single children, so there is one top
    return _valid_by_construction(MergeTree(vertices, edges))


def canonicalize_tree(t: MergeTree) -> MergeTree:
    """Remove every vertex with exactly one child (no labels to protect)."""
    t.ensure_valid()
    keep = [v for v, _ in t.vertices if len(t.children[v]) != 1]
    return _contract(t, keep)


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
    return _valid_by_construction(LabeledMergeTree(_contract(t, keep), lt.labels))


def _interned_top(t: MergeTree, labels_of: Mapping, table: dict) -> int:
    """Id of the top's signature in `table`, built bottom-up without nesting.

    Each vertex's (height, labels, sorted child ids) gets one integer id, so
    two vertices share an id exactly when their signatures are equal, and no
    step recurses as deep as the tree.  Edges climb, so height order visits
    every child before its parent.
    """
    t.ensure_valid()
    ids = {}
    for v, _ in sorted(t.vertices, key=itemgetter(1)):
        key = (
            t.height[v],
            labels_of[v] if labels_of else (),
            tuple(sorted(ids[c] for c in t.children[v])),
        )
        ids[v] = table.setdefault(key, len(table))
    return ids[t.top]


def trees_equal(a: MergeTree, b: MergeTree) -> bool:
    """Structural equality after canonicalization, exact heights, ids ignored."""
    table = {}
    return _interned_top(canonicalize_tree(a), None, table) == _interned_top(
        canonicalize_tree(b), None, table
    )


def labeled_trees_equal(a: LabeledMergeTree, b: LabeledMergeTree) -> bool:
    ca, cb = canonicalize(a), canonicalize(b)
    table = {}
    return _interned_top(ca.tree, ca.labels_of, table) == _interned_top(
        cb.tree, cb.labels_of, table
    )


# -- refinement -----------------------------------------------------------


def refine_at(t: MergeTree, points: Sequence[PointOnTree]):
    """Insert vertices so every given point is a vertex.

    Returns (refined tree, mapping from each requested point to its vertex
    id).  Points already at vertices map to the existing id; new ids are
    allocated past the current maximum, deterministically by position.
    """
    t.ensure_valid()
    points = [as_point(t, p) for p in points]
    next_id = max(t.height) + 1
    where = {}
    inserts = {}  # anchor vertex -> sorted list of new heights on its parent edge/ray
    for p in points:
        if is_vertex_point(t, p):
            where[p] = p.anchor
        else:
            inserts.setdefault(p.anchor, set()).add(p.height)

    vertices = list(t.vertices)
    edges = []
    new_at = {}
    for anchor in sorted(inserts):
        for h in sorted(inserts[anchor]):
            vertices.append((next_id, h))
            new_at[(anchor, h)] = next_id
            next_id += 1

    for v, _ in t.vertices:
        chain = [v] + [
            new_at[(v, h)] for h in sorted(inserts.get(v, ()))
        ]
        par = t.parent[v]
        for lower, upper in zip(chain, chain[1:]):
            edges.append((lower, upper))
        if par is not None:
            edges.append((chain[-1], par))

    out = MergeTree(vertices, edges)
    for p in points:
        if p not in where:
            where[p] = new_at[(p.anchor, p.height)]
    return out, where
