"""Symmetric matrices and the correspondence with labeled merge trees.

A matrix indexed by labels 1..n encodes a labeled merge tree through lowest
common ancestors: entry (i, j) is the height where the branches of labels i
and j meet, and the diagonal holds the label heights themselves.  `valid`
matrices (diagonal never exceeds its row) are exactly the ones the sublevel
construction accepts; `ultra` matrices additionally satisfy the relaxed
ultrametric bound and are exactly the matrices that trees induce.

Both directions work in whole-matrix numpy passes over the n x n matrix of
n labels, plus one walk over the tree's vertices.  A matrix's tree is single
linkage, which is the minimum spanning tree of the complete label graph
(Gower & Ross 1969): at most ceil(log2 n) Borůvka rounds, each a few O(n^2)
passes, find its n - 1 edges, and only those are merged; each round
compares component ids in the narrowest integer dtype that holds n.  A
tree's matrix is one depth-first walk (`trees._label_walk`) and one kernel
(`_walk_meets`): with rows and columns in walk order, a running maximum
down column blocks about sqrt(n) wide fills the triangle below the
diagonal, about half the matrix, and its transpose fills the other half;
`_walk_matrix` then gathers the labels into index order.  One union-find
sweep over the spanning tree's edges (`_linkage`) yields both the tree's
vertices and its labels in walk order, so `ultrafy` and `is_ultra` hand
that walk to the kernel and build no tree; the trees it does build are
valid by construction and are not validated again.

The same walk and kernel, with each vertex as its own label, give a bare
tree's meet table H (`meet_table`).  Its rows follow the walk and callers
find them through its row map, so it needs no gather and no labeled tree.
Points p and q meet at max(p.height, q.height, H[p.anchor, q.anchor]): one
lies on the other's upward path, or their anchors join at a vertex above both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrixError
from .trees import (
    LabeledMergeTree,
    MergeTree,
    _label_walk,
    _valid_by_construction,
    slack_of,
)

__all__ = [
    "SymMatrix",
    "as_sym_matrix",
    "MatrixCheck",
    "is_valid",
    "is_ultra",
    "induced_matrix",
    "tree_of_matrix",
    "ultrafy",
    "linf_distance",
]


class SymMatrix:
    """Immutable square symmetric matrix of finite floats.

    Thin wrapper around a read-only numpy array.  Indexing is zero-based and
    delegates to numpy; label-facing reports elsewhere are one-based.
    An asymmetry within `trees.slack_of` the entries is averaged away.
    """

    __slots__ = ("_a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise InvalidMatrixError("empty matrix")
        if not np.isfinite(a).all():
            raise InvalidMatrixError("matrix entries must be finite")
        if not (a == a.T).all():
            gap = np.max(np.abs(a - a.T))
            if gap > slack_of((a.min(), a.max())):
                raise InvalidMatrixError(
                    f"matrix is not symmetric (largest asymmetry {gap:g})"
                )
            a = (a + a.T) / 2.0
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _unchecked(cls, a: np.ndarray) -> "SymMatrix":
        """Wrap a fresh array that is square, finite and symmetric by construction."""
        m = cls.__new__(cls)
        a.setflags(write=False)
        m._a = a
        return m

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def n(self) -> int:
        return self._a.shape[0]

    def __getitem__(self, idx):
        return self._a[idx]

    def __eq__(self, other):
        if isinstance(other, SymMatrix):
            other = other._a
        return isinstance(other, np.ndarray) and np.array_equal(self._a, other)

    def __hash__(self):
        return hash((self.n, (self._a + 0.0).tobytes()))  # -0.0 + 0.0 is 0.0

    def __repr__(self):
        return f"SymMatrix({self._a.tolist()!r})"


def as_sym_matrix(m) -> SymMatrix:
    return m if isinstance(m, SymMatrix) else SymMatrix(m)


@dataclass(frozen=True)
class MatrixCheck:
    """Boolean outcome plus the first offending index tuple (one-based)."""

    ok: bool
    witness: tuple = None

    def __bool__(self) -> bool:
        return self.ok


def is_valid(m) -> MatrixCheck:
    """Diagonal dominance from below: M_ii <= M_ij for every i, j."""
    a = as_sym_matrix(m).array
    bad = np.diag(a)[:, None] > a
    first = int(np.argmax(bad))  # first offending pair in row-major order
    if bad.flat[first]:
        i, j = divmod(first, a.shape[0])
        return MatrixCheck(False, (i + 1, j + 1))
    return MatrixCheck(True)


def is_ultra(m) -> MatrixCheck:
    """Valid plus the relaxed ultrametric bound M_ij <= max(M_ik, M_kj).

    A valid matrix is ultra exactly when it equals its `ultrafy`, which costs
    O(n^2 log n) at most.  An entry equal to its closure U satisfies the bound, since
    U_ij <= max(U_ik, U_kj) <= max(M_ik, M_kj); so the search for the first
    offending (i, j, k) visits only the entries the closure lowered, in
    row-major order.
    """
    m = as_sym_matrix(m)
    try:
        closure = ultrafy(m)
    except InvalidMatrixError:
        return is_valid(m)
    a = m.array
    for i, j in np.argwhere(a != closure.array):
        bad = np.nonzero(a[i, j] > np.maximum(a[i, :], a[:, j]))[0]
        if bad.size:
            return MatrixCheck(False, (int(i) + 1, int(j) + 1, int(bad[0]) + 1))
    return MatrixCheck(True)


def induced_matrix(lt: LabeledMergeTree) -> SymMatrix:
    """Pairwise lowest-common-ancestor heights of the labels.

    Entry (i, j) is the height of the meeting point of labels i and j; the
    diagonal is the height of each label's own vertex.  `_walk_matrix` builds
    it from the tree's cached depth-first `label_walk`.
    """
    lt.ensure_valid()
    return _walk_matrix(*lt.label_walk)


def meet_table(t: MergeTree):
    """(vertex id -> row, meet heights of every vertex pair): the walk of `t`
    with each vertex as its own label.  Rows follow the walk, so no gather."""
    vertices, own, gaps = _label_walk(t.ensure_valid(), {v: (v,) for v in t.height})
    return {v: k for k, v in enumerate(vertices)}, _walk_meets(own, gaps)


def _walk_matrix(labels, own, gaps) -> SymMatrix:
    """Matrix of labels 1..n from their walk: `trees._label_walk` or `_linkage`.

    `_walk_meets` builds it in walk order, and one gather by each label's
    walk position puts it in label order (`take` keeps the rows contiguous,
    where `m[rank][:, rank]` would not); meet tables skip that gather.
    """
    rank = np.empty(len(labels), dtype=np.intp)  # label index -> walk position
    rank[np.array(labels) - 1] = np.arange(len(labels))
    return SymMatrix._unchecked(_walk_meets(own, gaps).take(rank, 0).take(rank, 1))


def _walk_meets(own, gaps) -> np.ndarray:
    """Read-only symmetric matrix of the meets of a walk's positions, in walk order.

    The meet of two positions is the highest gap between them.  Entry
    (q, p) below the diagonal is the meet of positions q > p: the running
    maximum of the gaps just before rows p + 1..q.  Only those entries are
    accumulated, in blocks of `width` columns.  A block fills rows c0..n-1
    with the gap before each row, puts -inf on and above its own diagonal
    (so no column's maximum starts before its row) and everywhere above
    the block, and takes one running maximum down its rows in place.  So
    about n^2/2 * (1 + width/n) entries are scanned, not n^2, and each
    column meets the same gaps in the same order as in one sweep of the
    whole matrix, so ties and signed zeros come out the same.  The maximum
    with the transpose copies each meet into the -inf triangle, and the
    diagonal (`own`) comes last.  Entries are copied heights, never
    rounded, so they are finite and exactly symmetric.

    The width is max(64, 4 isqrt(n)).  Each block costs a few numpy calls
    and scans its whole square, of which only the part below the diagonal
    is needed: below 64 labels more blocks cost more than they save, and
    above it 2 to 4 isqrt(n) is the flat part of the measured per-call
    curve.
    """
    n = len(own)
    rows = np.array((-np.inf,) + gaps)[:, None]  # row q: the gap just before it
    width = max(64, 4 * math.isqrt(n))
    pos = np.arange(min(width, n))
    upper = pos[:, None] <= pos  # on and above the diagonal of a block's square
    w = np.empty((n, n))
    for c0 in range(0, n, width):
        k = min(width, n - c0)
        block = w[c0:, c0 : c0 + k]
        block[...] = rows[c0:]
        np.copyto(block[:k], -np.inf, where=upper[:k, :k])
        w[:c0, c0 : c0 + k] = -np.inf
        np.maximum.accumulate(block, axis=0, out=block)
    w = np.maximum(w, w.T)
    np.fill_diagonal(w, own)
    w.setflags(write=False)
    return w


def _mst_edges(a: np.ndarray) -> list:
    """Minimum spanning tree of the complete graph on the off-diagonal entries.

    Edges are ordered strictly by (h, min(i, j), max(i, j)), which makes the
    tree unique: it is the set of edges on which Kruskal's sweep over that
    order merges.  Borůvka's rounds find it in whole-matrix numpy passes.
    In a round every label takes its cheapest edge into another component:
    one `argmin` per row, with entries inside a component at +inf.  Among
    equal heights a row's `argmin` picks the smallest j, which for a fixed i
    is the key order, so one `lexsort` of the row picks gives each component
    its best edge.  Each component hooks onto the one at the other end of
    that edge; a mutual pair shares its edge, records it once and keeps the
    smaller id as root, and pointer jumping flattens the hooks.  Every
    component joins another, so there are at most ceil(log2 n) rounds, each
    O(n^2).  Heights are copied from the entries M_ij with i < j, as in the
    sweep.  Returns (h, i, j) triples with i < j, sorted by the key.

    The equality pass compares a copy of the component ids in the narrowest
    unsigned dtype that holds n: at 300 labels it takes about 20 us in place
    of 90.  The ids stay `intp` everywhere else, since numpy casts a narrow
    index array to `intp` on every use, which made 50-label calls about
    14 us slower.  `np.putmask` masks in 50-80 us whatever the share of
    entries inside components; `np.copyto(..., where=)` is faster below a
    few percent but two to three times slower from a fifth on, the share of
    the late rounds.
    """
    n = a.shape[0]
    free = np.array(a, dtype=float)  # entries inside one component become +inf
    rows = np.arange(n)
    comp = rows.copy()  # label index -> its component's id, a label index
    narrow = np.min_scalar_type(n)
    same = np.empty((n, n), dtype=bool)
    ends = np.empty((2, n - 1), dtype=np.intp)  # (i, j) of the edges found
    joined = 0
    while joined < n - 1:
        ids = comp.astype(narrow)
        np.equal(ids[:, None], ids, out=same)
        np.putmask(free, same, np.inf)
        near = free.argmin(axis=1)
        lo = np.minimum(rows, near)
        hi = np.maximum(rows, near)
        by_key = np.lexsort((hi, lo, free[rows, near], comp))
        c = comp[by_key]
        best = by_key[np.r_[True, c[1:] != c[:-1]]]  # each component's best row
        src, dst = comp[best], comp[near[best]]
        hook = rows.copy()
        hook[src] = dst
        root = (hook[dst] == src) & (src < dst)  # the smaller of a mutual pair
        hook[src[root]] = src[root]
        best = best[~root]  # a mutual pair's shared edge is recorded once
        ends[:, joined : joined + best.size] = lo[best], hi[best]
        joined += best.size
        while True:
            up = hook[hook]
            if np.array_equal(up, hook):
                break
            hook = up
        comp = hook[comp]
    lo, hi = ends
    h = a[lo, hi]
    order = np.lexsort((hi, lo, h))
    return list(zip(h[order].tolist(), lo[order].tolist(), hi[order].tolist()))


def _find(root: list, x: int) -> int:
    """Root of x's component in a union-find forest, halving the path."""
    while root[x] != x:
        root[x] = root[root[x]]
        x = root[x]
    return x


def tree_of_matrix(m) -> LabeledMergeTree:
    """Merge tree of the sublevel filtration of the complete label graph.

    Vertex i enters at M_ii and edge {i, j} at M_ij; components merging at a
    value h meet at a vertex of height h.  Processing order is by value,
    vertex births before edge insertions, edges lexicographically, so ties
    collapse into shared vertices instead of zero-length edges: a label whose
    birth height equals a merge height sits at the merge vertex itself, and
    simultaneous merges come out as one vertex of higher degree.

    Only the n - 1 edges of the minimum spanning tree under that order ever
    merge two components (single linkage is the MST), so at most
    ceil(log2 n) Borůvka rounds of O(n^2) numpy passes replace a sort of all
    n(n-1)/2 pairs.
    """
    (heights, edges, labels), _ = _linkage(m)
    return _valid_by_construction(LabeledMergeTree(MergeTree(heights, edges), labels))


def _linkage(m) -> tuple:
    """Single linkage of a valid matrix: its tree's parts and its label walk.

    One `is_valid` check, then one union-find sweep over the `_mst_edges`.
    A merge at height h gives the two components one top vertex: two tops
    at h collapse into one, a top at h takes the other as its child, and
    otherwise a new vertex at h (ids n, n + 1, ... in sweep order) takes
    both.  The same merge links the components' label lists, kept in walk
    order, with gap h: the first list's tail to the second's head, and every
    gap inside either list is at most h.  Returns ``((heights, edges, label
    map), (labels, own, gaps))``: the parts of `tree_of_matrix` and the walk
    that `_walk_matrix` takes.  Heights are copied from the entries.
    """
    m = as_sym_matrix(m)
    check = is_valid(m)
    if not check:
        i, j = check.witness
        raise InvalidMatrixError(f"not a valid matrix: diagonal ({i},{i}) exceeds entry ({i},{j})")
    a = m.array
    n = a.shape[0]
    # births, by construction in label order: vertex i carries label i + 1
    heights = dict(enumerate(a.diagonal().tolist()))
    labels_at = {i: [i + 1] for i in range(n)}
    children_of = {i: [] for i in range(n)}
    # forest over labels; a root's top vertex and the ends of its label list
    root, top_of, head, tail = (list(range(n)) for _ in range(4))
    after, gap = [0] * n, [0.0] * n  # the label after each one, the gap between
    next_id = n
    for h, i, j in _mst_edges(a):
        ri, rj = _find(root, i), _find(root, j)
        ta, tb = top_of[ri], top_of[rj]
        if heights[ta] != h:
            ta, tb = tb, ta  # a top at the merge height, if any, comes first
        if heights[tb] == h:
            # two tops at the merge height collapse into one vertex
            labels_at[ta].extend(labels_at.pop(tb))
            children_of[ta].extend(children_of.pop(tb))
            del heights[tb]
        elif heights[ta] != h:
            heights[next_id], labels_at[next_id], children_of[next_id] = h, [], [ta, tb]
            ta, next_id = next_id, next_id + 1
        else:
            children_of[ta].append(tb)
        after[tail[ri]], gap[tail[ri]] = head[rj], h
        head[rj] = head[ri]
        root[ri] = rj
        top_of[rj] = ta
    walk = [head[_find(root, 0)]]
    for _ in range(n - 1):
        walk.append(after[walk[-1]])
    edges = [(c, v) for v, kids in children_of.items() for c in kids]
    labels = {i: v for v, ls in labels_at.items() for i in ls}
    own, gaps = a.diagonal()[walk], tuple(gap[k] for k in walk[:-1])
    return (heights, edges, labels), (np.array(walk) + 1, own, gaps)


def _center(m) -> tuple:
    """``(tree_of_matrix(m), ultrafy(m))`` from one `_linkage` sweep."""
    (heights, edges, labels), walk = _linkage(m)
    lt = _valid_by_construction(LabeledMergeTree(MergeTree(heights, edges), labels))
    return lt, _walk_matrix(*walk)


def ultrafy(m) -> SymMatrix:
    """Closest tree-realizable matrix: single-linkage merge heights.

    The induced matrix of ``tree_of_matrix(m)``, with no tree built: entry
    (i, j) is the height where labels i and j first connect, the minimax
    path value over the complete graph.  O(n^2 log n) at most through the
    minimum spanning tree.  Identity on ultra matrices; entries are copied.
    """
    return _walk_matrix(*_linkage(m)[1])


def linf_distance(a, b) -> float:
    """Largest absolute entry difference; diagonals participate."""
    a = as_sym_matrix(a)
    b = as_sym_matrix(b)
    if a.n != b.n:
        raise InvalidMatrixError(
            f"dimension mismatch: {a.n} vs {b.n} labels"
        )
    return float(np.max(np.abs(a.array - b.array)))
