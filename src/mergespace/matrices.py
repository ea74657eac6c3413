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
passes, find its n - 1 edges (`_mst_edges`), and only those are merged.  A
tree's matrix is one depth-first walk (`trees._label_walk`) and one kernel
(`_walk_meets`): with rows and columns in walk order, a running maximum
down column blocks about sqrt(n) wide fills the triangle below the
diagonal, and each block copies its own part of it across the diagonal
as soon as it is done, so no pass over the whole matrix symmetrizes it;
`_walk_matrix` then gathers the labels into index order.  A matrix is swept
once (`_linkage`): one union-find sweep over its spanning edges yields both
its tree's parts and its labels in walk order, and the matrix keeps the two
(O(n) data, no n x n data), whatever mix of `ultrafy`, `tree_of_matrix` and
`is_ultra` it meets: `ultrafy` hands the walk to the kernel, `one_center`
reads it for its radius, and `tree_of_matrix` wraps the parts in a fresh
valid tree.  A computed matrix (a walk's, a blend, a midrange) is valid and
never checked, and a walk's is ultra too; a caller's matrix is checked once.

`induced_matrix` keeps the matrices it built last and serves a tree its
own again: one collection's geodesics and center build each input's
matrix once.  The store drops its oldest entries while their matrix bytes,
plus 1 KiB an entry for the objects around them, exceed 4 MiB (five
matrices at 300 labels), and it never keeps a matrix larger than that.
An entry is keyed by its tree's id and holds a weak reference to the
tree: it keeps no tree alive and writes nothing into it, and a new tree
that takes a dead tree's id is not served the dead tree's matrix.

The same walk and kernel, with each vertex as its own label, give a bare
tree's meet table H (`meet_table`), which the map checks in `goodmaps`
read; the unlabeled search builds the same rows as nested lists from the
walk (`unlabeled._prepare`).  Its rows follow the walk and callers
find them through its row map, so it needs no gather and no labeled tree.
Points p and q meet at max(p.height, q.height, H[p.anchor, q.anchor]): one
lies on the other's upward path, or their anchors join at a vertex above both.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

from .errors import InvalidMatrixError, MergespaceError
from .trees import (
    LabeledMergeTree,
    MergeTree,
    _label_walk,
    _number,
    _trusted,
    np,
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
    delegates to numpy; label-facing reports elsewhere are one-based.  An
    ndarray is read by its dtype kind, a nested sequence entry by entry by
    `trees._number`; an asymmetry within `trees.slack_of` the entries is averaged.
    Private slots, which equality and hashing ignore: `_ultra` marks a matrix
    built ultra (`_walk_matrix`), which `is_ultra` takes on trust, and `_sweep`
    the validity verdict (true from the start for a computed matrix), then
    its sweep (`_linkage`): its tree's parts and label walk, O(n) data.
    """

    __slots__ = ("_a", "_ultra", "_sweep")

    def __init__(self, entries):
        bulk = isinstance(entries, np.ndarray)  # checked by dtype kind, as `parse_matrix` hands it
        a = np.array(entries, dtype=None if bulk else object)
        if bulk and a.dtype.kind not in "iuf":  # as `trees._number`: no bools, strings or bytes
            raise InvalidMatrixError(f"matrix entries must be real numbers, got {a.dtype}")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise InvalidMatrixError("empty matrix")
        if not bulk:  # a nested sequence entry by entry, each to `trees._number`
            try:
                a = np.array([_number(x, "matrix entries") for x in a.flat]).reshape(a.shape)
            except MergespaceError as err:
                raise InvalidMatrixError(str(err)) from None
        a = a.astype(float, copy=False)
        if not np.isfinite(a).all():
            raise InvalidMatrixError("matrix entries must be finite")
        if not (a == a.T).all():
            with np.errstate(over="ignore"):
                gap = np.max(np.abs(a - a.T))
            if not math.isfinite(gap) or gap > slack_of((a.min(), a.max())):
                raise InvalidMatrixError(
                    f"matrix is not symmetric (largest asymmetry {gap:g})"
                )
            a = _midpoint(a, a.T)
        a.setflags(write=False)
        self._a, self._ultra, self._sweep = a, False, None

    @classmethod
    def _unchecked(cls, a: np.ndarray, ultra: bool = False) -> "SymMatrix":
        """Wrap, never to check, a fresh array built square, finite, symmetric and
        valid (a walk's, or valid matrices' by monotone, correctly rounded steps)."""
        m = cls.__new__(cls)
        a.setflags(write=False)
        m._a, m._ultra, m._sweep = a, ultra, MatrixCheck(True)
        return m

    def __setstate__(self, state):
        """Unpickling and copying: the slots as saved, the array read-only
        again, since `_ultra` and `_sweep` vouch for entries no one can write."""
        for name, value in state[1].items():
            setattr(self, name, value)
        self._a.setflags(write=False)

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


def _midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise (a + b) / 2 of finite arrays, bit for bit wherever a + b is
    finite.  Where it overflows, a / 2 + b / 2: both halvings are exact at
    that size, and their sum cannot overflow."""
    with np.errstate(over="ignore"):
        mid = a + b
    mid /= 2.0
    over = np.isinf(mid)
    if over.any():
        mid[over] = a[over] / 2.0 + b[over] / 2.0
    return mid


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
    row-major order.  A matrix built from a label walk (`induced_matrix`,
    `ultrafy`) is ultra by construction and is not checked again; a copy
    through the constructor is.
    """
    m = as_sym_matrix(m)
    if m._ultra:
        return MatrixCheck(True)
    try:
        closure = ultrafy(m)
    except InvalidMatrixError:
        return m._sweep  # the failed check `_linkage` kept
    a = m.array
    for i, j in np.argwhere(a != closure.array):
        bad = np.nonzero(a[i, j] > np.maximum(a[i, :], a[:, j]))[0]
        if bad.size:
            return MatrixCheck(False, (int(i) + 1, int(j) + 1, int(bad[0]) + 1))
    return MatrixCheck(True)


# `induced_matrix`'s store: id(tree) -> (weak reference to the tree, its
# matrix), oldest first.  An entry is charged its matrix's bytes and
# `_ENTRY_BYTES` for the array header, matrix, reference and slot around
# them (about 0.5 KiB measured), and the charges stay within `_KEPT_BYTES`.
_KEPT_BYTES = 4 << 20
_ENTRY_BYTES = 1 << 10
_kept = OrderedDict()
_kept_bytes = 0
_kept_lock = threading.Lock()


def induced_matrix(lt: LabeledMergeTree) -> SymMatrix:
    """Pairwise lowest-common-ancestor heights of the labels.

    Entry (i, j) is the height of the meeting point of labels i and j; the
    diagonal is the height of each label's own vertex.  `_walk_matrix` builds
    it from the tree's cached depth-first `label_walk`.  A later call on
    the same tree object returns the same read-only matrix while the store
    keeps it (see the module docstring).  An id is reused only once its
    tree dies, so an entry serves only a tree its weak reference returns.
    """
    lt.ensure_valid()
    entry = _kept.get(id(lt))
    if entry is not None and entry[0]() is lt:
        return entry[1]
    m = _walk_matrix(*lt.label_walk)
    _keep(lt, m)
    return m


def _keep(lt: LabeledMergeTree, m: SymMatrix) -> None:
    """Store `m` as the matrix of `lt`, the oldest entries going to make room;
    a matrix charged more than the whole budget is not kept."""
    global _kept_bytes
    charge = m.array.nbytes + _ENTRY_BYTES
    if charge > _KEPT_BYTES:
        return
    with _kept_lock:
        # the entry under this id: a dead tree's, or `lt`'s from another thread
        old = _kept.pop(id(lt), None)
        if old is not None:
            _kept_bytes -= old[1].array.nbytes + _ENTRY_BYTES
        _kept[id(lt)] = weakref.ref(lt), m
        _kept_bytes += charge
        while _kept_bytes > _KEPT_BYTES:
            _, (_, old) = _kept.popitem(last=False)
            _kept_bytes -= old.array.nbytes + _ENTRY_BYTES


def meet_table(t: MergeTree):
    """(vertex id -> row, meet heights of every vertex pair): the walk of `t`
    with each vertex as its own label.  Rows follow the walk, so no gather.
    It serves the map checks in `goodmaps`, which build it per check and
    index it with numpy; the unlabeled search reads `unlabeled._prepare`'s rows."""
    vertices, own, gaps = _label_walk(t, {v: (v,) for v in t.height})
    return {v: k for k, v in enumerate(vertices)}, _walk_meets(own, gaps)


def _walk_matrix(labels, own, gaps) -> SymMatrix:
    """Matrix of labels 1..n from their walk: `trees._label_walk` or `_linkage`.

    `_walk_meets` builds it in walk order, and one gather by each label's
    walk position puts it in label order (`take` keeps the rows contiguous,
    where `m[rank][:, rank]` would not); meet tables skip that gather.
    """
    rank = np.empty(len(labels), dtype=np.intp)  # label index -> walk position
    rank[np.array(labels) - 1] = np.arange(len(labels))
    return SymMatrix._unchecked(_walk_meets(own, gaps).take(rank, 0).take(rank, 1), ultra=True)


def _walk_meets(own, gaps) -> np.ndarray:
    """Read-only symmetric matrix of the meets of a walk's positions, in walk order.

    The meet of two positions is the highest gap between them.  Entry
    (q, p) below the diagonal is the meet of positions q > p: the running
    maximum of the gaps just before rows p + 1..q.  Only those entries are
    accumulated, in blocks of `width` columns.  A block fills rows c0..n-1
    with the gap before each row, puts -inf on and above the diagonal of
    its k x k square, so no column's maximum starts before its row, and
    takes one running maximum down its rows in place: about
    n^2/2 * (1 + width/n) entries are scanned, not n^2, and each column
    meets the same gaps in the same order as in one sweep of the whole
    matrix, so ties and signed zeros come out the same.  The block then
    mirrors itself: a maximum with its square's transpose fills the square,
    and its strip below the square, transposed, fills its rows to the right
    of it, so no pass over the whole matrix is needed.  The diagonal (`own`)
    comes last.  Entries are copied heights: finite and exactly symmetric.

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
        sq = block[:k]
        np.copyto(sq, -np.inf, where=upper[:k, :k])
        np.maximum.accumulate(block, axis=0, out=block)
        np.maximum(sq, sq.T.copy(), out=sq)
        w[c0 : c0 + k, c0 + k :] = block[k:].T
    w.flat[:: n + 1] = own
    w.setflags(write=False)
    return w


def _mst_edges(a: np.ndarray) -> list:
    """Minimum spanning tree of the complete graph on the off-diagonal entries.

    Edges are ordered strictly by (h, min(i, j), max(i, j)), which makes the
    tree unique: it is the set of edges on which Kruskal's sweep over that
    order merges.  Borůvka's rounds find it in whole-matrix numpy passes.
    In a round every label takes its cheapest edge into another component:
    one `argmin` per row, with entries inside a component (in round 1, the
    diagonal) at +inf.  Among equal heights a row's `argmin` picks the
    smallest j, the key order for a fixed i, so one `lexsort` of the row
    picks by (component, h, lo * n + hi) puts each component's best edge
    first.  Each component hooks onto the one at the other end of that
    edge; a mutual pair shares its edge, records it once and keeps the
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
    np.fill_diagonal(free, np.inf)  # round 1: every component is one label
    rows = np.arange(n)
    comp = rows.copy()  # label index -> its component's id, a label index
    narrow = np.min_scalar_type(n)
    same = np.empty((n, n), dtype=bool)
    first = np.ones(n, dtype=bool)  # first row of each component, in key order
    ends = np.empty((2, n - 1), dtype=np.intp)  # (i, j) of the edges found
    joined = 0
    while joined < n - 1:
        if joined:
            ids = comp.astype(narrow)
            np.equal(ids[:, None], ids, out=same)
            np.putmask(free, same, np.inf)
        near = free.argmin(axis=1)
        lo = np.minimum(rows, near)
        hi = np.maximum(rows, near)
        by_key = np.lexsort((lo * n + hi, free[rows, near], comp))
        c = comp[by_key]
        np.not_equal(c[1:], c[:-1], out=first[1:])
        best = by_key[first]  # each component's best row
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
    n(n-1)/2 pairs.  The matrix is swept once (`_linkage`) and keeps the
    tree's parts and its label walk, so `ultrafy`, `is_ultra` and later
    calls on it do not sweep again.  Each call returns a fresh tree over
    those shared immutable parts (`trees._trusted`), valid by construction;
    its labeled distances are read off its own depth-first walk.
    """
    return _trusted(*_linkage(m)[0])


def _linkage(m) -> tuple:
    """Single linkage of a valid matrix: its tree's parts and its label walk.

    Found once per matrix object and kept in its `_sweep` slot (O(n) data),
    which holds the validity verdict until the sweep replaces it: a computed
    matrix's is true from the start (`SymMatrix._unchecked`), a caller's is
    found once by `is_valid`, and an invalid one raises on every call.  Then one
    union-find sweep runs over the `_mst_edges`.  A merge at height h
    links the two components' label lists, kept in walk order, into one
    with gap h: the first list's tail to the second's head, and every gap
    inside either list is at most h.  The same merge gives the two
    components one top vertex: two tops at h collapse into one, a top at
    h takes the other as its child, and otherwise a new vertex at h (ids
    n, n + 1, ... in sweep order) takes both.  Vertex data sit in lists
    by id (ids < 2n - 1), and collapsed tops are resolved once, after the
    sweep.  Returns ``((vertices, edges, labels), (labels, own, gaps))``:
    the tree's parts in the normal form `trees._trusted` takes, and the
    walk that `_walk_matrix` and `metrics.one_center` read.  Heights are
    copied.
    """
    m = as_sym_matrix(m)
    if m._sweep is None:
        m._sweep = is_valid(m)
    if isinstance(m._sweep, tuple):
        return m._sweep
    if not m._sweep:
        i, j = m._sweep.witness
        raise InvalidMatrixError(f"not a valid matrix: diagonal ({i},{i}) exceeds entry ({i},{j})")
    a = m.array
    n = a.shape[0]
    # births, by construction in label order: vertex i carries label i + 1
    height = a.diagonal().tolist() + [0.0] * (n - 1)
    parent = [-1] * (2 * n - 1)
    into = list(range(2 * n - 1))  # a collapsed top -> the top it joined
    collapsed = []
    next_id = n
    # forest over labels; a root's top vertex and the ends of its label list
    root, top_of, head, tail = (list(range(n)) for _ in range(4))
    after, gap = [0] * n, [0.0] * n  # the label after each one, the gap between
    j = 0  # after the sweep, the root of the last merge and so of every label
    for h, i, j in _mst_edges(a):
        while root[i] != i:  # the roots of i and j, halving their paths
            root[i] = i = root[root[i]]
        while root[j] != j:
            root[j] = j = root[root[j]]
        ta, tb = top_of[i], top_of[j]
        if height[ta] != h:
            ta, tb = tb, ta  # a top at the merge height, if any, comes first
        if height[tb] == h:
            # two tops at the merge height collapse into one vertex
            into[tb] = ta
            collapsed.append(tb)
        elif height[ta] != h:
            height[next_id] = h
            parent[ta] = parent[tb] = next_id
            ta, next_id = next_id, next_id + 1
        else:
            parent[tb] = ta
        top_of[j] = ta
        after[tail[i]], gap[tail[i]] = head[j], h
        head[j] = head[i]
        root[i] = j
    order = [head[j]]
    for _ in range(n - 1):
        order.append(after[order[-1]])
    own = a.diagonal()[order]
    own.setflags(write=False)  # shared by the matrix, `ultrafy` and every tree
    walk = tuple(k + 1 for k in order), own, tuple(gap[k] for k in order[:-1])
    # a top collapses into a live top at its height, which can collapse only
    # later; a label or child of a collapsed top belongs to where it ends
    for v in reversed(collapsed):
        into[v] = into[into[v]]
    live = [v for v in range(next_id) if into[v] == v]  # ids ascend in insertion order
    vertices = tuple((v, height[v]) for v in live)
    edges = tuple((c, into[parent[c]]) for c in live if parent[c] >= 0)
    labels = tuple((i + 1, into[i]) for i in range(n))
    m._sweep = (vertices, edges, labels), walk
    return m._sweep


def ultrafy(m) -> SymMatrix:
    """Closest tree-realizable matrix: single-linkage merge heights.

    The induced matrix of ``tree_of_matrix(m)``, with no tree built: entry
    (i, j) is the height where labels i and j first connect, the minimax
    path value over the complete graph.  O(n^2 log n) at most through the
    minimum spanning tree.  The kernel reads the label walk of the matrix's
    one sweep (`_linkage`), which also keeps the tree's parts for
    `tree_of_matrix`.  Identity on ultra matrices; entries are copied, and
    the result is marked ultra.
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
