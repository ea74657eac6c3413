"""Symmetric matrices and the correspondence with labeled merge trees.

A matrix indexed by labels 1..n encodes a labeled merge tree through lowest
common ancestors: entry (i, j) is the height where the branches of labels i
and j meet, and the diagonal holds the label heights themselves.  `valid`
matrices (diagonal never exceeds its row) are exactly the ones the sublevel
construction accepts; `ultra` matrices additionally satisfy the relaxed
ultrametric bound and are exactly the matrices that trees induce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrixError
from .trees import LabeledMergeTree, MergeTree

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
    """

    __slots__ = ("_a",)

    def __init__(self, entries, *, sym_tol: float = 0.0):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise InvalidMatrixError("empty matrix")
        if not np.all(np.isfinite(a)):
            raise InvalidMatrixError("matrix entries must be finite")
        gap = np.max(np.abs(a - a.T)) if a.size else 0.0
        if gap > sym_tol:
            raise InvalidMatrixError(
                f"matrix is not symmetric (largest asymmetry {gap:g})"
            )
        if gap:
            a = (a + a.T) / 2.0
        a.setflags(write=False)
        self._a = a

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
        return hash((self.n, self._a.tobytes()))

    def __repr__(self):
        return f"SymMatrix({self._a.tolist()!r})"


def as_sym_matrix(m, *, sym_tol: float = 0.0) -> SymMatrix:
    return m if isinstance(m, SymMatrix) else SymMatrix(m, sym_tol=sym_tol)


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
    """Valid plus the relaxed ultrametric bound M_ij <= max(M_ik, M_kj)."""
    m = as_sym_matrix(m)
    base = is_valid(m)
    if not base:
        return base
    a = m.array
    n = m.n
    for i in range(n):
        for j in range(n):
            row = np.maximum(a[i, :], a[:, j])
            bad = np.nonzero(a[i, j] > row)[0]
            if bad.size:
                return MatrixCheck(False, (i + 1, j + 1, int(bad[0]) + 1))
    return MatrixCheck(True)


def induced_matrix(lt: LabeledMergeTree) -> SymMatrix:
    """Pairwise lowest-common-ancestor heights of the labels.

    Entry (i, j) is the height of the meeting point of labels i and j; the
    diagonal is the height of each label's own vertex.  Entries are copied
    heights, so no rounding is introduced.
    """
    lt.ensure_valid()
    t = lt.tree
    n = lt.n_labels
    a = np.empty((n, n), dtype=float)
    gathered = {}
    for v in t.postorder:
        h = t.height[v]
        own = lt.labels_of[v]
        groups = [gathered.pop(c) for c in t.children[v]]
        groups.append(list(own))
        # labels sitting on this vertex meet each other (and themselves) here
        for i in own:
            for j in own:
                a[i - 1, j - 1] = h
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for i in groups[gi]:
                    for j in groups[gj]:
                        a[i - 1, j - 1] = h
                        a[j - 1, i - 1] = h
        merged = []
        for g in groups:
            merged.extend(g)
        gathered[v] = merged
    return SymMatrix(a)


class _UnionFind:
    """Plain union-find over 0..n-1 with path compression."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        self.parent[ra] = rb
        return rb


def tree_of_matrix(m) -> LabeledMergeTree:
    """Merge tree of the sublevel filtration of the complete label graph.

    Vertex i enters at M_ii and edge {i, j} at M_ij; components merging at a
    value h meet at a vertex of height h.  Processing order is by value,
    vertex births before edge insertions, edges lexicographically, so ties
    collapse into shared vertices instead of zero-length edges: a label whose
    birth height equals a merge height sits at the merge vertex itself, and
    simultaneous merges come out as one vertex of higher degree.
    """
    m = as_sym_matrix(m)
    check = is_valid(m)
    if not check:
        i, j = check.witness
        raise InvalidMatrixError(
            f"not a valid matrix: diagonal ({i},{i}) exceeds entry ({i},{j})"
        )
    a = m.array
    n = m.n

    heights = {}
    labels_at = {}
    children_of = {}
    uf = _UnionFind(n)
    top_of = {}  # union-find root -> current top vertex id
    next_id = 0

    for i in range(n):  # births, by construction in label order
        heights[next_id] = float(a[i, i])
        labels_at[next_id] = [i + 1]
        children_of[next_id] = []
        top_of[i] = next_id
        next_id += 1

    pairs = sorted(
        ((float(a[i, j]), i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda e: e,
    )
    for h, i, j in pairs:
        ri, rj = uf.find(i), uf.find(j)
        if ri == rj:
            continue
        ta, tb = top_of[ri], top_of[rj]
        if heights[ta] == h and heights[tb] == h:
            # two tops at the merge height collapse into one vertex
            labels_at[ta].extend(labels_at.pop(tb))
            children_of[ta].extend(children_of.pop(tb))
            del heights[tb]
            new_top = ta
        elif heights[ta] == h:
            children_of[ta].append(tb)
            new_top = ta
        elif heights[tb] == h:
            children_of[tb].append(ta)
            new_top = tb
        else:
            heights[next_id] = h
            labels_at[next_id] = []
            children_of[next_id] = [ta, tb]
            new_top = next_id
            next_id += 1
        top_of[uf.union(ri, rj)] = new_top

    edges = [(c, v) for v, kids in children_of.items() for c in kids]
    label_map = {i: v for v, ls in labels_at.items() for i in ls}
    return LabeledMergeTree(MergeTree(heights, edges), label_map)


def ultrafy(m) -> SymMatrix:
    """Closest tree-realizable matrix: single-linkage merge heights.

    Direct sweep over edges by increasing value with union-find; when two
    components first connect at value h, every cross pair receives h.  Equals
    the induced matrix of ``tree_of_matrix(m)`` (the literal route, asserted
    in tests) and the minimax path value over the complete graph.  Identity
    on ultra matrices; entries are copied, never recomputed.
    """
    m = as_sym_matrix(m)
    check = is_valid(m)
    if not check:
        i, j = check.witness
        raise InvalidMatrixError(
            f"not a valid matrix: diagonal ({i},{i}) exceeds entry ({i},{j})"
        )
    a = m.array
    n = m.n
    out = np.array(a, dtype=float)
    uf = _UnionFind(n)
    members = {i: [i] for i in range(n)}
    pairs = sorted(
        ((float(a[i, j]), i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda e: e,
    )
    for h, i, j in pairs:
        ri, rj = uf.find(i), uf.find(j)
        if ri == rj:
            continue
        small, large = members[ri], members[rj]
        if len(small) > len(large):
            small, large = large, small
        for x in small:
            for y in large:
                out[x, y] = h
                out[y, x] = h
        root = uf.union(ri, rj)
        merged = members.pop(ri) + members.pop(rj)
        members[root] = merged
    out.setflags(write=False)
    return SymMatrix(out)


def linf_distance(a, b) -> float:
    """Largest absolute entry difference; diagonals participate."""
    a = as_sym_matrix(a)
    b = as_sym_matrix(b)
    if a.n != b.n:
        raise InvalidMatrixError(
            f"dimension mismatch: {a.n} vs {b.n} labels"
        )
    return float(np.max(np.abs(a.array - b.array)))
