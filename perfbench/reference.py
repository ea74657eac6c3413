"""Independent references for checking the program's outputs.

Nothing here imports mergespace.  Trees arrive as plain data (vertex ids,
heights, child->parent edges), and every routine takes a different route
from the program's: meets come from ancestor chains instead of a postorder
sweep, the ultrametric closure from a Floyd-Warshall minimax pass instead
of single linkage, and the bottleneck matching from scipy's Hopcroft-Karp
instead of the program's augmenting paths.
"""

from __future__ import annotations

import math

import numpy as np


class Chains:
    """Ancestor chains of one tree, for meeting heights of vertices and points."""

    def __init__(self, vertices, edges):
        ids = [v for v, _ in vertices]
        self.index = {v: k for k, v in enumerate(ids)}
        self.height = np.array([h for _, h in vertices], dtype=float)
        parent = [-1] * len(ids)
        for c, p in edges:
            parent[self.index[c]] = self.index[p]
        self.chain = []
        for k in range(len(ids)):
            up = [k]
            while parent[up[-1]] >= 0:
                up.append(parent[up[-1]])
            self.chain.append(np.array(up))
        self.parent = parent

    def meet(self, vertex_ids) -> np.ndarray:
        """Height of the lowest common ancestor of every pair of the vertices."""
        at = [self.index[v] for v in vertex_ids]
        on_chain = np.zeros((len(at), len(self.height)), dtype=bool)
        for i, k in enumerate(at):
            on_chain[i, self.chain[k]] = True
        out = np.empty((len(at), len(at)))
        for i, k in enumerate(at):
            up = self.chain[k]  # lowest first, so the first shared vertex is the meet
            out[i] = self.height[up[np.argmax(on_chain[:, up], axis=1)]]
        return out

    def meet_points(self, points) -> np.ndarray:
        """Meeting heights of points given as (anchor vertex, height).

        A point sits on the branch just above its anchor, so two points meet
        at the higher of their own heights and their anchors' meet.
        """
        h = np.array([p[1] for p in points], dtype=float)
        return np.maximum(self.meet([p[0] for p in points]), np.maximum.outer(h, h))


def labeled_matrix(vertices, edges, labels) -> np.ndarray:
    """Induced matrix of a labeled tree; labels are (label, vertex) pairs 1..n."""
    at = [v for _, v in sorted(labels)]
    return Chains(vertices, edges).meet(at)


def minimax_closure(m: np.ndarray) -> np.ndarray:
    """Smallest largest step over all paths between each pair (Floyd-Warshall)."""
    out = np.array(m, dtype=float)
    for k in range(len(out)):
        np.minimum(out, np.maximum(out[:, k, None], out[None, k, :]), out=out)
    return out


def ultra_violation(m: np.ndarray):
    """First (i, j, k), zero-based, with m_ij > max(m_ik, m_kj), else None.

    A diagonal entry above its row counts as (i, j, i).
    """
    low = np.diag(m)[:, None] > m
    if low.any():
        i, j = np.argwhere(low)[0]
        return int(i), int(j), int(i)
    for k in range(len(m)):
        bad = m > np.maximum(m[:, k, None], m[None, k, :])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return int(i), int(j), k
    return None


def elder_diagram(vertices, edges) -> list:
    """Persistence diagram by the elder rule, sorted; the essential point last."""
    c = Chains(vertices, edges)
    births = [[] for _ in c.height]  # lowest birth of each child's subtree
    points = []
    # deepest vertices first, so every child is done before its parent
    for k in sorted(range(len(c.height)), key=lambda k: -len(c.chain[k])):
        kids = sorted(births[k])
        low = kids[0] if kids else float(c.height[k])
        points += [(b, float(c.height[k])) for b in kids[1:]]
        if c.parent[k] < 0:
            essential = (low, math.inf)
        else:
            births[c.parent[k]].append(low)
    return sorted(points) + [essential]


def bottleneck(d1, d2) -> float:
    """Exact bottleneck distance: binary search over the candidate costs.

    Feasibility at cost c is a perfect matching between each diagram's
    finite points plus one diagonal stand-in per point of the other diagram,
    tested with scipy's Hopcroft-Karp maximum_bipartite_matching.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    ess1 = sorted(b for b, d in d1 if math.isinf(d))
    ess2 = sorted(b for b, d in d2 if math.isinf(d))
    if len(ess1) != len(ess2):
        return math.inf
    floor = max((abs(a - b) for a, b in zip(ess1, ess2)), default=0.0)
    left = np.array([p for p in d1 if math.isfinite(p[1])], dtype=float).reshape(-1, 2)
    right = np.array([p for p in d2 if math.isfinite(p[1])], dtype=float).reshape(-1, 2)
    nl, nr = len(left), len(right)
    pair = np.maximum(
        np.abs(left[:, None, 0] - right[None, :, 0]),
        np.abs(left[:, None, 1] - right[None, :, 1]),
    )
    diag_l = (left[:, 1] - left[:, 0]) / 2.0
    diag_r = (right[:, 1] - right[:, 0]) / 2.0
    cands = np.unique(np.concatenate([[0.0, floor], pair.ravel(), diag_l, diag_r]))
    cands = cands[cands >= floor]

    def feasible(c: float) -> bool:
        adj = np.zeros((nl + nr, nr + nl), dtype=bool)
        adj[:nl, :nr] = pair <= c
        adj[np.arange(nl), nr + np.arange(nl)] = diag_l <= c
        adj[nl + np.arange(nr), np.arange(nr)] = diag_r <= c
        adj[nl:, nr:] = True
        match = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
        return bool(np.all(match >= 0))

    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(cands[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo])
