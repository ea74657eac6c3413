"""Seeded benchmark inputs, written in mergespace's own file formats.

Trees are grown by random agglomeration: leaves are born at random
heights, then random groups of two (sometimes three) active branches merge
one step above the highest of them.  A labeled tree's reference matrix is
filled in while the tree is built, so it is known by construction and
never comes from the program.

Every size that drives cost is stratified rather than drawn freely: item k
of m takes its size from the k-th of m equal slices of the range.  That
keeps the total work of a pass nearly the same from seed to seed, which is
what lets runs with different seeds agree on throughput.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Tree:
    """Generator-side tree: vertex k has heights[k] and parent[k]."""

    heights: list = field(default_factory=list)
    parent: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)  # vertex -> [label, ...]

    def add(self, h: float) -> int:
        self.heights.append(h)
        self.parent.append(None)
        return len(self.heights) - 1

    @property
    def leaves(self) -> list:
        has_child = {p for p in self.parent if p is not None}
        return [v for v in range(len(self.heights)) if v not in has_child]

    @property
    def vertices(self) -> list:
        return list(enumerate(self.heights))

    @property
    def edges(self) -> list:
        return [(c, p) for c, p in enumerate(self.parent) if p is not None]

    def to_json(self) -> str:
        """Tree JSON as the program reads it; floats keep every digit."""
        vertices = [
            {"id": v, "height": h, "labels": sorted(self.labels.get(v, ()))}
            for v, h in enumerate(self.heights)
        ]
        return json.dumps({"vertices": vertices, "edges": self.edges})


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def stratified(rng, count: int, lo: int, hi: int) -> list:
    """One integer size from each of count equal slices of [lo, hi], ascending."""
    edges = np.linspace(lo, hi + 1, count + 1)
    return [int(rng.integers(int(a), max(int(a) + 1, int(b)))) for a, b in zip(edges, edges[1:])]


def _height(rng, grid, lo: float, hi: float) -> float:
    """Uniform in [lo, hi], or a uniform multiple of grid there."""
    if grid:
        return grid * float(rng.integers(round(lo / grid), round(hi / grid) + 1))
    return float(rng.uniform(lo, hi))


def agglomerate(rng, n_leaves: int, grid, ternary: float = 0.2):
    """Random tree on n_leaves leaves; returns (tree, groups).

    Leaves are born in [0, 4] and each merge sits 0.05 to 1.5 above its
    highest child; with a grid, both snap to multiples of it.  groups lists
    each merge as (vertex, [child, ...]) in creation order, so children
    always come before their parent.
    """
    t = Tree()
    active = [t.add(_height(rng, grid, 0, 4)) for _ in range(n_leaves)]
    groups = []
    while len(active) > 1:
        size = 3 if len(active) > 2 and rng.random() < ternary else 2
        kids = [active.pop(int(rng.integers(len(active)))) for _ in range(size)]
        top = max(t.heights[c] for c in kids)
        v = t.add(top + _height(rng, grid, grid or 0.05, 1.5))
        for c in kids:
            t.parent[c] = v
        groups.append((v, kids))
        active.append(v)
    return t, groups


def labeled_tree(rng, n_labels: int, grid):
    """Labeled tree and its matrix, built together.

    Every leaf carries a label; the remaining labels land on random vertices,
    so some share a leaf and some sit on merge vertices.
    """
    n_leaves = max(2, int(round(n_labels * rng.uniform(0.6, 0.95))))
    t, groups = agglomerate(rng, n_leaves, grid)
    targets = list(t.leaves)
    targets += [int(v) for v in rng.integers(len(t.heights), size=n_labels - n_leaves)]
    for lab, k in enumerate(rng.permutation(n_labels), start=1):
        t.labels.setdefault(targets[k], []).append(lab)

    m = np.empty((n_labels, n_labels))
    below = {}
    for v in t.leaves:
        own = np.array(t.labels[v]) - 1
        m[np.ix_(own, own)] = t.heights[v]
        below[v] = own
    for v, kids in groups:
        h = t.heights[v]
        parts = [below.pop(c) for c in kids]
        own = np.array(t.labels.get(v, []), dtype=int) - 1
        if own.size:
            parts.append(own)
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                m[np.ix_(parts[a], parts[b])] = h
                m[np.ix_(parts[b], parts[a])] = h
        m[np.ix_(own, own)] = h
        below[v] = np.concatenate(parts)
    return t, m


def subdivide(rng, t: Tree, count: int) -> Tree:
    """Add single-child vertices inside random edges or above the top."""
    for _ in range(count):
        if rng.random() < 0.7:
            c, p = t.edges[int(rng.integers(len(t.edges)))]
            h = float(rng.uniform(t.heights[c], t.heights[p]))
            if not t.heights[c] < h < t.heights[p]:
                continue
            v = t.add(h)
            t.parent[c], t.parent[v] = v, p
        else:
            top = t.parent.index(None)
            v = t.add(t.heights[top] + float(rng.uniform(0.25, 1.5)))
            t.parent[top] = v
    return t


def bare_tree(rng, n_leaves: int, grid, subdivisions: int) -> Tree:
    t, _ = agglomerate(rng, n_leaves, grid)
    return subdivide(rng, t, subdivisions)


def write_matrix(m: np.ndarray) -> str:
    rows = [str(len(m))] + [" ".join(map(repr, row)) for row in m.tolist()]
    return "\n".join(rows) + "\n"
