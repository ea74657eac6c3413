"""The benchmark's workloads: seeded inputs, operation lists and checks.

A workload writes its inputs as files in the program's formats, turns the
parsed files into a fixed list of operations through mergespace's public
API, and checks each result against references computed apart from the
program (see reference.py).  A check returns None when the result is right
and a one-line reason otherwise.

Import this module after load.import_mergespace().  The operations look
mergespace functions up on the package when they run, never at import
time, so a traced run sees them through its wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mergespace as ms
import numpy as np

import generate as gen
import reference as ref

# Workload make-up.  Changing any of these changes the benchmark.
COLLECTIONS = 24
TREES_PER_COLLECTION = 5
LABELS = (50, 300)
LAMBDAS = (0.25, 0.5, 0.75)
UNLABELED_PAIRS = 800
UNLABELED_LEAVES = (4, 5)
DIAGRAM_PAIRS = 320
DIAGRAM_LEAVES = (10, 100)

TOL = 1e-9  # relative to the largest height, for results that are not exact


@dataclass
class Op:
    kind: str
    ref: tuple  # what the workload's check needs to judge the result
    call: Callable  # call(results), where results holds the earlier results


def _write(directory: Path, name: str, text: str):
    (directory / name).write_text(text)


class LabeledCollection:
    """Statistics on labeled trees: distances, geodesics, centers, projections."""

    name = "labeled-collection"

    def __init__(self, seed: int):
        rng = gen.rng_for(self.name, seed)
        self.collections = []
        for k, n in enumerate(gen.stratified(rng, COLLECTIONS, *LABELS)):
            grid = 1.0 if k % 2 == 0 else None
            built = [gen.labeled_tree(rng, n, grid) for _ in range(TREES_PER_COLLECTION)]
            pairs = [rng.choice(TREES_PER_COLLECTION, size=2, replace=False) for _ in LAMBDAS]
            mats = [m for _, m in built]
            self.collections.append(
                {
                    "trees": [t for t, _ in built],
                    "matrices": mats,
                    "mean": np.mean(mats, axis=0),
                    "geodesics": [(int(i), int(j), lam) for (i, j), lam in zip(pairs, LAMBDAS)],
                }
            )
        self.collections = [self.collections[k] for k in rng.permutation(COLLECTIONS)]
        self._closure = {}

    def write(self, directory: Path):
        for c, col in enumerate(self.collections):
            for i, t in enumerate(col["trees"]):
                _write(directory, f"c{c}-t{i}.tree.json", t.to_json())
            _write(directory, f"c{c}-mean.txt", gen.write_matrix(col["mean"]))

    def ops(self, loaded: dict) -> list:
        out = []
        for c, col in enumerate(self.collections):
            trees = [loaded[f"c{c}-t{i}.tree.json"] for i in range(len(col["trees"]))]
            mean = loaded[f"c{c}-mean.txt"]
            for i in range(len(trees)):
                for j in range(i + 1, len(trees)):
                    out.append(Op("distance", (c, i, j),
                                  lambda r, a=trees[i], b=trees[j]: ms.labeled_interleaving(a, b)))
            for i, j, lam in col["geodesics"]:
                out.append(Op("geodesic", (c, i, j, lam),
                              lambda r, a=trees[i], b=trees[j], lam=lam: ms.geodesic_point(a, b, lam)))
            out.append(Op("center", (c,), lambda r, ts=trees: ms.one_center(ts)))
            out.append(Op("ultrafy", (c,), lambda r, m=mean: ms.ultrafy(m)))
            out.append(Op("tree_of_matrix", (c,), lambda r, m=mean: ms.tree_of_matrix(m)))
            k = len(out) - 2  # the ultrafy result
            out.append(Op("is_ultra", (c,), lambda r, k=k: ms.is_ultra(r[k])))
        return out

    def closure(self, c: int) -> np.ndarray:
        if c not in self._closure:
            self._closure[c] = ref.minimax_closure(self.collections[c]["mean"])
        return self._closure[c]

    def check(self, op: Op, result):
        col = self.collections[op.ref[0]]
        mats = col["matrices"]
        tol = TOL * max(1.0, float(np.abs(mats[0]).max()))
        if op.kind == "distance":
            _, i, j = op.ref
            want = float(np.abs(mats[i] - mats[j]).max())
            return None if result == want else f"distance {result!r}, reference {want!r}"
        if op.kind == "geodesic":
            _, i, j, lam = op.ref
            g = _labeled_matrix(result)
            d = float(np.abs(mats[i] - mats[j]).max())
            to_g, from_g = float(np.abs(mats[i] - g).max()), float(np.abs(g - mats[j]).max())
            if abs(to_g - lam * d) > tol or abs(from_g - (1 - lam) * d) > tol:
                return f"geodesic at {lam}: d(t1,g)={to_g!r}, d(g,t2)={from_g!r}, d={d!r}"
            return None
        if op.kind == "center":
            center, radius = result
            stack = np.stack(mats)
            half = float((stack.max(axis=0) - stack.min(axis=0)).max()) / 2.0
            reach = max(float(np.abs(_labeled_matrix(center) - m).max()) for m in mats)
            if abs(radius - half) > tol or abs(reach - radius) > tol:
                return f"radius {radius!r}, half range {half!r}, center reaches {reach!r}"
            return None
        want = self.closure(op.ref[0])
        if op.kind == "ultrafy":
            bad = ref.ultra_violation(result.array)
            if bad is not None:
                return f"ultrafy result violates the ultrametric bound at {bad}"
            return None if np.array_equal(result.array, want) else "ultrafy differs from the minimax closure"
        if op.kind == "tree_of_matrix":
            got = _labeled_matrix(result)
            return None if np.array_equal(got, want) else "tree's matrix differs from the minimax closure"
        if op.kind == "is_ultra":
            return None if result.ok else f"is_ultra rejects a minimax closure at {result.witness}"
        raise ValueError(op.kind)


def _labeled_matrix(t) -> np.ndarray:
    return ref.labeled_matrix(t.tree.vertices, t.tree.edges, t.labels)


def _write_pairs(directory: Path, pairs):
    for k, (a, b) in enumerate(pairs):
        _write(directory, f"p{k:04d}-a.tree.json", a.to_json())
        _write(directory, f"p{k:04d}-b.tree.json", b.to_json())


def _reference_bottleneck(a, b) -> float:
    return ref.bottleneck(ref.elder_diagram(a.vertices, a.edges), ref.elder_diagram(b.vertices, b.edges))


def _loaded_pairs(loaded: dict, count: int):
    return [(loaded[f"p{k:04d}-a.tree.json"], loaded[f"p{k:04d}-b.tree.json"]) for k in range(count)]


class UnlabeledSearch:
    """Exact unlabeled distance of small bare trees with equal leaf counts."""

    name = "unlabeled-search"

    def __init__(self, seed: int):
        rng = gen.rng_for(self.name, seed)
        self.pairs = []
        for k in range(UNLABELED_PAIRS):
            n = UNLABELED_LEAVES[k % len(UNLABELED_LEAVES)]
            self.pairs.append(tuple(gen.bare_tree(rng, n, None, int(rng.integers(0, 3))) for _ in range(2)))
        self.pairs = [self.pairs[k] for k in rng.permutation(len(self.pairs))]

    def write(self, directory: Path):
        _write_pairs(directory, self.pairs)

    def ops(self, loaded: dict) -> list:
        return [
            Op("unlabeled", (k,), lambda r, a=a, b=b: ms.unlabeled_interleaving(a, b))
            for k, (a, b) in enumerate(_loaded_pairs(loaded, len(self.pairs)))
        ]

    def check(self, op: Op, result):
        a, b = self.pairs[op.ref[0]]
        tol = TOL * max(1.0, max(a.heights + b.heights))
        if not result.certified:
            return "result is not certified"
        low = _reference_bottleneck(a, b)
        ca, cb = ref.Chains(a.vertices, a.edges), ref.Chains(b.vertices, b.edges)
        high = float(np.abs(ca.meet(a.leaves) - cb.meet(b.leaves)).max())
        if not low - tol <= result.value <= high + tol:
            return f"value {result.value!r} outside [bottleneck {low!r}, leaf labeling {high!r}]"
        w = result.witness
        sides = []
        for tree, points in ((w.source, [p for p, _ in w.pairs]), (w.target, [q for _, q in w.pairs])):
            height = dict(tree.vertices)
            has_child = {p for _, p in tree.edges}
            leaves = {(v, h) for v, h in tree.vertices if v not in has_child}
            placed = {(p.anchor, p.height) for p in points}
            if not leaves <= placed or any(p.height < height[p.anchor] for p in points):
                return "witness leaves a leaf unlabeled or places a point below its anchor"
            sides.append(ref.Chains(tree.vertices, tree.edges).meet_points([(p.anchor, p.height) for p in points]))
        gap = float(np.abs(sides[0] - sides[1]).max())
        if abs(gap - result.value) > tol:
            return f"witness reaches {gap!r}, value is {result.value!r}"
        return None


class Diagrams:
    """Bottleneck distance between the persistence diagrams of large trees."""

    name = "diagrams"

    def __init__(self, seed: int):
        rng = gen.rng_for(self.name, seed)
        sizes = gen.stratified(rng, DIAGRAM_PAIRS, *DIAGRAM_LEAVES)
        pairs = [
            tuple(gen.bare_tree(rng, n, 1.0 if k % 2 == 0 else None, int(rng.integers(0, 3))) for _ in range(2))
            for k, n in enumerate(sizes)
        ]
        self.pairs = [pairs[k] for k in rng.permutation(len(pairs))]

    def write(self, directory: Path):
        _write_pairs(directory, self.pairs)

    def ops(self, loaded: dict) -> list:
        return [
            Op("bottleneck", (k, a, b), lambda r, a=a, b=b: ms.bottleneck_tree_distance(a, b))
            for k, (a, b) in enumerate(_loaded_pairs(loaded, len(self.pairs)))
        ]

    def check(self, op: Op, result):
        k, *loaded = op.ref
        trees = self.pairs[k]
        for t, program_tree in zip(trees, loaded):
            d = ms.persistence_diagram(program_tree)
            ess = d.infinite
            if len(d) != len(t.leaves) or len(ess) != 1 or ess[0][0] != min(t.heights):
                return f"diagram has {len(d)} points for {len(t.leaves)} leaves, essential {ess}"
        want = _reference_bottleneck(*trees)
        return None if result == want else f"bottleneck {result!r}, reference {want!r}"


WORKLOADS = {w.name: w for w in (LabeledCollection, UnlabeledSearch, Diagrams)}
