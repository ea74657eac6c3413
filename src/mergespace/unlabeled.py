"""Exact unlabeled interleaving distance by optimal label placement.

The distance between bare merge trees is the smallest shift for which some
shared labeling brings the two induced matrices within that shift of each
other.  The search space is finite: candidate shifts come from pairwise
height differences (and their halves), and for a given shift each tree's
leaves only need placements at leaf height + shift in the opposite tree,
one per crossing branch.  A pruned exhaustive search over those placements
decides feasibility per candidate, ascending until the first success.

Every result is double-checked from below: feasibility is re-tested just
under the returned value, and the `certified` flag records that the re-test
failed as expected.  An uncertified result is still a valid upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import BudgetExceededError, MergespaceError
from .goodmaps import LabelPairing, _points_at
from .metrics import DEFAULT_TOL
from .trees import (
    LabeledMergeTree,
    MergeTree,
    _bare,
    canonicalize_tree,
    lca,
    vertex_point,
)

DEFAULT_BUDGET = 1_000_000

__all__ = ["UnlabeledDistance", "unlabeled_interleaving", "candidate_shifts"]


@dataclass(frozen=True)
class UnlabeledDistance:
    """Distance value with its witness labeling and certification state.

    value: smallest candidate shift that admitted a placement.
    witness: the feasible placement as a label pairing (apply it to get two
    labeled trees realizing the value).
    certified: feasibility was refuted at value * (1 - 1e-6); when False the
    value is only an upper bound and `refuted_below` tells how far down the
    sweep actually refuted.
    refuted_below: largest shift shown infeasible, or None when value is 0.
    """

    value: float
    witness: LabelPairing
    certified: bool
    refuted_below: float = None


def candidate_shifts(t1: MergeTree, t2: MergeTree) -> list:
    """Sorted candidate values: 0 plus |a-b| and |a-b|/2 over all heights."""
    heights = sorted(set(t1.height.values()) | set(t2.height.values()))
    out = {0.0}
    for i, a in enumerate(heights):
        for b in heights[i + 1 :]:
            gap = b - a
            out.add(gap)
            out.add(gap / 2.0)
    return sorted(out)


class _Search:
    """Feasibility test for one shift: place cross labels, prune on entries."""

    def __init__(self, t1: MergeTree, t2: MergeTree, delta: float,
                 budget: int, tol: float):
        self.t1, self.t2, self.delta, self.tol = t1, t2, delta, tol
        self.budget = budget
        self.states = 0
        self._lca_h = {}

    def _meet(self, tree_idx: int, a, b) -> float:
        ka, kb = (a.anchor, a.height), (b.anchor, b.height)
        key = (tree_idx,) + (ka + kb if ka <= kb else kb + ka)
        got = self._lca_h.get(key)
        if got is None:
            tree = self.t1 if tree_idx == 1 else self.t2
            first = a if ka <= kb else b
            second = b if ka <= kb else a
            got = lca(tree, first, second).height
            self._lca_h[key] = got
        return got

    def run(self):
        t1, t2, d = self.t1, self.t2, self.delta
        left = [vertex_point(t1, v) for v in t1.leaves]
        right = [vertex_point(t2, v) for v in t2.leaves]
        n1 = len(left)
        labels = list(range(n1 + len(right)))

        # fixed side per label, candidate placements on the other side
        fixed = {}
        cands = {}
        for k, p in enumerate(left):
            fixed[k] = (1, p)
            cands[k] = _points_at(t2, p.height + d, self.tol)
        for k, p in enumerate(right):
            fixed[n1 + k] = (2, p)
            cands[n1 + k] = _points_at(t1, p.height + d, self.tol)
        if any(not cands[k] for k in labels):
            return None

        order = sorted(labels, key=lambda k: (len(cands[k]), k))
        pos1 = {}
        pos2 = {}
        for k, (side, p) in fixed.items():
            (pos1 if side == 1 else pos2)[k] = p

        assigned = []

        def ok_pair(x: int, y: int) -> bool:
            gap = abs(
                self._meet(1, pos1[x], pos1[y]) - self._meet(2, pos2[x], pos2[y])
            )
            return gap <= d + self.tol

        def dfs(i: int):
            if i == len(order):
                return True
            k = order[i]
            side = fixed[k][0]
            store = pos2 if side == 1 else pos1
            for cand in cands[k]:
                self.states += 1
                if self.states > self.budget:
                    raise BudgetExceededError(self.budget)
                store[k] = cand
                if all(ok_pair(k, y) for y in assigned):
                    assigned.append(k)
                    if dfs(i + 1):
                        return True
                    assigned.pop()
            store.pop(k, None)
            return False

        if not dfs(0):
            return None
        pairs = tuple((pos1[k], pos2[k]) for k in labels)
        return LabelPairing(t1, t2, pairs)


def _feasible(t1, t2, delta, budget, tol):
    return _Search(t1, t2, delta, budget, tol).run()


def unlabeled_interleaving(
    t1: Union[MergeTree, LabeledMergeTree],
    t2: Union[MergeTree, LabeledMergeTree],
    budget: int = DEFAULT_BUDGET,
    tol: float = DEFAULT_TOL,
) -> UnlabeledDistance:
    """Exact distance between bare merge trees, with witness labeling.

    Labels on the inputs are ignored.  `budget` bounds the assignment states
    each feasibility test may explore; exceeding it raises
    :class:`BudgetExceededError` rather than guessing.
    """
    a = canonicalize_tree(_bare(t1).ensure_valid())
    b = canonicalize_tree(_bare(t2).ensure_valid())
    refuted = None
    for delta in candidate_shifts(a, b):
        witness = _feasible(a, b, delta, budget, tol)
        if witness is None:
            refuted = delta
            continue
        if delta == 0.0:
            return UnlabeledDistance(0.0, witness, True, None)
        eps = 1e-6 * delta
        recheck = _feasible(a, b, delta - eps, budget, tol)
        return UnlabeledDistance(delta, witness, recheck is None, refuted)
    raise MergespaceError("no feasible shift found; candidate set exhausted")
