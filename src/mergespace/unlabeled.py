"""Exact unlabeled interleaving distance by optimal label placement.

The distance between bare merge trees is the smallest shift for which some
shared labeling brings the two induced matrices within that shift of each
other.  The search space is finite: candidate shifts come from pairwise
height differences (and their halves), and for a given shift each tree's
leaves only need placements at leaf height + shift in the opposite tree,
one per crossing branch.  So each leaf of either tree carries one label,
whose options are those placements.  A pruned exhaustive search picks one
option per label, fewest options first, and checks each against the options
already chosen; it runs depth-first on an explicit stack, so no leaf count
meets the recursion limit.

The search starts from a lower bound.  The bottleneck distance between the
trees' persistence diagrams never exceeds the interleaving distance, and
on random pairs it usually equals it.  Every candidate below bound - slack
counts as refuted, where slack = height_tol(t1, t2) is the tolerance the
probes compare with; the slack matters, since the bound can round one ULP
above a candidate feasible within it.  The first probe is the lowest
candidate left.  Only when it is refuted does the search go on, and
feasibility being monotone in the shift (a map that is good at some shift
stays good at any larger one), it bisects the candidates above: the
smallest feasible one is found in about log2(C) + 1 probes of C
candidates, and often in one.

Inside a probe, the height where two placed points meet is
max(h_p, h_q, H[p.anchor][q.anchor]), with H the tree's meet table.
`matrices.meet_table` builds it once per call and tree from the walk and
kernel of a labeled tree's matrix, with rows in walk order and no gather.

Every result is double-checked from below at value * (1 - 1e-6), and the
`certified` flag records that nothing feasible lies there.  When that
shift plus twice the slack is still below the bound, the bound proves it
and no probe runs; otherwise feasibility is re-tested there and must fail.
`certified_by` on the result says which.  An uncertified result is still a
valid upper bound.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import BudgetExceededError, MergespaceError
from .goodmaps import LabelPairing
from .matrices import meet_table
from .persistence import bottleneck_tree_distance
from .trees import (
    LabeledMergeTree,
    MergeTree,
    _bare,
    canonicalize_tree,
    height_tol,
    points_at,
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
    certified: feasibility is refuted at value * (1 - 1e-6); when False the
    value is only an upper bound and `refuted_below` tells how far down the
    search actually refuted.
    refuted_below: largest candidate shift shown infeasible, by a probe or
    by the bound, or None when value is 0.
    probes: feasibility tests run, the re-test below the value included.
    lower_bound: bottleneck distance of the trees' persistence diagrams.
    certified_by: what certified the value: "zero" (nothing lies below
    it), "bound" (`lower_bound` refutes the re-test shift), "retest" (the
    re-test probe was refuted), or None when uncertified.
    """

    value: float
    witness: LabelPairing
    certified: bool
    refuted_below: float = None
    probes: int = 0
    lower_bound: float = None
    certified_by: str = None


def candidate_shifts(t1: MergeTree, t2: MergeTree) -> list:
    """Sorted candidate values: 0 plus |a-b| and |a-b|/2 over all heights."""
    h = np.unique(list(t1.height.values()) + list(t2.height.values()))
    gaps = np.subtract.outer(h, h)
    gaps = gaps[gaps > 0]
    return np.unique(np.concatenate(([0.0], gaps, gaps / 2.0))).tolist()


class _Search:
    """Feasibility tests of one tree pair: place cross labels, prune on entries."""

    def __init__(self, t1: MergeTree, t2: MergeTree, budget: int, tol: float):
        self.t1, self.t2, self.budget, self.tol = t1, t2, budget, tol
        self.tables = [(rows, h.tolist()) for rows, h in map(meet_table, (t1, t2))]
        self.probes = 0

    def _placed(self, side: int, p):
        """(height, meet-table row index, that row, point) of a point."""
        rows, meets = self.tables[side - 1]
        r = rows[p.anchor]
        return (p.height, r, meets[r], p)

    def feasible(self, delta: float):
        """A witness pairing at this shift, or None when none exists."""
        self.probes += 1
        t1, t2, tol = self.t1, self.t2, self.tol
        # one label per leaf of either tree; its options pair that leaf with
        # each point at leaf height + delta in the other tree, as (t1, t2)
        options = [
            [(p, self._placed(2, q)) for q in points_at(t2, p[0] + delta, tol)]
            for p in (self._placed(1, vertex_point(t1, v)) for v in t1.leaves)
        ] + [
            [(self._placed(1, q), p) for q in points_at(t1, p[0] + delta, tol)]
            for p in (self._placed(2, vertex_point(t2, v)) for v in t2.leaves)
        ]
        if not all(options):
            return None

        # fewest options first, ties by label index (the sort is stable)
        order = sorted(range(len(options)), key=lambda k: len(options[k]))
        limit = delta + tol
        states = 0
        # depth-first with an explicit stack: chosen[i] is the option kept
        # for label order[i], and stack[i] iterates over that label's options
        chosen = []
        stack = [iter(options[order[0]])]
        while stack:
            for a, c in stack[-1]:
                states += 1
                if states > self.budget:
                    raise BudgetExceededError(self.budget)
                for b, e in chosen:
                    gap = max(a[0], b[0], a[2][b[1]]) - max(c[0], e[0], c[2][e[1]])
                    if abs(gap) > limit:
                        break
                else:
                    break
            else:
                # exhausted: back up and move the previous label on
                stack.pop()
                if stack:
                    chosen.pop()
                continue
            chosen.append((a, c))
            if len(chosen) == len(order):
                pairs = tuple((a[3], c[3]) for _, (a, c) in sorted(zip(order, chosen)))
                return LabelPairing(t1, t2, pairs)
            stack.append(iter(options[order[len(chosen)]]))
        return None


def unlabeled_interleaving(
    t1: Union[MergeTree, LabeledMergeTree],
    t2: Union[MergeTree, LabeledMergeTree],
    budget: int = DEFAULT_BUDGET,
) -> UnlabeledDistance:
    """Exact distance between bare merge trees, with witness labeling.

    Labels on the inputs are ignored.  Heights compare within `height_tol`
    of the two trees, so scaling every height by a power of two scales the
    value exactly; at offsets whose rounding swallows the re-test shift,
    values come back uncertified.  `budget` bounds the assignment states
    each feasibility test may explore; exceeding it raises
    :class:`BudgetExceededError`, which names the shift under test and the
    bracket established so far, rather than guessing.  A feasible test tries
    at least one option, so a budget below 1 raises MergespaceError.
    """
    if budget < 1:
        raise MergespaceError(f"search budget must be at least 1, got {budget}")
    a = canonicalize_tree(_bare(t1).ensure_valid())
    b = canonicalize_tree(_bare(t2).ensure_valid())
    shifts = candidate_shifts(a, b)
    slack = height_tol(a, b)
    search = _Search(a, b, budget, slack)
    bound = bottleneck_tree_distance(a, b)
    # shifts[:lo] refuted (the bound refutes every shift below bound - slack),
    # shifts[hi:] feasible; the first probe is the lowest shift left open
    lo, hi = bisect_left(shifts, bound - slack), len(shifts)
    witness = None

    def probe(delta: float):
        try:
            return search.feasible(delta)
        except BudgetExceededError:
            raise BudgetExceededError(
                budget,
                delta=delta,
                refuted_below=shifts[lo - 1] if lo else None,
                feasible_at=shifts[hi] if hi < len(shifts) else None,
            ) from None

    mid = lo
    while lo < hi:
        found = probe(shifts[mid])
        if found is None:
            lo = mid + 1
        else:
            hi, witness = mid, found
        mid = (lo + hi) // 2
    if witness is None:
        raise MergespaceError("no feasible shift found; candidate set exhausted")
    delta = shifts[hi]
    if delta == 0.0:
        return UnlabeledDistance(0.0, witness, True, None, search.probes, bound, "zero")
    below = delta - 1e-6 * delta
    if below + 2 * slack < bound:
        # the re-test shift lies below the bound by more than the tolerance
        # can bridge, so the bound refutes it
        by = "bound"
    else:
        by = "retest" if probe(below) is None else None
    return UnlabeledDistance(
        delta, witness, by is not None, shifts[hi - 1], search.probes, bound, by
    )
