"""Sublevel persistence of merge trees and bottleneck distance.

The diagram of a merge tree pairs each non-oldest branch with the merge
that absorbs it: at every merge vertex the component carrying the lowest
minimum survives (ties to the smaller leaf id) and the others die there.
The global minimum never dies and yields the single infinite point.  One
pass over the tree's stored edges, in their child's height order, computes
it: every child lies strictly below its parent, so each vertex has received
its children's minima before its own edge hands its minimum up, and the
younger of two minima meeting at a vertex dies there: one comparison per
merge.  Every diagram goes through one store, which sorts its finite and
its essential points once each, and then both together, once, as `points`.
Caller points, to the constructor or in diagram text, pass one per-point
check first; a tree's points skip it, being copied heights whose deaths
exceed births.

Bottleneck distance is computed exactly.  Essential points pair up in birth
order, which fixes a floor on the cost.  For the finite points, one numpy
pass builds the L-infinity cost matrix between the two diagrams; the
optimum is the least feasible value among 0, the floor, that matrix and the
half-persistences (a point's cost of retiring to the diagonal).  The search
never lists those values.  It starts from a lower bound: every point goes to
a partner or to the diagonal, so no matching beats the floor or any point's
cheapest fate, the least of its half-persistence and its row of the cost
matrix.  The first probe tests that bound, which on merge-tree diagrams is
the value about half the time.  A refuted probe climbs: its failed side
names a set of k more must-cover points than partners within the probe's
cost (a Hall violator of deficiency k), and only two kinds of event relieve
it, one unit each: one of its points retiring, at its half-persistence, or
a new partner coming within reach, at that partner's least cost to the set.
No value below the k-th smallest event is feasible, so the next probe is
there, or at the larger of the two sides' events when both fail.  Every
event lies above the probe and is one of the values above, so the probes
rise strictly and the first feasible one is the optimum.  No bound on the
probe count better than the number of values is proved; on the benchmark's
merge-tree diagrams of seeds 1-3 a pair took at most 7 probes.

Feasibility at cost c needs no diagonal stand-ins: the classic augmented
graph, where each point may retire to its own diagonal projection and the
projections pair freely, has a perfect matching exactly when the graph of
point pairs within c has a matching covering every point that cannot
retire (half-persistence above c).  By Mendelsohn-Dulmage such a matching
exists when each side's must-cover points can be covered on their own, so
a probe runs two one-sided saturations by phases of depth-first augmenting
paths, on explicit stacks so that depth never meets the recursion limit.
Each carries its side's matching from the probe before: a later probe lies
higher, so every matched pair is still within its cost.  A probe costs one
O(nl*nr) numpy comparison plus at worst O(V*E) Python work on the E edges
at the V must-cover points; Hopcroft-Karp bounds that by O(E sqrt(V)) but
measured no faster on merge-tree diagrams.
It builds the adjacency of its must-cover points with ndarray methods
(`nonzero`, `sum`, `cumsum`), which skip the Python-level wrappers that
the `np.` functions of the same names pass through on every call.

Diagrams with at most SMALL_DIAGRAM finite points per side take a plain
Python path: the same costs from the same IEEE operations, and the same
adjacency and events, built from lists.  A numpy call costs microseconds
whatever its size, and a tiny diagram's work is smaller than the ten or so
calls per probe; the unlabeled search bounds every tree pair this way.
Values are bit-identical on both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import MergespaceError
from .trees import LabeledMergeTree, MergeTree, _bare, _number

INF = math.inf
# finite points per side up to which bottleneck_distance stays in plain
# Python: below it, numpy's per-call overhead outweighs the work
SMALL_DIAGRAM = 8

__all__ = [
    "PersistenceDiagram",
    "persistence_diagram",
    "bottleneck_distance",
    "bottleneck_tree_distance",
]


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) points, death maybe +inf; stored sorted,
    and split into `finite` and `infinite` at construction."""

    points: tuple

    def __init__(self, points):
        finite, infinite = [], []
        _checked(points, finite, infinite)
        _store(self, finite, infinite)

    def __len__(self) -> int:
        return len(self.points)


def _checked(points, finite: list, infinite: list) -> None:
    """Check caller points (b, d) in order and append each, as floats
    (`trees._number`, which the text reader's floats skip), to `finite` or
    `infinite`; the constructor and the text reader share it."""
    for b, d in points:
        if b.__class__ is not float or d.__class__ is not float:
            b, d = _number(b, "birth"), _number(d, "death")
        if not math.isfinite(b):
            raise MergespaceError(f"non-finite birth {b}")
        if not d > b:  # a NaN death fails this too
            raise MergespaceError(f"point ({b}, {d}) has no persistence")
        (finite if d < INF else infinite).append((b, d))


def _store(d: PersistenceDiagram, finite: list, infinite: list) -> PersistenceDiagram:
    """Store checked `finite` and `infinite` points in `d`, each sorted once,
    and `points`, all of them sorted."""
    finite.sort()
    infinite.sort()
    d.__dict__.update(points=tuple(sorted(finite + infinite)), finite=tuple(finite), infinite=tuple(infinite))
    return d


def persistence_diagram(t: Union[MergeTree, LabeledMergeTree]) -> PersistenceDiagram:
    """Elder-rule pairing of branches; exactly one infinite point.  The
    points are copied tree heights whose deaths lie above their births
    (edges climb), so none of the constructor's checks can fail."""
    t = _bare(t)
    height = t.height
    finite = []
    # minimum carried up to each vertex so far: (height, leaf id), whose
    # order is the elder rule with ties to the smaller id (ids differ, so two
    # never compare equal).
    # Children lie strictly below their parent, so with the edges in their
    # child's height order a vertex has all its children's minima before its
    # own edge passes its minimum up.
    carried = {}
    for c, p in sorted(t.edges, key=lambda e: height[e[0]]):
        low = carried.pop(c, None) or (height[c], c)  # nothing carried: a leaf
        other = carried.get(p)
        if other is None:
            carried[p] = low
        elif low < other:
            finite.append((other[0], height[p]))
            carried[p] = low
        else:
            finite.append((low[0], height[p]))
    # every vertex but the top has passed its minimum up, so only the top's
    # is left; a single vertex has no edge and is its own minimum
    birth = carried.popitem()[1][0] if carried else t.vertices[0][1]
    return _store(object.__new__(PersistenceDiagram), finite, [(birth, INF)])


def _numpy_adjacency(cost, half, c):
    """Rows that must be covered at c (half-persistence above c) -> their
    columns within c, from one numpy comparison."""
    must = (half > c).nonzero()[0]
    within = cost[must] <= c
    cols = within.nonzero()[1].tolist()
    adj, start = {}, 0
    for r, end in zip(must.tolist(), within.sum(axis=1).cumsum().tolist()):
        adj[r] = cols[start:end]
        start = end
    return adj


def _small_adjacency(cost, half, c):
    """The same adjacency from lists, for diagrams too small for numpy."""
    return {
        r: [j for j, x in enumerate(cost[r]) if x <= c]
        for r, h in enumerate(half)
        if h > c
    }


def _covers(adj, match_row: list, match_col: list):
    """Grow `match_row`/`match_col`, a matching along edges within the
    probe's cost, until it covers every row of `adj` (the rows that cannot
    retire); rows outside `adj` are unmatched first.  None when it covers
    them; otherwise `(rows, k)`, a set of rows of `adj` with k more rows
    than columns within the probe's cost, k >= 1.

    Each phase seeks an augmenting path depth-first from every free row,
    with one set of seen columns.  Until a phase augments, the matching is
    fixed and a seen column leads only to dead ends, so a phase that
    augments nothing shows that no free row has an augmenting path: by
    Berge's exchange argument no matching covers the rows of `adj`.  That
    phase also names the obstruction.  Its searches tried every column of
    every row they reached, and each column they saw is matched to a row
    they reached, so its `rows`, the free rows and the rows matched to the
    seen columns, reach exactly the seen columns: a Hall violator whose
    deficiency is k, the number of free rows.  After an augmentation the
    marks may be stale, so a failed search does not end the phase, and the
    next phase starts with fresh marks.

    A row with no columns is never covered, and the phases refute it.
    `bottleneck_distance` never probes such a row: it probes only at or
    above every point's cheapest fate, so a row that cannot retire has a
    partner within the probe's cost.
    """
    for r, j in enumerate(match_row):
        if j >= 0 and r not in adj:
            match_row[r] = match_col[j] = -1

    while True:
        free = [r for r in adj if match_row[r] < 0]
        if not free:
            return None
        seen = set()
        for f in free:
            # the path's rows, each with an iterator over its columns
            stack = [(f, iter(adj[f]))]
            while stack:
                for j in stack[-1][1]:
                    if j not in seen:
                        break
                else:
                    stack.pop()
                    continue
                seen.add(j)
                r = match_col[j]
                if r < 0:
                    # flip the path: each row takes the column it led to
                    for r, _ in reversed(stack):
                        match_col[j] = r
                        match_row[r], j = j, match_row[r]
                    break
                stack.append((r, iter(adj[r])))
        if all(match_row[f] < 0 for f in free):
            return free + [match_col[j] for j in seen], len(free)


def _numpy_relief(cost, half, c, rows, k):
    """The k-th smallest relief event of `rows`, a Hall violator of
    deficiency k at c, from one row gather: the rows' half-persistences and
    each column's least cost to them, where it lies above c."""
    joins = cost[rows].min(axis=0)
    events = np.concatenate((half[rows], joins[joins > c]))
    return float(np.partition(events, k - 1)[k - 1])


def _small_relief(cost, half, c, rows, k):
    """The same event from lists."""
    joins = [min(col) for col in zip(*(cost[r] for r in rows))]
    return sorted([*(half[r] for r in rows), *(x for x in joins if x > c)])[k - 1]


def bottleneck_distance(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Exact bottleneck distance; +inf when infinite points cannot pair up.

    The probes climb from the cheapest-fate bound: each refuted side names
    a Hall violator of deficiency k, and its k-th relief event is the least
    value that can be feasible; the first feasible probe is the value."""
    inf1 = [b for b, _ in d1.infinite]
    inf2 = [b for b, _ in d2.infinite]
    if len(inf1) != len(inf2):
        return INF
    inf_cost = max((abs(a - b) for a, b in zip(inf1, inf2)), default=0.0)

    left, right = d1.finite, d2.finite
    nl, nr = len(left), len(right)
    if max(nl, nr) <= SMALL_DIAGRAM:
        # the numpy route's values from the same IEEE operations, as lists
        half_l = [(d - b) / 2.0 for b, d in left]
        half_r = [(d - b) / 2.0 for b, d in right]
        cost = [[max(abs(b - b2), abs(d - d2)) for b2, d2 in right] for b, d in left]
        cost_t = [[row[j] for row in cost] for j in range(nr)]  # |x - y| == |y - x|
        # each point's cheapest fate: its nearest partner or the diagonal
        fates = [min(h, min(row, default=INF)) for h, row in zip(half_l, cost)]
        fates += [min(h, min(col, default=INF)) for h, col in zip(half_r, cost_t)]
        c = max([inf_cost, *fates])
        adjacency, relief = _small_adjacency, _small_relief
    else:
        left = np.array(left, dtype=float).reshape(-1, 2)
        right = np.array(right, dtype=float).reshape(-1, 2)
        half_l = (left[:, 1] - left[:, 0]) / 2.0
        half_r = (right[:, 1] - right[:, 0]) / 2.0
        cost = np.maximum(
            np.abs(left[:, None, 0] - right[None, :, 0]),
            np.abs(left[:, None, 1] - right[None, :, 1]),
        )
        cost_t = cost.T
        fates = np.concatenate((
            np.minimum(half_l, cost.min(axis=1, initial=INF)),
            np.minimum(half_r, cost.min(axis=0, initial=INF)),
        ))
        c = float(fates.max(initial=inf_cost))
        adjacency, relief = _numpy_adjacency, _numpy_relief

    # every point pays at least its cheapest fate, so the first probe, at
    # their largest, is often the value itself.  Each later probe lies above
    # every earlier one, so each side's matching stays valid and is carried.
    sides = ((cost, half_l, [-1] * nl, [-1] * nr), (cost_t, half_r, [-1] * nr, [-1] * nl))
    while True:
        steps = []
        for side_cost, side_half, match_row, match_col in sides:
            stuck = _covers(adjacency(side_cost, side_half, c), match_row, match_col)
            if stuck is not None:
                # nothing below this side's next event is feasible
                steps.append(relief(side_cost, side_half, c, *stuck))
        if not steps:
            return c
        c = max(steps)


def bottleneck_tree_distance(
    t1: Union[MergeTree, LabeledMergeTree], t2: Union[MergeTree, LabeledMergeTree]
) -> float:
    """Bottleneck distance between the trees' persistence diagrams."""
    return bottleneck_distance(persistence_diagram(t1), persistence_diagram(t2))
