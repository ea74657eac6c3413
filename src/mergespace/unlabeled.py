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
meets the recursion limit.  Its budget, the states a probe may explore, is
an integer: `trees._as_id` refuses any other, NaN included.

The search starts from a lower bound.  The bottleneck distance between the
trees' persistence diagrams never exceeds the interleaving distance, and
on random pairs it usually equals it.  Every candidate below bound - slack
counts as refuted, where slack = height_tol(t1, t2) is the tolerance the
probes compare with; the slack matters, since the bound can round one ULP
above a candidate feasible within it.  The first probe is the lowest
candidate left, and it and the candidate just below it come from one O(H)
sweep over the H distinct heights (`_shifts_around`), so the O(H^2)
candidate list is not built.  Only when the first probe is refuted is it
listed (`candidate_shifts`) and does the search go on: feasibility being
monotone in the shift (a map that is good at some shift stays good at any
larger one), it bisects the candidates above, and the smallest feasible
one is found in about log2(C) + 1 probes of C candidates, and often in one.

Inside a probe, the height where two placed points meet is
max(h_p, h_q, H[p.anchor][q.anchor]), with H the tree's meet rows.  Each
input tree is prepared once per call by one walk (`_prepare`) that skips
its single-child vertices: it gives the canonical tree, its meet rows as
nested lists in walk order (numpy's per-call cost outweighs its kernel on
the small tables most calls build), each leaf's placement and a table of
branches, each with its two end heights and its row.  A probe reads a
label's options off the other tree's branch table by the snapping rule of
`trees.points_at`, and makes points only for the witness it returns.

The pair check is the probe's innermost step, run once per placed label
for every option tried, so it calls no builtin: a call to `max` or `abs`
costs more than the comparisons it makes.  Each meet is a running maximum
of the row entry and the two heights, which is the value `max` returns,
and |m1 - m2| > limit is tested as m1 - m2 > limit or m2 - m1 > limit.
The two agree exactly: IEEE subtraction is sign-symmetric, so m2 - m1 is
-(m1 - m2) bit for bit, and finite heights let no NaN reach the test.

Every result is double-checked from below at value * (1 - 1e-6), and the
`certified` flag records that nothing feasible lies there.  When that
shift plus twice the slack is still below the bound, the bound proves it
and no probe runs; otherwise feasibility is re-tested there and must fail.
`certified_by` on the result says which.  An uncertified result is still a
valid upper bound.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Union

from .errors import BudgetExceededError, MergespaceError
from .goodmaps import LabelPairing
from .persistence import bottleneck_tree_distance
from .trees import (
    LabeledMergeTree,
    MergeTree,
    PointOnTree,
    _as_id,
    _bare,
    _branches_at,
    _trusted,
    height_tol,
    np,
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


def _heights(t1: MergeTree, t2: MergeTree) -> list:
    """The sorted distinct heights of both trees."""
    return sorted({*t1.height.values(), *t2.height.values()})


def candidate_shifts(t1: MergeTree, t2: MergeTree) -> list:
    """Sorted candidate values: 0 plus |a-b| and |a-b|/2 over all heights."""
    h = np.array(_heights(t1, t2))
    gaps = np.subtract.outer(h, h)
    gaps = gaps[gaps > 0]
    c = np.concatenate(([0.0], gaps, gaps / 2.0))
    c.sort()
    # the first of each run of equal values, as `np.unique` keeps it
    return c[np.concatenate(([True], c[1:] != c[:-1]))].tolist()


def _shifts_around(h: list, y: float) -> tuple:
    """(largest candidate shift below y, smallest at or above it) of the
    sorted distinct heights h, None where there is none: the neighbours of
    `bisect_left(candidate_shifts(...), y)`, without listing the candidates.

    0 is a candidate, and the smallest one at or above y whenever y <= 0.
    For a fixed i the gaps h[j] - h[i] over j > i, and their halves, rise
    with j and fall with i, since rounding is monotone; so one two-pointer
    sweep per kind finds each i's first j at or above y in O(H) steps, and
    the j before it holds i's largest value below y.  The values are those
    of `candidate_shifts`: a gap is h[j] - h[i] and a half that gap / 2.0,
    each compared with y as computed, never a gap with 2 * y, which can
    overflow or round.  A comparison `c < y`, as `bisect_left` makes it,
    also puts a NaN y where the list would.
    """
    if not 0.0 < y:
        return None, 0.0
    n, below, above = len(h), [0.0], []
    for div in (1.0, 2.0):  # x / 1.0 is x exactly: the gaps, then the halves
        j = 1
        for i, x in enumerate(h):
            if j <= i:
                j = i + 1
            while j < n and (h[j] - x) / div < y:
                j += 1
            if j < n:
                above.append((h[j] - x) / div)
            if j > i + 1:
                below.append((h[j - 1] - x) / div)
    return max(below), min(above, default=None)


class _Prepared(NamedTuple):
    """One input tree as the search reads it (see `_prepare`)."""

    tree: MergeTree  # canonical: no vertex with exactly one child
    leaves: list  # (height, row index, row) of each leaf, by id
    branches: list  # (height, parent height or inf, row index, row, vertex), by id


def _prepare(t: MergeTree) -> _Prepared:
    """`t`'s canonical tree, its meet rows and its search tables, from one walk.

    The walk is `trees._label_walk` of `canonicalize_tree(t)` with each
    vertex as its own label, taken on `t` itself: it goes down from the top,
    passes over every vertex with exactly one child (the top's chain
    included) and visits each kept vertex's kept children in id order.  Two
    neighbours of the walk meet at the later one's parent, so the gaps are
    parent heights.  Row p of the meet rows holds the column above it,
    mirrored, its own height, then one running maximum of the gaps to its
    right.  The highest gaps of a stretch of the walk are all the height of
    one vertex, the stretch's meet, so which of them a maximum keeps changes
    no bit: the rows equal `matrices.meet_table`'s bit for bit, signed zeros
    included.  The canonical tree is `t` itself when no vertex goes, and
    otherwise `canonicalize_tree`'s parts; `t` keeps no `children` or
    `parent` map.
    """
    height = t.height
    children = {}
    for c, p in t.edges:
        children.setdefault(p, []).append(c)

    def kept(v):
        """v, or the first vertex down its chain of single children."""
        while len(ch := children.get(v, ())) == 1:
            v = ch[0]
        return v

    parent, order = {}, []  # kept vertex -> its kept parent; the walk
    stack = [(kept(t.top), None)]
    while stack:
        v, p = stack.pop()
        parent[v] = p
        order.append(v)
        if v in children:
            stack.extend([(c, v) for c in sorted(map(kept, children[v]), reverse=True)])
    gaps = [height[parent[v]] for v in order[1:]]
    rows = []
    for p, v in enumerate(order):
        row = [r[p] for r in rows]
        row.append(height[v])
        m = -math.inf
        for g in gaps[p:]:
            if g > m:
                m = g
            row.append(m)
        rows.append(row)
    at = {v: k for k, v in enumerate(order)}
    branches = [
        (h, math.inf if parent[v] is None else height[parent[v]], at[v], rows[at[v]], v)
        for v, h in t.vertices
        if v in parent
    ]
    leaves = [(h, k, row) for h, _, k, row, v in branches if v not in children]
    if len(order) == len(t.vertices):
        return _Prepared(t, leaves, branches)
    vertices = tuple((v, h) for v, h in t.vertices if v in parent)
    edges = tuple((v, parent[v]) for v, _ in vertices if parent[v] is not None)
    return _Prepared(_trusted(vertices, edges), leaves, branches)


class _Search:
    """Feasibility tests of one tree pair: place cross labels, prune on entries."""

    def __init__(self, p1: _Prepared, p2: _Prepared, budget: int, tol: float):
        self.p1, self.p2, self.budget, self.tol = p1, p2, budget, tol
        self.probes = 0

    def feasible(self, delta: float):
        """A witness pairing at this shift, or None when none exists."""
        self.probes += 1
        p1, p2, tol = self.p1, self.p2, self.tol
        # one label per leaf of either tree; its options pair that leaf with
        # each point at leaf height + delta in the other tree, each option one
        # flat tuple (h1, row index 1, row 1, h2, row index 2, row 2): a
        # point's height, its meet row's index and that row, t1's then t2's
        options = [
            [(h, k, row, x, b[2], b[3]) for x, b in _branches_at(p2.branches, h + delta, tol)]
            for h, k, row in p1.leaves
        ] + [
            [(x, b[2], b[3], h, k, row) for x, b in _branches_at(p1.branches, h + delta, tol)]
            for h, k, row in p2.leaves
        ]
        if not all(options):
            return None

        # fewest options first, ties by label index (the sort is stable)
        order = sorted(range(len(options)), key=lambda k: len(options[k]))
        limit, budget = delta + tol, self.budget
        states = 0
        # depth-first with an explicit stack: chosen[i] is (h1, row index 1,
        # h2, row index 2) of the option kept for label order[i], and stack[i]
        # iterates over that label's options.  A new option is checked against
        # each placed one by plain comparisons, since a builtin call per pair
        # costs more than the check: each meet is a running maximum of the
        # row entry and the two heights, which is max()'s value, and
        # `m - k > limit or k - m > limit` is `abs(m - k) > limit`, since
        # IEEE subtraction is sign-symmetric (k - m is exactly -(m - k)) and
        # finite heights give no NaN.
        chosen = []
        stack = [iter(options[order[0]])]
        while stack:
            for ah, ai, ar, ch, ci, cr in stack[-1]:
                states += 1
                if states > budget:
                    raise BudgetExceededError(budget)
                for bh, bi, eh, ei in chosen:
                    m = ar[bi]
                    if ah > m:
                        m = ah
                    if bh > m:
                        m = bh
                    k = cr[ei]
                    if ch > k:
                        k = ch
                    if eh > k:
                        k = eh
                    if m - k > limit or k - m > limit:
                        break
                else:
                    break
            else:
                # exhausted: back up and move the previous label on
                stack.pop()
                if stack:
                    chosen.pop()
                continue
            chosen.append((ah, ai, ch, ci))
            if len(chosen) == len(order):
                # a row index names its vertex, the point's anchor
                at1, at2 = ({b[2]: b[4] for b in p.branches} for p in (p1, p2))
                pairs = tuple(
                    (PointOnTree(at1[ai], ah), PointOnTree(at2[ci], ch))
                    for _, (ah, ai, ch, ci) in sorted(zip(order, chosen))
                )
                return LabelPairing(p1.tree, p2.tree, pairs)
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
    budget = _as_id(budget, "search budget")
    if budget < 1:
        raise MergespaceError(f"search budget must be at least 1, got {budget}")
    p1, p2 = _prepare(_bare(t1)), _prepare(_bare(t2))
    a, b = p1.tree, p2.tree
    slack = height_tol(a, b)
    search = _Search(p1, p2, budget, slack)
    bound = bottleneck_tree_distance(a, b)
    # the bound refutes every candidate below bound - slack; the first probe
    # is the lowest candidate left, and `refuted` the largest one refuted
    refuted, delta = _shifts_around(_heights(a, b), bound - slack)
    if delta is None:
        raise MergespaceError("no feasible shift found; candidate set exhausted")

    def probe(at: float, refuted_below: float, feasible_at: float):
        try:
            return search.feasible(at)
        except BudgetExceededError:
            raise BudgetExceededError(
                budget, delta=at, refuted_below=refuted_below, feasible_at=feasible_at
            ) from None

    witness = probe(delta, refuted, None)
    if witness is None:
        # only a refuted first probe lists the candidates: shifts[:lo] are
        # refuted, shifts[hi:] feasible
        shifts = candidate_shifts(a, b)
        lo, hi = bisect_left(shifts, delta) + 1, len(shifts)
        mid = (lo + hi) // 2
        while lo < hi:
            found = probe(shifts[mid], shifts[lo - 1], shifts[hi] if hi < len(shifts) else None)
            if found is None:
                lo = mid + 1
            else:
                hi, witness = mid, found
            mid = (lo + hi) // 2
        if witness is None:
            raise MergespaceError("no feasible shift found; candidate set exhausted")
        refuted, delta = shifts[hi - 1], shifts[hi]
    if delta == 0.0:
        return UnlabeledDistance(0.0, witness, True, None, search.probes, bound, "zero")
    below = delta - 1e-6 * delta
    if below + 2 * slack < bound:
        # the re-test shift lies below the bound by more than the tolerance
        # can bridge, so the bound refutes it
        by = "bound"
    else:
        by = "retest" if probe(below, refuted, delta) is None else None
    return UnlabeledDistance(delta, witness, by is not None, refuted, search.probes, bound, by)
