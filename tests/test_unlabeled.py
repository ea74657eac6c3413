from __future__ import annotations

import math
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergespace import (
    BudgetExceededError,
    LabelPairing,
    LabeledMergeTree,
    MergeTree,
    MergespaceError,
    apply_pairing,
    bottleneck_tree_distance,
    candidate_shifts,
    canonicalize_tree,
    induced_matrix,
    labeled_interleaving,
    unlabeled_interleaving,
    vertex_point,
)
from mergespace import trees, unlabeled
from mergespace.trees import _branches_at, height_tol, points_at
from mergespace.matrices import meet_table
from mergespace.unlabeled import _Search, _heights, _prepare, _shifts_around
from util import (
    _crossings,
    candidate_shifts_oracle,
    good_map_exists,
    lca_oracle,
    rand_grown_tree,
    rand_merge_tree,
    rand_point,
    straddling_zero,
    with_heights,
)

TWO_LEAF = MergeTree([(0, 0.0), (1, 0.0), (2, 2.0)], [(0, 2), (1, 2)])
SINGLE = MergeTree([(0, 0.0)], [])


def test_candidate_shifts_cover_height_gaps_and_halves():
    got = candidate_shifts(TWO_LEAF, SINGLE)
    assert got[0] == 0.0
    assert got == sorted(got)
    assert 1.0 in got and 2.0 in got


def test_single_vertices_at_different_heights():
    a = MergeTree([(0, 0.0)], [])
    b = MergeTree([(0, 1.0)], [])
    r = unlabeled_interleaving(a, b)
    assert r.value == 1.0
    assert r.certified


def test_branch_versus_bare_leaf():
    r = unlabeled_interleaving(TWO_LEAF, SINGLE)
    assert r.value == 1.0
    assert r.certified
    # the witness throws the second branch onto the ray above the leaf
    heights = [q.height for _, q in r.witness.pairs if q.anchor == 0]
    assert max(heights) >= 1.0


def test_self_distance_is_zero():
    rng = np.random.default_rng(131)
    for _ in range(10):
        t = rand_merge_tree(rng, max_leaves=3)
        r = unlabeled_interleaving(t, t)
        assert r.value == 0.0


def test_subdividing_edges_changes_nothing():
    subdivided = MergeTree(
        [(0, 0.0), (1, 0.0), (2, 2.0), (3, 1.0), (4, 3.5)],
        [(0, 3), (3, 2), (1, 2), (2, 4)],
    )
    assert unlabeled_interleaving(subdivided, SINGLE).value == 1.0


def test_symmetry():
    rng = np.random.default_rng(137)
    for k in range(12):
        a = rand_merge_tree(rng, max_leaves=3, integral=k % 2 == 0)
        b = rand_merge_tree(rng, max_leaves=3, integral=k % 2 == 0)
        assert (
            unlabeled_interleaving(a, b).value
            == unlabeled_interleaving(b, a).value
        )


def test_any_shared_labeling_is_an_upper_bound():
    rng = np.random.default_rng(139)
    for _ in range(15):
        a = canonicalize_tree(rand_merge_tree(rng, max_leaves=3))
        b = canonicalize_tree(rand_merge_tree(rng, max_leaves=3))
        value = unlabeled_interleaving(a, b).value
        for _ in range(8):
            pairs = [
                (vertex_point(a, v), rand_point(rng, b)) for v in a.leaves
            ] + [
                (rand_point(rng, a), vertex_point(b, v)) for v in b.leaves
            ]
            lt1, lt2 = apply_pairing(LabelPairing(a, b, tuple(pairs)))
            assert value <= labeled_interleaving(lt1, lt2) + 1e-9


def test_witness_realizes_the_value():
    rng = np.random.default_rng(149)
    for _ in range(15):
        a = rand_merge_tree(rng, max_leaves=3)
        b = rand_merge_tree(rng, max_leaves=3)
        r = unlabeled_interleaving(a, b)
        lt1, lt2 = apply_pairing(r.witness)
        got = labeled_interleaving(lt1, lt2)
        assert got <= r.value + 1e-9
        assert got >= r.value - 1e-9


BUDGET_A = MergeTree(
    [(0, 0.0), (1, 0.3), (2, 0.9), (3, 2.0), (4, 3.0)],
    [(0, 3), (1, 3), (3, 4), (2, 4)],
)
BUDGET_B = MergeTree(
    [(0, 0.1), (1, 0.5), (2, 1.1), (3, 2.5), (4, 3.7)],
    [(0, 3), (1, 3), (3, 4), (2, 4)],
)


def test_tiny_budget_raises():
    a, b = BUDGET_A, BUDGET_B
    with pytest.raises(BudgetExceededError) as err:
        unlabeled_interleaving(a, b, budget=1)
    assert "budget of 1" in str(err.value)
    # the same call with room to work completes
    assert unlabeled_interleaving(a, b).value > 0


def test_bottleneck_is_a_lower_bound():
    rng = np.random.default_rng(151)
    for _ in range(15):
        a = rand_merge_tree(rng, max_leaves=3)
        b = rand_merge_tree(rng, max_leaves=3)
        value = unlabeled_interleaving(a, b).value
        assert bottleneck_tree_distance(a, b) <= value + 1e-9


def test_labels_on_inputs_are_ignored():
    from mergespace import LabeledMergeTree

    lt = LabeledMergeTree(TWO_LEAF, {1: 0, 2: 1})
    assert unlabeled_interleaving(lt, SINGLE).value == 1.0


# same diagram {(0, inf), (1, 5), (2, 3)}, different trees: the bottleneck
# bound is 0 while the value is not, so the search starts with no bracket
SAME_DIAGRAM_A = MergeTree(
    [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0), (4, 5.0)],
    [(1, 3), (2, 3), (3, 4), (0, 4)],
)
SAME_DIAGRAM_B = MergeTree(
    [(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0), (4, 5.0)],
    [(0, 3), (2, 3), (3, 4), (1, 4)],
)


def test_budget_errors_carry_the_bracket():
    # BUDGET_A/B is settled by its first probe; the seeded pair's bound lies
    # strictly between 0 and its value, so its search bisects above the
    # bound after a refuted first probe
    pairs = [
        (BUDGET_A, BUDGET_B),
        (SAME_DIAGRAM_A, SAME_DIAGRAM_B),
        next(_pairs(109, 1, 4, grid=False)),
    ]
    seen = set()
    for a, b in pairs:
        full = unlabeled_interleaving(a, b)
        ca, cb = canonicalize_tree(a), canonicalize_tree(b)
        shifts, slack = candidate_shifts(ca, cb), height_tol(ca, cb)
        for budget in range(1, 400):
            try:
                r = unlabeled_interleaving(a, b, budget=budget)
            except BudgetExceededError as err:
                assert str(err).startswith(f"search budget of {budget} states exceeded at shift ")
                assert err.budget == budget
                low, high = err.refuted_below, err.feasible_at
                assert low is None or low < full.value
                assert high is None or high >= full.value
                # every candidate the bound refutes is reported as refuted
                refuted = [s for s in shifts if s < full.lower_bound - slack]
                if refuted:
                    assert low is not None and low >= refuted[-1]
                if err.delta == full.value - 1e-6 * full.value:  # the re-test
                    assert (low, high) == (full.refuted_below, full.value)
                else:
                    assert err.delta in shifts
                    assert low is None or low < err.delta
                    assert high is None or err.delta < high
                seen.add((low is None, high is None))
            else:
                assert r == full
                break
        else:
            pytest.fail("no budget below 400 was enough")
    # some budgets fail before any bracket exists, some with only the bound's
    # refutation, some once both ends do
    assert {(True, True), (False, True), (False, False)} <= seen


def test_the_budget_counts_every_option_tried():
    # one label per leaf of either tree, each with one option: two states
    assert unlabeled_interleaving(SINGLE, SINGLE, budget=2).value == 0.0
    with pytest.raises(BudgetExceededError):
        unlabeled_interleaving(SINGLE, SINGLE, budget=1)


def test_a_probe_explores_a_pinned_number_of_states():
    # the seventh 9-leaf pair of seed 9 bisects in 11 probes, and the sixth
    # of them explores the most states, 3101: one budget more or less than
    # that succeeds or overruns, so a change to the label order, the option
    # order or the pruning shows here
    rng = np.random.default_rng(9)
    for _ in range(7):
        a, b = rand_grown_tree(rng, 9), rand_grown_tree(rng, 9)
    r = unlabeled_interleaving(a, b, budget=3101)
    assert (r.value, r.probes, r.certified) == (2.0601847353452287, 11, True)
    with pytest.raises(BudgetExceededError):
        unlabeled_interleaving(a, b, budget=3100)


# a grid pair with value 3.5: every height and half-gap is exact, so at
# tolerance 0 its witness's largest gap is exactly the value
BOUNDARY_A = MergeTree(
    [(0, 3.0), (1, 1.0), (2, 0.0), (3, 2.0), (4, 6.0), (5, 9.0), (6, 10.0), (7, 12.0)],
    [(0, 4), (1, 5), (2, 6), (3, 4), (4, 5), (5, 6), (6, 7)],
)
BOUNDARY_B = MergeTree(
    [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0), (4, 3.0), (5, 5.0), (6, 7.0), (7, 9.0)],
    [(0, 5), (1, 4), (2, 5), (3, 4), (4, 6), (5, 6), (6, 7)],
)


@pytest.mark.parametrize("swap", [False, True])
def test_at_tolerance_zero_the_pair_check_admits_a_gap_equal_to_the_shift(swap):
    # swapping the trees flips the sign of every gap, so each of the check's
    # one-sided comparisons decides some placement on one side or the other
    a, b = (BOUNDARY_B, BOUNDARY_A) if swap else (BOUNDARY_A, BOUNDARY_B)
    d = unlabeled_interleaving(a, b).value
    assert d == 3.5
    search = _Search(_prepare(a), _prepare(b), unlabeled.DEFAULT_BUDGET, 0.0)
    witness = search.feasible(d)
    assert witness is not None
    assert labeled_interleaving(*apply_pairing(witness)) == d
    assert search.feasible(math.nextafter(d, 0.0)) is None


@pytest.mark.parametrize("budget", [0, -5])
def test_a_budget_below_one_is_refused(budget):
    # no search can succeed without trying an option, so the budget is
    # refused up front rather than reported as exceeded
    with pytest.raises(MergespaceError, match="must be at least 1") as err:
        unlabeled_interleaving(SINGLE, SINGLE, budget=budget)
    assert not isinstance(err.value, BudgetExceededError)


def _pairs(seed, count, max_leaves, grid=None):
    """Seeded tree pairs; by default every other one on the integer grid."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        integral = k % 2 == 0 if grid is None else grid
        yield (
            rand_merge_tree(rng, max_leaves=max_leaves, integral=integral),
            rand_merge_tree(rng, max_leaves=max_leaves, integral=integral),
        )


def _assert_good_maps_pin(r, a, b):
    """Check the result r on the canonical pair a, b against
    `good_map_exists`, which shares no code with the search.

    Good maps stay good at every larger shift, so maps both ways at the
    value, none either way at the candidate below it, and a witness that
    realizes the value pin it as the smallest feasible candidate: the
    value, bracket and certificate of an ascending scan over the candidates.
    """

    def either_way(delta):
        return good_map_exists(a, b, delta) or good_map_exists(b, a, delta)

    shifts = candidate_shifts_oracle(a, b)
    k = shifts.index(r.value)
    assert good_map_exists(a, b, r.value) and good_map_exists(b, a, r.value)
    assert r.refuted_below == (shifts[k - 1] if k else None)
    assert not k or not either_way(shifts[k - 1])
    assert r.certified == (r.value == 0 or not either_way(r.value * (1 - 1e-6)))
    # the witness pairs each leaf of a, then each leaf of b, with a point
    # across; which points it picks is the search's own business
    n = len(a.leaves)
    assert [p for p, _ in r.witness.pairs[:n]] == [vertex_point(a, v) for v in a.leaves]
    assert [q for _, q in r.witness.pairs[n:]] == [vertex_point(b, v) for v in b.leaves]
    assert abs(labeled_interleaving(*apply_pairing(r.witness)) - r.value) <= height_tol(a, b)


@pytest.mark.parametrize("rel_tol", [trees.REL_TOL, 1e-4])
def test_bisection_equals_the_ascending_scan(rel_tol):
    # the coarse tolerance admits the re-test just below the value, which
    # leaves results uncertified: the bracket must hold there too
    uncertified = 0
    saved = trees.REL_TOL
    trees.REL_TOL = rel_tol
    try:
        for pair in _pairs(157, 60, 4):
            r = unlabeled_interleaving(*pair)
            a, b = (canonicalize_tree(t) for t in pair)
            _assert_good_maps_pin(r, a, b)
            uncertified += not r.certified
            n = len(candidate_shifts(a, b))
            assert 1 <= r.probes <= n.bit_length() + 1
            if r.certified and r.value > 0:
                assert r.refuted_below < r.value
    finally:
        trees.REL_TOL = saved
    assert uncertified == 0 if rel_tol == saved else uncertified > 0


small_pairs = st.builds(
    lambda seed, leaves, grid: next(_pairs(seed, 1, leaves, grid)),
    st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans(),
)


@settings(max_examples=60)
@given(small_pairs)
def test_feasibility_property_is_monotone_in_the_shift(pair):
    a, b = (canonicalize_tree(t) for t in pair)
    shifts = candidate_shifts(a, b)
    search = _Search(_prepare(a), _prepare(b), 10**6, height_tol(a, b))
    found = [search.feasible(d) is not None for d in shifts]
    assert found == sorted(found)
    assert found[-1]


@settings(max_examples=60)
@given(small_pairs, st.integers(-40, 40))
def test_unlabeled_property_power_of_two_scaling_is_exact(pair, power):
    scale = 2.0**power
    a, b = pair
    r = unlabeled_interleaving(a, b)
    scaled = [MergeTree([(v, h * scale) for v, h in t.vertices], t.edges) for t in pair]
    s = unlabeled_interleaving(*scaled)
    assert s.value == r.value * scale
    assert s.certified == r.certified


@settings(max_examples=60)
@given(small_pairs, st.integers(0, 2**32 - 1))
def test_unlabeled_property_lies_between_bottleneck_and_any_shared_labeling(pair, seed):
    a, b = (canonicalize_tree(t) for t in pair)
    value = unlabeled_interleaving(a, b).value
    tol = height_tol(a, b)
    assert bottleneck_tree_distance(a, b) <= value + tol
    rng = np.random.default_rng(seed)
    for _ in range(4):
        pairs = [(vertex_point(a, v), rand_point(rng, b)) for v in a.leaves] + [
            (rand_point(rng, a), vertex_point(b, v)) for v in b.leaves
        ]
        lt1, lt2 = apply_pairing(LabelPairing(a, b, tuple(pairs)))
        assert value <= labeled_interleaving(lt1, lt2) + tol


@settings(max_examples=60)
@given(small_pairs, st.integers(-(2**20), 2**20))
def test_unlabeled_property_translating_both_trees_keeps_the_value(pair, shift):
    r = unlabeled_interleaving(*pair)
    moved = [with_heights(t, lambda h: h + shift) for t in pair]
    s = unlabeled_interleaving(*moved)
    if all(h == int(h) for t in pair for _, h in t.vertices):
        # integer heights shift exactly, so every candidate gap is unchanged
        assert (s.value, s.certified) == (r.value, r.certified)
    else:
        assert abs(s.value - r.value) <= 2 * height_tol(*moved)


def _triple(seed, leaves, grid):
    """Three random trees of at most `leaves` leaves, or, past 4, three
    grown ones of exactly that many."""
    rng = np.random.default_rng(seed)
    make = rand_grown_tree if leaves > 4 else rand_merge_tree
    return tuple(make(rng, leaves, grid) for _ in range(3))


@settings(max_examples=100)
@given(st.builds(_triple, st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans()))
def test_unlabeled_property_is_symmetric_and_obeys_the_triangle_inequality(triple):
    d = {
        (i, j): unlabeled_interleaving(triple[i], triple[j]).value
        for i in range(3) for j in range(3) if i != j
    }
    assert all(d[i, j] == d[j, i] for i, j in d)
    tol = height_tol(*triple)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert d[i, k] <= d[i, j] + d[j, k] + 2 * tol


def _canonical_pair(seed, grid, moved):
    rng = np.random.default_rng(seed)
    pair = [canonicalize_tree(rand_merge_tree(rng, 4, grid)) for _ in range(2)]
    return [with_heights(t, lambda h: h + 2.0**40) for t in pair] if moved else pair


@settings(max_examples=150)
@given(st.builds(_canonical_pair, st.integers(0, 2**32 - 1), st.booleans(), st.booleans()))
def test_unlabeled_property_good_maps_exist_at_the_value_and_not_below(pair):
    # good_map_exists shares no code with the search.  Its map check
    # compares heights within height_tol, so it can pass a map up to about
    # height_tol below the value (at the 2**40 offset, 1.0625 height_tol at
    # most over 400 pairs): only shifts more than 2 * height_tol below the
    # value must have none
    a, b = pair
    r = unlabeled_interleaving(a, b)
    assert good_map_exists(a, b, r.value) and good_map_exists(b, a, r.value)
    if r.refuted_below is None:
        return
    assert r.refuted_below < r.value
    tol = height_tol(a, b)
    for delta in (r.refuted_below, (r.refuted_below + r.value) / 2):
        if r.value - delta > 2 * tol:
            assert not good_map_exists(a, b, delta) and not good_map_exists(b, a, delta)


def _rows_of(prepared):
    """(vertex id -> row index, rows in index order) of a prepared tree."""
    ordered = sorted(prepared.branches, key=lambda b: b[2])
    return {b[4]: b[2] for b in ordered}, [b[3] for b in ordered]


def _hexed(rows):
    return [[x.hex() for x in r] for r in rows]


def _meet_tree(seed, leaves, grid, canonical):
    t = rand_merge_tree(np.random.default_rng(seed), max_leaves=leaves, integral=grid)
    return canonicalize_tree(t) if canonical else t


meet_trees = st.builds(
    _meet_tree, st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans(), st.booleans()
)


@settings(max_examples=150)
@given(meet_trees, st.sampled_from([None, 1.0, -1.0]))
@example(SINGLE, None)
@example(MergeTree([(0, 0.0), (1, 1.0), (2, 3.0), (3, 4.0)], [(0, 1), (1, 2), (2, 3)]), None)
# zeros of both signs at the median, on leaves and on merges
@example(MergeTree([(0, -2.0), (1, -1.0), (2, 0.0), (3, 0.0), (4, 0.0), (5, 1.0), (6, 2.0)],
                   [(0, 2), (1, 3), (2, 5), (3, 5), (4, 6), (5, 6)]), 1.0)
def test_meet_table_property_matches_the_labeled_route_and_the_lca_oracle(t, sign):
    # raw trees keep their subdivision vertices (some above the top), grid
    # heights tie, a canonical one-leaf tree is a single vertex, and a
    # straddled tree has zeros of both signs
    if sign is not None:
        t = straddling_zero(t, sign)
    rows, meets = meet_table(t)
    # the search's nested-list rows are its canonical tree's table bit for
    # bit, signed zeros included.  numpy's running maximum keeps the later
    # of two equal values, the rows' loop the earlier; no probe can tell,
    # since the highest gaps of any stretch of the walk are bit for bit one
    # vertex's height
    search_rows, search_meets = _rows_of(_prepare(t))
    canonical_rows, canonical_meets = meet_table(canonicalize_tree(t))
    assert search_rows == canonical_rows
    assert _hexed(search_meets) == _hexed(canonical_meets.tolist())
    gaps = trees._label_walk(t, {v: (v,) for v in t.height})[2]
    for p in range(len(gaps)):
        for q in range(p + 1, len(gaps) + 1):
            top = max(gaps[p:q])
            assert len({g.hex() for g in gaps[p:q] if g == top}) == 1
    order = sorted(t.height)
    labeled = induced_matrix(LabeledMergeTree(t, {k + 1: v for k, v in enumerate(order)}))
    assert sorted(rows) == order and sorted(rows.values()) == list(range(len(order)))
    perm = [rows[v] for v in order]
    assert meets.shape == labeled.array.shape
    assert meets[np.ix_(perm, perm)].tobytes() == labeled.array.tobytes()  # bit for bit
    heights = sorted(set(t.height.values()))
    probes = heights + [(x + y) / 2 for x, y in zip(heights, heights[1:])]
    points = [p for h in probes + [heights[-1] + 1.0] for p in points_at(t, h, 0.0)]
    for p in points:
        for q in points:
            got = max(p.height, q.height, meets[rows[p.anchor], rows[q.anchor]])
            assert got == lca_oracle(t, p, q).height


def _chained_tree(seed, leaves, grid, chains, sign):
    """A random tree with up to `chains` chains of one to three single
    children, on its edges or above its top, and its ids shuffled, so that
    removed ids may sort before or after their kept ends; straddling zero
    when `sign` is set."""
    rng = np.random.default_rng(seed)
    t = rand_merge_tree(rng, leaves, grid)
    height, edges = dict(t.vertices), list(t.edges)
    for _ in range(chains):
        k = int(rng.integers(1, 4))
        fresh = range(len(height), len(height) + k)
        if edges and rng.random() < 0.6:
            c, p = edges.pop(int(rng.integers(len(edges))))
            lo, hi = height[c], height[p]
            hs = [lo + (hi - lo) * (i + 1) / (k + 1) for i in range(k)]
            if not (lo < hs[0] and all(x < y for x, y in zip(hs, hs[1:] + [hi]))):
                edges.append((c, p))
                continue
        else:  # a chain above the top: the top's own chain of single children
            c = max(height, key=height.__getitem__)
            hs = [height[c] + 1.0 + i for i in range(k)]
            p = None
        for v, h in zip(fresh, hs):
            height[v] = h
            edges.append((c, v))
            c = v
        if p is not None:
            edges.append((c, p))
    ids = [int(x) for x in rng.permutation(len(height))]
    out = MergeTree([(ids[v], h) for v, h in height.items()], [(ids[c], ids[p]) for c, p in edges])
    return straddling_zero(out.ensure_valid(), sign) if sign else out.ensure_valid()


chained_trees = st.builds(
    _chained_tree, st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans(),
    st.integers(0, 3), st.sampled_from([None, 1.0, -1.0]),
)


@settings(max_examples=200)
@given(chained_trees)
@example(SINGLE)
# a chain of single children only: the top's chain reaches the one leaf
@example(MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 1), (1, 2)]))
# removed ids 0 and 1 sort before their kept ends 5 and 4, so the kept
# children of 6 change their order, and above the top 6 a chain of 2 and 3
@example(MergeTree([(0, 1.0), (1, 2.0), (2, 6.0), (3, 7.0), (4, 0.0), (5, 0.0), (6, 3.0)],
                   [(0, 6), (1, 6), (5, 0), (4, 1), (6, 2), (2, 3)]))
# a merge at -0.0 and a leaf at 0.0 under a chain, and a single-child top
@example(MergeTree([(0, -1.0), (1, -0.0), (2, 0.0), (3, 0.5), (4, 1.0), (5, 2.0), (6, -2.0)],
                   [(6, 1), (0, 1), (1, 4), (2, 3), (3, 4), (4, 5)]))
def test_prepare_property_gives_the_canonical_tree_its_meet_rows_and_its_points(t):
    t = MergeTree(t.vertices, t.edges)  # a copy with nothing cached
    prepared = _prepare(t)
    assert "children" not in vars(t) and "parent" not in vars(t)
    c = canonicalize_tree(t)
    assert (prepared.tree.vertices, prepared.tree.edges) == (c.vertices, c.edges)
    assert (prepared.tree is t) == (c is t)
    # the rows, by float.hex, and their order are the canonical tree's table
    rows, meets = meet_table(c)
    search_rows, search_meets = _rows_of(prepared)
    assert search_rows == rows
    assert _hexed(search_meets) == _hexed(meets.tolist())
    # each branch: its vertex's height, its parent's (inf at the top), its row
    assert [b[4] for b in prepared.branches] == [v for v, _ in c.vertices]
    for h, up, k, row, v in prepared.branches:
        assert h.hex() == c.height[v].hex() and row is search_meets[k]
        assert up == (math.inf if c.parent[v] is None else c.height[c.parent[v]])
    assert prepared.leaves == [(h, k, row) for h, _, k, row, v in prepared.branches if v in c.leaves]
    # the options the search reads off the branches are `points_at`'s and
    # the vertex-and-edge oracle's points: at every height, within and just
    # past the tolerance of it, inside each edge and on the ray
    tol = height_tol(t)
    heights = sorted({h for _, h in c.vertices})
    probes = [y for h in heights for y in (h, h - tol, h + tol, h - 2 * tol, h + 2 * tol)]
    probes += [(x + y) / 2 for x, y in zip(heights, heights[1:])] + [heights[-1] + 1.0]
    for y in probes:
        for eps in (0.0, tol):
            got = [(b[4], x.hex()) for x, b in _branches_at(prepared.branches, y, eps)]
            assert got == [(q.anchor, q.height.hex()) for q in points_at(c, y, eps)]
            assert got == [(q.anchor, q.height.hex()) for q in _crossings(c, y, eps)]


@settings(max_examples=200)
@given(small_pairs)
def test_unlabeled_property_bound_first_equals_the_ascending_scan(pair):
    r = unlabeled_interleaving(*pair)
    a, b = (canonicalize_tree(t) for t in pair)
    _assert_good_maps_pin(r, a, b)
    assert r.lower_bound == bottleneck_tree_distance(*pair)
    slack = height_tol(a, b)
    if r.value == 0.0:
        assert r.certified_by == "zero"
    elif r.value - 1e-6 * r.value + 2 * slack < r.lower_bound:
        assert r.certified_by == "bound"
    else:
        assert r.certified_by == ("retest" if r.certified else None)


def test_bound_first_does_not_start_at_the_float_bound():
    # the bound rounds to 0.7000000000000002, yet the candidate 0.7 just
    # below it is feasible within the tolerance: a search that started at
    # the bound would return the larger value, flagged certified
    r = unlabeled_interleaving(BUDGET_A, BUDGET_B)
    assert r.lower_bound == 0.7000000000000002
    assert r.value == 0.7
    assert (r.certified, r.certified_by, r.probes) == (True, "bound", 1)
    _assert_good_maps_pin(r, *(canonicalize_tree(t) for t in (BUDGET_A, BUDGET_B)))


def test_near_copies_are_certified():
    # a 40-leaf tree against itself with every height moved by at most 0.02:
    # the bottom-up bisection ran out of budget on such pairs
    rng = np.random.default_rng(211)
    t = rand_grown_tree(rng, 40)
    moved = MergeTree([(v, h + float(rng.uniform(-0.02, 0.02))) for v, h in t.vertices], t.edges)
    r = unlabeled_interleaving(t, moved)
    assert r.certified
    assert r.lower_bound <= r.value <= 0.04
    lt1, lt2 = apply_pairing(r.witness)
    assert abs(labeled_interleaving(lt1, lt2) - r.value) <= 1e-9


def test_heights_spanning_the_float_range_are_never_certified_below_the_bound():
    # the heights' span overflows a float; an infinite slack let every probe
    # pass within it, and the value came back 0.0, certified by "zero"
    a = MergeTree([(0, -1.7e308), (1, 1.0), (2, 1.7e308)], [(0, 2), (1, 2)])
    b = MergeTree([(0, -1.6e308), (1, 1.5e308)], [(0, 1)])
    for x, y in ((a, b), (b, a)):
        assert math.isfinite(height_tol(x, y))
        r = unlabeled_interleaving(x, y)
        assert r.certified and r.lower_bound == 8.5e307
        assert r.value >= r.lower_bound


def test_a_large_tree_against_itself_is_one_probe():
    # 1200 labels: one placement per label, deeper than the recursion limit
    t = rand_grown_tree(np.random.default_rng(600), 600)
    r = unlabeled_interleaving(t, t)
    assert (r.value, r.certified, r.certified_by, r.probes) == (0.0, True, "zero", 1)


def test_values_at_a_large_offset_stay_within_the_tolerance():
    # near 2**40 one ULP of the heights (2**-12) dwarfs the span-relative
    # slack; subtracting the offset again is exact, which gives the reference
    offset = 2.0**40
    for pair in _pairs(223, 150, 4, grid=False):
        a, b = (with_heights(t, lambda h: h + offset) for t in pair)
        r = unlabeled_interleaving(a, b)
        back = (with_heights(t, lambda h: h - offset) for t in (a, b))
        assert abs(r.value - unlabeled_interleaving(*back).value) <= height_tol(a, b)


def _moved_pair(pair, how: str, sign: float):
    if how == "offset":  # one ULP of the heights is 2**-12
        return [with_heights(t, lambda h: h + 2.0**40) for t in pair]
    if how == "subnormal":  # gaps and their halves round in the subnormal range
        return [with_heights(t, lambda h: h * 2.0**-1060) for t in pair]
    if how == "straddle":  # zeros of both signs
        return [straddling_zero(t, sign) for t in pair]
    return pair


@given(small_pairs, st.sampled_from(["as drawn", "offset", "subnormal", "straddle"]),
       st.sampled_from([1.0, -1.0]))
def test_candidate_shifts_property_equal_the_pairwise_loop(pair, how, sign):
    a, b = _moved_pair(pair, how, sign)
    got, want = candidate_shifts(a, b), candidate_shifts_oracle(a, b)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_candidate_shifts_equal_the_pairwise_loop_on_grown_trees():
    rng = np.random.default_rng(61)
    a, b = rand_grown_tree(rng, 60), rand_grown_tree(rng, 60)
    assert candidate_shifts(a, b) == candidate_shifts_oracle(a, b)


# -- the first probe without the candidate list ----------------------------


def _star(heights) -> MergeTree:
    """A tree whose heights are exactly the distinct drawn ones: the highest
    on top, every lower one a leaf under it (tied leaves included)."""
    top = max(heights)
    low = [h for h in heights if h < top]
    return MergeTree([(0, top)] + [(k + 1, h) for k, h in enumerate(low)], [(k + 1, 0) for k in range(len(low))])


def _near(base: float, step: float):
    return st.lists(st.integers(-40, 40).map(lambda k: base + k * step), min_size=1, max_size=8)


height_sets = st.one_of(
    _near(0.0, 1.0),  # ties, a single height, mixed signs
    st.lists(st.sampled_from([-0.0, 0.0, -1.0, 1.0]), min_size=1, max_size=6),  # both zeros
    _near(2.0**40, 2.0**-12),  # one ULP of the heights apart
    _near(1e12, 2.0**-13),
    _near(0.0, 5e-324),  # subnormal gaps, whose halves round
    _near(1.7e308, 2.0**971),  # one ULP apart near the largest float
    _near(-1.7e308, 2.0**971),
    st.lists(st.sampled_from([-1.7e308, -1.0, 5e-324, 1.0, 1.7e308]), min_size=1, max_size=6),  # gaps overflow
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
)

NEAR_Y = {
    "at": lambda c: c,
    "just above": lambda c: math.nextafter(c, math.inf),
    "just below": lambda c: math.nextafter(c, -math.inf),
    "negated": lambda c: -c,
    "zero": lambda c: 0.0,
    "negative zero": lambda c: -0.0,
    "nan": lambda c: math.nan,
}


def _hex(x):
    return None if x is None else x.hex()


@settings(max_examples=400)
@given(height_sets, st.integers(0, 2**16), st.sampled_from(sorted(NEAR_Y)))
@example([0.0, 1.0, 3.0], 1, "at")  # y = 0.5, a half, with 0 below it
@example([5.0], 0, "just above")  # one height: 0 is the only candidate, and lies below y
def test_shift_sweep_property_finds_the_neighbours_in_the_candidate_list(heights, pick, how):
    t = _star(heights)
    with np.errstate(over="ignore"):  # gaps of heights near +-1.7e308 overflow to inf
        shifts = candidate_shifts(t, t)
    y = NEAR_Y[how](shifts[pick % len(shifts)])
    k = bisect_left(shifts, y)
    want = (shifts[k - 1] if k else None, shifts[k] if k < len(shifts) else None)
    got = _shifts_around(_heights(t, t), y)
    assert [_hex(x) for x in got] == [_hex(x) for x in want]


def test_a_settled_first_probe_lists_no_candidates(monkeypatch):
    listed = []
    real = unlabeled.candidate_shifts
    monkeypatch.setattr(unlabeled, "candidate_shifts", lambda *ts: listed.append(ts) or real(*ts))
    t = rand_grown_tree(np.random.default_rng(200), 200)
    r = unlabeled_interleaving(t, t)
    assert (r.value, r.probes, r.certified_by) == (0.0, 1, "zero")
    # an overrun on the first probe reports the bound's bracket from the sweep
    a, b = (canonicalize_tree(x) for x in (BUDGET_A, BUDGET_B))
    with pytest.raises(BudgetExceededError) as err:
        unlabeled_interleaving(a, b, budget=1)
    assert listed == []
    shifts = real(a, b)
    k = bisect_left(shifts, bottleneck_tree_distance(a, b) - height_tol(a, b))
    assert (err.value.delta, err.value.refuted_below, err.value.feasible_at) == (shifts[k], shifts[k - 1], None)
    # a refuted first probe lists them once, and bisects on
    r = unlabeled_interleaving(SAME_DIAGRAM_A, SAME_DIAGRAM_B)
    assert len(listed) == 1 and r.probes > 2


def test_a_first_probe_overrun_on_five_hundred_leaves_stays_in_bounded_memory():
    # two grown 500-leaf trees: the first probe runs out of its budget.  The
    # O(H^2) candidate list (3.35 million shifts) is never built, and the
    # meet rows share the tree's float objects: the traced peak was 51 MiB,
    # against 69 MiB when each option was a point looked up in dicts, and
    # 210 MiB when the list and the numpy tables' copies were built
    rng = np.random.default_rng(500)
    a, b = rand_grown_tree(rng, 500), rand_grown_tree(rng, 500)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            unlabeled_interleaving(a, b, budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    # the shift and bracket the listing search raised at
    assert (err.value.delta, err.value.refuted_below, err.value.feasible_at) == (
        1.8630146754827521, 1.8630133311327226, None
    )


TOP_CANDIDATE_MOVES = [
    lambda h: h,
    lambda h: h + 2.0**40,
    lambda h: h + 1e12,
    lambda h: h - 2.0**60,
    lambda h: h * 2.0**-40,
    lambda h: h * 1e-300,
]


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans(), st.sampled_from(TOP_CANDIDATE_MOVES))
def test_candidate_property_the_largest_shift_is_feasible(seed, leaves, grid, move):
    # the invariant behind the two "candidate set exhausted" raises of
    # unlabeled_interleaving: the largest candidate always admits a placement
    rng = np.random.default_rng(seed)
    try:
        a, b = (canonicalize_tree(with_heights(rand_merge_tree(rng, leaves, grid), move)) for _ in "ab")
    except MergespaceError:
        return  # the move rounded the heights into an invalid tree
    search = _Search(_prepare(a), _prepare(b), unlabeled.DEFAULT_BUDGET, height_tol(a, b))
    assert search.feasible(max(candidate_shifts(a, b))) is not None
