from __future__ import annotations

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
from mergespace import trees
from mergespace.trees import height_tol, points_at
from mergespace.matrices import meet_table
from mergespace.unlabeled import _Search
from util import (
    candidate_shifts_oracle,
    lca_oracle,
    rand_grown_tree,
    rand_merge_tree,
    rand_point,
    unlabeled_scan_oracle,
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


@pytest.mark.parametrize("rel_tol", [trees.REL_TOL, 1e-4])
def test_bisection_equals_the_ascending_scan(rel_tol):
    # the coarse tolerance admits the re-test just below the value, which
    # leaves results uncertified: the bracket must match there too
    uncertified = 0
    saved = trees.REL_TOL
    trees.REL_TOL = rel_tol
    try:
        for a, b in _pairs(157, 60, 4):
            r = unlabeled_interleaving(a, b)
            value, certified, refuted_below, witness = unlabeled_scan_oracle(a, b)
            uncertified += not certified
            assert (r.value, r.certified, r.refuted_below) == (value, certified, refuted_below)
            assert r.witness.pairs == witness.pairs
            n = len(candidate_shifts(canonicalize_tree(a), canonicalize_tree(b)))
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
    search = _Search(a, b, 10**6, height_tol(a, b))
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
    rng = np.random.default_rng(seed)
    return tuple(rand_merge_tree(rng, max_leaves=leaves, integral=grid) for _ in range(3))


@settings(max_examples=100)
@given(st.builds(_triple, st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans()))
def test_unlabeled_property_is_symmetric_and_obeys_the_triangle_inequality(triple):
    d = {
        (i, j): unlabeled_interleaving(triple[i], triple[j]).value
        for i in range(3) for j in range(3) if i != j
    }
    assert all(d[i, j] == d[j, i] for i, j in d)
    tol = height_tol(*triple)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert d[i, k] <= d[i, j] + d[j, k] + 2 * tol


def _meet_tree(seed, leaves, grid, canonical):
    t = rand_merge_tree(np.random.default_rng(seed), max_leaves=leaves, integral=grid)
    return canonicalize_tree(t) if canonical else t


meet_trees = st.builds(
    _meet_tree, st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans(), st.booleans()
)


@settings(max_examples=150)
@given(meet_trees)
@example(SINGLE)
@example(MergeTree([(0, 0.0), (1, 1.0), (2, 3.0), (3, 4.0)], [(0, 1), (1, 2), (2, 3)]))
def test_meet_table_property_matches_the_labeled_route_and_the_lca_oracle(t):
    # raw trees keep their subdivision vertices (some above the top), grid
    # heights tie, and a canonical one-leaf tree is a single vertex
    rows, meets = meet_table(t)
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


@settings(max_examples=200)
@given(small_pairs)
def test_unlabeled_property_bound_first_equals_the_ascending_scan(pair):
    a, b = pair
    r = unlabeled_interleaving(a, b)
    value, certified, refuted_below, witness = unlabeled_scan_oracle(a, b)
    assert (r.value, r.certified, r.refuted_below) == (value, certified, refuted_below)
    assert r.witness.pairs == witness.pairs
    assert r.lower_bound == bottleneck_tree_distance(a, b)
    slack = height_tol(canonicalize_tree(a), canonicalize_tree(b))
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
    assert (r.value, r.certified, r.refuted_below) == unlabeled_scan_oracle(BUDGET_A, BUDGET_B)[:3]


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


@given(small_pairs)
def test_candidate_shifts_property_equal_the_pairwise_loop(pair):
    assert candidate_shifts(*pair) == candidate_shifts_oracle(*pair)


def test_candidate_shifts_equal_the_pairwise_loop_on_grown_trees():
    rng = np.random.default_rng(61)
    a, b = rand_grown_tree(rng, 60), rand_grown_tree(rng, 60)
    assert candidate_shifts(a, b) == candidate_shifts_oracle(a, b)
