from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergespace import (
    InfeasibleLabeling,
    LabeledMergeTree,
    MalformedMapError,
    MergeTree,
    MergespaceError,
    PointOnTree,
    VertexMap,
    apply_pairing,
    geodesic_length,
    induced_matrix,
    labeled_interleaving,
    labeling_from_map,
    linf_distance,
    map_from_labeling,
    map_point,
    verify_delta_good,
)
from mergespace import goodmaps
from mergespace.goodmaps import preimage_of
from mergespace.matrices import meet_table
from mergespace.trees import REL_TOL, height_tol
from worked import SEVEN_A, SEVEN_B, SEVEN_DISTANCE
from util import (
    _label_tree,
    _missed_oracle,
    ancestor_at,
    labeling_from_map_oracle,
    rand_grown_tree,
    rand_labeled_pair,
    rand_leaf_up_map,
    verify_delta_good_oracle,
    with_heights,
)

WYE = MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)])
WYE_UP = MergeTree([(0, 1.0), (1, 2.0), (2, 4.0)], [(0, 2), (1, 2)])
SHIFT_IMAGES = {0: (0, 1.0), 1: (1, 2.0), 2: (2, 4.0)}


def test_vertex_map_rejects_bad_inputs():
    for delta in (-0.5, float("nan"), float("inf")):
        with pytest.raises(MalformedMapError):
            VertexMap(WYE, WYE_UP, delta, SHIFT_IMAGES)
    with pytest.raises(MalformedMapError):
        VertexMap(WYE, WYE_UP, 1.0, {**SHIFT_IMAGES, 0: (0, float("nan"))})
    with pytest.raises(MalformedMapError):
        VertexMap(WYE, WYE_UP, 1.0, {0: (0, 1.0), 1: (1, 2.0)})
    with pytest.raises(MalformedMapError):
        VertexMap(WYE, WYE_UP, 1.0, {**SHIFT_IMAGES, 2: (99, 4.0)})
    with pytest.raises(MalformedMapError):
        VertexMap(WYE, WYE_UP, 1.0, {**SHIFT_IMAGES, 2: 99})
    with pytest.raises(MalformedMapError, match="unknown source vertex 5"):
        VertexMap(WYE, WYE_UP, 1.0, {**SHIFT_IMAGES, 5: (0, 1.0)})
    # images may come as (vertex, point) pairs as well as a mapping
    pairs = VertexMap(WYE, WYE_UP, 1.0, tuple(SHIFT_IMAGES.items()))
    assert pairs == VertexMap(WYE, WYE_UP, 1.0, SHIFT_IMAGES)


def test_unit_shift_map_is_good_at_one():
    vm = VertexMap(WYE, WYE_UP, 1.0, SHIFT_IMAGES)
    report = verify_delta_good(vm)
    assert report.good
    assert bool(report)
    assert report.condition is None


def test_unit_shift_map_fails_below_one():
    vm = VertexMap(WYE, WYE_UP, 0.4, SHIFT_IMAGES)
    report = verify_delta_good(vm)
    assert not report.good
    assert report.condition == "height-shift"
    assert "vertex 0" in report.detail


def test_edge_coherence_catches_branch_swaps():
    target = MergeTree(
        [(0, 0.0), (1, 0.0), (2, 10.0)], [(0, 2), (1, 2)]
    )
    vm = VertexMap(
        WYE,
        target,
        1.0,
        {0: (0, 1.0), 1: (1, 2.0), 2: (0, 4.0)},
    )
    report = verify_delta_good(vm)
    assert report.condition == "edge-coherence"
    assert "edge" in report.detail


def test_merge_spread_catches_collapsed_branches():
    source = MergeTree([(0, 0.0), (1, 0.0), (2, 5.0)], [(0, 2), (1, 2)])
    target = MergeTree([(0, 0.0), (1, 6.0)], [(0, 1)])
    vm = VertexMap(
        source, target, 1.0, {0: (0, 1.0), 1: (0, 1.0), 2: (0, 6.0)}
    )
    report = verify_delta_good(vm)
    assert report.condition == "merge-spread"


def test_missed_depth_catches_unreached_branches():
    source = MergeTree([(0, 0.0), (1, 4.0)], [(0, 1)])
    target = MergeTree(
        [(0, 0.0), (1, 1.0), (2, 4.0), (3, 5.0)],
        [(0, 2), (1, 2), (2, 3)],
    )
    vm = VertexMap(source, target, 1.0, {0: (0, 1.0), 1: (3, 5.0)})
    report = verify_delta_good(vm)
    assert report.condition == "missed-depth"
    assert "depth 3" in report.detail


def test_a_deep_missed_branch_is_fine_with_a_big_shift():
    source = MergeTree([(0, 0.0), (1, 4.0)], [(0, 1)])
    target = MergeTree(
        [(0, 0.0), (1, 1.0), (2, 4.0), (3, 5.0)],
        [(0, 2), (1, 2), (2, 3)],
    )
    vm = VertexMap(source, target, 1.5, {0: (0, 1.5), 1: (3, 5.5)})
    assert verify_delta_good(vm).good


def test_edge_coherence_compares_within_the_tolerance():
    # the root's image lies on leaf 0's branch, 5e-10 below the target's
    # root: leaf 1's image lifted to its height joins it only at the root,
    # which is within the tolerance, so the map is still good
    source = MergeTree({0: 0.0, 1: 0.0, 2: 1.0}, [(0, 2), (1, 2)])
    target = MergeTree({0: 0.5, 1: 0.5, 2: 1.5 + 5e-10}, [(0, 2), (1, 2)])
    vm = VertexMap(source, target, 0.5, {0: (0, 0.5), 1: (1, 0.5), 2: (0, 1.5)})
    report = verify_delta_good(vm)
    assert report.good
    assert report == verify_delta_good_oracle(vm)


def test_missed_depth_is_measured_from_the_lowest_vertex_of_the_branch():
    # the image, on leaf 3's branch, misses vertex 0's branch, which reaches
    # down to its leaves at 0, not just to vertex 0 at 5
    source = MergeTree({0: 0.0}, [])
    target = MergeTree({0: 5.0, 1: 0.0, 2: 0.0, 3: 0.0, 4: 6.0}, [(1, 0), (2, 0), (0, 4), (3, 4)])
    vm = VertexMap(source, target, 0.5, {0: (3, 0.5)})
    report = verify_delta_good(vm)
    assert report.condition == "missed-depth"
    assert report.witness == (0, PointOnTree(4, 6.0))
    assert report.detail == "the image misses the branch at vertex 0, leaving depth 6.0 unreached"
    assert report == verify_delta_good_oracle(vm)


def test_map_point_follows_the_upward_flow():
    vm = VertexMap(WYE, WYE_UP, 1.0, SHIFT_IMAGES)
    # a point inside an edge flows to its image height plus delta
    got = map_point(vm, PointOnTree(0, 2.0))
    assert got == PointOnTree(0, 3.0)
    # above the join on the source, lands above the target join
    got = map_point(vm, PointOnTree(2, 5.0))
    assert got == PointOnTree(2, 6.0)


def test_preimage_of_an_image_point_recovers_the_leaf():
    vm = VertexMap(WYE, WYE_UP, 1.0, SHIFT_IMAGES)
    pts = preimage_of(vm, PointOnTree(0, 1.0), meet_table(WYE_UP))
    assert PointOnTree(0, 0.0) in pts


def test_labeling_from_map_bounds_the_distance():
    vm = VertexMap(WYE, WYE_UP, 1.0, SHIFT_IMAGES)
    pairing = labeling_from_map(vm)
    lt1, lt2 = apply_pairing(pairing)
    assert labeled_interleaving(lt1, lt2) <= 1.0 + 1e-12


def test_map_from_labeling_round_trip_on_the_seven_label_pair():
    vm = map_from_labeling(SEVEN_A, SEVEN_B, SEVEN_DISTANCE)
    assert isinstance(vm, VertexMap)
    assert verify_delta_good(vm).good
    pairing = labeling_from_map(vm)
    lt1, lt2 = apply_pairing(pairing)
    assert labeled_interleaving(lt1, lt2) <= SEVEN_DISTANCE + 1e-12


def test_map_from_labeling_refuses_a_shift_that_is_not_finite():
    for delta in (float("nan"), float("inf"), -1.0):
        with pytest.raises(MergespaceError):
            map_from_labeling(SEVEN_A, SEVEN_B, delta)


def test_map_from_labeling_reports_the_blocking_entry():
    a = LabeledMergeTree(
        MergeTree([(0, 0.0), (1, 0.0), (2, 2.0)], [(0, 2), (1, 2)]),
        {1: 0, 2: 1},
    )
    b = LabeledMergeTree(
        MergeTree([(0, 1.0), (1, 1.0), (2, 5.0)], [(0, 2), (1, 2)]),
        {1: 0, 2: 1},
    )
    got = map_from_labeling(a, b, 0.5)
    assert isinstance(got, InfeasibleLabeling)
    assert not got
    i, j = got.entry
    assert got.gap > 0.5
    assert 1 <= i <= 2 and 1 <= j <= 2


def test_map_from_labeling_refuses_labels_that_split_in_the_rounding_slack():
    # near 2**40 a height's ULP g is 2**-12, and the heights span 8.7 g /
    # REL_TOL, so the slack is 8.7 g.  Labels 1 and 2 share the source leaf
    # at H; in the target label 2 sits 9 g above label 1, within delta (0.4 g)
    # plus the slack, so no matrix entry blocks.  But H + delta rounds down
    # to H, and the two labels, each lifted to H + delta on its own target
    # path, land 9 g apart: they split, and the pair is reported
    h, g = 2.0**40, 2.0**-12
    top, low = h + 10.0, h + 10.0 - 8.7 * g / REL_TOL
    a = LabeledMergeTree(MergeTree([(0, h), (1, low), (2, top)], [(0, 2), (1, 2)]), {1: 0, 2: 0, 3: 1})
    b = LabeledMergeTree(
        MergeTree([(0, h), (1, h + 9 * g), (2, low), (3, top)], [(0, 1), (1, 3), (2, 3)]),
        {1: 0, 2: 1, 3: 2},
    )
    delta = 0.4 * g
    assert height_tol(a, b) == pytest.approx(8.7 * g)
    assert linf_distance(induced_matrix(a), induced_matrix(b)) <= delta + height_tol(a, b)
    assert h + delta == h
    assert map_from_labeling(a, b, delta) == InfeasibleLabeling((1, 2), 9 * g, delta)


def test_map_from_labeling_blocks_at_the_first_offending_entry():
    def first_offender(a, b, delta, tol):
        n = a.shape[0]
        for i in range(n):
            for j in range(n):
                gap = abs(a[i, j] - b[i, j])
                if gap > delta + tol:
                    return (i + 1, j + 1), float(gap)
        return None

    rng = np.random.default_rng(197)
    for k in range(80):
        a, b = rand_labeled_pair(rng, max_leaves=5, integral=k % 2 == 0)
        delta = labeled_interleaving(a, b) * float(rng.uniform(0.0, 0.95))
        got = map_from_labeling(a, b, delta)
        want = first_offender(
            induced_matrix(a).array, induced_matrix(b).array, delta, height_tol(a, b)
        )
        if want is None:
            assert isinstance(got, VertexMap)
        else:
            assert isinstance(got, InfeasibleLabeling)
            assert (got.entry, got.gap, got.delta) == (*want, delta)


def test_random_pairs_produce_verified_maps_at_their_distance():
    rng = np.random.default_rng(113)
    for _ in range(40):
        a, b = rand_labeled_pair(rng, max_leaves=4)
        d = labeled_interleaving(a, b)
        vm = map_from_labeling(a, b, d)
        assert isinstance(vm, VertexMap), "feasible at its own distance"
        report = verify_delta_good(vm)
        assert report.good, report.detail
        lt1, lt2 = apply_pairing(labeling_from_map(vm))
        got = linf_distance(induced_matrix(lt1), induced_matrix(lt2))
        assert got <= d + 1e-9


def test_map_from_labeling_is_infeasible_below_the_distance():
    rng = np.random.default_rng(127)
    seen = 0
    for _ in range(40):
        a, b = rand_labeled_pair(rng, max_leaves=4)
        d = labeled_interleaving(a, b)
        if d < 1e-6:
            continue
        seen += 1
        got = map_from_labeling(a, b, d * 0.9)
        assert isinstance(got, InfeasibleLabeling)
        assert got.gap > d * 0.9
    assert seen > 10


def test_a_tiny_scale_admits_no_map_below_the_distance():
    # an absolute tolerance of 1e-9 swamps heights scaled by 2**-40: every
    # pair here used to get a map at half its distance, verified as good
    rng = np.random.default_rng(211)
    for _ in range(100):
        a, b = (with_heights(t, lambda h: h * 2.0**-40) for t in rand_labeled_pair(rng))
        d = labeled_interleaving(a, b)
        assert d > 0
        assert isinstance(map_from_labeling(a, b, d / 2), InfeasibleLabeling)


def _collapse_map(a, b, delta):
    """Every vertex of a's tree sent delta up, onto the branch above b's
    lowest leaf; delta must reach that leaf from a's lowest vertex, up to
    the rounding the max absorbs."""
    s, t = a.tree, b.tree
    low = min(t.leaves, key=t.height.get)
    images = {v: ancestor_at(t, low, max(h + delta, t.height[low])) for v, h in s.vertices}
    return VertexMap(s, t, delta, images)


def _map_layer_verdicts(a, b, frac):
    """What the map layer decides for a pair: the map_from_labeling verdict
    below and at the distance, the goodness verdict on each map, the label
    count transferred back, and the verdict on a collapse map."""
    d = labeled_interleaving(a, b)
    out = []
    for delta in (d * frac, d):
        got = map_from_labeling(a, b, delta)
        if isinstance(got, InfeasibleLabeling):
            out.append(got.entry)
        else:
            out.append((verify_delta_good(got).condition, labeling_from_map(got).n_labels))
    reach = max(0.0, min(b.tree.height.values()) - min(a.tree.height.values()))
    out.append(verify_delta_good(_collapse_map(a, b, reach + d * frac)).condition)
    return out


labeled_pairs = st.builds(
    lambda seed, integral: rand_labeled_pair(np.random.default_rng(seed), integral=integral),
    st.integers(0, 2**32 - 1), st.booleans(),
)
fractions = st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9, 0.999])


@settings(max_examples=60, deadline=None)
@given(labeled_pairs, fractions, st.integers(-40, 40))
def test_map_layer_property_power_of_two_scaling_is_exact(pair, frac, power):
    scale = 2.0**power
    a, b = pair
    sa, sb = (with_heights(t, lambda h: h * scale) for t in pair)
    assert _map_layer_verdicts(sa, sb, frac) == _map_layer_verdicts(a, b, frac)
    assert geodesic_length(sa, sb) == geodesic_length(a, b) * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), fractions, st.integers(-50, 50))
def test_map_layer_property_integer_translation_changes_nothing(seed, frac, shift):
    a, b = rand_labeled_pair(np.random.default_rng(seed), integral=True)
    ma, mb = (with_heights(t, lambda h: h + shift) for t in (a, b))
    assert _map_layer_verdicts(ma, mb, frac) == _map_layer_verdicts(a, b, frac)
    # with eight steps every blend of integer matrices is exact
    assert geodesic_length(ma, mb, samples=8) == geodesic_length(a, b, samples=8)


@settings(max_examples=150, deadline=None)
@given(
    labeled_pairs,
    fractions,
    st.sampled_from([
        lambda h: h, lambda h: h * 2.0**40, lambda h: h * 2.0**-40, lambda h: h + 2.0**40,
    ]),
    st.integers(0, 2**32 - 1),
)
def test_map_layer_property_reports_and_pairings_equal_the_sweep_oracle(pair, frac, f, seed):
    a, b = (with_heights(t, f) for t in pair)
    d = labeled_interleaving(a, b)
    reach = max(0.0, min(b.tree.height.values()) - min(a.tree.height.values()))
    rng = np.random.default_rng(seed)
    maps = [
        _collapse_map(a, b, reach + d * frac),
        rand_leaf_up_map(rng, a.tree, b.tree, reach + d * frac),
        rand_leaf_up_map(rng, a.tree, b.tree, reach + d * (1 + frac)),
    ]
    maps += [
        vm for vm in (map_from_labeling(a, b, d * frac), map_from_labeling(a, b, d))
        if isinstance(vm, VertexMap)
    ]
    for vm in maps:
        assert verify_delta_good(vm) == verify_delta_good_oracle(vm)
        assert labeling_from_map(vm).pairs == labeling_from_map_oracle(vm).pairs


@settings(max_examples=150, deadline=None)
@given(
    labeled_pairs,
    fractions,
    st.sampled_from([
        lambda h: h, lambda h: h * 2.0**40, lambda h: h * 2.0**-40, lambda h: h + 2.0**40,
    ]),
    st.integers(0, 2**32 - 1),
)
def test_map_layer_property_good_maps_transfer_one_label_per_leaf_within_the_shift(
    pair, frac, f, seed
):
    a, b = (with_heights(t, f) for t in pair)
    d = labeled_interleaving(a, b)
    span = max(b.tree.height.values()) - min(a.tree.height.values())
    rng = np.random.default_rng(seed)
    maps = [map_from_labeling(a, b, d), map_from_labeling(a, b, d * (1 + frac))]
    maps += [rand_leaf_up_map(rng, a.tree, b.tree, max(0.0, span) * x) for x in (0.5, 1.0, 2.0)]
    for vm in maps:
        if not isinstance(vm, VertexMap) or not verify_delta_good(vm):
            continue
        pairing = labeling_from_map(vm)
        missed = len(list(_missed_oracle(vm, vm.target.leaves)))
        assert pairing.n_labels == len(vm.source.leaves) + missed
        lt1, lt2 = apply_pairing(pairing)
        assert labeled_interleaving(lt1, lt2) <= vm.delta + height_tol(vm.source, vm.target)


def test_a_300_leaf_map_at_the_distance_verifies_good():
    # a jittered copy: each merge of the source has one in the target
    # within the distance, so the map at the distance is good
    rng = np.random.default_rng(300)
    a = _label_tree(rng, rand_grown_tree(rng, 300), 300)
    b = with_heights(a, lambda h: h + float(rng.uniform(-0.02, 0.02)))
    d = labeled_interleaving(a, b)
    vm = map_from_labeling(a, b, d)
    assert verify_delta_good(vm).good
    lt1, lt2 = apply_pairing(labeling_from_map(vm))
    assert labeled_interleaving(lt1, lt2) <= d + height_tol(a, b)


def test_a_300_leaf_independent_pair_transfers_one_label_per_leaf():
    # the map collapses much of the source, and a label per preimage point
    # made 38,470 labels here, too many for a labeled distance
    rng = np.random.default_rng(300)
    a = _label_tree(rng, rand_grown_tree(rng, 300), 300)
    b = _label_tree(rng, rand_grown_tree(rng, 300), 300)
    d = labeled_interleaving(a, b)
    vm = map_from_labeling(a, b, d)
    pairing = labeling_from_map(vm)
    assert pairing.n_labels == 600
    lt1, lt2 = apply_pairing(pairing)
    assert labeled_interleaving(lt1, lt2) <= d + height_tol(a, b)


# Maps at a 2**40 offset, where the tolerance (8 ULPs) spans several
# distinct heights, so each merge-spread verdict hinges on it: images
# within 2*tol share a point below their exact meet; a leaf within tol
# above the source height counts there; such a leaf's own height sets
# the spread; and `map_point` can snap a vertex onto a target vertex more
# than tol, but at most 2*tol, from its image, so that the vertex lies in
# the image's preimage only within 2*tol.  Heights are offsets from 2**40,
# images (anchor, height).
TOLERANCE_EDGE_MAPS = [
    (
        {0: 2.0, 1: 2.0, 2: 2.0, 3: 3.0, 4: 5.0, 5: 4.0, 6: 6.0},
        [(0, 3), (1, 3), (2, 5), (3, 4), (4, 6), (5, 4)],
        {0: 1.0, 1: 3.0, 2: 4.0}, [(0, 2), (1, 2)], 0.999,
        {0: (1, 3.0), 1: (1, 3.0), 2: (0, 2.9990234375), 3: (1, 3.9990234375),
         4: (2, 5.9990234375), 5: (2, 4.9990234375), 6: (2, 6.9990234375)},
    ),
    (
        {0: 1.40576171875, 1: 0.3427734375, 2: 0.341796875, 3: 1.45458984375,
         4: 1.482666015625, 5: 2.115966796875, 6: 2.2998046875, 7: 2.819580078125,
         8: 2.22509765625, 9: 2.567626953125},
        [(0, 6), (1, 6), (2, 5), (3, 5), (4, 8), (5, 9), (6, 7), (8, 6), (9, 7)],
        {0: 0.770263671875}, [], 0.428466796875,
        {0: (0, 1.834228515625), 1: (0, 0.771240234375), 2: (0, 0.770263671875),
         3: (0, 1.883056640625), 4: (0, 1.9111328125), 5: (0, 2.54443359375),
         6: (0, 2.728271484375), 7: (0, 3.248046875), 8: (0, 2.653564453125),
         9: (0, 2.99609375)},
    ),
    (
        {0: 2.0, 1: 2.0, 2: 4.0, 3: 3.0}, [(0, 2), (1, 3), (3, 2)],
        {0: 3.0}, [], 0.999,
        {0: (0, 3.0), 1: (0, 3.0), 2: (0, 4.9990234375), 3: (0, 3.9990234375)},
    ),
    (
        {0: 0.0, 1: 1.0, 2: 3.0}, [(0, 2), (1, 2)],
        {0: 1.0, 1: 2.0}, [(0, 1)], 0.998779296875,
        {0: (0, 1.0), 1: (0, 1.9970703125), 2: (1, 3.997802734375)},
    ),
]


@pytest.mark.parametrize("case", TOLERANCE_EDGE_MAPS)
def test_merge_spread_at_the_tolerance_edge_equals_the_sweep_oracle(case):
    sv, se, tv, te, delta, images = case
    off = 2.0**40
    s = MergeTree({v: off + h for v, h in sv.items()}, se)
    t = MergeTree({v: off + h for v, h in tv.items()}, te)
    vm = VertexMap(s, t, delta, {v: (a, off + h) for v, (a, h) in images.items()})
    report = verify_delta_good(vm)
    assert report.condition == "merge-spread"
    assert report == verify_delta_good_oracle(vm)


# -- meet tables: each check builds the ones it reads, and no map keeps one


@pytest.fixture
def built(monkeypatch):
    """The trees whose meet table `goodmaps` builds, in order."""
    trees = []

    def spy(t):
        trees.append(t)
        return meet_table(t)

    monkeypatch.setattr(goodmaps, "meet_table", spy)
    return trees


def test_labeling_from_map_builds_the_target_table_only(built):
    vm = VertexMap(WYE, WYE_UP, 1.0, SHIFT_IMAGES)
    labeling_from_map(vm)
    assert [t is vm.target for t in built] == [True]


def test_verifying_a_good_map_builds_the_target_table_then_the_source_table(built):
    vm = VertexMap(WYE, WYE_UP, 1.0, SHIFT_IMAGES)
    assert verify_delta_good(vm).good
    assert [t is vm.target for t in built] == [True, False]
    assert built[1] is vm.source


def test_a_map_failing_the_height_shift_builds_no_table(built):
    vm = VertexMap(WYE, WYE_UP, 0.4, SHIFT_IMAGES)
    assert verify_delta_good(vm).condition == "height-shift"
    assert built == []


def test_a_map_failing_edge_coherence_builds_the_target_table_only(built):
    target = MergeTree([(0, 0.0), (1, 0.0), (2, 10.0)], [(0, 2), (1, 2)])
    vm = VertexMap(WYE, target, 1.0, {0: (0, 1.0), 1: (1, 2.0), 2: (0, 4.0)})
    assert verify_delta_good(vm).condition == "edge-coherence"
    assert [t is target for t in built] == [True]


def test_a_checked_300_leaf_map_keeps_no_meet_table():
    # both tables of this map take 4.7 MiB; a first check of an equal map
    # leaves the trees and the interpreter warm
    rng = np.random.default_rng(300)
    a = _label_tree(rng, rand_grown_tree(rng, 300), 300)
    b = with_heights(a, lambda h: h + float(rng.uniform(-0.02, 0.02)))
    first = map_from_labeling(a, b, labeled_interleaving(a, b))
    assert verify_delta_good(first).good
    vm = VertexMap(first.source, first.target, first.delta, first.images)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert verify_delta_good(vm).good
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20
