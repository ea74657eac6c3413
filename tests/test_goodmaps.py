from __future__ import annotations

import numpy as np
import pytest

from mergespace import (
    InfeasibleLabeling,
    LabeledMergeTree,
    MalformedMapError,
    MergeTree,
    PointOnTree,
    VertexMap,
    apply_pairing,
    induced_matrix,
    labeled_interleaving,
    labeling_from_map,
    linf_distance,
    map_from_labeling,
    map_point,
    verify_delta_good,
)
from mergespace.goodmaps import preimage_of
from mergespace.metrics import DEFAULT_TOL
from worked import SEVEN_A, SEVEN_B, SEVEN_DISTANCE
from util import rand_labeled_pair

WYE = MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)])
WYE_UP = MergeTree([(0, 1.0), (1, 2.0), (2, 4.0)], [(0, 2), (1, 2)])
SHIFT_IMAGES = {0: (0, 1.0), 1: (1, 2.0), 2: (2, 4.0)}


def test_vertex_map_rejects_bad_inputs():
    with pytest.raises(MalformedMapError):
        VertexMap(WYE, WYE_UP, -0.5, SHIFT_IMAGES)
    with pytest.raises(MalformedMapError):
        VertexMap(WYE, WYE_UP, 1.0, {0: (0, 1.0), 1: (1, 2.0)})
    with pytest.raises(MalformedMapError):
        VertexMap(WYE, WYE_UP, 1.0, {**SHIFT_IMAGES, 2: (99, 4.0)})


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
    pts = preimage_of(vm, PointOnTree(0, 1.0))
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
            induced_matrix(a).array, induced_matrix(b).array, delta, DEFAULT_TOL
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
