from __future__ import annotations

import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergespace import (
    LabeledMergeTree,
    MergeTree,
    MergespaceError,
    SymMatrix,
    as_sym_matrix,
    canonicalize,
    geodesic_length,
    geodesic_point,
    induced_matrix,
    labeled_interleaving,
    labeled_trees_equal,
    linf_distance,
    map_from_labeling,
    one_center,
    tree_of_matrix,
    ultrafy,
    write_tree,
)
from mergespace import matrices, metrics
from mergespace.trees import height_tol
from worked import SEVEN_A, SEVEN_B, SEVEN_DISTANCE
from util import (
    exact_gap,
    exact_half_range,
    fresh_copy,
    one_center_stacked,
    rand_labeled_collection,
    rand_labeled_pair,
    rand_labeled_tree,
    rand_labeled_triple,
    rand_ultra_matrix,
    rand_valid_matrix,
    with_heights,
)


def _count_matrices(monkeypatch) -> list:
    """Count the matrices built by the walk kernel: a tree's induced matrix
    or an `ultrafy`."""
    calls = []
    kernel = matrices._walk_matrix

    def counted(*walk):
        calls.append(walk)
        return kernel(*walk)

    monkeypatch.setattr(matrices, "_walk_matrix", counted)
    return calls


def _two_leaf(merge_h, base=0.0):
    t = MergeTree(
        [(0, base), (1, base), (2, float(merge_h))], [(0, 2), (1, 2)]
    )
    return LabeledMergeTree(t, {1: 0, 2: 1})


def test_distance_between_shifted_wyes():
    a = _two_leaf(2.0)
    b = LabeledMergeTree(
        MergeTree([(0, 1.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)]),
        {1: 0, 2: 1},
    )
    assert labeled_interleaving(a, b) == 1.0
    assert labeled_interleaving(a, a) == 0.0


def test_distance_on_the_seven_label_pair():
    assert labeled_interleaving(SEVEN_A, SEVEN_B) == SEVEN_DISTANCE


def test_distance_requires_matching_label_counts():
    a = _two_leaf(2.0)
    single = LabeledMergeTree(MergeTree([(0, 0.0)], []), {1: 0})
    with pytest.raises(MergespaceError):
        labeled_interleaving(a, single)


@pytest.mark.parametrize(
    "call",
    [
        labeled_interleaving,
        lambda a, b: geodesic_point(a, b, 0.5),
        geodesic_length,
        lambda a, b: one_center([a, b]),
        lambda a, b: map_from_labeling(a, b, 1.0),
    ],
    ids=[
        "labeled_interleaving",
        "geodesic_point",
        "geodesic_length",
        "one_center",
        "map_from_labeling",
    ],
)
def test_label_count_mismatch_is_a_mergespace_error(call):
    # a 2-label and a 3-label tree: the check comes before any matrix, so
    # numpy never sees operands of different shapes
    three = MergeTree([(0, 0.0), (1, 0.0), (2, 1.0), (3, 2.0)], [(0, 3), (1, 3), (2, 3)])
    with pytest.raises(MergespaceError, match="label count mismatch: 2 vs 3"):
        call(_two_leaf(2.0), LabeledMergeTree(three, {1: 0, 2: 1, 3: 2}))


def test_distance_never_exceeds_the_matrix_gap():
    rng = np.random.default_rng(83)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m1 = rand_valid_matrix(rng, n)
        m2 = rand_valid_matrix(rng, n)
        d = labeled_interleaving(tree_of_matrix(m1), tree_of_matrix(m2))
        assert d <= linf_distance(m1, m2) + 1e-12


def test_geodesic_endpoints_are_the_canonical_inputs():
    rng = np.random.default_rng(89)
    for _ in range(20):
        a, b = rand_labeled_pair(rng, max_leaves=4)
        assert labeled_trees_equal(geodesic_point(a, b, 0.0), canonicalize(a))
        assert labeled_trees_equal(geodesic_point(a, b, 1.0), canonicalize(b))


def test_geodesic_interpolates_matrices_linearly():
    rng = np.random.default_rng(97)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m1 = rand_ultra_matrix(rng, n)
        m2 = rand_ultra_matrix(rng, n)
        lam = float(rng.random())
        mid = geodesic_point(tree_of_matrix(m1), tree_of_matrix(m2), lam)
        blend = as_sym_matrix((1 - lam) * m1.array + lam * m2.array)
        assert induced_matrix(mid) == ultrafy(blend)


def test_geodesic_is_additive_along_the_parameter():
    rng = np.random.default_rng(101)
    for _ in range(15):
        a, b = rand_labeled_pair(rng, max_leaves=4)
        d = labeled_interleaving(a, b)
        lam = float(rng.uniform(0.1, 0.9))
        mid = geodesic_point(a, b, lam)
        left = labeled_interleaving(canonicalize(a), mid)
        right = labeled_interleaving(mid, canonicalize(b))
        assert abs(left + right - d) <= 1e-9
        assert abs(left - lam * d) <= 1e-9


@st.composite
def labeled_collections(draw, size=2):
    """`size` trees over one label set, up to 6 leaves each, on the grid or
    real, and a third of the time translated by 2**30, where an absolute
    tolerance cannot hold."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trees = rand_labeled_collection(
        rng, size, max_leaves=draw(st.integers(1, 6)), integral=draw(st.booleans())
    )
    offset = draw(st.sampled_from([0.0, 0.0, 2.0**30]))
    return [with_heights(t, lambda h: h + offset) for t in trees]


@given(labeled_collections(), st.floats(0.0, 1.0))
def test_geodesic_property_splits_the_distance_at_its_parameter(pair, lam):
    a, b = pair
    d, mid = labeled_interleaving(a, b), geodesic_point(a, b, lam)
    tol = 2 * height_tol(a, b)
    assert abs(labeled_interleaving(a, mid) - lam * d) <= tol
    assert abs(labeled_interleaving(mid, b) - (1 - lam) * d) <= tol


@given(st.integers(1, 4).flatmap(labeled_collections))
def test_one_center_property_radius_is_half_the_diameter(trees):
    _, radius = one_center(trees)
    diameter = max(labeled_interleaving(s, t) for s in trees for t in trees)
    assert abs(radius - diameter / 2) <= height_tol(*trees)


def test_geodesic_rejects_out_of_range_parameters():
    a, b = _two_leaf(2.0), _two_leaf(4.0)
    with pytest.raises(MergespaceError):
        geodesic_point(a, b, -0.1)
    with pytest.raises(MergespaceError):
        geodesic_point(a, b, 1.2)
    with pytest.raises(MergespaceError, match="at least one sample"):
        geodesic_length(a, b, samples=0)


def test_geodesic_length_matches_the_direct_distance():
    rng = np.random.default_rng(103)
    for _ in range(10):
        a, b = rand_labeled_pair(rng, max_leaves=4)
        d = labeled_interleaving(a, b)
        assert abs(geodesic_length(a, b, samples=7) - d) <= 1e-9


def test_geodesic_length_carries_each_step_matrix(monkeypatch):
    rng = np.random.default_rng(109)
    for samples in (1, 4, 10):
        a, b = rand_labeled_pair(rng, max_leaves=5)
        # the step sum the way it reads: distances between consecutive trees
        want = 0.0
        for k in range(1, samples + 1):
            prev = geodesic_point(a, b, (k - 1) / samples)
            want += labeled_interleaving(prev, geodesic_point(a, b, k / samples))
        a, b = fresh_copy(a), fresh_copy(b)  # the loop above left a and b's matrices stored
        calls = _count_matrices(monkeypatch)
        assert geodesic_length(a, b, samples=samples) == want
        assert len(calls) == samples + 2  # both ends, then one ultrafy per step
        del calls[:]
        assert geodesic_length(a, b, samples=samples) == want
        assert len(calls) == samples  # the ends' matrices are served again
        monkeypatch.undo()


@st.composite
def signed_zero_collections(draw, max_labels=30):
    """1 to 5 trees over one label set, on the integer grid, all shifted down
    by one drawn height so that zero heights are common and tie across the
    trees; each zero is stored as 0.0 or -0.0, at random."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_labels))
    shift = float(draw(st.integers(0, 4)))

    def zero(h):
        h -= shift
        return (-0.0 if rng.random() < 0.5 else 0.0) if h == 0.0 else h

    return [
        with_heights(rand_labeled_tree(rng, n, max_leaves=draw(st.integers(1, n)), integral=True), zero)
        for _ in range(draw(st.integers(1, 5)))
    ]


@given(signed_zero_collections())
def test_one_center_property_is_bitwise_the_stacked_route(trees):
    # the running maximum and minimum keep the first of two equal entries,
    # as the reductions over the stack do, so a zero keeps its sign
    center, radius = one_center(trees)
    want_center, want_radius = one_center_stacked(trees)
    assert radius.hex() == want_radius.hex()
    assert write_tree(center) == write_tree(want_center)
    # the text prints -0.0 as 0, so the heights are compared bit for bit too
    assert [h.hex() for _, h in center.tree.vertices] == [h.hex() for _, h in want_center.tree.vertices]
    # the radius came off the midrange matrix's sweep: the center kept no walk
    assert "label_walk" not in center.__dict__ and "walk_spans" not in center.__dict__


def test_one_center_of_three_wyes():
    trees = [_two_leaf(2.0), _two_leaf(4.0), _two_leaf(8.0)]
    center, radius = one_center(trees)
    assert radius == 3.0
    assert sorted(center.tree.height.values()) == [0.0, 0.0, 5.0]
    for t in trees:
        assert labeled_interleaving(center, t) <= radius


def test_one_center_radius_is_half_the_worst_entry_range():
    rng = np.random.default_rng(107)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        mats = [rand_ultra_matrix(rng, n) for _ in range(int(rng.integers(2, 5)))]
        trees = [tree_of_matrix(m) for m in mats]
        center, radius = one_center(trees)
        stack = np.stack([m.array for m in mats])
        expect = float((stack.max(axis=0) - stack.min(axis=0)).max()) / 2.0
        assert abs(radius - expect) <= 1e-12
        for t in trees:
            assert labeled_interleaving(center, t) <= radius + 1e-12


def test_one_center_of_trees_near_the_largest_float():
    # each entry's max + min overflows; its midrange does not
    trees = [
        LabeledMergeTree(MergeTree([(0, a), (1, b), (2, top)], [(0, 2), (1, 2)]), {1: 0, 2: 1})
        for a, b, top in [(1.53e308, 1.6e308, 1.7e308), (1.55e308, 1.54e308, 1.65e308)]
    ]
    center, radius = one_center(trees)
    stack = np.stack([induced_matrix(t).array for t in trees])
    expect = float((stack.max(axis=0) - stack.min(axis=0)).max()) / 2.0
    assert abs(radius - expect) <= height_tol(*trees)
    for t in trees:
        assert labeled_interleaving(center, t) <= radius


def test_one_center_radius_is_the_largest_distance_to_the_center(monkeypatch):
    rng = np.random.default_rng(113)
    for k in (1, 2, 5):
        n = int(rng.integers(1, 40))
        trees = [
            rand_labeled_tree(rng, n, max_leaves=n, integral=bool(i % 2))
            for i in range(k)
        ]
        calls = _count_matrices(monkeypatch)
        center, radius = one_center(trees)
        assert len(calls) == k  # the inputs' matrices; the radius reads the walks
        monkeypatch.undo()
        assert radius == max(labeled_interleaving(center, t) for t in trees)


@given(st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.lists(st.booleans(), min_size=1, max_size=4))
def test_one_center_property_radius_is_the_largest_distance_to_the_center(
    seed, n, integral
):
    rng = np.random.default_rng(seed)
    trees = [rand_labeled_tree(rng, n, max_leaves=n, integral=z) for z in integral]
    center, radius = one_center(trees)
    assert radius == max(labeled_interleaving(center, t) for t in trees)


def test_one_center_of_a_single_tree_is_that_tree():
    t = _two_leaf(3.0)
    center, radius = one_center([t])
    assert radius == 0.0
    assert labeled_trees_equal(center, canonicalize(t))


def test_one_center_needs_at_least_one_tree():
    with pytest.raises(MergespaceError):
        one_center([])


def test_geodesic_length_at_a_large_offset():
    # heights near 1e12 round at 2**-13, so the partition sum may differ
    # from the direct distance by far more than an absolute 1e-9
    rng = np.random.default_rng(229)
    for _ in range(60):
        pair = rand_labeled_pair(rng, integral=True)
        a, b = (with_heights(t, lambda h: h + 1e12) for t in pair)
        gap = geodesic_length(a, b) - labeled_interleaving(a, b)
        assert abs(gap) <= 10 * height_tol(a, b)


# -- exact oracle: the labeled layer against `fractions.Fraction` -----------

OFFSETS = [0.0, 2.0**40, 1e12, -3e-7]  # 0.0: the raw heights, not shifted
LAMBDAS = st.one_of(st.sampled_from([0.1, 0.3, 0.7, 1 / 3]), st.floats(0.0, 1.0))


@st.composite
def offset_collections(draw, size=2, max_leaves=6):
    """`size` trees over one label set, on the grid or real, raw or with
    every height shifted by one of `OFFSETS`."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trees = rand_labeled_collection(
        rng, size, max_leaves=draw(st.integers(1, max_leaves)), integral=draw(st.booleans())
    )
    offset = draw(st.sampled_from(OFFSETS))
    return [with_heights(t, lambda h: h + offset) if offset else t for t in trees]


@given(offset_collections(size=1), LAMBDAS)
def test_geodesic_property_from_a_tree_to_itself_stays_at_the_tree(trees, lam):
    (t,) = trees
    got = induced_matrix(geodesic_point(t, t, lam)).array
    assert got.tobytes() == induced_matrix(t).array.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.sampled_from(OFFSETS), LAMBDAS)
def test_blend_property_keeps_each_entry_between_its_ends(seed, n, offset, lam):
    # ends 0 to 7 ULPs apart, either way, where (1 - lam) a + lam b rounds
    # past an end for a few entries in a thousand
    rng = np.random.default_rng(seed)
    a = induced_matrix(rand_labeled_tree(rng, n, max_leaves=n)).array + offset
    steps = np.triu(rng.integers(0, 8, size=(n, n)))
    steps = steps + np.triu(steps, 1).T
    toward = np.where(rng.random((n, n)) < 0.5, -np.inf, np.inf)
    toward = np.triu(toward) + np.triu(toward, 1).T
    b = a.copy()
    for k in range(7):
        b = np.where(steps > k, np.nextafter(b, toward), b)
    got = metrics._blend(SymMatrix(a), SymMatrix(b), lam).array
    assert (np.minimum(a, b) <= got).all() and (got <= np.maximum(a, b)).all()
    assert got[steps == 0].tobytes() == a[steps == 0].tobytes()


@given(offset_collections())
def test_labeled_interleaving_property_is_the_rounded_exact_gap(pair):
    a, b = pair
    exact = exact_gap(induced_matrix(a), induced_matrix(b))
    assert labeled_interleaving(a, b) == float(exact)


@given(st.integers(1, 4).flatmap(offset_collections))
def test_one_center_property_reach_is_within_half_an_ulp_above_the_exact_radius(trees):
    # the center's exact distance to the inputs lies in [exact, exact + 1/2
    # ULP of the largest height], and the radius is that distance rounded
    # once; the float itself can round below an exact value that is not a
    # float, or more than 1/2 ULP above it
    center, radius = one_center(trees)
    exact = exact_half_range([induced_matrix(t) for t in trees])
    reach = max(exact_gap(induced_matrix(center), induced_matrix(t)) for t in trees)
    top = max(abs(h) for t in trees for _, h in t.tree.vertices)
    assert exact <= reach <= exact + Fraction(math.ulp(top)) / 2
    assert radius == float(reach)


# -- a computed matrix is never checked ---------------------------------------

COMPUTED = {
    "geodesic_point": lambda a, b, c: geodesic_point(a, b, 0.3),
    "one_center": lambda a, b, c: one_center([a, b, c]),
    "geodesic_length": lambda a, b, c: geodesic_length(a, b, samples=6),
}


@pytest.mark.parametrize("call", COMPUTED.values(), ids=COMPUTED)
def test_a_computed_matrix_is_never_checked(call):
    # a blend or a midrange of induced matrices is valid by construction:
    # `_linkage` sweeps it with no `is_valid` pass
    rng = np.random.default_rng(127)
    for _ in range(5):
        trees = rand_labeled_triple(rng, max_leaves=5)
        with mock.patch.object(matrices, "is_valid", wraps=matrices.is_valid) as checked:
            call(*trees)
        assert checked.call_count == 0


@pytest.mark.parametrize("ends", [(1.0, 1.0), (1.0, 1 - 2**-53), (1 - 2**-53, 1.0)])
def test_blend_near_the_largest_float_stays_between_its_ends(ends):
    # (1 - lam) a + lam b leaves [min(a, b), max(a, b)] by a rounding for
    # some lam: below the equal ends at 49 of these 101 lam, and below the
    # smaller end, ascending to the largest float, at 2; the clip takes each
    # back to its end, with no overflow warning (warnings are errors)
    top = np.finfo(float).max
    m1, m2 = (SymMatrix(np.full((3, 3), top * e)) for e in ends)
    for lam in [k / 97 for k in range(98)] + [1 / 3, 0.1, 0.7]:
        got = metrics._blend(m1, m2, lam).array
        assert np.isfinite(got).all()
        assert ((min(ends) * top <= got) & (got <= max(ends) * top)).all()
        if ends[0] == ends[1]:
            assert got.tobytes() == m1.array.tobytes()


# -- each input's matrix is built once per collection -------------------------


def test_three_geodesics_and_a_center_over_five_trees_build_five_matrices(monkeypatch):
    # the benchmark's collection: three geodesics whose pairs touch all five
    # trees, then their center; built call by call that is 2 * 3 + 5 = 11
    rng = np.random.default_rng(131)
    trees = rand_labeled_collection(rng, 5, max_leaves=6)
    steps = [(0, 1, 0.25), (2, 3, 0.5), (4, 0, 0.75)]
    alone = [geodesic_point(fresh_copy(trees[i]), fresh_copy(trees[j]), lam) for i, j, lam in steps]
    alone_center, alone_radius = one_center([fresh_copy(t) for t in trees])
    calls = _count_matrices(monkeypatch)
    points = [geodesic_point(trees[i], trees[j], lam) for i, j, lam in steps]
    center, radius = one_center(trees)
    assert len(calls) == 5
    # served or built, the same bytes come out
    assert [write_tree(p) for p in points] == [write_tree(p) for p in alone]
    assert write_tree(center) == write_tree(alone_center)
    assert radius.hex() == alone_radius.hex()


def test_trees_and_their_matrices_pickle_after_geodesics_and_centers():
    rng = np.random.default_rng(137)
    trees = rand_labeled_collection(rng, 3, max_leaves=5)
    geodesic_point(trees[0], trees[1], 0.5)
    geodesic_length(trees[1], trees[2], samples=3)
    one_center(trees)
    for t in trees:
        m = induced_matrix(t)
        ultrafy(m)  # the stored matrix now keeps its sweep too
        back = pickle.loads(pickle.dumps(t))
        assert back == t and write_tree(back) == write_tree(t)
        copy = pickle.loads(pickle.dumps(m))
        assert copy.array.tobytes() == m.array.tobytes()
        assert induced_matrix(back).array.tobytes() == m.array.tobytes()
