from __future__ import annotations

import numpy as np
import pytest

from mergespace import (
    InvalidMatrixError,
    LabeledMergeTree,
    MergeTree,
    as_sym_matrix,
    canonicalize,
    induced_matrix,
    is_ultra,
    is_valid,
    labeled_trees_equal,
    linf_distance,
    tree_of_matrix,
    ultrafy,
)
from util import (
    induced_oracle,
    minimax_matrix,
    rand_labeled_tree,
    rand_ultra_matrix,
    rand_valid_matrix,
)


def test_sym_matrix_rejects_bad_shapes():
    with pytest.raises(InvalidMatrixError):
        as_sym_matrix([[0.0, 1.0]])
    with pytest.raises(InvalidMatrixError):
        as_sym_matrix([])
    with pytest.raises(InvalidMatrixError):
        as_sym_matrix([[0.0, float("inf")], [float("inf"), 0.0]])
    with pytest.raises(InvalidMatrixError):
        as_sym_matrix([[0.0, 1.0], [2.0, 0.0]])


def test_sym_matrix_symmetrizes_tiny_noise():
    m = as_sym_matrix([[0.0, 1.0 + 1e-13], [1.0, 0.0]], sym_tol=1e-12)
    assert m[0, 1] == m[1, 0]


def test_validity_witness_is_one_based():
    check = is_valid(as_sym_matrix([[2.0, 1.0], [1.0, 0.0]]))
    assert not check.ok
    assert check.witness == (1, 2)
    assert is_valid(as_sym_matrix([[0.0, 1.0], [1.0, 0.0]])).ok


def test_validity_witness_is_the_first_offending_pair():
    def first_offender(a):
        n = a.shape[0]
        for i in range(n):
            for j in range(n):
                if a[i, i] > a[i, j]:
                    return (i + 1, j + 1)
        return None

    rng = np.random.default_rng(191)
    for k in range(80):
        n = int(rng.integers(1, 12))
        a = rand_valid_matrix(rng, n, integral=k % 2 == 0).array.copy()
        rows = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        a[rows, rows] += rng.integers(0, 6, size=len(rows))
        check = is_valid(as_sym_matrix(a))
        assert check.witness == first_offender(a)
        assert check.ok == (check.witness is None)


def test_ultra_witness_names_the_broken_triple():
    m = as_sym_matrix([[0.0, 1.0, 4.0], [1.0, 0.0, 4.0], [4.0, 4.0, 0.0]])
    assert is_ultra(m).ok
    avg = as_sym_matrix([[0.0, 2.5, 4.0], [2.5, 0.0, 2.5], [4.0, 2.5, 0.0]])
    check = is_ultra(avg)
    assert not check.ok
    i, j, k = check.witness
    a = avg.array
    assert a[i - 1, j - 1] > max(a[i - 1, k - 1], a[k - 1, j - 1])


def test_induced_matrix_on_shared_and_internal_labels():
    lt = LabeledMergeTree(
        MergeTree(
            [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)],
            [(0, 3), (1, 2), (2, 3)],
        ),
        {1: 0, 2: 0, 3: 2, 4: 1},
    )
    expect = [[1, 1, 4, 4], [1, 1, 4, 4], [4, 4, 3, 3], [4, 4, 3, 2]]
    assert induced_matrix(lt).array.tolist() == [
        [float(x) for x in row] for row in expect
    ]


def test_induced_matrix_matches_chain_walk_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        lt = rand_labeled_tree(rng, int(rng.integers(1, 7)), max_leaves=5)
        got = induced_matrix(lt).array
        assert np.array_equal(got, induced_oracle(lt))


def test_induced_matrices_are_ultra():
    rng = np.random.default_rng(29)
    for _ in range(40):
        lt = rand_labeled_tree(rng, int(rng.integers(1, 7)), max_leaves=5)
        assert is_ultra(induced_matrix(lt)).ok


def test_tree_of_matrix_builds_a_multiway_join():
    m = as_sym_matrix([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    lt = tree_of_matrix(m)
    heights = sorted(h for _, h in lt.tree.vertices)
    assert heights == [0.0, 0.0, 0.0, 1.0]
    assert len(lt.tree.children[lt.tree.top]) == 3


def test_tree_of_matrix_attaches_at_equal_height():
    # the diagonal entry 3 equals the off-diagonal join with label 4, so
    # label 3 sits directly on the join vertex instead of below it
    m = as_sym_matrix(
        [
            [1.0, 1.0, 4.0, 4.0],
            [1.0, 1.0, 4.0, 4.0],
            [4.0, 4.0, 3.0, 3.0],
            [4.0, 4.0, 3.0, 2.0],
        ]
    )
    lt = tree_of_matrix(m)
    v3 = lt.label_to_vertex[3]
    assert lt.tree.height[v3] == 3.0
    assert lt.labels_of[v3] == (3,)
    (child,) = lt.tree.children[v3]
    assert lt.labels_of[child] == (4,)
    assert lt.label_to_vertex[1] == lt.label_to_vertex[2]


def test_tree_of_matrix_requires_validity():
    with pytest.raises(InvalidMatrixError):
        tree_of_matrix(as_sym_matrix([[2.0, 1.0], [1.0, 0.0]]))


def test_round_trip_from_ultra_matrices_is_exact():
    rng = np.random.default_rng(31)
    for k in range(60):
        # alternate integral inputs so equal-height ties get exercised
        m = rand_ultra_matrix(rng, int(rng.integers(1, 7)), integral=k % 2 == 0)
        assert induced_matrix(tree_of_matrix(m)) == m


def test_round_trip_from_trees_lands_on_the_canonical_form():
    rng = np.random.default_rng(37)
    for _ in range(60):
        lt = rand_labeled_tree(rng, int(rng.integers(1, 7)), max_leaves=5)
        back = tree_of_matrix(induced_matrix(lt))
        assert labeled_trees_equal(back, canonicalize(lt))


def test_ultrafy_worked_examples():
    m = as_sym_matrix([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert ultrafy(m).array.tolist() == [
        [0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ]
    m2 = as_sym_matrix([[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    assert ultrafy(m2).array.tolist() == [
        [0.0, 2.0, 1.0],
        [2.0, 0.0, 2.0],
        [1.0, 2.0, 0.0],
    ]


def test_ultrafy_fixes_ultra_matrices():
    rng = np.random.default_rng(41)
    for _ in range(40):
        m = rand_ultra_matrix(rng, int(rng.integers(1, 7)))
        assert ultrafy(m) == m


def test_ultrafy_properties():
    rng = np.random.default_rng(43)
    for _ in range(40):
        m = rand_valid_matrix(rng, int(rng.integers(1, 7)))
        u = ultrafy(m)
        assert is_ultra(u).ok
        assert np.array_equal(np.diag(u.array), np.diag(m.array))
        assert np.all(u.array <= m.array + 0)


def test_ultrafy_equals_minimax_oracle():
    rng = np.random.default_rng(47)
    for k in range(40):
        m = rand_valid_matrix(rng, int(rng.integers(1, 6)), integral=k % 2 == 0)
        assert np.array_equal(ultrafy(m).array, minimax_matrix(m))


def test_ultrafy_agrees_with_the_tree_route():
    rng = np.random.default_rng(53)
    for _ in range(40):
        m = rand_valid_matrix(rng, int(rng.integers(1, 7)))
        assert induced_matrix(tree_of_matrix(m)) == ultrafy(m)


def test_linf_distance():
    a = as_sym_matrix([[0.0, 2.0], [2.0, 0.0]])
    b = as_sym_matrix([[1.0, 3.0], [3.0, 1.0]])
    assert linf_distance(a, b) == 1.0
    assert linf_distance(a, a) == 0.0
    with pytest.raises(InvalidMatrixError):
        linf_distance(a, as_sym_matrix([[0.0]]))
