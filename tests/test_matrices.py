from __future__ import annotations

import copy
import gc
import pickle
import sys
import threading
import tracemalloc
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mergespace import (
    InvalidMatrixError,
    InvalidTreeError,
    LabeledMergeTree,
    MatrixCheck,
    MergeTree,
    SymMatrix,
    as_sym_matrix,
    canonicalize,
    induced_matrix,
    is_ultra,
    is_valid,
    labeled_interleaving,
    labeled_trees_equal,
    linf_distance,
    tree_of_matrix,
    trees_equal,
    ultrafy,
)
from mergespace import matrices
from mergespace.matrices import _linkage, _mst_edges, _walk_matrix
from mergespace.trees import _walk_spans
from util import (
    fresh_copy,
    induced_oracle,
    induced_rowwise_oracle,
    minimax_matrix,
    mst_sweep_oracle,
    rand_labeled_tree,
    rand_ultra_matrix,
    rand_valid_matrix,
    sweep_tree_oracle,
    tree_signature,
    ultra_witness_oracle,
    walk_matrix_oracle,
    with_heights,
)


def test_sym_matrix_rejects_bad_shapes():
    with pytest.raises(InvalidMatrixError):
        as_sym_matrix([[0.0, 1.0]])
    with pytest.raises(InvalidMatrixError):
        as_sym_matrix([])
    with pytest.raises(InvalidMatrixError, match="empty matrix"):
        as_sym_matrix(np.zeros((0, 0)))
    with pytest.raises(InvalidMatrixError):
        as_sym_matrix([[0.0, float("inf")], [float("inf"), 0.0]])
    with pytest.raises(InvalidMatrixError):
        as_sym_matrix([[0.0, 1.0], [2.0, 0.0]])


def test_sym_matrix_symmetrizes_tiny_noise():
    m = as_sym_matrix([[0.0, 1.0 + 1e-13], [1.0, 0.0]])
    assert m[0, 1] == m[1, 0]


def test_sym_matrix_averages_entries_near_the_largest_float_without_overflow():
    top = np.finfo(float).max
    below = np.nextafter(top, 0.0)
    m = as_sym_matrix([[0.0, top], [below, 0.0]])
    # the exact midpoint of the two, rounded to even, where a + b is inf
    assert m.array.tobytes() == np.array([[0.0, below], [below, 0.0]]).tobytes()
    assert ultrafy(m) == m
    # where the sum is finite, the average is (a + b) / 2 bit for bit: here
    # 3 units of the smallest subnormal, halved, round to 2 units, where
    # halving each first would give 1
    tiny = np.nextafter(0.0, 1.0)
    a = np.array([[0.0, tiny], [2 * tiny, 0.0]])
    assert as_sym_matrix(a).array.tobytes() == ((a + a.T) / 2.0).tobytes()
    rng = np.random.default_rng(23)
    a = rng.uniform(-4.0, 4.0, size=(30, 30)) * 10.0 ** rng.integers(-300, 300)
    a = a + a.T
    a[np.triu_indices(30, 1)] = np.nextafter(a[np.triu_indices(30, 1)], np.inf)
    assert as_sym_matrix(a).array.tobytes() == ((a + a.T) / 2.0).tobytes()


@pytest.mark.parametrize("big", [1.7e308, np.finfo(float).max])
def test_sym_matrix_refuses_an_asymmetry_that_overflows(big):
    # a - a.T overflows to inf, past any finite slack of the entries' span;
    # the gap is refused, with no overflow warning (warnings are errors here)
    with pytest.raises(InvalidMatrixError, match=r"not symmetric \(largest asymmetry inf\)"):
        as_sym_matrix([[0.0, big], [-big, 0.0]])
    with pytest.raises(InvalidMatrixError, match="not symmetric"):
        as_sym_matrix([[1.0, 0.0, big], [0.0, 1.0, 0.0], [-big, 0.0, 1.0]])


def test_sym_matrix_keeps_an_exactly_symmetric_matrix_as_given():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(6, 6))
    a = a + a.T
    assert as_sym_matrix(a).array.tobytes() == a.tobytes()
    # -0.0 == 0.0, so the pair is symmetric and each entry keeps its sign bit
    z = np.array([[1.0, -0.0], [0.0, 1.0]])
    kept = as_sym_matrix(z).array
    assert kept.tobytes() == z.tobytes()
    assert np.signbit(kept[0, 1]) and not np.signbit(kept[1, 0])


def test_sym_matrix_repr_evaluates_to_an_equal_matrix():
    m = as_sym_matrix([[0.1 + 0.2, -0.0, 1e300], [-0.0, 2.0**-1074, 7.0], [1e300, 7.0, -5.5]])
    text = repr(m)
    assert text.startswith("SymMatrix([[")
    back = eval(text, {"SymMatrix": SymMatrix})
    assert back == m and hash(back) == hash(m)
    assert back.array.tobytes() == m.array.tobytes()  # signed zeros too


def test_sym_matrix_hash_agrees_with_equality_on_signed_zeros():
    a, b = as_sym_matrix([[0.0]]), as_sym_matrix([[-0.0]])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # both labels collapse onto label 1's vertex, so its -0.0 fills the matrix
    m = as_sym_matrix([[-0.0, 0.0], [0.0, 0.0]])
    t = induced_matrix(tree_of_matrix(m))
    assert t.array.tobytes() != m.array.tobytes()
    assert t == m
    assert hash(t) == hash(m)
    # ultrafy builds no tree: it copies the entries of m, signs and all
    assert ultrafy(m).array.tobytes() == m.array.tobytes()


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
    # an invalid matrix has no closure: the witness is `is_valid`'s pair
    assert is_ultra([[1.0, 0.0], [0.0, 0.0]]) == MatrixCheck(False, (1, 2))


def test_an_invalid_matrix_is_checked_once():
    # the failed check is kept on the matrix: later calls check nothing, and
    # every route through the sweep still raises with its witness
    m = SymMatrix([[2.0, 1.0], [1.0, 0.0]])
    with mock.patch.object(matrices, "is_valid", wraps=is_valid) as checked:
        for _ in range(3):
            assert is_ultra(m) == MatrixCheck(False, (1, 2))
        for build in (ultrafy, tree_of_matrix):
            with pytest.raises(InvalidMatrixError, match=r"diagonal \(1,1\) exceeds entry \(1,2\)"):
                build(m)
    assert checked.call_count == 1


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_an_unpickled_matrix_stays_read_only_and_keeps_its_trust(protocol):
    # a computed matrix is trusted ultra and never checked again, so its
    # copy must be as unwritable as the original; a writeable copy let a
    # write make a wye's matrix invalid while `is_ultra` still vouched for it
    wye = LabeledMergeTree(MergeTree([(0, 0.0), (1, 0.0), (2, 1.0)], [(0, 2), (1, 2)]), {1: 0, 2: 1})
    m = induced_matrix(wye)
    ultrafy(m)  # the matrix now keeps its sweep too
    for back in (pickle.loads(pickle.dumps(m, protocol=protocol)), copy.copy(m), copy.deepcopy(m)):
        assert back == m and back.array.tobytes() == m.array.tobytes()
        assert not back.array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            back.array[0, 0] = 5.0
        assert is_ultra(back)
        assert tree_of_matrix(back) == tree_of_matrix(m)
    caller = pickle.loads(pickle.dumps(SymMatrix([[2.0, 1.0], [1.0, 0.0]]), protocol=protocol))
    assert not caller.array.flags.writeable
    assert is_ultra(caller) == MatrixCheck(False, (1, 2))


def test_a_caller_matrix_is_checked_once():
    # a matrix built by the constructor is checked on its first sweep, and
    # only then; a computed one (a walk's, a blend, a midrange) never is
    rng = np.random.default_rng(131)
    for _ in range(10):
        m = SymMatrix(rand_valid_matrix(rng, int(rng.integers(1, 9))).array.tolist())
        with mock.patch.object(matrices, "is_valid", wraps=is_valid) as checked:
            tree_of_matrix(m)
            ultrafy(m)
            induced_matrix(tree_of_matrix(ultrafy(m)))
        assert checked.call_count == 1


def test_sym_matrix_refuses_a_ragged_list_by_its_shape():
    # a nested list is read entry by entry (the refusal table of test_api has
    # its entries); a ragged one is a shape error, where numpy raised a bare
    # ValueError, and an ndarray keeps its bulk check by dtype kind
    with pytest.raises(InvalidMatrixError, match=r"expected a square matrix, got shape \(2,\)"):
        SymMatrix([[0.0, 1.0], [1.0]])
    with pytest.raises(InvalidMatrixError, match="must be real numbers, got bool"):
        SymMatrix(np.array([[True]]))


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


def test_induced_matrix_keeps_the_sign_of_zero_heights():
    # labels 1 and 2 meet at -0.0, labels 3 and 4 at +0.0, all four at 1.0
    lt = LabeledMergeTree(
        MergeTree(
            [(0, -1.0), (1, -1.0), (2, -0.0), (3, -1.0), (4, -1.0), (5, 0.0), (6, 1.0)],
            [(0, 2), (1, 2), (3, 5), (4, 5), (2, 6), (5, 6)],
        ),
        {1: 0, 2: 1, 3: 3, 4: 4},
    )
    a = induced_matrix(lt).array
    assert a.tobytes() == induced_rowwise_oracle(lt).tobytes()
    assert np.signbit(a[0, 1]) and np.signbit(a[1, 0])
    assert a[2, 3] == 0.0 and not np.signbit(a[2, 3])
    single = LabeledMergeTree(MergeTree([(0, -0.0)], []), {1: 0})
    assert induced_matrix(single).array.tobytes() == np.array([[-0.0]]).tobytes()


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


def test_linf_distance():
    a = as_sym_matrix([[0.0, 2.0], [2.0, 0.0]])
    b = as_sym_matrix([[1.0, 3.0], [3.0, 1.0]])
    assert linf_distance(a, b) == 1.0
    assert linf_distance(a, a) == 0.0
    with pytest.raises(InvalidMatrixError):
        linf_distance(a, as_sym_matrix([[0.0]]))


# -- properties -----------------------------------------------------------

# integer-grid entries tie all the time; eighths stay exact under the
# power-of-two scalings and integer shifts below; reals are in general position
grid = st.integers(0, 2).map(float)
eighths = st.integers(0, 64).map(lambda k: k / 8)
reals = st.floats(0.0, 8.0)


@st.composite
def valid_matrices(draw, max_n=7, values=st.sampled_from([grid, eighths, reals])):
    """Diagonal entries, and off-diagonal ones at or above both diagonals."""
    n = draw(st.integers(1, max_n))
    entries = draw(values)
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    bump = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    a = np.diag(diag)
    for i in range(n):
        for j in range(i + 1, n):
            a[i, j] = a[j, i] = max(diag[i], diag[j]) + bump[i * n + j]
    return as_sym_matrix(a)


@st.composite
def near_ultra_matrices(draw):
    """A valid matrix, or its closure with a few off-diagonal entries raised."""
    m = draw(valid_matrices())
    if draw(st.booleans()):
        return m
    a = ultrafy(m).array.copy()
    n = m.n
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        a[i, j] = a[j, i] = a[i, j] + draw(st.integers(1, 3))
    return as_sym_matrix(a)


@st.composite
def labeled_trees(draw, max_labels=8):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_labels))
    return rand_labeled_tree(rng, n, max_leaves=n, integral=draw(st.booleans()))


@given(valid_matrices(max_n=6))
def test_ultrafy_property_is_an_idempotent_projection_from_below(m):
    u = ultrafy(m)
    assert ultrafy(u) == u
    assert np.all(u.array <= m.array)
    assert np.array_equal(u.array, minimax_matrix(m))


@given(valid_matrices(max_n=12))
def test_ultrafy_property_agrees_with_the_tree_route(m):
    u = ultrafy(m)
    assert u == induced_matrix(tree_of_matrix(m))
    assert is_ultra(u).ok


@given(valid_matrices(max_n=12))
def test_tree_of_matrix_property_matches_the_full_sweep(m):
    # same vertex ids and edges, same labels on the same vertices
    got, want = tree_of_matrix(m), sweep_tree_oracle(m)
    assert (got.tree, got.labels) == (want.tree, want.labels)


@st.composite
def tie_heavy_matrices(draw, max_n=80):
    """Valid matrices full of ties: diagonal and bumps on the 0-2 grid, a
    constant matrix, or a grid shifted so that some entries are zero, each
    zero stored as 0.0 or -0.0 without regard to its mirror entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["grid", "constant", "zeros"]))
    if kind == "constant":
        return as_sym_matrix(np.full((n, n), float(rng.integers(-2, 3))))
    diag = rng.integers(0, 3, size=n).astype(float)
    a = np.triu(np.maximum.outer(diag, diag) + rng.integers(0, 3, size=(n, n)), 1)
    a = a + a.T
    np.fill_diagonal(a, diag)
    if kind == "zeros":
        a -= a.flat[int(rng.integers(n * n))]
        zero = a == 0.0
        a[zero] = np.where(rng.random(np.count_nonzero(zero)) < 0.5, -0.0, 0.0)
    return as_sym_matrix(a)


def _hex_edges(edges):
    return [(h.hex(), i, j) for h, i, j in edges]


@given(tie_heavy_matrices())
def test_mst_edges_property_are_bitwise_the_full_sweep(m):
    assert _hex_edges(_mst_edges(m.array)) == _hex_edges(mst_sweep_oracle(m))


@given(tie_heavy_matrices(max_n=30))
def test_tree_of_matrix_property_matches_the_full_sweep_bitwise(m):
    # several Borůvka rounds; heights compare by their bits, so a -0.0 merge
    # height copied from another entry than the sweep's shows up
    got, want = tree_of_matrix(m), sweep_tree_oracle(m)
    assert (got.tree, got.labels) == (want.tree, want.labels)
    hexed = lambda t: {v: h.hex() for v, h in t.tree.height.items()}
    assert hexed(got) == hexed(want)


@given(near_ultra_matrices())
def test_is_ultra_property_means_fixed_by_ultrafy(m):
    check = is_ultra(m)
    assert check.ok == (ultrafy(m) == m)
    assert check.witness == ultra_witness_oracle(m)


def _zero_straddling(draw, rng, n: int) -> LabeledMergeTree:
    lt = rand_labeled_tree(
        rng, n, max_leaves=draw(st.integers(1, n)), integral=draw(st.booleans())
    )
    heights = sorted(lt.tree.height.values())
    zero = heights[draw(st.integers(0, len(heights) - 1))]
    return with_heights(
        lt, lambda h: -0.0 if h == zero and rng.random() < 0.5 else h - zero
    ).ensure_valid()


@st.composite
def zero_straddling_trees(draw, max_labels=80):
    """A labeled tree shifted so that some heights are zero, each zero stored
    as 0.0 or -0.0; labels share vertices and sit on inner ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _zero_straddling(draw, rng, draw(st.integers(1, max_labels)))


@st.composite
def zero_straddling_pairs(draw, max_labels=80):
    """Two zero-straddling trees over one label set, each on the grid or real."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_labels))
    return _zero_straddling(draw, rng, n), _zero_straddling(draw, rng, n)


@given(zero_straddling_trees())
def test_induced_matrix_property_is_bytewise_the_rowwise_fill(lt):
    assert induced_matrix(lt).array.tobytes() == induced_rowwise_oracle(lt).tobytes()


def _bytes(x: float) -> bytes:
    return np.float64(x).tobytes()


ONE_LABEL = LabeledMergeTree(MergeTree([(0, -0.0)], []), {1: 0})


@given(zero_straddling_pairs())
@example((ONE_LABEL, LabeledMergeTree(MergeTree([(0, 2.5)], []), {1: 0})))
@example((ONE_LABEL, LabeledMergeTree(MergeTree([(0, 0.0)], []), {1: 0})))
def test_labeled_distance_property_is_bytewise_the_dense_route(pair):
    # the walk route against the two matrices' largest entrywise gap
    a, b = pair
    d = labeled_interleaving(a, b)
    assert _bytes(d) == _bytes(linf_distance(induced_matrix(a), induced_matrix(b)))
    assert _bytes(labeled_interleaving(b, a)) == _bytes(d)


def _one_ulp_off(rng, lt: LabeledMergeTree) -> LabeledMergeTree:
    """`lt` with one height moved by one ulp, up or down, staying valid.

    A moved subdivision vertex leaves the canonical form as it was."""
    vertices = dict(lt.tree.vertices)
    for v in rng.permutation(list(vertices)):
        for toward in rng.permutation([-np.inf, np.inf]):
            moved = dict(vertices)
            moved[v] = float(np.nextafter(vertices[v], toward))
            out = LabeledMergeTree(MergeTree(moved, lt.tree.edges), lt.labels)
            if out.validation.ok:
                return out
    return lt  # every edge one ulp long: no valid move


def _new_ids(rng, lt: LabeledMergeTree) -> LabeledMergeTree:
    """The same labeled tree under a random permutation of fresh vertex ids."""
    ids = [v for v, _ in lt.tree.vertices]
    new = dict(zip(ids, (int(k) + 100 for k in rng.permutation(len(ids)))))
    t = MergeTree([(new[v], h) for v, h in lt.tree.vertices],
                  [(new[c], new[p]) for c, p in lt.tree.edges])
    return LabeledMergeTree(t, {i: new[v] for i, v in lt.labels})


def _swap_labels(lt: LabeledMergeTree, i: int, j: int) -> LabeledMergeTree:
    at = lt.label_to_vertex
    return LabeledMergeTree(lt.tree, {**at, i: at[j], j: at[i]})


@st.composite
def equality_pairs(draw, max_labels=40):
    """A zero-straddling tree and a tree on the same labels: its canonical
    form through its matrix, a copy with new vertex ids, a near miss (one
    height one ulp off, or two labels swapped), or another such tree."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_labels))
    a = _zero_straddling(draw, rng, n)
    kind = draw(st.sampled_from(["canonical", "new ids", "ulp", "swap", "other"]))
    if kind == "canonical":
        b = tree_of_matrix(induced_matrix(a))
    elif kind == "new ids":
        b = _new_ids(rng, a)
    elif kind == "ulp":
        b = _one_ulp_off(rng, a)
    elif kind == "swap":  # a label and one on another vertex, if there is one
        at = a.label_to_vertex
        i = int(rng.integers(n)) + 1
        others = [j for j in at if at[j] != at[i]] or [i]
        b = _swap_labels(a, i, others[int(rng.integers(len(others)))])
    else:
        b = _zero_straddling(draw, rng, n)
    return kind, a, b


def _signature(lt: LabeledMergeTree):
    c = canonicalize(lt)
    return tree_signature(c.tree, c.labels_of)


@given(equality_pairs())
def test_labeled_trees_equal_property_agrees_with_signatures(pair):
    # the walk route against nested signatures of the canonical forms
    kind, a, b = pair
    want = _signature(a) == _signature(b)
    assert labeled_trees_equal(a, b) == want
    assert labeled_trees_equal(b, a) == want
    assert want or kind not in ("canonical", "new ids")


def test_labeled_trees_equal_needs_equal_label_counts():
    one = LabeledMergeTree(MergeTree([(0, 1.0)], []), {1: 0})
    two = LabeledMergeTree(MergeTree([(0, 1.0)], []), {1: 0, 2: 0})
    assert not labeled_trees_equal(one, two)
    assert not labeled_trees_equal(two, one)
    # an invalid tree raises, whatever the other tree's label count
    broken = LabeledMergeTree(MergeTree([(0, 1.0), (1, 1.0)], [(0, 1)]), {1: 0})
    for x, y in ((broken, two), (two, broken), (broken, one)):
        with pytest.raises(InvalidTreeError):
            labeled_trees_equal(x, y)


@st.composite
def label_walks(draw):
    """The depth-first walk of a zero-straddling tree, or the single-linkage
    walk of a tie-heavy matrix: up to 80 labels, so two kernel blocks."""
    if draw(st.booleans()):
        return draw(zero_straddling_trees()).label_walk
    return _linkage(draw(tie_heavy_matrices()))[1]


@given(label_walks())
def test_walk_matrix_property_is_bytewise_the_rowwise_fill(walk):
    got = _walk_matrix(*walk).array
    assert got.tobytes() == walk_matrix_oracle(*walk).tobytes()
    assert got.flags.c_contiguous  # callers scan its rows


# one label; one full block of 64 and one past it; two blocks and one past;
# 360 = 5 blocks of 72, and 361, where the width grows to 76
@pytest.mark.parametrize("n", [1, 2, 64, 65, 128, 129, 360, 361])
def test_walk_matrix_is_bytewise_the_rowwise_fill_at_block_boundaries(n):
    rng = np.random.default_rng(n)
    labels = rng.permutation(n) + 1
    gaps = rng.integers(-2, 3, size=n - 1).astype(float)  # ties, and zeros of both signs
    gaps[gaps == 0] = np.where(rng.random(np.count_nonzero(gaps == 0)) < 0.5, -0.0, 0.0)
    own = rng.integers(-4, -2, size=n).astype(float)
    walk = tuple(labels.tolist()), tuple(own.tolist()), tuple(gaps.tolist())
    assert _walk_matrix(*walk).array.tobytes() == walk_matrix_oracle(*walk).tobytes()


@given(tie_heavy_matrices())
def test_tree_of_matrix_property_is_valid_by_construction(m):
    lt = tree_of_matrix(m)  # seeded with an empty report; a fresh copy checks it
    fresh = LabeledMergeTree(MergeTree(lt.tree.vertices, lt.tree.edges), lt.labels)
    assert fresh.validation.violations == ()


def _tree_bits(lt: LabeledMergeTree):
    return lt.tree, lt.labels, [h.hex() for _, h in lt.tree.vertices]


# each call's result in a form that compares bit for bit
LINKAGE_CALLS = {
    "ultrafy": lambda m: ultrafy(m).array.tobytes(),
    "tree_of_matrix": lambda m: _tree_bits(tree_of_matrix(m)),
    "is_ultra": lambda m: is_ultra(m),  # ok and witness
}


@given(st.one_of(tie_heavy_matrices(max_n=30), valid_matrices()))
def test_linkage_property_is_swept_once_per_matrix(m):
    # every order of the three calls on one object gives what each gives on
    # a fresh copy, the object is checked and its spanning tree found once,
    # and each tree_of_matrix call returns a fresh, equal tree
    want = {name: call(SymMatrix(m.array.copy())) for name, call in LINKAGE_CALLS.items()}
    for order in permutations(LINKAGE_CALLS):
        shared = SymMatrix(m.array.copy())
        with mock.patch.object(matrices, "_mst_edges", wraps=_mst_edges) as spanning, \
                mock.patch.object(matrices, "is_valid", wraps=is_valid) as checked:
            for name in order:
                assert LINKAGE_CALLS[name](shared) == want[name], (order, name)
            a, b = tree_of_matrix(shared), tree_of_matrix(shared)
        assert spanning.call_count == 1, order
        assert checked.call_count <= 1, order
        assert a is not b and _tree_bits(a) == _tree_bits(b), order


@given(st.one_of(tie_heavy_matrices(max_n=30), valid_matrices()), zero_straddling_trees(40))
def test_walk_built_matrices_property_are_ultra_as_their_copies(m, lt):
    # induced and ultrafied matrices are marked ultra; a copy through the
    # constructor is not, and the full check agrees with the mark
    for built in (induced_matrix(lt), ultrafy(m)):
        copy = SymMatrix(built.array)
        assert not copy._ultra
        assert is_ultra(built) == is_ultra(copy) == MatrixCheck(True)


@st.composite
def signed_zero_inputs(draw, max_labels=40):
    """A matrix with entries of both signs and zeros stored both as 0.0 and
    as -0.0, and a zero-straddling tree on as many labels.  The matrix is a
    zero-straddling tree's, shifted by one of its off-diagonal entries, with
    up to three other entry pairs raised, so it need not be ultra."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, max_labels))
    a = induced_matrix(_zero_straddling(draw, rng, n)).array.copy()
    i, j = rng.choice(n, size=2, replace=False)
    a -= a[i, j]
    for _ in range(draw(st.integers(0, 3))):
        k, l = rng.choice(n, size=2, replace=False)
        step = float(rng.integers(0, 3))
        if {k, l} != {i, j}:  # raising the shifting pair could leave no zero
            a[k, l] = a[l, k] = a[k, l] + step  # stays valid
    zero = np.flatnonzero(a == 0.0)  # at least the shifting pair
    negative = rng.random(zero.size) < 0.5
    negative[0], negative[-1] = True, False
    a.flat[zero] = np.where(negative, -0.0, 0.0)
    return as_sym_matrix(a), _zero_straddling(draw, rng, n)


@given(signed_zero_inputs())
def test_matrix_trees_property_read_distances_off_their_own_walk(pair):
    m, t = pair
    want = _bytes(linf_distance(induced_matrix(tree_of_matrix(m)), induced_matrix(t)))
    for a, b in ((tree_of_matrix(m), t), (t, tree_of_matrix(m))):
        assert _bytes(labeled_interleaving(a, b)) == want
    # the spans come from the tree's own depth-first walk, not the sweep's,
    # whose order and zero signs can differ
    lt = tree_of_matrix(m)
    for got, own in zip(lt.walk_spans, _walk_spans(*lt.label_walk), strict=True):
        assert got.dtype == own.dtype and got.tobytes() == own.tobytes()
    assert labeled_trees_equal(tree_of_matrix(induced_matrix(t)), t)


@given(labeled_trees())
def test_tree_matrix_property_round_trips(lt):
    a = induced_matrix(lt)
    back = tree_of_matrix(a)
    assert induced_matrix(back) == a
    assert labeled_trees_equal(back, canonicalize(lt))


@given(valid_matrices(values=st.sampled_from([grid, eighths])),
       st.integers(-1000, 1000), st.integers(-30, 30))
def test_ultrafy_property_equivariant(m, shift, power):
    u = ultrafy(m).array
    assert np.array_equal(ultrafy(m.array + shift).array, u + shift)
    scale = 2.0**power
    assert np.array_equal(ultrafy(m.array * scale).array, u * scale)


# -- size -----------------------------------------------------------------


def _caterpillar(n: int):
    """Leaves 0..n-1 hang off a spine whose vertex n-1+k sits at height k.

    Returns the tree and its matrix: leaves p < q meet at height max(q, 1).
    """
    rng = np.random.default_rng(1500)
    low = rng.uniform(0.0, 0.5, size=n)
    vertices = [(v, float(h)) for v, h in enumerate(low)]
    vertices += [(n - 1 + k, float(k)) for k in range(1, n)]
    edges = [(0, n), (1, n)] + [(k, n - 1 + k) for k in range(2, n)]
    edges += [(n - 2 + k, n - 1 + k) for k in range(2, n)]
    leaf = rng.permutation(n)  # label i + 1 sits on leaf[i]
    labels = {i + 1: int(v) for i, v in enumerate(leaf)}
    want = np.maximum(np.maximum.outer(leaf, leaf), 1).astype(float)
    want[np.diag_indices(n)] = low[leaf]
    return LabeledMergeTree(MergeTree(vertices, edges), labels), want


def _balanced(n: int):
    """Leaves at height 0, paired level by level; level k merges at height k.

    Leaf p sits at position p >> k of level k, an odd one out moving up
    last, so leaves p and q meet at height (p ^ q).bit_length().
    """
    vertices = [(v, 0.0) for v in range(n)]
    edges = []
    level, height = list(range(n)), 0.0
    while len(level) > 1:
        height += 1.0
        up = []
        for k in range(0, len(level) - 1, 2):
            v = len(vertices)
            vertices.append((v, height))
            edges += [(level[k], v), (level[k + 1], v)]
            up.append(v)
        level = up + level[len(level) - len(level) % 2 :]
    labels = {v + 1: v for v in range(n)}
    idx = np.arange(n)
    want = np.frexp(idx ^ idx[:, None])[1].astype(float)  # the exponent is the bit length
    return LabeledMergeTree(MergeTree(vertices, edges), labels), want


@pytest.mark.parametrize("shape", [_caterpillar, _balanced])
def test_matrix_layer_handles_fifteen_hundred_labels(shape):
    lt, want = shape(1500)
    a = induced_matrix(lt)
    assert np.array_equal(a.array, want)
    assert is_ultra(a).ok
    assert ultrafy(a) == a
    assert induced_matrix(tree_of_matrix(a)) == a


def _reversed_labels(lt, want):
    """The same tree with label i moved to label n + 1 - i, and its matrix."""
    n = lt.n_labels
    return LabeledMergeTree(lt.tree, {n + 1 - i: v for i, v in lt.labels}), want[::-1, ::-1]


@pytest.mark.parametrize("first", [_caterpillar, _balanced])
@pytest.mark.parametrize("second", [_caterpillar, _balanced])
def test_labeled_distance_of_fifteen_hundred_labels_builds_no_matrix(first, second):
    (a, want_a), (b, want_b) = first(1500), _reversed_labels(*second(1500))
    want = float(np.abs(want_a - want_b).max())
    a.ensure_valid()
    b.ensure_valid()
    tracemalloc.start()
    try:
        d = labeled_interleaving(a, b)  # fresh trees: their walks are built here too
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bytes(d) == _bytes(want)
    assert peak < 8 * 1500**2  # one 1500 x 1500 float array
    assert _bytes(labeled_interleaving(b, a)) == _bytes(want)


@pytest.mark.parametrize("shape", [_caterpillar, _balanced])
def test_tree_equality_of_fifteen_hundred_labels_builds_no_matrix(shape):
    lt, _ = shape(1500)
    back = tree_of_matrix(induced_matrix(lt))
    # fresh trees, validated: their walks are built inside the call
    a = LabeledMergeTree(MergeTree(lt.tree.vertices, lt.tree.edges), lt.labels).ensure_valid()
    b = LabeledMergeTree(MergeTree(back.tree.vertices, back.tree.edges), back.labels).ensure_valid()
    tracemalloc.start()
    try:
        same = labeled_trees_equal(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same
    assert peak < 8 * 1500**2  # one 1500 x 1500 float array
    assert not labeled_trees_equal(a, _swap_labels(b, 1, 1500))


def test_tree_equality_handles_a_fifteen_hundred_label_caterpillar():
    lt, _ = _caterpillar(1500)
    assert labeled_trees_equal(lt, lt)
    assert trees_equal(lt.tree, lt.tree)
    vertices = dict(lt.tree.vertices)
    vertices[7] += 0.25  # a leaf, still below the spine vertex it hangs off
    moved = MergeTree(vertices, lt.tree.edges)
    assert not labeled_trees_equal(lt, LabeledMergeTree(moved, lt.labels))
    assert not trees_equal(lt.tree, moved)


# -- the store of recent induced matrices -------------------------------------


def test_a_tree_is_served_the_matrix_it_was_built():
    rng = np.random.default_rng(151)
    t = rand_labeled_tree(rng, 7, max_leaves=7)
    m = induced_matrix(t)
    assert induced_matrix(t) is m
    # an equal tree is another object, with its own entry
    other = fresh_copy(t)
    assert induced_matrix(other) is not m
    assert induced_matrix(other) == m


def test_a_dead_trees_matrix_is_never_served_to_a_new_tree():
    # a new tree may take a dead tree's id while the dead tree's entry lives
    rng = np.random.default_rng(157)
    for _ in range(200):
        t = rand_labeled_tree(rng, 6, max_leaves=6)
        induced_matrix(t)
        del t
        gc.collect()
        t = rand_labeled_tree(rng, 6, max_leaves=6)
        assert induced_matrix(t).array.tobytes() == _walk_matrix(*t.label_walk).array.tobytes()


@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=30))
def test_store_property_serves_each_tree_its_own_matrix(seed, steps):
    # every tree's key is its label count, as if ids were reused: trees of
    # one label count share a key, alive or dead, and only the weak
    # reference to the tree tells their entries apart
    rng = np.random.default_rng(seed)
    trees = [rand_labeled_tree(rng, 3 + k % 2, max_leaves=4) for k in range(4)]
    with mock.patch.object(matrices, "id", lambda lt: lt.n_labels, create=True):
        for k, replace in steps:
            if replace:
                trees[k] = rand_labeled_tree(rng, trees[k].n_labels, max_leaves=4)
            got = induced_matrix(trees[k]).array
            assert got.tobytes() == _walk_matrix(*trees[k].label_walk).array.tobytes()


def test_the_store_keeps_at_most_its_budget_of_dropped_trees_matrices():
    budget = 4 << 20
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(40):
            induced_matrix(_caterpillar(200)[0])  # 320 kB each, its tree dropped
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current <= budget + 8 * 200**2


def test_a_matrix_over_the_budget_is_returned_and_not_kept():
    small = rand_labeled_tree(np.random.default_rng(163), 9, max_leaves=9)
    kept = induced_matrix(small)
    big, want = _caterpillar(1000)  # 8 MB
    gc.collect()
    tracemalloc.start()
    try:
        assert np.array_equal(induced_matrix(big).array, want)
        del big
        gc.collect()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 8 * 200**2
    assert induced_matrix(small) is kept  # and the entries before it stay


def test_the_store_keeps_its_byte_count_under_threads():
    # four threads store 600 trees' matrices over one another, switching as
    # often as the interpreter allows, with about 500 fitting: a lost update
    # would leave the byte count off the sum of its entries' charges
    rng = np.random.default_rng(167)
    trees = [rand_labeled_tree(rng, 30, max_leaves=30) for _ in range(600)]
    built = [_walk_matrix(*t.label_walk) for t in trees]
    errors = []

    def work(first):
        try:
            for k in range(first, first + 3000):
                matrices._keep(trees[k % 600], built[k % 600])
        except Exception as err:  # reported by the test, not lost with its thread
            errors.append(err)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(150 * k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    charges = sum(m.array.nbytes + matrices._ENTRY_BYTES for _, m in matrices._kept.values())
    assert matrices._kept_bytes == charges <= matrices._KEPT_BYTES
    for t, m in zip(trees, built):
        assert induced_matrix(t).array.tobytes() == m.array.tobytes()
