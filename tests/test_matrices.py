from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mergespace import (
    InvalidMatrixError,
    LabeledMergeTree,
    MatrixCheck,
    MergeTree,
    as_sym_matrix,
    canonicalize,
    induced_matrix,
    is_ultra,
    is_valid,
    labeled_trees_equal,
    linf_distance,
    tree_of_matrix,
    trees_equal,
    ultrafy,
)
from mergespace.matrices import _linkage, _mst_edges, _walk_matrix
from util import (
    induced_oracle,
    induced_rowwise_oracle,
    minimax_matrix,
    mst_sweep_oracle,
    rand_labeled_tree,
    rand_ultra_matrix,
    rand_valid_matrix,
    sweep_tree_oracle,
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


@st.composite
def zero_straddling_trees(draw, max_labels=80):
    """A labeled tree shifted so that some heights are zero, each zero stored
    as 0.0 or -0.0; labels share vertices and sit on inner ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, max_labels))
    lt = rand_labeled_tree(
        rng, n, max_leaves=draw(st.integers(1, n)), integral=draw(st.booleans())
    )
    heights = sorted(lt.tree.height.values())
    zero = heights[draw(st.integers(0, len(heights) - 1))]
    return with_heights(
        lt, lambda h: -0.0 if h == zero and rng.random() < 0.5 else h - zero
    ).ensure_valid()


@given(zero_straddling_trees())
def test_induced_matrix_property_is_bytewise_the_rowwise_fill(lt):
    assert induced_matrix(lt).array.tobytes() == induced_rowwise_oracle(lt).tobytes()


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


def test_tree_equality_handles_a_fifteen_hundred_label_caterpillar():
    lt, _ = _caterpillar(1500)
    assert labeled_trees_equal(lt, lt)
    assert trees_equal(lt.tree, lt.tree)
    vertices = dict(lt.tree.vertices)
    vertices[7] += 0.25  # a leaf, still below the spine vertex it hangs off
    moved = MergeTree(vertices, lt.tree.edges)
    assert not labeled_trees_equal(lt, LabeledMergeTree(moved, lt.labels))
    assert not trees_equal(lt.tree, moved)
