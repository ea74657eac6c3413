from __future__ import annotations

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergespace import (
    InvalidTreeError,
    LabeledMergeTree,
    MergeTree,
    MergespaceError,
    PointOnTree,
    VertexMap,
    canonicalize,
    canonicalize_tree,
    labeled_interleaving,
    labeled_trees_equal,
    lca,
    parse_tree,
    point_at,
    refine_at,
    trees_equal,
    vertex_point,
    write_tree,
)
import mergespace
from mergespace.dot import to_dot
from mergespace.trees import (
    REL_TOL,
    ValidationReport,
    _validate,
    as_point,
    height_tol,
    is_vertex_point,
    slack_of,
)
from util import (
    label_walk_oracle,
    lca_oracle,
    rand_labeled_tree,
    rand_merge_tree,
    rand_point,
    refine_at_oracle,
    tree_signature,
    validate_oracle,
    with_heights,
)


def _wye():
    """Two leaves at 0 and 1 joining at 3."""
    return MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)])


def test_single_vertex_is_a_valid_tree():
    t = MergeTree([(7, 2.5)], [])
    assert t.validation.ok
    assert t.top == 7
    assert t.leaves == (7,)


def test_wye_structure():
    t = _wye()
    assert t.validation.ok
    assert t.top == 2
    assert t.leaves == (0, 1)
    assert t.parent[0] == 2 and t.parent[2] is None
    assert t.children[2] == (0, 1)


@pytest.mark.parametrize(
    "vertices,edges,needle",
    [
        ([], [], "no vertices"),
        ([(0, 0.0), (0, 1.0)], [], "duplicate vertex id"),
        ([(0, float("nan"))], [], "non-finite"),
        ([(0, 0.0), (1, 1.0)], [(0, 1), (0, 1)], "duplicate edge"),
        ([(0, 0.0)], [(0, 5)], "unknown vertex"),
        ([(0, 0.0)], [(0, 0)], "self loop"),
        ([(0, 1.0), (1, 1.0)], [(0, 1)], "equal function value"),
        ([(0, 2.0), (1, 1.0)], [(0, 1)], "child above parent"),
        (
            [(0, 0.0), (1, 1.0), (2, 2.0)],
            [(0, 1), (0, 2)],
            "multiple ancestors",
        ),
        ([(0, 0.0), (1, 1.0)], [], "disconnected"),
    ],
)
def test_validation_flags_each_defect(vertices, edges, needle):
    report = MergeTree(vertices, edges).validation
    assert not report.ok
    assert any(needle in v for v in report.violations)


_DEFECTS = (
    "duplicate id",
    "negative id",
    "nan height",
    "inf height",
    "tied height",
    "self loop",
    "unknown id",
    "duplicate edge",
    "two-cycle",
    "three-cycle",
    "forest",
    "any edge",
)


@st.composite
def raw_tree_parts(draw):
    """Vertex and edge lists of 0-8 vertices: a tree whose edges climb to a
    strictly higher vertex where there is one, then up to three defects."""
    n = draw(st.integers(0, 8))
    ids = draw(st.permutations(range(10)))[:n]
    heights = draw(st.lists(st.integers(0, 5).map(float), min_size=n, max_size=n))
    vertices = list(zip(ids, heights))
    edges = []
    for v, h in vertices:
        higher = [u for u, g in vertices if g > h]
        if higher:
            edges.append((v, draw(st.sampled_from(higher))))
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=3)):
        if not vertices:
            break
        k = draw(st.integers(0, len(vertices) - 1))
        v, h = vertices[k]
        u = draw(st.sampled_from(vertices))[0]
        w = draw(st.sampled_from(vertices))[0]
        if defect == "duplicate id":
            vertices.append((v, h + 1.0))
        elif defect == "negative id":
            vertices[k] = (-1 - v, h)
            edges = [tuple(-1 - x if x == v else x for x in e) for e in edges]
        elif defect == "nan height":
            vertices[k] = (v, math.nan)
        elif defect == "inf height":
            vertices[k] = (v, draw(st.sampled_from([math.inf, -math.inf])))
        elif defect == "self loop":
            edges.append((v, v))
        elif defect == "unknown id":
            edges.append(draw(st.sampled_from([(v, 99), (99, v)])))
        elif defect == "any edge":
            edges.append((v, u))
        elif not edges:
            continue
        elif defect == "tied height":
            c, p = draw(st.sampled_from(edges))
            tie = dict(vertices).get(p, h)
            vertices = [(x, tie if x == c else g) for x, g in vertices]
        elif defect == "duplicate edge":
            edges.append(draw(st.sampled_from(edges)))
        elif defect == "two-cycle":
            c, p = draw(st.sampled_from(edges))
            edges.append((p, c))
        elif defect == "three-cycle":
            edges.extend([(v, u), (u, w), (w, v)])
        elif defect == "forest":
            edges.remove(draw(st.sampled_from(edges)))
    return vertices, edges


@settings(max_examples=400)
@given(raw_tree_parts())
def test_validation_property_equals_the_ancestry_walk_oracle(parts):
    t = MergeTree(*parts)
    report = t.validation
    assert report.violations == validate_oracle(t).violations
    if report.ok:
        assert [v for v, p in t.parent.items() if p is None] == [t.top]
        assert all(h < t.height[t.top] for v, h in t.vertices if v != t.top)


@pytest.mark.parametrize(
    "build, bad, good",
    [
        (lambda i: MergeTree([(i, 1.0), (1, 2.0)], [(i, 1)]), 0.7, np.int64(0)),
        (lambda i: LabeledMergeTree(_wye(), {i: 0, 2: 1}), 1.5, np.int64(1)),
        (lambda i: VertexMap(_wye(), _wye(), 0.0, {i: 0, 1: 1, 2: 2}), "0", np.int64(0)),
        (lambda i: as_point(_wye(), i), 0.9, np.int64(0)),
        (lambda i: as_point(_wye(), (i, 1.5)), 1.0, np.int64(1)),
        (lambda i: as_point(_wye(), PointOnTree(i, 1.5)), 1.0, np.int64(1)),
        # a bool is an int to operator.index, but never an id
        (lambda i: MergeTree([(i, 1.0), (2, 2.0)], [(i, 2)]), True, np.int64(1)),
        (lambda i: MergeTree([(0, 1.0), (1, 2.0)], [(0, i)]), True, np.int64(1)),
        (lambda i: LabeledMergeTree(_wye(), {i: 0, 2: 1}), True, np.int64(1)),
        (lambda i: as_point(_wye(), i), False, np.int64(0)),
    ],
    ids=[
        "MergeTree-vertex", "LabeledMergeTree-label", "VertexMap-key", "as_point",
        "as_point-pair-anchor", "as_point-point-anchor", "MergeTree-vertex-bool",
        "MergeTree-edge-end-bool", "LabeledMergeTree-label-bool", "as_point-bool",
    ],
)
def test_non_integer_ids_are_refused_not_truncated(build, bad, good):
    with pytest.raises(MergespaceError, match=re.escape(f"{bad!r} is not an integer")):
        build(bad)
    built = build(good)  # numpy integers are ids like any other
    if isinstance(built, (MergeTree, LabeledMergeTree)):
        built.ensure_valid()


@st.composite
def valid_bare_trees(draw):
    """A random tree as drawn, the same with points of its edges and ray
    made vertices, one vertex, or a path of single children."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["raw", "subdivided", "single vertex", "path"]))
    if kind == "single vertex":
        return MergeTree([(int(rng.integers(10)), float(rng.integers(-2, 3)))], [])
    if kind == "path":
        heights = np.cumsum(rng.integers(1, 3, size=draw(st.integers(2, 6)))).astype(float)
        return MergeTree(list(enumerate(heights.tolist())), [(k, k + 1) for k in range(len(heights) - 1)])
    t = rand_merge_tree(rng, max_leaves=draw(st.integers(1, 6)), integral=draw(st.booleans()))
    if kind == "subdivided":
        t, _ = refine_at(t, [rand_point(rng, t) for _ in range(draw(st.integers(1, 4)))])
    return t


@given(valid_bare_trees())
def test_canonical_tree_property_is_valid_by_construction(t):
    # canonicalize_tree seeds its result's report; the check itself agrees
    assert _validate(canonicalize_tree(t)).violations == ()


@given(valid_bare_trees())
def test_canonical_tree_property_is_its_input_exactly_when_nothing_is_removed(t):
    # with no single-child vertex a tree is canonical already: it comes back
    # as it is, not as a fresh copy whose maps are built again
    single = any(len(c) == 1 for c in t.children.values())
    got = canonicalize_tree(t)
    assert (got is t) is not single
    assert not any(len(c) == 1 for c in got.children.values())
    assert canonicalize_tree(got) is got


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_canonical_labeled_tree_property_is_valid_by_construction(seed, n):
    c = canonicalize(rand_labeled_tree(np.random.default_rng(seed), n, max_leaves=n))
    fresh = LabeledMergeTree(MergeTree(c.tree.vertices, c.tree.edges), c.labels)
    assert fresh.validation.violations == ()


def test_trees_built_valid_are_not_validated_again(monkeypatch):
    rng = np.random.default_rng(20)
    t = rand_merge_tree(rng, max_leaves=5).ensure_valid()
    lt = rand_labeled_tree(rng, 6, max_leaves=4).ensure_valid()
    m = mergespace.induced_matrix(lt)

    def refuse(tree):
        raise AssertionError(f"validated again: {tree}")

    monkeypatch.setattr(mergespace.trees, "_validate", refuse)
    canonicalize_tree(t).ensure_valid()
    canonicalize(lt).ensure_valid()
    mergespace.tree_of_matrix(m).ensure_valid()
    center, _ = mergespace.one_center([lt, lt])
    center.ensure_valid()
    refine_at(t, [(t.top, t.height[t.top] + 1.0)])[0].ensure_valid()


def test_height_read_first_is_the_map_validation_built(monkeypatch):
    built, validate = [], mergespace.trees._validate

    def spy(tree):
        report = validate(tree)
        built.append(tree.__dict__.get("height"))
        return report

    monkeypatch.setattr(mergespace.trees, "_validate", spy)
    t = MergeTree([(2, 2.0), (0, 0.0), (1, 0.5)], [(1, 2), (0, 2)])
    height = t.height
    assert len(built) == 1 and height is built[0]
    assert list(height.items()) == list(dict(t.vertices).items())
    assert t.height is height and t.ensure_valid() is t and len(built) == 1


def test_a_validation_report_is_true_exactly_when_ok():
    good, bad = _wye().validation, MergeTree([(0, 0.0), (1, 1.0)], []).validation
    assert good and good.ok and good.violations == ()
    assert not bad and not bad.ok and bad.violations
    assert bool(ValidationReport(())) and not ValidationReport(("tree has no vertices",))


def test_ensure_valid_raises_with_the_violations():
    with pytest.raises(InvalidTreeError) as err:
        MergeTree([(0, 0.0), (1, 1.0)], []).ensure_valid()
    assert "disconnected" in str(err.value)


# entry point -> call with the tree under test and a valid partner; a pair
# takes the tree second, so the partner is read first
_BARE_ENTRY_POINTS = {
    "persistence_diagram": lambda t, ok: mergespace.persistence_diagram(t),
    "bottleneck_tree_distance": lambda t, ok: mergespace.bottleneck_tree_distance(ok, t),
    "canonicalize_tree": lambda t, ok: canonicalize_tree(t),
    "meet_table": lambda t, ok: mergespace.matrices.meet_table(t),
    "trees_equal": lambda t, ok: trees_equal(ok, t),
    "unlabeled_interleaving": lambda t, ok: mergespace.unlabeled_interleaving(ok, t),
    "refine_at": lambda t, ok: refine_at(t, [(2, 4.0)]),
    "to_dot": lambda t, ok: to_dot(t),
}
_LABELED_ENTRY_POINTS = {
    "induced_matrix": lambda t, ok: mergespace.induced_matrix(t),
    "labeled_interleaving": lambda t, ok: labeled_interleaving(ok, t),
    "canonicalize": lambda t, ok: canonicalize(t),
    "to_dot": lambda t, ok: to_dot(t),
}


def _second_top():
    return MergeTree([(0, 0.0), (1, 1.0), (2, 3.0), (3, 0.5)], [(0, 2), (1, 2)])


def _labeled_wye(labels=((1, 0), (2, 1))):
    return LabeledMergeTree(_wye(), labels)


# case -> (the invalid tree, a valid partner), each built fresh
_INVALID_CASES = {
    "second-top": (_second_top, _wye),
    "labeled-second-top": (lambda: LabeledMergeTree(_second_top(), {1: 0, 2: 1}), _labeled_wye),
    "unlabeled-leaf": (lambda: _labeled_wye({1: 0}), _labeled_wye),
}


@pytest.mark.parametrize(
    "call, case",
    [pytest.param(call, "second-top", id=f"{name}-second-top") for name, call in _BARE_ENTRY_POINTS.items()]
    + [
        pytest.param(call, case, id=f"{name}-{case}")
        for name, call in _LABELED_ENTRY_POINTS.items()
        for case in ("labeled-second-top", "unlabeled-leaf")
    ],
)
def test_every_tree_entry_point_refuses_an_invalid_tree(call, case):
    # each raises the tree's own violations, whether it checks the tree
    # itself or reads a part that validates it
    bad, ok = (make() for make in _INVALID_CASES[case])
    with pytest.raises(InvalidTreeError) as err:
        call(bad, ok)
    assert err.value.violations == bad.validation.violations != ()


def test_labeled_validation():
    t = _wye()
    assert LabeledMergeTree(t, {1: 0, 2: 1}).validation.ok
    report = LabeledMergeTree(t, {1: 0}).validation
    assert any("carries no label" in v for v in report.violations)
    report = LabeledMergeTree(t, {1: 0, 3: 1}).validation
    assert any("cover 1..2" in v for v in report.violations)
    report = LabeledMergeTree(t, {1: 0, 2: 99}).validation
    assert any("unknown vertex" in v for v in report.violations)
    with pytest.raises(InvalidTreeError, match="label 1 assigned twice"):
        LabeledMergeTree(t, [(1, 0), (1, 1), (2, 1)]).ensure_valid()
    # on an invalid tree the labels' vertices and the leaves go unchecked
    report = LabeledMergeTree(MergeTree([(0, 0.0), (1, 1.0)], []), [(1, 0), (1, 9), (3, 1)]).validation
    assert report.violations == (
        "disconnected: multiple top vertices (0, 1)",
        "label 1 assigned twice",
        "label indices must cover 1..2 exactly, got [1, 3]",
    )


def test_to_dot_draws_a_bare_tree_and_refuses_an_invalid_one():
    text = to_dot(_wye())
    assert text.startswith("digraph mergetree {\n") and "  v0 -> v2;\n" in text
    assert "peripheries" not in text
    negative = MergeTree([(-1, 0.0)], [])
    for bad in (negative, LabeledMergeTree(negative, {1: -1})):
        with pytest.raises(InvalidTreeError, match="vertex id -1 is negative"):
            to_dot(bad)


def test_label_walk_lists_labels_with_the_meets_between_neighbours():
    lt = LabeledMergeTree(
        MergeTree(
            [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)],
            [(0, 3), (1, 2), (2, 3)],
        ),
        {1: 0, 2: 0, 3: 2, 4: 1},
    )
    walk = lt.label_walk
    assert walk == ((1, 2, 3, 4), (1.0, 1.0, 3.0, 2.0), (1.0, 4.0, 3.0))
    assert lt.label_walk is walk  # built once per tree


@st.composite
def walk_trees(draw, max_parts=4):
    """A labeled tree whose top takes 1 to 4 random trees as children, with
    ids shuffled so child order is not build order, labels on leaves,
    shared vertices and inner vertices, on the grid or real, shifted so
    that some heights are zero, each zero stored as 0.0 or -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    parts = [rand_merge_tree(rng, max_leaves=draw(st.integers(1, 6)), integral=grid)
             for _ in range(draw(st.integers(1, max_parts)))]
    ids = iter(rng.permutation(sum(len(t.vertices) for t in parts) + 1).tolist())
    top = next(ids)
    vertices, edges = [(top, max(h for t in parts for _, h in t.vertices) + 1.0)], []
    for t in parts:
        new = {v: next(ids) for v, _ in t.vertices}
        vertices += [(new[v], h) for v, h in t.vertices]
        edges += [(new[c], new[p]) for c, p in t.edges] + [(new[t.top], top)]
    tree = MergeTree(vertices, edges)
    labels = list(tree.leaves) + [v for v, _ in vertices if rng.random() < 0.3] * draw(st.integers(1, 2))
    order = rng.permutation(len(labels)).tolist()
    lt = LabeledMergeTree(tree, {k + 1: labels[j] for k, j in enumerate(order)})
    zero = vertices[int(rng.integers(len(vertices)))][1]
    return with_heights(lt, lambda h: -0.0 if h == zero and rng.random() < 0.5 else h - zero)


def _walk_bits(walk):
    labels, heights, gaps = walk
    return labels, [h.hex() for h in heights], [g.hex() for g in gaps]


@given(walk_trees())
def test_label_walk_property_is_bitwise_the_preorder_oracle(lt):
    assert _walk_bits(lt.ensure_valid().label_walk) == _walk_bits(label_walk_oracle(lt))


def test_a_cold_labeled_distance_builds_no_parent_map():
    # the walk reads heights and children only: freshly parsed trees get no
    # `parent` map and no `labels_of` grouping from a labeled distance
    a, b = (parse_tree(write_tree(rand_labeled_tree(np.random.default_rng(s), 12, max_leaves=8)))
            for s in (3, 4))
    labeled_interleaving(a, b)
    for lt in (a, b):
        assert "label_walk" in lt.__dict__
        assert "parent" not in lt.tree.__dict__
        assert "labels_of" not in lt.__dict__


def test_point_at_walks_to_the_highest_anchor_at_or_below():
    t = _wye()
    assert point_at(t, 0, 0.0) == PointOnTree(0, 0.0)
    assert point_at(t, 0, 2.0) == PointOnTree(0, 2.0)
    # height 3.0 reaches the join vertex itself
    assert point_at(t, 0, 3.0) == PointOnTree(2, 3.0)
    # above the top: a ray point anchored at the top
    assert point_at(t, 0, 5.0) == PointOnTree(2, 5.0)
    with pytest.raises(MergespaceError):
        point_at(t, 1, 0.5)


def test_as_point_accepts_ids_tuples_and_renormalizes():
    t = _wye()
    assert as_point(t, 1) == PointOnTree(1, 1.0)
    assert as_point(t, (0, 2.0)) == PointOnTree(0, 2.0)
    assert as_point(t, PointOnTree(0, 3.0)) == PointOnTree(2, 3.0)
    with pytest.raises(MergespaceError):
        as_point(t, PointOnTree(1, 0.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda t: as_point(t, 99),
        lambda t: as_point(t, PointOnTree(99, 1.0)),
        lambda t: lca(t, 0, 99),
        lambda t: refine_at(t, [99]),
    ],
    ids=["as_point", "as_point-anchor", "lca", "refine_at"],
)
def test_point_helpers_refuse_an_unknown_vertex_id(call):
    with pytest.raises(MergespaceError, match="unknown vertex 99"):
        call(_wye())


def test_point_predicates():
    t = _wye()
    assert is_vertex_point(t, vertex_point(t, 2))
    assert not is_vertex_point(t, PointOnTree(0, 0.5))


def test_lca_examples():
    t = _wye()
    assert lca(t, 0, 1) == PointOnTree(2, 3.0)
    assert lca(t, 0, 0) == PointOnTree(0, 0.0)
    # comparable points meet at the higher one
    assert lca(t, PointOnTree(0, 0.5), PointOnTree(0, 2.0)) == PointOnTree(0, 2.0)
    # ray points dominate everything
    assert lca(t, 1, PointOnTree(2, 6.0)) == PointOnTree(2, 6.0)


def test_canonicalize_tree_drops_every_degree_two_vertex():
    # chain 0 -> 1 -> 2 with a single leaf: everything above the leaf goes
    chain = MergeTree([(0, 0.0), (1, 1.0), (2, 2.0)], [(0, 1), (1, 2)])
    got = canonicalize_tree(chain)
    assert sorted(got.vertices) == [(0, 0.0)]
    assert got.edges == ()


def test_canonicalize_tree_keeps_branch_points():
    t = MergeTree(
        [(0, 0.0), (1, 1.0), (2, 3.0), (3, 4.0)],
        [(0, 2), (1, 2), (2, 3)],
    )
    got = canonicalize_tree(t)
    assert sorted(got.vertices) == [(0, 0.0), (1, 1.0), (2, 3.0)]
    assert sorted(got.edges) == [(0, 2), (1, 2)]


def test_canonicalize_keeps_labeled_subdivision_vertices():
    t = MergeTree(
        [(0, 0.0), (1, 1.0), (2, 3.0), (3, 4.0)],
        [(0, 2), (1, 2), (2, 3)],
    )
    lt = LabeledMergeTree(t, {1: 0, 2: 1, 3: 3})
    got = canonicalize(lt)
    assert sorted(got.tree.vertices) == [(0, 0.0), (1, 1.0), (2, 3.0), (3, 4.0)]
    dropped = canonicalize(LabeledMergeTree(t, {1: 0, 2: 1}))
    assert sorted(dropped.tree.vertices) == [(0, 0.0), (1, 1.0), (2, 3.0)]


def test_canonicalize_is_idempotent_on_random_trees():
    rng = np.random.default_rng(11)
    for _ in range(40):
        lt = rand_labeled_tree(rng, int(rng.integers(1, 6)), max_leaves=4)
        once = canonicalize(lt)
        twice = canonicalize(once)
        assert once.tree.vertices == twice.tree.vertices
        assert once.tree.edges == twice.tree.edges
        assert once.labels == twice.labels
        # leaves never disappear
        assert set(lt.tree.leaves) <= set(v for v, _ in once.tree.vertices)


def test_trees_equal_ignores_vertex_ids():
    a = _wye()
    b = MergeTree([(10, 0.0), (20, 1.0), (30, 3.0)], [(10, 30), (20, 30)])
    assert trees_equal(a, b)
    c = MergeTree([(0, 0.0), (1, 1.0), (2, 3.5)], [(0, 2), (1, 2)])
    assert not trees_equal(a, c)


def _with_new_ids(rng, t: MergeTree) -> MergeTree:
    """The same tree under a random permutation of fresh vertex ids."""
    ids = [v for v, _ in t.vertices]
    new = dict(zip(ids, (int(k) + 100 for k in rng.permutation(len(ids)))))
    return MergeTree(
        [(new[v], h) for v, h in t.vertices], [(new[c], new[p]) for c, p in t.edges]
    )


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_trees_equal_property_agrees_with_signatures(seed, same_shape):
    # two-leaf grid trees coincide often, so both verdicts come up
    rng = np.random.default_rng(seed)
    a = rand_merge_tree(rng, max_leaves=2, integral=True)
    b = _with_new_ids(rng, a) if same_shape else rand_merge_tree(rng, max_leaves=2, integral=True)
    want = tree_signature(canonicalize_tree(a)) == tree_signature(canonicalize_tree(b))
    assert trees_equal(a, b) == want
    assert not same_shape or want


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_labeled_trees_equal_property_agrees_with_signatures(seed, n):
    rng = np.random.default_rng(seed)
    a = rand_labeled_tree(rng, n, max_leaves=2, integral=True)
    b = rand_labeled_tree(rng, n, max_leaves=2, integral=True)
    ca, cb = canonicalize(a), canonicalize(b)
    want = tree_signature(ca.tree, ca.labels_of) == tree_signature(cb.tree, cb.labels_of)
    assert labeled_trees_equal(a, b) == want
    assert labeled_trees_equal(a, a)


def test_refine_at_interior_and_ray_points():
    t = _wye()
    pts = [PointOnTree(0, 1.5), PointOnTree(0, 0.5), PointOnTree(2, 4.0)]
    refined, where = refine_at(t, pts)
    refined.ensure_valid()
    for p in pts:
        v = where[p]
        assert refined.height[v] == p.height
    # refining does not change the canonical shape
    assert trees_equal(canonicalize_tree(refined), canonicalize_tree(t))
    # the new ray vertex is now the top
    assert refined.height[refined.top] == 4.0
    # a point is its (anchor, height) pair: equal, hashed alike, and a key
    # of the point map under either spelling
    assert PointOnTree(3, 1.5) == (3, 1.5)
    assert hash(PointOnTree(3, 1.5)) == hash((3, 1.5))
    assert where[(0, 1.5)] == where[pts[0]]
    anchor, height = pts[0]
    assert (anchor, height, repr(pts[0])) == (0, 1.5, "PointOnTree(anchor=0, height=1.5)")


def test_refine_at_existing_vertices_is_a_no_op():
    t = _wye()
    refined, where = refine_at(t, [vertex_point(t, 1)])
    assert where[vertex_point(t, 1)] == 1
    assert trees_equal(refined, t)


@st.composite
def refinement_inputs(draw):
    """A grid or real-height tree, shifted so an edge may straddle zero, and
    0 to 6 points: vertices, edge points several to a branch, ray points and
    zeros of both signs, some repeated or given as (anchor, height) pairs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    shift = float(rng.integers(0, 4))
    t = with_heights(rand_merge_tree(rng, max_leaves=5, integral=grid), lambda h: h - shift)
    points = []
    for _ in range(draw(st.integers(0, 6))):
        v = int(rng.choice([u for u, _ in t.vertices]))
        lo, par = t.height[v], t.parent[v]
        hi = lo + 2.0 if par is None else t.height[par]
        heights = [lo, lo + (hi - lo) / 4, lo + (hi - lo) / 2, lo + float(rng.uniform(0, hi - lo))]
        if lo < 0.0 < hi:
            heights += [0.0, -0.0]
        h = heights[int(rng.integers(len(heights)))]
        points.append(PointOnTree(v, h) if h < hi else vertex_point(t, v))
        if rng.random() < 0.3:  # the same point again, as a pair
            points.append((v, h) if h < hi else v)
    return t, points


@given(refinement_inputs())
def test_refine_at_property_is_the_chain_oracle(inputs):
    t, points = inputs
    got, where = refine_at(t, points)
    want, want_where = refine_at_oracle(t, points)
    # stored as built, so the parts must be what validation and the
    # normalizing constructor would accept and store
    assert _validate(got).ok
    assert all(type(v) is int and type(h) is float for v, h in got.vertices)
    assert all(type(c) is int and type(p) is int for c, p in got.edges)
    assert list(got.vertices) == sorted(got.vertices) and list(got.edges) == sorted(got.edges)
    assert got == want
    assert [h.hex() for _, h in got.vertices] == [h.hex() for _, h in want.vertices]
    # the same keys, zero signs and all, to the same ids
    assert sorted((p.anchor, p.height.hex(), v) for p, v in where.items()) == sorted(
        (p.anchor, p.height.hex(), v) for p, v in want_where.items())


def test_random_trees_validate(seed=5):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        t = rand_merge_tree(rng, max_leaves=5)
        assert t.validation.ok
        lt = rand_labeled_tree(rng, int(rng.integers(1, 7)), max_leaves=4)
        assert lt.validation.ok


def test_random_trees_skip_an_edge_too_short_to_subdivide():
    # this seed picks a real edge shorter than 2e-3 for a subdivision vertex
    t = rand_merge_tree(np.random.default_rng(2232), 2)
    assert t.validation.ok
    assert min(t.height[p] - t.height[c] for c, p in t.edges) < 2e-3


def test_height_tol_is_relative_to_the_span_with_a_ulp_floor():
    wye = _wye()
    assert height_tol(wye) == REL_TOL * 3.0
    assert height_tol(LabeledMergeTree(wye, {1: 0, 2: 1}), wye) == REL_TOL * 3.0
    scaled = MergeTree([(v, h * 2.0**-40) for v, h in wye.vertices], wye.edges)
    assert height_tol(scaled) == height_tol(wye) * 2.0**-40
    far = MergeTree([(v, h + 2.0**40) for v, h in wye.vertices], wye.edges)
    assert height_tol(far) == 8 * math.ulp(2.0**40 + 3.0)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
@example([-1.7e308, 1.0, 1.7e308])
@example([-1.7976931348623157e308, 1.7976931348623157e308])
def test_slack_property_is_finite_for_finite_heights(heights):
    # a span past the float range keeps a finite slack relative to it; a
    # finite span keeps the slack it always had, bit for bit
    lo, hi = min(heights), max(heights)
    slack = slack_of(heights)
    assert math.isfinite(slack)
    assert slack >= REL_TOL * (hi / 2 - lo / 2)
    if math.isfinite(hi - lo):
        assert slack == max(REL_TOL * (hi - lo), 8 * math.ulp(max(-lo, hi)))


def test_no_public_callable_takes_a_tolerance():
    for name in mergespace.__all__:
        try:
            params = inspect.signature(getattr(mergespace, name)).parameters
        except ValueError:  # exceptions with only a builtin constructor
            continue
        assert "tol" not in params, name
    assert "height_tol" not in mergespace.__all__


def test_nested_tree_signatures_are_not_in_the_package():
    # comparing them recurses as deep as the tree; equality uses flat ids
    assert not hasattr(mergespace, "tree_signature")
    assert not hasattr(mergespace.trees, "tree_signature")


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_lca_property_equals_the_chain_intersection(seed, integral):
    rng = np.random.default_rng(seed)
    t = rand_merge_tree(rng, max_leaves=6, integral=integral)
    for _ in range(20):
        p, q = rand_point(rng, t), rand_point(rng, t)
        assert lca(t, p, q) == lca_oracle(t, p, q)
