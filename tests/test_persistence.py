from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from mergespace import persistence
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergespace import (
    MergeTree,
    PersistenceDiagram,
    bottleneck_distance,
    bottleneck_tree_distance,
    parse_diagram,
    parse_tree,
    persistence_diagram,
    write_diagram,
    write_tree,
)
from mergespace.trees import _bare
from util import (
    _diag_cost,
    _pair_cost,
    bottleneck_covering_reference,
    bottleneck_oracle,
    bottleneck_reference,
    diagram_oracle,
    rand_diagram,
    rand_grown_tree,
    rand_labeled_tree,
    rand_merge_tree,
    straddling_zero,
)

INF = math.inf


def test_diagram_normalizes_and_sorts():
    d = PersistenceDiagram([(1.0, 3.0), (0.0, INF), (0.5, 2.0)])
    assert d.points == ((0.0, INF), (0.5, 2.0), (1.0, 3.0))
    assert len(d) == 3
    assert d.finite == ((0.5, 2.0), (1.0, 3.0))
    assert d.infinite == ((0.0, INF),)


def test_diagram_rejects_nonpositive_persistence():
    with pytest.raises(Exception):
        PersistenceDiagram([(2.0, 2.0)])
    with pytest.raises(Exception):
        PersistenceDiagram([(INF, INF)])


def test_wye_diagram():
    t = MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)])
    d = persistence_diagram(t)
    assert d.points == ((0.0, INF), (1.0, 3.0))


def test_multiway_merge_kills_all_but_the_eldest():
    t = MergeTree(
        [(0, 0.0), (1, 1.0), (2, 2.0), (3, 5.0)],
        [(0, 3), (1, 3), (2, 3)],
    )
    d = persistence_diagram(t)
    assert d.points == ((0.0, INF), (1.0, 5.0), (2.0, 5.0))


def test_nested_merges_follow_the_elder_rule():
    # leaves at 0 and 1 join at 2; a leaf at 0.5 joins them at 4
    t = MergeTree(
        [(0, 0.0), (1, 1.0), (2, 2.0), (3, 0.5), (4, 4.0)],
        [(0, 2), (1, 2), (2, 4), (3, 4)],
    )
    d = persistence_diagram(t)
    assert d.points == ((0.0, INF), (0.5, 4.0), (1.0, 2.0))


def test_subdivision_vertices_do_not_add_points():
    t = MergeTree(
        [(0, 0.0), (1, 1.0), (2, 3.0), (9, 2.0), (10, 6.0)],
        [(0, 2), (1, 9), (9, 2), (2, 10)],
    )
    d = persistence_diagram(t)
    assert d.points == ((0.0, INF), (1.0, 3.0))


def test_ties_multiway_merges_and_subdivisions_follow_the_elder_rule():
    # leaves 0, 1 and 4 tie at 0; 0 and 1 meet 3 in a three-way merge at 2,
    # through subdivision vertex 9 above leaf 1; 4 joins at 5 under 6
    t = MergeTree(
        [(0, 0.0), (1, 0.0), (3, 1.0), (9, 1.0), (2, 2.0), (4, 0.0), (5, 5.0), (6, 7.0)],
        [(0, 2), (1, 9), (9, 2), (3, 2), (2, 5), (4, 5), (5, 6)],
    )
    want = ((0.0, 2.0), (0.0, 5.0), (0.0, INF), (1.0, 2.0))
    assert persistence_diagram(t).points == diagram_oracle(t).points == want


# a tree with height ties between siblings and across branches and a
# subdivision vertex; that tree, labeled; a single vertex
@example(0, "integral")
@example(0, "labeled")
@example(27, "grown")
@given(st.integers(0, 2**32 - 1), st.sampled_from(["real", "integral", "grown", "grown-integral"]))
def test_diagram_property_matches_the_ancestor_chain_oracle(seed, kind):
    # integral heights tie; both generators merge three ways one time in five,
    # and rand_merge_tree adds subdivision vertices, above the top too
    rng = np.random.default_rng(seed)
    if kind == "labeled":
        t = rand_labeled_tree(rng, 12, max_leaves=8, integral=True)
    elif kind.startswith("grown"):
        t = rand_grown_tree(rng, int(rng.integers(1, 41)), integral=kind.endswith("integral"))
    else:
        t = rand_merge_tree(rng, max_leaves=8, integral=kind == "integral")
    assert persistence_diagram(t).points == diagram_oracle(t).points


def _hexes(points) -> list:
    return [(b.hex(), d.hex()) for b, d in points]


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["real", "integral", "grown", "grown-integral"]),
    st.sampled_from([1.0, -1.0]),
)
def test_diagram_property_is_the_validating_constructor_bit_for_bit(seed, kind, sign):
    # a tree's diagram skips the constructor's checks and stores its points
    # split; the heights straddle zero, and integral ties put zeros of both
    # signs in one tree, which the sort must order as `sorted` does.  Which
    # leaf id survives a tie shows only in such a zero's sign, so the
    # points, as a multiset of bit patterns, are the oracle's.
    rng = np.random.default_rng(seed)
    if kind.startswith("grown"):
        t = rand_grown_tree(rng, int(rng.integers(1, 41)), integral=kind.endswith("integral"))
    else:
        t = rand_merge_tree(rng, max_leaves=8, integral=kind == "integral")
    t = straddling_zero(t, sign)
    d = persistence_diagram(t)
    want = PersistenceDiagram(d.points)
    assert d == want
    assert _hexes(d.points) == _hexes(want.points)
    assert sorted(_hexes(d.points)) == sorted(_hexes(diagram_oracle(t).points))
    assert _hexes(d.finite) == _hexes(want.finite) == _hexes(p for p in d.points if p[1] < INF)
    assert _hexes(d.infinite) == _hexes(want.infinite) == _hexes(p for p in d.points if p[1] == INF)
    assert len(d.infinite) == 1
    assert d.infinite[0][0] == min(t.height.values())


# births tie often and carry zeros of both signs, which compare equal
_BIRTHS = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(-4.0, 4.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(_BIRTHS, _BIRTHS).filter(lambda p: p[0] < p[1]), max_size=11),
    st.lists(_BIRTHS.map(lambda b: (b, INF)), max_size=3),
    st.randoms(use_true_random=False),
)
def test_diagram_property_stores_the_sorted_points_split(finite, essential, random):
    # the store merges each essential point into the sorted finite ones; the
    # result must be `sorted` of the caller's points, equal ties in the
    # caller's order, with `finite` and `infinite` its filtered tuples
    points = finite + essential
    random.shuffle(points)
    want = sorted(points)
    stored = PersistenceDiagram(points)
    for d in (stored, parse_diagram(write_diagram(stored))):
        assert _hexes(d.points) == _hexes(want)
        assert _hexes(d.finite) == _hexes(p for p in want if p[1] < INF)
        assert _hexes(d.infinite) == _hexes(p for p in want if p[1] == INF)


def test_a_cold_diagram_builds_no_parent_map():
    # the elder rule reads heights and the stored edges only: freshly parsed
    # trees, bare and labeled, get no `parent` map from a diagram or from a
    # bottleneck distance
    rng = np.random.default_rng(8)
    for make in (lambda: rand_grown_tree(rng, 9), lambda: rand_labeled_tree(rng, 12, max_leaves=8)):
        a, b, c = (parse_tree(write_tree(make())) for _ in range(3))
        persistence_diagram(a)
        bottleneck_tree_distance(b, c)
        for t in (a, b, c):
            assert "parent" not in _bare(t).__dict__


def test_single_vertex_diagram():
    d = persistence_diagram(MergeTree([(0, 2.0)], []))
    assert d.points == ((2.0, INF),)


def test_bottleneck_zero_on_identical():
    d = PersistenceDiagram([(0.0, INF), (1.0, 3.0)])
    assert bottleneck_distance(d, d) == 0.0


def test_bottleneck_uses_the_diagonal():
    a = PersistenceDiagram([(0.0, INF), (0.0, 2.0)])
    b = PersistenceDiagram([(0.0, INF)])
    assert bottleneck_distance(a, b) == 1.0


def test_bottleneck_on_mismatched_essentials_is_infinite():
    a = PersistenceDiagram([(0.0, INF), (1.0, INF)])
    b = PersistenceDiagram([(0.0, INF)])
    assert bottleneck_distance(a, b) == INF


def test_bottleneck_pairs_essential_points_by_birth_order():
    a = PersistenceDiagram([(0.0, INF), (5.0, INF)])
    b = PersistenceDiagram([(1.0, INF), (5.5, INF)])
    assert bottleneck_distance(a, b) == 1.0


def test_bottleneck_matches_the_enumeration_oracle():
    rng = np.random.default_rng(157)
    for _ in range(60):
        a = rand_diagram(rng, max_pts=5)
        b = rand_diagram(rng, max_pts=5)
        got = bottleneck_oracle(a, b)
        assert bottleneck_distance(a, b) == got


def test_bottleneck_is_symmetric():
    rng = np.random.default_rng(163)
    for _ in range(30):
        a = rand_diagram(rng, max_pts=4)
        b = rand_diagram(rng, max_pts=4)
        assert bottleneck_distance(a, b) == bottleneck_distance(b, a)


def test_diagrams_of_random_trees_have_one_essential_point():
    rng = np.random.default_rng(167)
    for _ in range(25):
        t = rand_merge_tree(rng, max_leaves=5)
        d = persistence_diagram(t)
        assert len(d.infinite) == 1
        assert d.infinite[0][0] == min(t.height.values())
        assert len(d.finite) == len(t.leaves) - 1


def test_bottleneck_without_finite_points_on_one_side():
    a = PersistenceDiagram([(0.0, INF), (1.0, 3.0), (2.0, 2.5)])
    b = PersistenceDiagram([(0.5, INF)])
    assert bottleneck_distance(a, b) == 1.0
    assert bottleneck_distance(b, a) == 1.0


def test_bottleneck_without_finite_points_on_either_side():
    a = PersistenceDiagram([(0.0, INF), (4.0, INF)])
    b = PersistenceDiagram([(0.25, INF), (3.0, INF)])
    assert bottleneck_distance(a, b) == 1.0
    assert bottleneck_distance(PersistenceDiagram([]), PersistenceDiagram([])) == 0.0


def test_bottleneck_on_mismatched_essentials_with_finite_points_is_infinite():
    a = PersistenceDiagram([(1.0, 2.0), (0.0, 3.0)])
    b = PersistenceDiagram([(0.0, INF), (1.0, 2.0), (0.0, 3.0)])
    assert bottleneck_distance(a, b) == INF
    assert bottleneck_distance(b, a) == INF
    assert bottleneck_distance(a, a) == 0.0


def _uniform_diagram(rng, n: int) -> PersistenceDiagram:
    births = rng.uniform(0.0, 10.0, n)
    deaths = births + rng.uniform(0.1, 5.0, n)
    # the essential class is born at the global minimum, as in a merge tree
    return PersistenceDiagram([*zip(births.tolist(), deaths.tolist()), (0.0, INF)])


def test_bottleneck_of_two_thousand_points_needs_no_recursion():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(2000)
    a, b = _uniform_diagram(rng, 2000), _uniform_diagram(rng, 2000)
    assert bottleneck_distance(a, b) == bottleneck_covering_reference(a, b)


def test_bottleneck_of_two_thousand_points_stays_in_bounded_memory():
    # the cost matrix is 32 MB; no list of its values is built (the
    # bisection over them peaked at 127 MiB, the ascent at 92 MiB)
    rng = np.random.default_rng(2000)
    a, b = _uniform_diagram(rng, 2000), _uniform_diagram(rng, 2000)
    tracemalloc.start()
    try:
        bottleneck_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


# -- properties -----------------------------------------------------------

# coordinates on a grid of eighths stay exact under the integer shifts below
eighths = st.integers(-80, 80).map(lambda k: k / 8)
lifetimes = st.integers(1, 40).map(lambda k: k / 8)
# essential births lie close together, so the finite points still decide
# most distances instead of the essential pairing
oldest = st.integers(-8, 8).map(lambda k: k / 8)


@st.composite
def diagrams(draw, births=eighths, persistence=lifetimes, min_size=0, max_size=6,
             essentials=st.just(1)):
    finite = draw(st.lists(st.tuples(births, persistence), min_size=min_size, max_size=max_size))
    pts = [(b, b + p) for b, p in finite]
    pts += [(draw(oldest), INF) for _ in range(draw(essentials))]
    return PersistenceDiagram(pts)


def _moved(dg: PersistenceDiagram, shift: float, scale: float) -> PersistenceDiagram:
    return PersistenceDiagram([(b * scale + shift, d * scale + shift) for b, d in dg.points])


@given(diagrams(), diagrams())
def test_bottleneck_property_symmetric(a, b):
    assert bottleneck_distance(a, b) == bottleneck_distance(b, a)


@given(diagrams(), diagrams(), diagrams())
def test_bottleneck_property_triangle_inequality(a, b, c):
    # values are multiples of 1/16 here, so the sum is exact
    assert bottleneck_distance(a, c) <= bottleneck_distance(a, b) + bottleneck_distance(b, c)


@given(diagrams(), diagrams(), st.integers(-1000, 1000), st.integers(-30, 30))
def test_bottleneck_property_equivariant(a, b, shift, power):
    d = bottleneck_distance(a, b)
    assert bottleneck_distance(_moved(a, float(shift), 1.0), _moved(b, float(shift), 1.0)) == d
    scale = 2.0**power
    assert bottleneck_distance(_moved(a, 0.0, scale), _moved(b, 0.0, scale)) == d * scale


@given(diagrams(max_size=5), diagrams(max_size=5))
def test_bottleneck_property_matches_the_enumeration_oracle(a, b):
    assert bottleneck_distance(a, b) == bottleneck_oracle(a, b)


# integer-grid points tie often and repeat: 6 births x 4 lifetimes
grid_births = st.integers(0, 5).map(float)
grid_lifetimes = st.integers(1, 4).map(float)
real_births = st.floats(-10.0, 10.0)
real_lifetimes = st.floats(1 / 64, 5.0)


@settings(max_examples=40)
@given(st.booleans(), st.data())
def test_bottleneck_property_matches_the_scipy_reference(on_grid, data):
    pytest.importorskip("scipy")
    births, persistence = (grid_births, grid_lifetimes) if on_grid else (real_births, real_lifetimes)
    sized = diagrams(births, persistence, min_size=20, max_size=150)
    a, b = data.draw(sized), data.draw(sized)
    want = bottleneck_reference(a, b)
    assert bottleneck_distance(a, b) == want
    assert bottleneck_covering_reference(a, b) == want


def _on_path(small: bool, a: PersistenceDiagram, b: PersistenceDiagram) -> float:
    """bottleneck_distance forced onto the plain-Python or the numpy path."""
    saved = persistence.SMALL_DIAGRAM
    persistence.SMALL_DIAGRAM = INF if small else -1
    try:
        return bottleneck_distance(a, b)
    finally:
        persistence.SMALL_DIAGRAM = saved


# sizes on both sides of the threshold, empty sides and unequal essentials
# included; the integer grid makes ties and duplicate points common
around_the_threshold = dict(
    min_size=0, max_size=persistence.SMALL_DIAGRAM + 4, essentials=st.integers(0, 2)
)


@settings(max_examples=150)
@given(st.booleans(), st.data())
def test_bottleneck_property_small_path_is_bit_identical(on_grid, data):
    pytest.importorskip("scipy")
    births, spans = (grid_births, grid_lifetimes) if on_grid else (real_births, real_lifetimes)
    sized = diagrams(births, spans, **around_the_threshold)
    a, b = data.draw(sized), data.draw(sized)
    small, dense = _on_path(True, a, b), _on_path(False, a, b)
    assert small.hex() == dense.hex()
    assert small == bottleneck_reference(a, b)
    assert bottleneck_distance(a, b).hex() == small.hex()


def test_bottleneck_small_path_covers_the_tiny_cases():
    empty, lone = PersistenceDiagram([]), PersistenceDiagram([(0.0, INF)])
    pair = PersistenceDiagram([(0.0, INF), (1.0, 3.0), (1.0, 3.0)])
    for a, b, want in [(empty, empty, 0.0), (lone, lone, 0.0), (pair, lone, 1.0),
                       (lone, pair, 1.0), (pair, pair, 0.0), (empty, lone, INF)]:
        assert _on_path(True, a, b) == _on_path(False, a, b) == want


def _cheapest_fate_bound(a: PersistenceDiagram, b: PersistenceDiagram) -> float:
    """The essential floor, and each finite point's cheapest partner or the
    diagonal: no matching costs less than the largest of these."""
    inf_a, inf_b = sorted(p[0] for p in a.infinite), sorted(p[0] for p in b.infinite)
    fates = [abs(x - y) for x, y in zip(inf_a, inf_b)]
    for mine, theirs in ((a.finite, b.finite), (b.finite, a.finite)):
        fates += [min([_diag_cost(p), *(_pair_cost(p, q) for q in theirs)]) for p in mine]
    return max(fates, default=0.0)


def _diagram(*points) -> PersistenceDiagram:
    return PersistenceDiagram([(0.0, INF), *points])


# the bound is the value: the first probe succeeds, or nothing is left to probe
BOUND_IS_THE_VALUE = [
    (_diagram((0.0, 4.0)), _diagram((1.0, 4.0))),  # one pair within 1
    (_diagram((0.0, 2.0), (5.0, 5.5)), _diagram()),  # all to the diagonal
    (_diagram(), _diagram((1.0, 2.0), (1.0, 3.0))),  # empty left side
    (PersistenceDiagram([(0.0, INF), (1.0, 2.0)]), PersistenceDiagram([(3.0, INF), (1.0, 2.0)])),
    (_diagram((0.0, 3.0), (2.0, 6.0), (4.0, 5.0)), _diagram((0.5, 3.0), (2.0, 6.5), (4.0, 5.25))),
]
# the first probe, at the bound, is refuted and the search climbs above it
FIRST_PROBE_REFUTED = [
    # both left points want the one right point; the loser retires at 1.75
    (_diagram((0.0, 4.0), (0.5, 4.0)), _diagram((0.0, 4.0))),
    # three left points crowd two right points
    (_diagram((0.0, 6.0), (0.25, 6.0), (0.5, 6.0)), _diagram((0.0, 6.0), (0.5, 6.0))),
    # a chain: each nearest partner is taken by the neighbour's nearest
    (_diagram((0.0, 8.0), (1.0, 9.0), (2.0, 10.0)), _diagram((0.5, 8.5), (1.5, 9.5), (9.0, 9.25))),
]


@pytest.mark.parametrize(
    "a,b",
    BOUND_IS_THE_VALUE + FIRST_PROBE_REFUTED,
    ids=[f"bound-is-the-value-{k}" for k in range(len(BOUND_IS_THE_VALUE))]
    + [f"first-probe-refuted-{k}" for k in range(len(FIRST_PROBE_REFUTED))],
)
def test_bottleneck_search_from_the_bound_on_both_paths(a, b):
    want = bottleneck_oracle(a, b)
    bound = _cheapest_fate_bound(a, b)
    assert (bound == want) == ((a, b) in BOUND_IS_THE_VALUE)
    assert bound <= want
    for x, y in ((a, b), (b, a)):
        small, dense = _on_path(True, x, y), _on_path(False, x, y)
        assert small.hex() == dense.hex() == want.hex()


def _probed(small: bool, a: PersistenceDiagram, b: PersistenceDiagram):
    """The value on one path, the cost of each probe in order, and the
    number of `_covers` calls, from spies on the probe's two steps."""
    name = "_small_adjacency" if small else "_numpy_adjacency"
    adjacency, covers = getattr(persistence, name), persistence._covers
    probes, calls = [], []

    def spy_adjacency(cost, half, c):
        probes.append(c)
        return adjacency(cost, half, c)

    def spy_covers(*args):
        calls.append(None)
        return covers(*args)

    setattr(persistence, name, spy_adjacency)
    persistence._covers = spy_covers
    try:
        value = _on_path(small, a, b)
    finally:
        setattr(persistence, name, adjacency)
        persistence._covers = covers
    # each probe builds both sides' adjacency at one cost
    assert probes[::2] == probes[1::2]
    return value, probes[::2], len(calls)


@settings(max_examples=150)
@given(st.booleans(), st.booleans(), st.data())
def test_bottleneck_ascent_property_probes_rise_to_the_value(small, on_grid, data):
    # every refuted probe lies below the value, each next probe strictly
    # above it, and the first feasible probe is the value
    births, spans = (grid_births, grid_lifetimes) if on_grid else (real_births, real_lifetimes)
    sized = diagrams(births, spans, max_size=6)
    a, b = data.draw(sized), data.draw(sized)
    want = bottleneck_oracle(a, b)
    value, probes, _ = _probed(small, a, b)
    assert value == probes[-1] == want
    assert all(x < y for x, y in zip(probes, probes[1:]))
    assert all(x < want for x in probes[:-1])
    assert probes[0] == _cheapest_fate_bound(a, b)


def _uniform_pair(seed: int, n: int):
    r = random.Random(seed)

    def draw():
        points = []
        for _ in range(n):
            b = r.uniform(0.0, 10.0)
            points.append((b, b + r.uniform(0.1, 5.0)))
        return PersistenceDiagram([*points, (0.0, INF)])

    return draw(), draw()


def test_bottleneck_ascent_steps_to_the_kth_relief_event():
    # a refuted side of deficiency k needs k relief events; stepping to the
    # first event instead reaches the same value after more probes
    a, b = _uniform_pair(1, 200)
    value, probes, calls = _probed(False, a, b)
    assert value == probes[-1] == bottleneck_distance(b, a)
    assert calls <= 6


# -- the matching ---------------------------------------------------------


@st.composite
def warm_graphs(draw):
    """A bipartite graph of 0-8 rows and columns, the rows that must be
    covered, and a warm matching along its edges that may hold rows outside
    the must-cover set."""
    n_rows, n_cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    cols = st.lists(st.integers(0, n_cols - 1), unique=True) if n_cols else st.just([])
    edges = [sorted(draw(cols)) for _ in range(n_rows)]
    must = draw(st.sets(st.integers(0, n_rows - 1))) if n_rows else set()
    adj = {r: edges[r] for r in sorted(must)}
    match_row, match_col = [-1] * n_rows, [-1] * n_cols
    pairs = [(r, j) for r in range(n_rows) for j in edges[r]]
    for r, j in draw(st.permutations(pairs)) if pairs else ():
        if match_row[r] < 0 and match_col[j] < 0 and draw(st.booleans()):
            match_row[r], match_col[j] = j, r
    return adj, n_cols, match_row, match_col


@settings(max_examples=400)
@given(warm_graphs())
def test_covers_property_agrees_with_scipy_matching(graph):
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    adj, n_cols, match_row, match_col = graph
    rows = list(adj)
    if not rows:
        want = True
    elif not n_cols:
        want = False
    else:
        biadjacency = np.zeros((len(rows), n_cols), dtype=np.int8)
        for k, r in enumerate(rows):
            biadjacency[k, adj[r]] = 1
        best = csgraph.maximum_bipartite_matching(sparse.csr_matrix(biadjacency), perm_type="column")
        want = bool((best >= 0).all())
    stuck = persistence._covers(adj, match_row, match_col)
    assert (stuck is None) is want
    # the matching stays consistent whatever the verdict
    for r, j in enumerate(match_row):
        assert j < 0 or (r in adj and j in adj[r] and match_col[j] == r)
    for j, r in enumerate(match_col):
        assert r < 0 or match_row[r] == j
    if stuck is None:
        assert all(match_row[r] >= 0 for r in adj)
    else:
        # a refusal names a Hall violator: must-cover rows, each once, whose
        # columns are all matched among them, k rows more than columns
        rows, k = stuck
        assert set(rows) <= set(adj) and len(set(rows)) == len(rows)
        reached = {j for r in rows for j in adj[r]}
        assert all(match_col[j] in rows for j in reached)
        assert len(rows) - len(reached) == k >= 1


def test_covers_follows_one_augmenting_path_through_a_staircase():
    # row r reaches columns r and r + 1 and holds r + 1, and the free last
    # row reaches only the column its neighbour holds: the one augmenting
    # path shifts every row down one column
    n = 10**5
    adj = {r: [r, r + 1] for r in range(n - 1)}
    adj[n - 1] = [n - 1]
    match_row = [r + 1 for r in range(n - 1)] + [-1]
    match_col = [-1] + list(range(n - 1))
    assert persistence._covers(adj, match_row, match_col) is None
    assert match_row == match_col == list(range(n))
