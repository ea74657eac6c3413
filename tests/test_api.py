"""The public API: each name declared once, in its module's `__all__`, and
re-exported by the package; and one rule for the numbers callers pass in."""

from __future__ import annotations

import importlib
import math
import pkgutil
import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mergespace
from mergespace import (
    BudgetExceededError,
    LabeledMergeTree,
    MergeTree,
    MergespaceError,
    PersistenceDiagram,
    SymMatrix,
    VertexMap,
    geodesic_length,
    geodesic_point,
    map_from_labeling,
    point_at,
    refine_at,
    unlabeled_interleaving,
)
from mergespace.trees import as_point
from util import rand_merge_tree

MODULES = ["errors", "fileio", "goodmaps", "matrices", "metrics", "persistence", "trees", "unlabeled"]

PUBLIC = [
    "BudgetExceededError", "FormatError", "GoodMapReport", "InfeasibleLabeling",
    "InvalidMatrixError", "InvalidTreeError", "LabelPairing", "LabeledMergeTree",
    "MalformedMapError", "MatrixCheck", "MergeTree", "MergespaceError",
    "PersistenceDiagram", "PointOnTree", "SymMatrix", "UnlabeledDistance",
    "ValidationReport", "VertexMap", "apply_pairing", "as_sym_matrix",
    "bottleneck_distance", "bottleneck_tree_distance", "candidate_shifts",
    "canonicalize", "canonicalize_tree", "geodesic_length", "geodesic_point",
    "induced_matrix", "is_ultra", "is_valid", "labeled_interleaving",
    "labeled_trees_equal", "labeling_from_map", "lca", "linf_distance",
    "map_from_labeling", "map_point", "one_center", "parse_diagram", "parse_map",
    "parse_matrix", "parse_pairing", "parse_tree", "persistence_diagram",
    "point_at", "refine_at", "tree_of_matrix", "trees_equal", "ultrafy",
    "unlabeled_interleaving", "verify_delta_good", "vertex_point",
    "write_diagram", "write_map", "write_matrix", "write_pairing", "write_tree",
]


def test_the_package_exports_the_public_names_once():
    assert len(PUBLIC) == 57
    assert sorted(mergespace.__all__) == PUBLIC
    assert len(set(mergespace.__all__)) == len(mergespace.__all__)
    # the submodules aside, the package's public attributes are the names
    public = {
        n for n, v in vars(mergespace).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert public == set(PUBLIC)
    assert all(isinstance(getattr(mergespace, m), types.ModuleType) for m in MODULES)


def test_each_public_name_is_declared_in_exactly_one_module():
    owners = {}
    for m in MODULES:
        for n in getattr(mergespace, m).__all__:
            owners.setdefault(n, []).append(m)
    assert sorted(owners) == PUBLIC
    for n, where in owners.items():
        assert len(where) == 1, (n, where)
        assert getattr(mergespace, n) is getattr(getattr(mergespace, where[0]), n)


def test_every_name_in_a_module_all_exists():
    for info in pkgutil.iter_modules(mergespace.__path__):
        module = importlib.import_module(f"mergespace.{info.name}")
        for n in getattr(module, "__all__", ()):
            assert hasattr(module, n), (info.name, n)


# -- caller numbers ---------------------------------------------------------

WYE = MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)])
WYE_UP = MergeTree([(0, 1.0), (1, 2.0), (2, 4.0)], [(0, 2), (1, 2)])
SHIFT_IMAGES = {0: (0, 1.0), 1: (1, 2.0), 2: (2, 4.0)}
LA = LabeledMergeTree(WYE, {1: 0, 2: 1})
LB = LabeledMergeTree(WYE_UP, {1: 1, 2: 0})

# entry point -> (call with a caller real x, the role its error names)
REALS = {
    "MergeTree height": (lambda x: MergeTree([(0, x)], []), "height"),
    "PersistenceDiagram birth": (lambda x: PersistenceDiagram([(x, math.inf)]), "birth"),
    "PersistenceDiagram death": (lambda x: PersistenceDiagram([(0.0, x)]), "death"),
    "SymMatrix entries": (lambda x: SymMatrix([[x, x], [x, x]]), "matrix entries"),
    "SymMatrix entry among floats": (
        lambda x: SymMatrix([[0.0, x], [x, 0.0]]), "matrix entries"
    ),
    "point_at height": (lambda x: point_at(WYE, 0, x), "height"),
    "as_point height": (lambda x: as_point(WYE, (0, x)), "height"),
    "refine_at height": (lambda x: refine_at(WYE, [(0, x)]), "height"),
    "VertexMap shift": (lambda x: VertexMap(WYE, WYE_UP, x, SHIFT_IMAGES), "shift"),
    "map_from_labeling shift": (lambda x: map_from_labeling(LA, LB, x), "shift"),
    "geodesic_point lambda": (lambda x: geodesic_point(LA, LB, x), "interpolation parameter"),
}
COUNTS = {
    "geodesic_length samples": (lambda x: geodesic_length(LA, LB, samples=x), "sample count"),
    "unlabeled_interleaving budget": (
        lambda x: unlabeled_interleaving(WYE, WYE_UP, budget=x), "search budget"
    ),
}
# values that are not reals, though float() reads most of them (as 0.5 or 1.0)
NOT_REAL = {
    "bool": True, "numpy-bool": np.True_, "str": "0.5", "bytes": b"0.5", "None": None,
    "complex": 0.5 + 0j, "Fraction": Fraction(1, 2), "Decimal": Decimal("0.5"),
    "400-digit-int": 10**400,
}
NOT_COUNT = {**NOT_REAL, "nan": math.nan, "2.5": 2.5}
del NOT_COUNT["400-digit-int"]  # an integer, so a count however large
REFUSALS = [
    pytest.param(call, role, x, id=f"{entry}-{kind}")
    for table, bad in ((REALS, NOT_REAL), (COUNTS, NOT_COUNT))
    for entry, (call, role) in table.items()
    for kind, x in bad.items()
]


@pytest.mark.parametrize("call,role,x", REFUSALS)
def test_every_entry_point_refuses_a_value_that_is_not_its_kind_of_number(call, role, x):
    with pytest.raises(MergespaceError) as err:
        call(x)
    assert not isinstance(err.value, BudgetExceededError)  # a True budget is not a 1
    assert role in str(err.value)


FLOAT_TYPES = {float: 64, np.float16: 16, np.float32: 32, np.float64: 64}
INT_TYPES = (int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def reals(lo: float, hi: float):
    """Numbers in [lo, hi] of every type `trees._number` accepts, exact in it."""
    floats = st.sampled_from(list(FLOAT_TYPES)).flatmap(
        lambda f: st.floats(lo, hi, width=FLOAT_TYPES[f]).map(f)
    )

    def ints(f):
        info = np.iinfo(f if f is not int else np.int64)
        return st.integers(max(math.ceil(lo), info.min), min(math.floor(hi), info.max)).map(f)

    return st.one_of(floats, st.sampled_from(INT_TYPES).flatmap(ints))


def _hexes(xs):
    return [float.hex(x) if type(x) is float else x for x in xs]


@settings(max_examples=200)
@given(st.lists(reals(-1e4, 1e4), min_size=2, max_size=6), reals(0, 1), reals(0, 8))
def test_an_accepted_number_keeps_the_bytes_of_its_float(xs, lam, shift):
    fs = [float(x) for x in xs]
    heights = [h for _, h in MergeTree(list(enumerate(xs)), []).vertices]
    assert all(type(h) is float for h in heights) and _hexes(heights) == _hexes(fs)
    points = [(b, d) for b, d in zip(xs, xs[1:]) if float(d) > float(b)] + [(xs[0], math.inf)]
    mine = PersistenceDiagram(points)
    want = PersistenceDiagram([(float(b), float(d)) for b, d in points])
    for field in ("points", "finite", "infinite"):
        assert [_hexes(p) for p in getattr(mine, field)] == [_hexes(p) for p in getattr(want, field)]
    m = SymMatrix([[xs[0], xs[1]], [xs[1], xs[0]]]).array
    assert _hexes(m.ravel().tolist()) == _hexes([fs[0], fs[1], fs[1], fs[0]])
    t, u = geodesic_point(LA, LB, lam), geodesic_point(LA, LB, float(lam))
    assert (_hexes(h for _, h in t.tree.vertices), t.tree.edges, t.labels) == (
        _hexes(h for _, h in u.tree.vertices), u.tree.edges, u.labels
    )
    got, want = map_from_labeling(LA, LB, shift), map_from_labeling(LA, LB, float(shift))
    assert got == want and float.hex(got.delta) == float.hex(want.delta)


def test_a_matrix_entry_beyond_the_64_bit_range_is_read_as_its_float():
    # as a height of that size is: each entry of a nested list is a caller number
    assert SymMatrix([[0.0, 10**20], [10**20, 0.0]]).array.tolist() == [[0.0, 1e20], [1e20, 0.0]]
    assert MergeTree([(0, 10**20)], []).height[0] == 1e20


def _outcome(run):
    try:
        r = run()
    except BudgetExceededError as err:
        return str(err)
    return r


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from(INT_TYPES[1:]), st.integers(1, 120))
def test_a_numpy_integer_count_runs_as_its_int(seed, kind, n):
    a, b = (rand_merge_tree(np.random.default_rng(seed), 4) for _ in range(2))
    assume(n <= np.iinfo(kind).max)
    budget = _outcome(lambda: unlabeled_interleaving(a, b, budget=kind(n)))
    assert budget == _outcome(lambda: unlabeled_interleaving(a, b, budget=n))
    samples = min(n, 12)
    assert geodesic_length(LA, LB, samples=kind(samples)) == geodesic_length(LA, LB, samples=samples)
