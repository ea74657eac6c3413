from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from mergespace import (
    FormatError,
    InvalidTreeError,
    LabelPairing,
    LabeledMergeTree,
    MalformedMapError,
    MergeTree,
    MergespaceError,
    PersistenceDiagram,
    PointOnTree,
    VertexMap,
    labeled_trees_equal,
    labeling_from_map,
    parse_diagram,
    parse_map,
    parse_matrix,
    parse_pairing,
    parse_tree,
    trees_equal,
    write_diagram,
    write_map,
    write_matrix,
    write_pairing,
    write_tree,
)
from mergespace.fileio import fmt_num
from util import rand_diagram, rand_labeled_tree, rand_merge_tree, rand_valid_matrix


def test_fmt_num_prints_integral_floats_as_integers():
    assert fmt_num(3.0) == "3"
    assert fmt_num(-2.0) == "-2"
    assert fmt_num(2.5) == "2.5"
    assert fmt_num(1e-3) == "0.001"


def test_tree_round_trip_preserves_labels_and_shape():
    rng = np.random.default_rng(61)
    for _ in range(30):
        lt = rand_labeled_tree(rng, int(rng.integers(1, 6)), max_leaves=4)
        back = parse_tree(write_tree(lt))
        assert isinstance(back, LabeledMergeTree)
        assert labeled_trees_equal(back, lt)
        assert back.tree.vertices == lt.tree.vertices


def test_bare_tree_round_trip():
    rng = np.random.default_rng(67)
    for _ in range(20):
        t = rand_merge_tree(rng, max_leaves=4)
        back = parse_tree(write_tree(t))
        assert isinstance(back, MergeTree)
        assert trees_equal(back, t)


def test_tree_writes_are_deterministic():
    lt = rand_labeled_tree(np.random.default_rng(71), 4, max_leaves=3)
    assert write_tree(lt) == write_tree(lt)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("nope", "line 1"),
        ("[]", "top level"),
        ('{"vertices": 3, "edges": []}', "missing or non-list"),
        ('{"vertices": [5], "edges": []}', "vertex #1 is not an object"),
        (
            '{"vertices": [{"id": 0.5, "height": 1}], "edges": []}',
            "integer 'id'",
        ),
        (
            '{"vertices": [{"id": 0, "height": 0, "labels": [1]},'
            ' {"id": 1, "height": 2, "labels": [1]}], "edges": [[0, 1]]}',
            "label 1 appears on two vertices",
        ),
        (
            '{"vertices": [{"id": 0, "height": 0}], "edges": [[0]]}',
            "edge #1",
        ),
        # JSON booleans decode as Python bools, which are ints
        ('{"vertices": [{"id": true, "height": 0}], "edges": []}', "integer 'id'"),
        (
            '{"vertices": [{"id": 0, "height": 0, "labels": [true]}], "edges": []}',
            "label True is not an integer",
        ),
        (
            '{"vertices": [{"id": 0, "height": 0}, {"id": 1, "height": 1}],'
            ' "edges": [[0, true]]}',
            "edge #1",
        ),
        (
            '{"vertices": [{"id": 0, "height": 0, "labels": null}], "edges": []}',
            "vertex #1: 'labels' must be a list",
        ),
        (
            '{"vertices": [{"id": 0, "height": 0, "labels": 5}], "edges": []}',
            "vertex #1: 'labels' must be a list",
        ),
    ],
)
def test_tree_parse_errors(text, needle):
    with pytest.raises(FormatError) as err:
        parse_tree(text)
    assert needle in str(err.value)


def test_parse_tree_rejects_invalid_trees():
    text = '{"vertices": [{"id": 0, "height": 0}, {"id": 1, "height": 1}], "edges": []}'
    with pytest.raises(InvalidTreeError):
        parse_tree(text)


def test_matrix_round_trip():
    rng = np.random.default_rng(73)
    for _ in range(30):
        m = rand_valid_matrix(rng, int(rng.integers(1, 7)))
        assert parse_matrix(write_matrix(m)) == m


def test_matrix_accepts_scientific_notation():
    m = parse_matrix("2\n0 1.5e2\n1.5e2 1\n")
    assert m[0, 1] == 150.0


def test_matrix_symmetrizes_within_formatting_noise():
    m = parse_matrix("2\n0 0.1000000000001\n0.1 1\n")
    assert m[0, 1] == m[1, 0]


def test_matrix_rejects_real_asymmetry():
    from mergespace import InvalidMatrixError

    with pytest.raises(InvalidMatrixError):
        parse_matrix("2\n0 1\n2 0\n")


@pytest.mark.parametrize(
    "text,needle",
    [
        ("", "empty matrix"),
        ("x\n", "expected the size"),
        ("0\n", "size must be positive"),
        ("2\n0 1\n", "expected 2 rows"),
        ("2\n0 1\n1\n", "line 3"),
        ("1\ninf\n", "finite"),
        ("2\n0 x\n1 0\n", "line 2: could not convert"),
        ("2\n0 1\n1 0\n5 5 7\n", "line 4: data after the 2 rows"),
        ("2\n0 1\n1 0\n\n \n7\n", "line 6: data after the 2 rows"),
    ],
)
def test_matrix_parse_errors(text, needle):
    with pytest.raises(FormatError) as err:
        parse_matrix(text)
    assert needle in str(err.value)


def test_matrix_accepts_trailing_blank_lines():
    assert parse_matrix("2\n0 1\n1 0\n\n  \n") == parse_matrix("2\n0 1\n1 0\n")


def test_diagram_round_trip_with_infinite_deaths():
    rng = np.random.default_rng(79)
    for _ in range(20):
        d = rand_diagram(rng)
        back = parse_diagram(write_diagram(d))
        assert back.points == d.points


def test_diagram_parse_errors():
    with pytest.raises(FormatError) as err:
        parse_diagram("1 2\n3\n")
    assert "line 2" in str(err.value)
    with pytest.raises(FormatError, match="line 1: could not convert"):
        parse_diagram("1 x\n")


@pytest.mark.parametrize(
    "text, needle",
    [
        ("0 1\n0 1e400\n", "line 2: death 1e400 is infinite"),
        ("0 Infinity\n", "line 1: death Infinity is infinite"),
        ("0 1\n\nnan 1\n", "line 3: non-finite birth nan"),
        ("1 0\n", "line 1: point (1.0, 0.0) has no persistence"),
    ],
)
def test_diagram_bad_points_name_their_line(text, needle):
    # only the literal inf is an essential death: 1e400 would come back as inf
    with pytest.raises(FormatError) as err:
        parse_diagram(text)
    assert needle in str(err.value)


def test_diagram_rejects_backwards_points():
    with pytest.raises(Exception):
        PersistenceDiagram([(2.0, 1.0)])


def test_diagram_rejects_a_nan_death():
    # NaN is neither <= its birth nor finite, so it would pass as essential
    with pytest.raises(MergespaceError, match=r"\(0\.0, nan\)"):
        parse_diagram("0 nan\n1 inf\n")


def test_map_round_trip():
    t1 = MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)])
    t2 = MergeTree([(0, 1.0), (1, 2.0), (2, 4.0)], [(0, 2), (1, 2)])
    vm = VertexMap(t1, t2, 1.0, {0: (0, 1.0), 1: (1, 2.0), 2: (2, 4.0)})
    back = parse_map(write_map(vm))
    assert back.delta == vm.delta
    assert back.images == vm.images
    assert trees_equal(back.source, t1)
    assert trees_equal(back.target, t2)


def test_pairing_round_trip_including_ray_points():
    t1 = MergeTree([(0, 0.0), (1, 0.0), (2, 2.0)], [(0, 2), (1, 2)])
    t2 = MergeTree([(0, 0.0)], [])
    vm = VertexMap(t1, t2, 1.0, {0: (0, 1.0), 1: (0, 1.0), 2: (0, 3.0)})
    pairing = labeling_from_map(vm)
    back = parse_pairing(write_pairing(pairing), t1, t2)
    assert back.pairs == pairing.pairs


WYE = MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)])
WYE_UP = MergeTree([(0, 1.0), (1, 2.0), (2, 4.0)], [(0, 2), (1, 2)])
WYE_MAP = VertexMap(WYE, WYE_UP, 1.0, {0: (0, 1.0), 1: (1, 2.0), 2: (2, 4.0)})


def test_map_images_need_integer_anchors_and_numpy_integers_round_trip():
    # a float anchor would verify, then write a "vertex": 0.0 no parser accepts
    with pytest.raises(MalformedMapError, match=r"vertex id 0\.0 is not an integer"):
        VertexMap(WYE, WYE, 0.0, {0: (0.0, 0.0), 1: (1, 1.0), 2: (2, 3.0)})
    vm = VertexMap(WYE, WYE_UP, 1.0, {v: (np.int64(v), h + 1.0) for v, h in WYE.vertices})
    assert all(type(p.anchor) is int for _, p in vm.images)
    back = parse_map(write_map(vm))
    assert back.images == vm.images


def _edited_map(edit) -> str:
    obj = json.loads(write_map(WYE_MAP))
    edit(obj)
    return json.dumps(obj)


def _edited_pairing(edit) -> str:
    obj = json.loads(write_pairing(labeling_from_map(WYE_MAP)))
    edit(obj)
    return json.dumps(obj)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_map_and_pairing_parsers_refuse_non_finite_heights(x):
    # every comparison with NaN is false, so no goodness check could flag it
    with pytest.raises(MalformedMapError):
        parse_map(_edited_map(lambda obj: obj.update(delta=x)))
    with pytest.raises(FormatError):
        parse_map(_edited_map(lambda obj: obj["images"][0][1].update(height=x)))
    with pytest.raises(FormatError):
        parse_pairing(
            _edited_pairing(lambda obj: obj["pairs"][0][1].update(height=x)), WYE, WYE_UP
        )


@pytest.mark.parametrize("empty", [False, True])
def test_parse_pairing_validates_both_trees_first(empty):
    broken = MergeTree([(0, 0.0), (1, 1.0)], [])
    text = '{"pairs": []}' if empty else write_pairing(labeling_from_map(WYE_MAP))
    for source, target in ((broken, WYE_UP), (WYE, broken)):
        with pytest.raises(InvalidTreeError, match="^invalid merge tree: disconnected"):
            parse_pairing(text, source, target)


def test_parse_pairing_refuses_a_boolean_point_anchor():
    text = _edited_pairing(lambda obj: obj["pairs"][1][0].update(vertex=True))
    with pytest.raises(FormatError, match="vertex id must be an integer"):
        parse_pairing(text, WYE, WYE_UP)


def test_parse_map_refuses_a_boolean_image_id():
    text = _edited_map(lambda obj: obj["images"][1].__setitem__(0, True))
    with pytest.raises(FormatError, match="image #2"):
        parse_map(text)


def _pairing_with_point(point: dict) -> str:
    """The WYE pairing with its second pair's first point replaced."""
    return _edited_pairing(lambda obj: obj["pairs"][1].__setitem__(0, {"tree": 1, **point}))


def test_edge_and_ray_points_round_trip_with_their_parent_ids():
    # vertex 0 of WYE hangs from vertex 2, and vertex 2 is the top
    inner, ray = PointOnTree(0, 0.5), PointOnTree(2, 4.0)
    pairing = LabelPairing(WYE, WYE_UP, ((inner, PointOnTree(1, 2.0)), (ray, PointOnTree(2, 5.0))))
    text = write_pairing(pairing)
    edges = [pair[0]["edge"] for pair in json.loads(text)["pairs"]]
    assert edges == [[0, 2], [2, None]]
    assert parse_pairing(text, WYE, WYE_UP).pairs == pairing.pairs


@pytest.mark.parametrize(
    "edge",
    [[0, "zz"], [0, 1], [0, None], [0, True], [0, 2.0], [2, 0], [2, False]],
    ids=["bad-id", "wrong-parent", "null-below-the-top", "true", "float", "top-to-child", "false-on-the-ray"],
)
def test_parse_pairing_refuses_an_edge_whose_second_id_is_not_the_parent(edge):
    text = _pairing_with_point({"edge": edge, "height": 0.5 if edge[0] == 0 else 4})
    with pytest.raises(FormatError, match=r"pair #2 first point: .* is not an edge"):
        parse_pairing(text, WYE, WYE_UP)


def test_parse_tree_refuses_a_boolean_height():
    with pytest.raises(FormatError, match="numeric 'height'"):
        parse_tree('{"vertices": [{"id": 0, "height": true}], "edges": []}')


def test_parse_pairing_refuses_a_boolean_point_height():
    text = _pairing_with_point({"vertex": 1, "height": True})
    with pytest.raises(FormatError, match="non-numeric height"):
        parse_pairing(text, WYE, WYE_UP)


def test_parse_map_refuses_a_boolean_delta():
    with pytest.raises(FormatError, match="non-numeric delta"):
        parse_map(_edited_map(lambda obj: obj.update(delta=True)))
    with pytest.raises(FormatError, match="image #1: non-numeric height"):
        parse_map(_edited_map(lambda obj: obj["images"][0][1].update(height=False)))


@pytest.mark.parametrize("height", ["1.5", " 2e0 "])
def test_parse_tree_refuses_a_string_height(height):
    text = json.dumps({"vertices": [{"id": 0, "height": height, "labels": [1]}], "edges": []})
    with pytest.raises(FormatError, match="numeric 'height'"):
        parse_tree(text)


def test_parse_pairing_refuses_a_string_point_height():
    text = _pairing_with_point({"vertex": 1, "height": "1"})
    with pytest.raises(FormatError, match="non-numeric height"):
        parse_pairing(text, WYE, WYE_UP)


def test_parse_map_refuses_a_string_delta():
    with pytest.raises(FormatError, match="non-numeric delta"):
        parse_map(_edited_map(lambda obj: obj.update(delta="1.0")))


# a JSON integer of 401 digits: float() overflows on it
HUGE = 10**400


def test_parse_tree_refuses_a_height_too_large_for_a_float():
    text = json.dumps({"vertices": [{"id": 0, "height": HUGE, "labels": [1]}], "edges": []})
    with pytest.raises(FormatError, match="vertex #1: 'height' is too large for a float"):
        parse_tree(text)


def test_parse_pairing_refuses_a_point_height_too_large_for_a_float():
    text = _pairing_with_point({"vertex": 1, "height": HUGE})
    with pytest.raises(FormatError, match="height is too large for a float"):
        parse_pairing(text, WYE, WYE_UP)


def test_parse_map_refuses_a_delta_too_large_for_a_float():
    with pytest.raises(FormatError, match="delta is too large for a float"):
        parse_map(_edited_map(lambda obj: obj.update(delta=HUGE)))


def test_map_parse_errors():
    with pytest.raises(FormatError) as err:
        parse_map('{"source": {}, "target": {}}')
    assert "missing" in str(err.value)


@pytest.mark.parametrize(
    "text,needle",
    [
        (_edited_pairing(lambda obj: obj.update(pairs=5)), "expected an object with a 'pairs' list"),
        (_edited_pairing(lambda obj: obj["pairs"].append(5)), "pair #3 must be a two-point list"),
        (_edited_pairing(lambda obj: obj["pairs"][1].__setitem__(0, 5)), "pair #2 first point: point needs a 'height'"),
        (_pairing_with_point({"vertex": 1}), "pair #2 first point: point needs a 'height'"),
        (_pairing_with_point({"height": 1}), "pair #2 first point: point needs 'vertex' or 'edge'"),
        (_pairing_with_point({"edge": 0, "height": 0.5}), "pair #2 first point: 'edge' must be [childId, parentId]"),
        (_pairing_with_point({"edge": [0], "height": 0.5}), "pair #2 first point: 'edge' must be [childId, parentId]"),
    ],
    ids=["pairs-not-a-list", "pair-not-a-list", "point-not-an-object", "no-height", "no-anchor", "edge-not-a-list", "edge-of-one-id"],
)
def test_pairing_structure_errors(text, needle):
    with pytest.raises(FormatError, match=re.escape(needle)):
        parse_pairing(text, WYE, WYE_UP)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("[]", "top level must be an object"),
        (_edited_map(lambda obj: obj.update(images=5)), "'images' must be a list"),
        (_edited_map(lambda obj: obj["images"].append([2])), "image #4 must be [vertexId, point]"),
        # a second image of vertex 0 would silently replace the first
        (
            _edited_map(lambda obj: obj["images"].append([0, {"vertex": 0, "height": 1.5}])),
            "image #4: vertex 0 already has an image",
        ),
    ],
    ids=["top-level", "images-not-a-list", "image-not-a-pair", "image-listed-twice"],
)
def test_map_structure_errors(text, needle):
    with pytest.raises(FormatError, match=re.escape(needle)):
        parse_map(text)


def test_write_diagram_uses_inf_for_essential_points():
    d = PersistenceDiagram([(0.0, math.inf), (1.0, 3.0)])
    text = write_diagram(d)
    assert "inf" in text.splitlines()[-1] or "inf" in text
    assert parse_diagram(text).points == d.points


def test_matrix_asymmetry_is_judged_against_the_entries_scale():
    from mergespace import InvalidMatrixError

    # entries a factor of 2 apart are different however small they are
    with pytest.raises(InvalidMatrixError):
        parse_matrix("2\n0 1e-15\n2e-15 0\n")
    with pytest.raises(InvalidMatrixError):
        parse_matrix("2\n0 1\n2 0\n")
    # one ULP at 1e6 is rounding, and is averaged away
    big = 1e6
    m = parse_matrix(f"2\n0 {big!r}\n{math.nextafter(big, math.inf)!r} 0\n")
    assert m[0, 1] == m[1, 0]
