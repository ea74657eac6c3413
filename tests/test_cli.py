from __future__ import annotations

import json
import warnings

import pytest

from mergespace import (
    MergeTree,
    VertexMap,
    parse_matrix,
    parse_tree,
    write_map,
    write_tree,
)
from mergespace.cli import main

WYE = {
    "vertices": [
        {"id": 0, "height": 0.0, "labels": [1]},
        {"id": 1, "height": 1.0, "labels": [2]},
        {"id": 2, "height": 3.0},
    ],
    "edges": [[0, 2], [1, 2]],
}

WYE_UP = {
    "vertices": [
        {"id": 0, "height": 1.0, "labels": [1]},
        {"id": 1, "height": 2.0, "labels": [2]},
        {"id": 2, "height": 4.0},
    ],
    "edges": [[0, 2], [1, 2]],
}


@pytest.fixture
def files(tmp_path):
    t1 = tmp_path / "t1.json"
    t2 = tmp_path / "t2.json"
    t1.write_text(json.dumps(WYE))
    t2.write_text(json.dumps(WYE_UP))
    m = tmp_path / "m.txt"
    m.write_text("3\n0 3 1\n3 0 1\n1 1 0\n")
    return tmp_path


def test_validate_ok(files, capsys):
    assert main(["validate", str(files / "t1.json")]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_reports_violations(files, capsys):
    bad = files / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": 0, "height": 0.0},
                    {"id": 1, "height": 1.0},
                ],
                "edges": [],
            }
        )
    )
    assert main(["validate", str(bad)]) == 2
    assert "disconnected" in capsys.readouterr().err


def test_validate_refuses_a_negative_vertex_id(files, capsys):
    bad = files / "negative.json"
    bad.write_text(json.dumps({"vertices": [{"id": -1, "height": 0.0, "labels": [1]}],
                               "edges": []}))
    assert main(["validate", str(bad)]) == 2
    assert "vertex id -1 is negative" in capsys.readouterr().err


def test_induce_prints_the_matrix(files, capsys):
    assert main(["induce", str(files / "t1.json")]) == 0
    out = capsys.readouterr().out
    assert out == "2\n0 3\n3 1\n"


def test_treeify_round_trips_through_induce(files, capsys, tmp_path):
    assert main(["treeify", str(files / "m.txt")]) == 0
    tree_json = capsys.readouterr().out
    parsed = parse_tree(tree_json)
    assert len(parsed.tree.vertices) == 4


def test_ultrafy_output(files, capsys):
    assert main(["ultrafy", str(files / "m.txt")]) == 0
    assert capsys.readouterr().out == "3\n0 1 1\n1 0 1\n1 1 0\n"


def test_outputs_are_byte_stable(files, capsys):
    for cmd in (
        ["induce", str(files / "t1.json")],
        ["treeify", str(files / "m.txt")],
        ["pd", str(files / "t1.json")],
    ):
        assert main(cmd) == 0
        first = capsys.readouterr().out
        assert main(cmd) == 0
        assert capsys.readouterr().out == first


def test_dist_labeled(files, capsys):
    assert main(
        ["dist", "labeled", str(files / "t1.json"), str(files / "t2.json")]
    ) == 0
    assert capsys.readouterr().out == "1\n"


def test_dist_bottleneck(files, capsys):
    assert main(
        ["dist", "bottleneck", str(files / "t1.json"), str(files / "t2.json")]
    ) == 0
    assert capsys.readouterr().out == "1\n"


def test_dist_unlabeled_writes_witness_to_stderr(files, capsys):
    assert main(
        ["dist", "unlabeled", str(files / "t1.json"), str(files / "t2.json")]
    ) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert '"pairs"' in captured.err


def test_dist_unlabeled_witness_file(files, capsys):
    out = files / "w.json"
    assert main(
        [
            "dist",
            "unlabeled",
            str(files / "t1.json"),
            str(files / "t2.json"),
            "--witness",
            str(out),
        ]
    ) == 0
    captured = capsys.readouterr()
    assert '"pairs"' in out.read_text()
    assert '"pairs"' not in captured.err


def test_dist_unlabeled_budget_exit_code(files, capsys):
    code = main(
        [
            "dist",
            "unlabeled",
            str(files / "t1.json"),
            str(files / "t2.json"),
            "--budget",
            "1",
        ]
    )
    assert code == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_dist_unlabeled_refuses_a_budget_below_one(files, capsys, budget):
    code = main(
        ["dist", "unlabeled", str(files / "t1.json"), str(files / "t2.json"), "--budget", budget]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: search budget must be at least 1, got {budget}\n"


def test_geodesic_midpoint_and_dot(files, capsys):
    dot = files / "mid.dot"
    assert main(
        [
            "geodesic",
            str(files / "t1.json"),
            str(files / "t2.json"),
            "--lambda",
            "0.5",
            "--dot",
            str(dot),
        ]
    ) == 0
    mid = parse_tree(capsys.readouterr().out)
    assert sorted(mid.tree.height.values()) == [0.5, 1.5, 3.5]
    assert dot.read_text().startswith("digraph")


def test_center_prints_tree_and_radius(files, capsys):
    assert main(
        ["center", str(files / "t1.json"), str(files / "t2.json")]
    ) == 0
    captured = capsys.readouterr()
    center = parse_tree(captured.out)
    assert center.validation.ok
    assert captured.err == "radius 0.5\n"


def test_pd_output(files, capsys):
    assert main(["pd", str(files / "t1.json")]) == 0
    assert capsys.readouterr().out == "0 inf\n1 3\n"


def test_checkmap_good_and_bad(files, capsys):
    t1 = MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)])
    t2 = MergeTree([(0, 1.0), (1, 2.0), (2, 4.0)], [(0, 2), (1, 2)])
    images = {0: (0, 1.0), 1: (1, 2.0), 2: (2, 4.0)}
    good = files / "good.map"
    good.write_text(write_map(VertexMap(t1, t2, 1.0, images)))
    bad = files / "bad.map"
    bad.write_text(write_map(VertexMap(t1, t2, 0.4, images)))

    assert main(["checkmap", str(good)]) == 0
    assert capsys.readouterr().out == "good\n"
    assert main(["checkmap", str(bad)]) == 2
    assert "height-shift" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["delta", "image height"])
def test_checkmap_refuses_a_nan_map(files, capsys, key):
    t1 = MergeTree([(0, 0.0)], [])
    obj = json.loads(write_map(VertexMap(t1, t1, 0.0, {0: (0, 0.0)})))
    if key == "delta":
        obj["delta"] = float("nan")
    else:
        obj["images"][0][1]["height"] = float("nan")
    nan = files / "nan.map"
    nan.write_text(json.dumps(obj))
    assert main(["checkmap", str(nan)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "nan" in out.err


def test_missing_file_is_a_domain_error(files, capsys):
    assert main(["induce", str(files / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["dist", "nope", "a", "b"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "mergespace" in capsys.readouterr().out


def test_malformed_tree_file_is_a_domain_error(files, capsys):
    bad = files / "broken.json"
    bad.write_text("{")
    assert main(["validate", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_height_too_large_for_a_float_is_a_domain_error(files, capsys):
    huge = files / "huge.json"
    huge.write_text(json.dumps({"vertices": [{"id": 0, "height": 10**400, "labels": [1]}],
                                "edges": []}))
    assert main(["induce", str(huge)]) == 2
    assert "error:" in capsys.readouterr().err


def test_induce_refuses_a_bare_tree(files, capsys):
    bare = files / "bare.json"
    bare.write_text(write_tree(MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)])))
    assert main(["induce", str(bare)]) == 2
    assert capsys.readouterr().err == f"error: {bare}: tree carries no labels\n"


def test_dist_unlabeled_warns_when_uncertified(files, capsys):
    # at a 2**40 offset the re-test shift 1 - 1e-6 lies within the tolerance
    # of 1, so the re-test finds a placement and the value stays uncertified
    off = 2.0**40
    for name, heights in (("a", (0.0, 1.0, 3.0)), ("b", (0.0, 2.0, 3.5))):
        tree = MergeTree([(v, off + h) for v, h in enumerate(heights)], [(0, 2), (1, 2)])
        (files / f"{name}.json").write_text(write_tree(tree))
    out = files / "w.json"
    argv = ["dist", "unlabeled", str(files / "a.json"), str(files / "b.json"), "--witness", str(out)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n"
    assert captured.err == "warning: uncertified; the distance lies in (0.75, 1]\n"


def test_ultrafy_refuses_an_asymmetry_that_overflows(files, capsys):
    # the gap between 1.7e308 and -1.7e308 overflows; the file used to be
    # read as a zero matrix after a numpy overflow warning, and printed
    bad = files / "opposite.txt"
    bad.write_text("2\n0 1.7e308\n-1.7e308 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["ultrafy", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: matrix is not symmetric (largest asymmetry inf)\n"
