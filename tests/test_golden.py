"""Byte-for-byte CLI output against files captured from the earlier code.

`tests/golden/` holds seeded inputs and the stdout that `treeify`,
`ultrafy` and `induce` printed for them before the matrix layer was
rewritten around the minimum spanning tree.  Real-valued inputs are in
general position; integer-grid inputs are full of ties, so labels land on
merge vertices and several components merge at one height.  Any change to
vertex ids, tie handling, label placement or number formatting shows up
here as a diff.

It also holds seeded bare tree pairs with 2 to 5 leaves, with the stdout
and the `--witness` file of `dist unlabeled` as printed by the ascending
scan over candidate shifts, before the search was bisected.  A change to
the value, the witness placement or its order shows up here.

Finally it holds the stdout of `pd` and `dist bottleneck` as printed while
the bottleneck matchings were grown by Hopcroft-Karp.  The 120-vertex
trees take the numpy path of `bottleneck_distance`, the unlabeled pairs the
plain-list path for small diagrams.

And it holds three shift maps with the stdout and exit code of `checkmap`:
a good one, one that misses a target branch too deep (missed-depth) and
one that sends two branches to one point too far below their merge
(merge-spread), captured before the missed-depth check read subtree
heights from the meet table.

Last, it holds the stdout of `dist labeled` between the real and the grid
tree of each size, captured while the distance was the largest entry gap of
two built matrices, before it was read off the two label walks.

And the stdout of `geodesic --lambda 0.5` and of `center` between the real
and the grid tree of sizes 7, 40 and 120, with the `radius` line `center`
writes to stderr, captured while the center's radius was the largest entry
gap of the center's matrix against the inputs' matrices.

And the same two `geodesic` points and `center`'s output between two
200-label trees, `real-200` and `grid-200`, captured before the meet kernel
filled the upper triangle block by block and before the single-linkage
sweep kept its vertices in lists: at 200 labels the kernel runs through
four column blocks and Borůvka through more rounds than at 120 labels.
`geodesic --lambda 0.25` is pinned there too.

And `real-120` with the last entry of row 100 dropped, with the stderr of
`ultrafy` on it, which exits 2: a file the bulk matrix read refuses is
read again row by row, so the message names the short row's line.

And a five-vertex labeled tree with heights -0.0 and 0.0 on distinct
vertices, with the stdout of `induce` on it, which prints -0.0 where the
matrix holds it: captured once number text kept the sign of a zero.

And the DOT file that `geodesic --lambda 0.5 --dot` writes for the 7- and
120-label pairs, captured before a tree built from a matrix stopped keeping
the single-linkage sweep's label walk: a change to `to_dot`, to the tree's
ids, heights or labels, or to number text shows up as a diff.

Regenerate the files (only when an output change is intended) with
``PYTHONPATH=src:tests python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from mergespace import write_matrix
from mergespace.cli import main

GOLDEN = Path(__file__).parent / "golden"
SIZES = (1, 2, 7, 40, 120)
KINDS = ("real", "grid")
CASES = [(kind, n) for kind in KINDS for n in SIZES]
COMMANDS = {"treeify": "matrix.txt", "ultrafy": "matrix.txt", "induce": "tree.json"}


def _stdout(argv, code=0) -> str:
    return _outputs(argv, code)[0]


def _outputs(argv, code=0) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    return out.getvalue(), err.getvalue()


UNLABELED = [(kind, leaves) for kind in KINDS for leaves in (2, 3, 4, 5)]


@pytest.mark.parametrize("kind,leaves", UNLABELED)
def test_dist_unlabeled_matches_golden(kind, leaves, tmp_path):
    stem = GOLDEN / f"unlabeled-{kind}-{leaves}"
    witness = tmp_path / "witness.json"
    argv = ["dist", "unlabeled", f"{stem}.a.tree.json", f"{stem}.b.tree.json",
            "--witness", str(witness)]
    assert _stdout(argv) == (GOLDEN / f"dist-unlabeled-{kind}-{leaves}.out").read_text()
    assert witness.read_text() == Path(f"{stem}.witness.json").read_text()


@pytest.mark.parametrize("kind", KINDS)
def test_pd_matches_golden(kind):
    want = (GOLDEN / f"pd-{kind}-120.out").read_text()
    assert _stdout(["pd", str(GOLDEN / f"{kind}-120.tree.json")]) == want


BOTTLENECK = {
    "real-120-grid-120": (GOLDEN / "real-120.tree.json", GOLDEN / "grid-120.tree.json"),
    **{
        f"unlabeled-{kind}-{leaves}": (
            GOLDEN / f"unlabeled-{kind}-{leaves}.a.tree.json",
            GOLDEN / f"unlabeled-{kind}-{leaves}.b.tree.json",
        )
        for kind, leaves in UNLABELED
    },
}


@pytest.mark.parametrize("name", sorted(BOTTLENECK))
def test_dist_bottleneck_matches_golden(name):
    a, b = BOTTLENECK[name]
    want = (GOLDEN / f"dist-bottleneck-{name}.out").read_text()
    assert _stdout(["dist", "bottleneck", str(a), str(b)]) == want


MAPS = {"good": 0, "missed-depth": 2, "merge-spread": 2}  # name -> exit code


@pytest.mark.parametrize("name", sorted(MAPS))
def test_checkmap_matches_golden(name):
    want = (GOLDEN / f"checkmap-{name}.out").read_text()
    assert _stdout(["checkmap", str(GOLDEN / f"checkmap-{name}.map.json")], MAPS[name]) == want


@pytest.mark.parametrize("n", SIZES)
def test_dist_labeled_matches_golden(n):
    a, b = (GOLDEN / f"{kind}-{n}.tree.json" for kind in KINDS)
    want = (GOLDEN / f"dist-labeled-real-{n}-grid-{n}.out").read_text()
    assert _stdout(["dist", "labeled", str(a), str(b)]) == want


PAIR_SIZES = (7, 40, 120, 200)
LARGE = 200  # tree inputs only, drawn apart so the smaller files stay as they are


def _pair(n) -> list:
    return [str(GOLDEN / f"{kind}-{n}.tree.json") for kind in KINDS]


@pytest.mark.parametrize("n", PAIR_SIZES)
def test_geodesic_matches_golden(n):
    want = (GOLDEN / f"geodesic-real-{n}-grid-{n}.out").read_text()
    assert _stdout(["geodesic", *_pair(n), "--lambda", "0.5"]) == want


DOT_SIZES = (7, 120)


@pytest.mark.parametrize("n", DOT_SIZES)
def test_geodesic_dot_matches_golden(n, tmp_path):
    dot = tmp_path / "geodesic.dot"
    _stdout(["geodesic", *_pair(n), "--lambda", "0.5", "--dot", str(dot)])
    assert dot.read_text() == (GOLDEN / f"geodesic-real-{n}-grid-{n}.dot").read_text()


def test_geodesic_at_a_quarter_matches_golden():
    want = (GOLDEN / f"geodesic-quarter-real-{LARGE}-grid-{LARGE}.out").read_text()
    assert _stdout(["geodesic", *_pair(LARGE), "--lambda", "0.25"]) == want


@pytest.mark.parametrize("n", PAIR_SIZES)
def test_center_matches_golden(n):
    stem = GOLDEN / f"center-real-{n}-grid-{n}"
    out, err = _outputs(["center", *_pair(n)])
    assert out == Path(f"{stem}.out").read_text()
    assert err == Path(f"{stem}.err").read_text()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("kind,n", CASES)
def test_cli_output_matches_golden(command, kind, n):
    source = GOLDEN / f"{kind}-{n}.{COMMANDS[command]}"
    want = (GOLDEN / f"{command}-{kind}-{n}.out").read_text()
    assert _stdout([command, str(source)]) == want


def test_a_short_matrix_row_is_reported_by_its_line():
    source = GOLDEN / "real-120-short-row.matrix.txt"
    out, err = _outputs(["ultrafy", str(source)], 2)
    assert out == ""
    assert err == (GOLDEN / "ultrafy-real-120-short-row.err").read_text()


def test_induce_keeps_zero_signs():
    want = (GOLDEN / "induce-signed-zero.out").read_text()
    assert "-0.0" in want
    assert _stdout(["induce", str(GOLDEN / "signed-zero.tree.json")]) == want


def _write_inputs(rng):
    from mergespace import write_tree
    from util import rand_labeled_tree, rand_valid_matrix

    for kind in KINDS:
        for n in SIZES:
            grid = kind == "grid"
            m = rand_valid_matrix(rng, n, integral=grid)
            (GOLDEN / f"{kind}-{n}.matrix.txt").write_text(write_matrix(m))
            t = rand_labeled_tree(rng, n, max_leaves=n, integral=grid)
            (GOLDEN / f"{kind}-{n}.tree.json").write_text(write_tree(t))


def _write_large_trees(rng):
    """Grown trees on 150 leaves, 50 of the labels on random vertices."""
    from mergespace import write_tree
    from util import _label_tree, rand_grown_tree

    for kind in KINDS:
        t = _label_tree(rng, rand_grown_tree(rng, 150, integral=kind == "grid"), LARGE)
        (GOLDEN / f"{kind}-{LARGE}.tree.json").write_text(write_tree(t))


def _write_pairs(rng):
    from mergespace import write_tree
    from util import rand_merge_tree

    def tree_with(leaves, grid):
        while True:
            t = rand_merge_tree(rng, max_leaves=leaves, integral=grid)
            if len(t.leaves) == leaves:
                return t

    for kind, leaves in UNLABELED:
        stem = GOLDEN / f"unlabeled-{kind}-{leaves}"
        for side in "ab":
            t = tree_with(leaves, kind == "grid")
            Path(f"{stem}.{side}.tree.json").write_text(write_tree(t))


def _write_short_row():
    lines = (GOLDEN / "real-120.matrix.txt").read_text().splitlines(keepends=True)
    lines[100] = lines[100].rsplit(" ", 1)[0] + "\n"  # row 100 loses its last entry
    (GOLDEN / "real-120-short-row.matrix.txt").write_text("".join(lines))


def _write_signed_zero():
    from mergespace import LabeledMergeTree, MergeTree, write_tree

    t = MergeTree([(0, -1.0), (1, -2.0), (2, -0.0), (3, 0.0), (4, 1.0)],
                  [(0, 2), (1, 2), (2, 4), (3, 4)])
    lt = LabeledMergeTree(t, {1: 0, 2: 1, 3: 2, 4: 3})
    (GOLDEN / "signed-zero.tree.json").write_text(write_tree(lt))


def _write_maps():
    from mergespace import MergeTree, VertexMap, write_map

    wye = MergeTree([(0, 0.0), (1, 1.0), (2, 3.0)], [(0, 2), (1, 2)])
    wye_up = MergeTree([(0, 1.0), (1, 2.0), (2, 4.0)], [(0, 2), (1, 2)])
    stick = MergeTree([(0, 0.0), (1, 4.0)], [(0, 1)])
    deep = MergeTree([(0, 0.0), (1, 1.0), (2, 4.0), (3, 5.0)], [(0, 2), (1, 2), (2, 3)])
    vee = MergeTree([(0, 0.0), (1, 0.0), (2, 5.0)], [(0, 2), (1, 2)])
    maps = {
        "good": VertexMap(wye, wye_up, 1.0, {0: (0, 1.0), 1: (1, 2.0), 2: (2, 4.0)}),
        "missed-depth": VertexMap(stick, deep, 1.0, {0: (0, 1.0), 1: (3, 5.0)}),
        "merge-spread": VertexMap(vee, MergeTree([(0, 0.0), (1, 6.0)], [(0, 1)]), 1.0,
                                  {0: (0, 1.0), 1: (0, 1.0), 2: (0, 6.0)}),
    }
    for name, vm in maps.items():
        (GOLDEN / f"checkmap-{name}.map.json").write_text(write_map(vm))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    _write_inputs(np.random.default_rng(20191))
    for kind, n in CASES:
        for command, suffix in COMMANDS.items():
            out = _stdout([command, str(GOLDEN / f"{kind}-{n}.{suffix}")])
            (GOLDEN / f"{command}-{kind}-{n}.out").write_text(out)
    _write_pairs(np.random.default_rng(20192))
    _write_large_trees(np.random.default_rng(20193))
    for kind, leaves in UNLABELED:
        stem = GOLDEN / f"unlabeled-{kind}-{leaves}"
        out = _stdout(["dist", "unlabeled", f"{stem}.a.tree.json",
                       f"{stem}.b.tree.json", "--witness", f"{stem}.witness.json"])
        (GOLDEN / f"dist-unlabeled-{kind}-{leaves}.out").write_text(out)
    for kind in KINDS:
        out = _stdout(["pd", str(GOLDEN / f"{kind}-120.tree.json")])
        (GOLDEN / f"pd-{kind}-120.out").write_text(out)
    for name, (a, b) in BOTTLENECK.items():
        out = _stdout(["dist", "bottleneck", str(a), str(b)])
        (GOLDEN / f"dist-bottleneck-{name}.out").write_text(out)
    for n in SIZES:
        out = _stdout(["dist", "labeled", *(str(GOLDEN / f"{kind}-{n}.tree.json") for kind in KINDS)])
        (GOLDEN / f"dist-labeled-real-{n}-grid-{n}.out").write_text(out)
    for n in PAIR_SIZES:
        out = _stdout(["geodesic", *_pair(n), "--lambda", "0.5"])
        (GOLDEN / f"geodesic-real-{n}-grid-{n}.out").write_text(out)
        out, err = _outputs(["center", *_pair(n)])
        (GOLDEN / f"center-real-{n}-grid-{n}.out").write_text(out)
        (GOLDEN / f"center-real-{n}-grid-{n}.err").write_text(err)
    for n in DOT_SIZES:
        _stdout(["geodesic", *_pair(n), "--lambda", "0.5", "--dot",
                 str(GOLDEN / f"geodesic-real-{n}-grid-{n}.dot")])
    out = _stdout(["geodesic", *_pair(LARGE), "--lambda", "0.25"])
    (GOLDEN / f"geodesic-quarter-real-{LARGE}-grid-{LARGE}.out").write_text(out)
    _write_short_row()
    _, err = _outputs(["ultrafy", str(GOLDEN / "real-120-short-row.matrix.txt")], 2)
    (GOLDEN / "ultrafy-real-120-short-row.err").write_text(err)
    _write_maps()
    for name, code in MAPS.items():
        out = _stdout(["checkmap", str(GOLDEN / f"checkmap-{name}.map.json")], code)
        (GOLDEN / f"checkmap-{name}.out").write_text(out)
    _write_signed_zero()
    out = _stdout(["induce", str(GOLDEN / "signed-zero.tree.json")])
    (GOLDEN / "induce-signed-zero.out").write_text(out)
