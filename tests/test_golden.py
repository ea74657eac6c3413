"""Byte-for-byte CLI output against `tests/golden/`, from one table of rows.

Each row of `ROWS` is one `mergespace` invocation: its argv, the golden
files of its stdout and stderr (a stream with none must stay empty), its
exit code, and the golden of each file it writes (`--witness`, `--dot`).
In the argv, `In` names a golden input and `Writes` a written file.

Three runners read the same rows:

- pytest runs each row in-process through `cli.main`;
- ``python tests/test_golden.py`` runs each row through the installed
  `mergespace` executable, prints every mismatch and exits 1 if a row fails;
- ``python tests/test_golden.py --regenerate`` rewrites the seeded inputs
  and every golden output from the rows through `cli.main`.  Nothing else
  writes them; run it only when an output change is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from mergespace import write_matrix
from mergespace.cli import main

GOLDEN = Path(__file__).parent / "golden"


class In(str):
    """An argv word naming a golden input file."""


class Writes(str):
    """An argv word naming the golden of the file the command writes there."""


class Row(NamedTuple):
    test: str  # the pytest test that runs the row
    id: str | None  # its parameter id; None for a test of one row
    argv: tuple
    out: str | None  # golden stdout
    err: str | None = None  # golden stderr
    code: int = 0
    shows: str = ""  # text the stdout golden must hold


SIZES = (1, 2, 7, 40, 120)
KINDS = ("real", "grid")
UNLABELED = [(kind, leaves) for kind in KINDS for leaves in (2, 3, 4, 5)]
PAIR_SIZES = (7, 40, 120, 200)
DOT_SIZES = (7, 120)
LARGE = 200  # tree inputs only, drawn apart so the smaller files stay as they are
MAPS = {"good": 0, "missed-depth": 2, "merge-spread": 2}  # name -> exit code


def _pair(n) -> tuple:
    return tuple(In(f"{kind}-{n}.tree.json") for kind in KINDS)


def _bare_pair(kind, leaves) -> tuple:
    return tuple(In(f"unlabeled-{kind}-{leaves}.{side}.tree.json") for side in "ab")


ROWS = [
    # seeded matrices and labeled trees, real-valued in general position or on
    # an integer grid full of ties (labels on merge vertices, several
    # components merging at one height): vertex ids, tie handling, label
    # placement and number text; 120 labels take the meet kernel through more
    # than one block, and the grid matrices the single-linkage sweep's ties
    *(Row("test_cli_output_matches_golden", f"{kind}-{n}-{command}",
          (command, In(f"{kind}-{n}.{source}")), f"{command}-{kind}-{n}.out")
      for kind in KINDS for n in SIZES
      for command, source in (("induce", "tree.json"), ("treeify", "matrix.txt"),
                              ("ultrafy", "matrix.txt"))),
    # bare tree pairs with 2 to 5 leaves: the value, and in the witness the
    # order in which the search places labels; the grid pairs' tied heights
    # pin how the meet table breaks ties
    *(Row("test_dist_unlabeled_matches_golden", f"{kind}-{leaves}",
          ("dist", "unlabeled", *_bare_pair(kind, leaves),
           "--witness", Writes(f"unlabeled-{kind}-{leaves}.witness.json")),
          f"dist-unlabeled-{kind}-{leaves}.out")
      for kind, leaves in UNLABELED),
    # a pair whose first probe, at the bottleneck bound, is refuted: the
    # search lists the candidates, bisects them and re-tests below the value;
    # both trees lose single-child vertices whose ids sort after their kept
    # ends
    Row("test_dist_unlabeled_matches_golden", "refuted-first-probe",
        ("dist", "unlabeled", *(In(f"unlabeled-refuted.{side}.tree.json") for side in "ab"),
         "--witness", Writes("unlabeled-refuted.witness.json")),
        "dist-unlabeled-refuted.out"),
    # the elder rule on 120 vertices; the grid tree's tied heights make equal
    # minima meet, and each merge must still pair one death
    *(Row("test_pd_matches_golden", kind, ("pd", In(f"{kind}-120.tree.json")),
          f"pd-{kind}-120.out")
      for kind in KINDS),
    # bottleneck matchings: the 120-vertex pair takes the numpy path, the bare
    # pairs the plain-list path for small diagrams
    Row("test_dist_bottleneck_matches_golden", "real-120-grid-120",
        ("dist", "bottleneck", *_pair(120)), "dist-bottleneck-real-120-grid-120.out"),
    *(Row("test_dist_bottleneck_matches_golden", f"unlabeled-{kind}-{leaves}",
          ("dist", "bottleneck", *_bare_pair(kind, leaves)),
          f"dist-bottleneck-unlabeled-{kind}-{leaves}.out")
      for kind, leaves in UNLABELED),
    # checkmap's verdict and exit code on a good map, one that misses a target
    # branch too deep and one that sends two branches to one point too far
    # below their merge
    *(Row("test_checkmap_matches_golden", name, ("checkmap", In(f"checkmap-{name}.map.json")),
          f"checkmap-{name}.out", code=code)
      for name, code in MAPS.items()),
    # the labeled distance between the real and the grid tree of each size
    *(Row("test_dist_labeled_matches_golden", str(n), ("dist", "labeled", *_pair(n)),
          f"dist-labeled-real-{n}-grid-{n}.out")
      for n in SIZES),
    # geodesic points and 1-centers, the center's radius on stderr; at 200
    # labels the meet kernel runs through four column blocks and Borůvka
    # through more rounds than at 120
    *(Row("test_geodesic_matches_golden", str(n), ("geodesic", *_pair(n), "--lambda", "0.5"),
          f"geodesic-real-{n}-grid-{n}.out")
      for n in PAIR_SIZES),
    # the same midpoints with `--dot`: the DOT files pin `to_dot` on a tree
    # built from a matrix, and `--dot` leaves stdout as it is
    *(Row("test_geodesic_dot_matches_golden", str(n),
          ("geodesic", *_pair(n), "--lambda", "0.5",
           "--dot", Writes(f"geodesic-real-{n}-grid-{n}.dot")),
          f"geodesic-real-{n}-grid-{n}.out")
      for n in DOT_SIZES),
    Row("test_geodesic_at_a_quarter_matches_golden", None,
        ("geodesic", *_pair(LARGE), "--lambda", "0.25"),
        f"geodesic-quarter-real-{LARGE}-grid-{LARGE}.out"),
    *(Row("test_center_matches_golden", str(n), ("center", *_pair(n)),
          f"center-real-{n}-grid-{n}.out", f"center-real-{n}-grid-{n}.err")
      for n in PAIR_SIZES),
    # a matrix the bulk read refuses is read again row by row, so the message
    # names the short row's line
    Row("test_a_short_matrix_row_is_reported_by_its_line", None,
        ("ultrafy", In("real-120-short-row.matrix.txt")), None,
        "ultrafy-real-120-short-row.err", code=2),
    # heights -0.0 and 0.0 on distinct vertices: number text keeps a zero's sign
    Row("test_induce_keeps_zero_signs", None, ("induce", In("signed-zero.tree.json")),
        "induce-signed-zero.out", shows="-0.0"),
]


def _written(row) -> list:
    """The golden files of the files the row's command writes."""
    return [word for word in row.argv if isinstance(word, Writes)]


def _command(row) -> tuple:
    """The row's argv without the files it writes and the flags that name them."""
    after = row.argv[1:] + ("",)
    return tuple(word for word, next_word in zip(row.argv, after)
                 if not isinstance(word, Writes) and not isinstance(next_word, Writes))


def _argv(row, outdir: Path) -> list:
    return [str(GOLDEN / word) if isinstance(word, In)
            else str(outdir / word) if isinstance(word, Writes)
            else word for word in row.argv]


def _in_process(row, outdir: Path) -> tuple:
    """Exit code, stdout and stderr of the row run through `cli.main`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(row, outdir))
    return code, out.getvalue(), err.getvalue()


def _installed(row, outdir: Path) -> tuple:
    """Exit code, stdout and stderr of the row run through the `mergespace` executable."""
    done = subprocess.run(["mergespace", *_argv(row, outdir)], capture_output=True)
    return done.returncode, done.stdout.decode(), done.stderr.decode()


def _golden(name: str | None) -> str:
    return (GOLDEN / name).read_bytes().decode() if name else ""


def _mismatches(row, code, out, err, outdir: Path) -> list:
    """Each way a run of the row differs from its goldens, as text to print."""
    found = [] if code == row.code else [f"exit code {code}, golden {row.code}"]
    if row.shows not in _golden(row.out):
        found.append(f"{row.out} does not show {row.shows!r}")
    streams = {"stdout": (out, row.out), "stderr": (err, row.err)}
    for name in _written(row):
        path = outdir / name
        streams[name] = (path.read_bytes().decode() if path.exists() else None, name)
    for stream, (got, name) in streams.items():
        want = _golden(name)
        if got is None:
            found.append(f"{stream} not written")
        elif got != want:
            diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                        name or "(empty)", stream, lineterm="")
            found.append(f"{stream} differs:\n" + "\n".join(list(diff)[:20]))
    return found


def _golden_test(rows):
    """A pytest test that runs `rows` in-process, one parameter per row id."""

    def test(row, tmp_path):
        found = _mismatches(row, *_in_process(row, tmp_path), tmp_path)
        assert not found, "\n".join(found)

    if rows[0].id is None:
        return lambda tmp_path: test(rows[0], tmp_path)
    return pytest.mark.parametrize("row", rows, ids=[row.id for row in rows])(test)


# one pytest test per `Row.test`, so a row's node id names what it pins
for _name in dict.fromkeys(row.test for row in ROWS):
    globals()[_name] = _golden_test([row for row in ROWS if row.test == _name])


def test_every_golden_file_belongs_to_the_table():
    commands = {}  # output golden -> the commands whose output it is
    for row in ROWS:
        for name in (row.out, row.err, *_written(row)):
            if name:
                commands.setdefault(name, set()).add(_command(row))
    shared = sorted(name for name, seen in commands.items() if len(seen) > 1)
    assert not shared, f"output goldens of two commands: {shared}"
    written = [name for row in ROWS for name in (row.err, *_written(row)) if name]
    assert len(written) == len(set(written)), "a stderr or written golden belongs to two rows"
    inputs = {word for row in ROWS for word in row.argv if isinstance(word, In)}
    assert {path.name for path in GOLDEN.iterdir()} == inputs | set(commands)


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


def _write_refuted_pair():
    from mergespace import MergeTree, write_tree

    pair = {
        "a": MergeTree([(0, 1.0), (1, 0.0), (2, 1.0), (3, 3.0), (4, 5.0), (5, 4.0), (6, 2.0)],
                       [(0, 6), (1, 4), (2, 3), (3, 5), (5, 4), (6, 3)]),
        "b": MergeTree([(0, 2.0), (1, 1.0), (2, 0.0), (3, 4.0), (4, 6.0), (5, 2.0)],
                       [(0, 4), (1, 5), (2, 3), (3, 4), (5, 3)]),
    }
    for side, t in pair.items():
        (GOLDEN / f"unlabeled-refuted.{side}.tree.json").write_text(write_tree(t))


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


def _run_rows(run, regenerate=False) -> int:
    """Run every row, print each mismatch, and return 1 if any row failed."""
    failed = 0
    for row in ROWS:
        with tempfile.TemporaryDirectory() as tmp:
            outdir = GOLDEN if regenerate else Path(tmp)
            code, out, err = run(row, outdir)
            if regenerate:
                for name, text in ((row.out, out), (row.err, err)):
                    if name:
                        (GOLDEN / name).write_text(text)
            found = _mismatches(row, code, out, err, outdir)
        if found:
            failed += 1
            print("FAIL: mergespace " + " ".join(row.argv), *found, sep="\n")
    print(f"{len(ROWS) - failed} of {len(ROWS)} golden rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Run every golden row through the installed `mergespace` executable.")
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the seeded inputs and every golden output through `cli.main`")
    if not parser.parse_args().regenerate:
        sys.exit(_run_rows(_installed))
    GOLDEN.mkdir(exist_ok=True)
    _write_inputs(np.random.default_rng(20191))
    _write_pairs(np.random.default_rng(20192))
    _write_large_trees(np.random.default_rng(20193))
    _write_short_row()
    _write_maps()
    _write_signed_zero()
    _write_refuted_pair()
    sys.exit(_run_rows(_in_process, regenerate=True))
