"""numpy is imported on first use: the paths that never call it leave it unloaded.

The other test files import numpy before mergespace, so the stand-in
`trees.np` finds numpy already loaded on its first read; each test here
runs a fresh interpreter, where `import mergespace` leaves numpy unloaded
until some path reads `np`.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import mergespace
from mergespace import (
    bottleneck_tree_distance,
    canonicalize_tree,
    induced_matrix,
    labeled_interleaving,
    parse_matrix,
    parse_tree,
    persistence_diagram,
    unlabeled_interleaving,
    write_matrix,
)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(mergespace.__file__).resolve().parent.parent
BARE = [f"unlabeled-{kind}-{leaves}" for kind in ("real", "grid") for leaves in (2, 3, 4, 5)]


def _fresh(script: str, *args) -> dict:
    """Run `script` in a fresh interpreter that imports this mergespace; the
    JSON object its last stdout line prints."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(script), *map(str, args)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _values(trees: dict) -> dict:
    """What the numpy-free calls return on the golden bare pairs and real-120."""
    out = {}
    for name in BARE:
        a, b = trees[f"{name}.a"], trees[f"{name}.b"]
        d1, d2 = persistence_diagram(a), persistence_diagram(b)
        assert max(len(d1.finite), len(d2.finite)) <= 8  # the plain-list bottleneck path
        found = unlabeled_interleaving(a, b)
        assert found.probes == 1
        out[name] = [repr(bottleneck_tree_distance(a, b)), repr(found.value)]
    t = trees["real-120"]
    out["real-120"] = [repr(persistence_diagram(t).points), repr(canonicalize_tree(t.tree).vertices)]
    return out


def test_tree_reads_diagrams_and_small_searches_leave_numpy_unloaded(tmp_path):
    got = _fresh(
        """
        import contextlib, io
        from pathlib import Path

        import mergespace as ms
        from mergespace import cli

        loaded = {"import": "numpy" in sys.modules}
        golden, out = Path(sys.argv[1]), Path(sys.argv[2])
        names = [f"{n}.{side}" for n in json.loads(sys.argv[3]) for side in "ab"] + ["real-120"]
        trees = {n: ms.parse_tree((golden / f"{n}.tree.json").read_text()) for n in names}
        loaded["parse"] = "numpy" in sys.modules
        values = {}
        for n in json.loads(sys.argv[3]):
            a, b = trees[f"{n}.a"], trees[f"{n}.b"]
            found = ms.unlabeled_interleaving(a, b)
            values[n] = [repr(ms.bottleneck_tree_distance(a, b)), repr(found.value)]
        t = trees["real-120"]
        values["real-120"] = [repr(ms.persistence_diagram(t).points),
                              repr(ms.canonicalize_tree(t.tree).vertices)]
        loaded["calls"] = "numpy" in sys.modules

        def run(*argv):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([str(a) for a in argv])
            return [code, stdout.getvalue()]

        tree = golden / "real-120.tree.json"
        pair = [golden / "unlabeled-real-5.a.tree.json", golden / "unlabeled-real-5.b.tree.json"]
        grid = [golden / "unlabeled-grid-5.a.tree.json", golden / "unlabeled-grid-5.b.tree.json"]
        commands = {
            "validate": run("validate", tree),
            "pd": run("pd", tree),
            "unlabeled": run("dist", "unlabeled", *pair, "--witness", out),
            "bottleneck": run("dist", "bottleneck", *grid),
        }
        loaded["cli"] = "numpy" in sys.modules
        matrix = ms.parse_matrix((golden / "real-7.matrix.txt").read_text())
        loaded["parse_matrix"] = "numpy" in sys.modules
        commands["treeify"] = run("treeify", golden / "real-7.matrix.txt")
        print(json.dumps({"loaded": loaded, "values": values, "commands": commands,
                          "matrix": ms.write_matrix(matrix)}))
        """,
        GOLDEN, tmp_path / "witness.json", json.dumps(BARE),
    )
    assert got["loaded"] == {"import": False, "parse": False, "calls": False, "cli": False,
                             "parse_matrix": True}
    trees = {f"{n}.{side}": parse_tree((GOLDEN / f"{n}.{side}.tree.json").read_text())
             for n in BARE for side in "ab"}
    trees["real-120"] = parse_tree((GOLDEN / "real-120.tree.json").read_text())
    assert got["values"] == _values(trees)
    commands = got["commands"]
    assert commands["validate"] == [0, "ok\n"]
    assert commands["pd"] == [0, (GOLDEN / "pd-real-120.out").read_text()]
    assert commands["unlabeled"] == [0, (GOLDEN / "dist-unlabeled-real-5.out").read_text()]
    assert (tmp_path / "witness.json").read_text() == (GOLDEN / "unlabeled-real-5.witness.json").read_text()
    assert commands["bottleneck"] == [0, (GOLDEN / "dist-bottleneck-unlabeled-grid-5.out").read_text()]
    assert commands["treeify"] == [0, (GOLDEN / "treeify-real-7.out").read_text()]
    assert got["matrix"] == write_matrix(parse_matrix((GOLDEN / "real-7.matrix.txt").read_text()))


def test_threads_racing_to_the_first_numpy_call_all_get_numpy():
    names = ["real-40", "grid-40"]
    trees = [parse_tree((GOLDEN / f"{n}.tree.json").read_text()) for n in names]
    serial = [write_matrix(induced_matrix(trees[0])), repr(labeled_interleaving(*trees)),
              write_matrix(induced_matrix(trees[1])), repr(labeled_interleaving(*trees[::-1]))]
    got = _fresh(
        """
        import threading
        from pathlib import Path

        import mergespace as ms

        unloaded = "numpy" not in sys.modules
        golden = Path(sys.argv[1])
        a, b = (ms.parse_tree((golden / f"{n}.tree.json").read_text()) for n in ("real-40", "grid-40"))
        calls = [lambda: ms.write_matrix(ms.induced_matrix(a)),
                 lambda: repr(ms.labeled_interleaving(a, b)),
                 lambda: ms.write_matrix(ms.induced_matrix(b)),
                 lambda: repr(ms.labeled_interleaving(b, a))]
        barrier = threading.Barrier(len(calls), timeout=60)
        results = [None] * len(calls)

        def first_call(k):
            barrier.wait()
            try:
                results[k] = calls[k]()
            except Exception as exc:
                results[k] = f"raised {exc!r}"

        sys.setswitchinterval(1e-6)  # this interpreter's own, and it exits below
        threads = [threading.Thread(target=first_call, args=(k,), daemon=True)
                   for k in range(len(calls))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        print(json.dumps({"unloaded": unloaded, "results": results,
                          "alive": [t.is_alive() for t in threads]}))
        """,
        GOLDEN,
    )
    assert got["unloaded"]
    assert got["alive"] == [False] * 4
    assert got["results"] == serial


def test_numpy_scalars_loaded_after_mergespace_are_numbers():
    got = _fresh(
        """
        import mergespace as ms
        from mergespace.trees import _number

        unloaded = "numpy" not in sys.modules
        import numpy as np

        try:
            _number(np.True_)
            refused = False
        except ms.MergespaceError:
            refused = True
        print(json.dumps({"unloaded": unloaded, "int64": _number(np.int64(3)),
                          "float32": _number(np.float32(1.5)), "bool_refused": refused}))
        """
    )
    assert got == {"unloaded": True, "int64": 3.0, "float32": 1.5, "bool_refused": True}
