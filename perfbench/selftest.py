"""Show that each check accepts the program's result and rejects a perturbed one.

    python3 perfbench/selftest.py

For every workload (seed 0) the script runs operations until it has seen
every kind, checks each first result, then feeds each check deliberately
wrong versions of it and requires a rejection.  It also requires the two
references for labeled trees (the matrix built with the tree, and the
ancestor-chain matrix of the written tree) to agree.  Exits non-zero on
the first surprise.
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

import load

ms = load.import_mergespace()

import reference as ref  # noqa: E402
import workloads  # noqa: E402

RUNS = Path(__file__).resolve().parent.parent / ".perfbench-runs"


def _bump_top(t, by=1000.0):
    """The same labeled tree with its top vertex raised far past any distance here.

    A small raise can leave a geodesic point between its ends or a center
    within the radius, which are not unique; this one cannot.
    """
    top = max(t.tree.vertices, key=lambda vh: vh[1])[0]
    vertices = [(v, h + by * (v == top)) for v, h in t.tree.vertices]
    return ms.LabeledMergeTree(ms.MergeTree(vertices, t.tree.edges), t.labels)


def _bump_entry(m):
    a = np.array(m.array)
    a[0, 1] += 0.5
    a[1, 0] = a[0, 1]
    return ms.SymMatrix(a)


def _nudge(x):
    return float(np.nextafter(x, np.inf))


def _drop_diagram_point(check, op, result):
    original = ms.persistence_diagram
    ms.persistence_diagram = lambda t: ms.PersistenceDiagram(original(t).points[1:])
    try:
        return check(op, result)
    finally:
        ms.persistence_diagram = original


# kind -> [(what is wrong, check(op, result) -> reason)]
PERTURBED = {
    "distance": [("distance one ulp high", lambda c, op, r: c(op, _nudge(r)))],
    "geodesic": [("top vertex raised", lambda c, op, r: c(op, _bump_top(r)))],
    "center": [
        ("radius a millionth high", lambda c, op, r: c(op, (r[0], r[1] * (1 + 1e-6)))),
        ("center top raised", lambda c, op, r: c(op, (_bump_top(r[0]), r[1]))),
    ],
    "ultrafy": [("one entry raised", lambda c, op, r: c(op, _bump_entry(r)))],
    "tree_of_matrix": [("top vertex raised", lambda c, op, r: c(op, _bump_top(r)))],
    "is_ultra": [("verdict flipped", lambda c, op, r: c(op, ms.MatrixCheck(False, (1, 2, 3))))],
    "unlabeled": [
        ("not certified", lambda c, op, r: c(op, dataclasses.replace(r, certified=False))),
        ("value above the leaf labeling", lambda c, op, r: c(op, dataclasses.replace(r, value=r.value + 10))),
        ("value off its witness", lambda c, op, r: c(op, dataclasses.replace(r, value=r.value * (1 + 1e-6)))),
        ("witness missing a pair", lambda c, op, r: c(op, dataclasses.replace(
            r, witness=dataclasses.replace(r.witness, pairs=r.witness.pairs[1:])))),
    ],
    "bottleneck": [
        ("distance one ulp high", lambda c, op, r: c(op, _nudge(r))),
        ("diagram missing a point", lambda c, op, r: _drop_diagram_point(c, op, r)),
    ],
}


def main() -> int:
    RUNS.mkdir(exist_ok=True)
    for cls in workloads.WORKLOADS.values():
        w = cls(0)
        if isinstance(w, workloads.LabeledCollection):
            for col in w.collections:
                for t, m in zip(col["trees"], col["matrices"]):
                    labels = [(lab, v) for v, labs in t.labels.items() for lab in labs]
                    if not np.array_equal(ref.labeled_matrix(t.vertices, t.edges, labels), m):
                        print(f"{w.name}: the two tree references disagree")
                        return 1
            print(f"{w.name}: built and ancestor-chain matrices agree")
        with tempfile.TemporaryDirectory(dir=RUNS) as d:
            w.write(Path(d))
            ops = w.ops(load.load_dir(d))
        kinds = {op.kind for op in ops}
        results, done = [], set()
        for op in ops:
            results.append(op.call(results))
            if op.kind in done:
                continue
            done.add(op.kind)
            reason = w.check(op, results[-1])
            if reason is not None:
                print(f"{w.name} {op.kind}: program result rejected: {reason}")
                return 1
            for what, perturbed in PERTURBED[op.kind]:
                reason = perturbed(w.check, op, results[-1])
                if reason is None:
                    print(f"{w.name} {op.kind}: {what}: ACCEPTED")
                    return 1
                print(f"{w.name} {op.kind}: {what}: rejected ({reason})")
            if done == kinds:
                break
    return 0


if __name__ == "__main__":
    sys.exit(main())
