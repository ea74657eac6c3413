"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 domain error (the message names the
violated invariant), 3 search budget exceeded.  Primary artifacts go to
stdout, status and diagnostics to stderr, and identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dot import to_dot
from .errors import BudgetExceededError, InvalidTreeError, MergespaceError
from .fileio import (
    fmt_num,
    parse_map,
    parse_matrix,
    parse_tree,
    write_diagram,
    write_matrix,
    write_pairing,
    write_tree,
)
from .goodmaps import verify_delta_good
from .matrices import induced_matrix, tree_of_matrix, ultrafy
from .metrics import geodesic_point, labeled_interleaving, one_center
from .persistence import bottleneck_tree_distance, persistence_diagram
from .trees import LabeledMergeTree
from .unlabeled import DEFAULT_BUDGET, unlabeled_interleaving


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    return Path(path).read_text()


def _tree(path: str):
    return parse_tree(_read(path))


def _labeled(path: str) -> LabeledMergeTree:
    t = _tree(path)
    if not isinstance(t, LabeledMergeTree):
        raise MergespaceError(f"{path}: tree carries no labels")
    return t


def _cmd_validate(ns) -> int:
    try:
        _tree(ns.tree)
    except InvalidTreeError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 2
    print("ok")
    return 0


def _cmd_induce(ns) -> int:
    sys.stdout.write(write_matrix(induced_matrix(_labeled(ns.tree))))
    return 0


def _cmd_treeify(ns) -> int:
    sys.stdout.write(write_tree(tree_of_matrix(parse_matrix(_read(ns.matrix)))))
    return 0


def _cmd_ultrafy(ns) -> int:
    sys.stdout.write(write_matrix(ultrafy(parse_matrix(_read(ns.matrix)))))
    return 0


def _cmd_dist(ns) -> int:
    if ns.kind == "labeled":
        print(fmt_num(labeled_interleaving(_labeled(ns.t1), _labeled(ns.t2))))
    elif ns.kind == "bottleneck":
        print(fmt_num(bottleneck_tree_distance(_tree(ns.t1), _tree(ns.t2))))
    else:
        result = unlabeled_interleaving(
            _tree(ns.t1), _tree(ns.t2), budget=ns.budget
        )
        print(fmt_num(result.value))
        witness = write_pairing(result.witness)
        if ns.witness:
            Path(ns.witness).write_text(witness)
        else:
            sys.stderr.write(witness)
        if not result.certified:
            low = fmt_num(result.refuted_below or 0)
            print(
                "warning: uncertified; the distance lies in "
                f"({low}, {fmt_num(result.value)}]",
                file=sys.stderr,
            )
    return 0


def _cmd_geodesic(ns) -> int:
    tree = geodesic_point(_labeled(ns.t1), _labeled(ns.t2), ns.lam)
    sys.stdout.write(write_tree(tree))
    if ns.dot:
        Path(ns.dot).write_text(to_dot(tree))
    return 0


def _cmd_center(ns) -> int:
    center, radius = one_center([_labeled(p) for p in ns.trees])
    sys.stdout.write(write_tree(center))
    print(f"radius {fmt_num(radius)}", file=sys.stderr)
    return 0


def _cmd_pd(ns) -> int:
    sys.stdout.write(write_diagram(persistence_diagram(_tree(ns.tree))))
    return 0


def _cmd_checkmap(ns) -> int:
    report = verify_delta_good(parse_map(_read(ns.map)))
    if report.good:
        print("good")
        return 0
    print(f"violated {report.condition}: {report.detail}")
    return 2


def build_parser() -> _Parser:
    parser = _Parser(prog="mergespace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a tree file's invariants")
    p.add_argument("tree")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("induce", help="matrix of a labeled tree")
    p.add_argument("tree")
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("treeify", help="tree of a valid matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_treeify)

    p = sub.add_parser("ultrafy", help="closest tree-realizable matrix")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_ultrafy)

    p = sub.add_parser("dist", help="distances between trees")
    p.add_argument("kind", choices=["labeled", "unlabeled", "bottleneck"])
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="placement states each feasibility probe of the unlabeled search may explore",
    )
    p.add_argument("--witness", help="write the witness pairing here")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("geodesic", help="tree along the geodesic")
    p.add_argument("t1")
    p.add_argument("t2")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--dot", help="also write a DOT rendering here")
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("center", help="smallest enclosing ball center")
    p.add_argument("trees", nargs="+")
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("pd", help="persistence diagram of a tree")
    p.add_argument("tree")
    p.set_defaults(func=_cmd_pd)

    p = sub.add_parser("checkmap", help="verify a shift map file")
    p.add_argument("map")
    p.set_defaults(func=_cmd_checkmap)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return ns.func(ns)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MergespaceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
