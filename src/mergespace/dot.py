"""Graphviz DOT export for merge trees."""

from __future__ import annotations

from typing import Union

from .fileio import fmt_num
from .trees import LabeledMergeTree, MergeTree

__all__ = ["to_dot"]


def to_dot(t: Union[MergeTree, LabeledMergeTree]) -> str:
    """DOT text with one rank per height so vertical position tracks height.

    Labeled vertices are drawn doubled and list their label indices.
    """
    if isinstance(t, LabeledMergeTree):
        tree, labels_of = t.ensure_valid().tree, t.labels_of
    else:
        tree, labels_of = t.ensure_valid(), {}

    lines = [
        "digraph mergetree {",
        "  rankdir = BT;",
        "  node [shape = circle, fontsize = 10];",
    ]
    for v, h in tree.vertices:
        labs = labels_of.get(v, ())
        text = f"{v}\\n@{fmt_num(h)}"
        extra = ""
        if labs:
            text += "\\n" + ",".join(str(i) for i in labs)
            extra = ", peripheries = 2"
        lines.append(f'  v{v} [label = "{text}"{extra}];')
    by_height = {}
    for v, h in tree.vertices:
        by_height.setdefault(h, []).append(v)
    for h in sorted(by_height):
        group = "; ".join(f"v{v}" for v in sorted(by_height[h]))
        lines.append(f"  {{ rank = same; {group}; }}")
    for c, p in tree.edges:
        lines.append(f"  v{c} -> v{p};")
    lines.append("}")
    return "\n".join(lines) + "\n"
