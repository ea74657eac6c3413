"""Text formats: tree JSON, matrix text, diagram text, pairing and map JSON.

All writers are deterministic (sorted ids, fixed key order, shortest
round-trip numbers) so identical inputs produce byte-identical files.
Tree JSON is read in one pass: each field is checked once and the tree is
stored as read, and validation leaves its id -> height map on the tree.
A JSON number is read by the rule for every caller real, `trees._number`,
so strings and booleans are refused where a number belongs.
"""

from __future__ import annotations

import json
import math
from typing import Union

from .errors import FormatError, InvalidTreeError, MergespaceError
from .goodmaps import LabelPairing, VertexMap
from .matrices import SymMatrix, as_sym_matrix
from .persistence import PersistenceDiagram, _checked, _store
from .trees import (
    LabeledMergeTree,
    MergeTree,
    PointOnTree,
    _bare,
    _number,
    _stored,
    as_point,
    is_vertex_point,
    np,
)

__all__ = [
    "parse_tree",
    "write_tree",
    "parse_matrix",
    "write_matrix",
    "parse_diagram",
    "write_diagram",
    "write_pairing",
    "parse_pairing",
    "write_map",
    "parse_map",
]


def fmt_num(x: float) -> str:
    """Shortest decimal that parses back to the same float."""
    return repr(_jsonable_num(x))


def _jsonable_num(x: float):
    """An integral float as an int, so it prints with no ".0"; -0.0 stays a
    float, since int() would drop its sign."""
    x = float(x)
    if x == int(x) and abs(x) < 1e16 and (x or math.copysign(1.0, x) > 0):
        return int(x)
    return x


# -- tree JSON ------------------------------------------------------------


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc.msg}", line=exc.lineno) from None


def _tree_from_json(obj, where: str = ""):
    """The tree of decoded tree JSON, labeled when any vertex has labels.

    Each field's type is checked once, here, so the parts are stored as the
    constructors would normalize them.  Each FormatError starts with `where`.
    """
    if not isinstance(obj, dict):
        raise FormatError(f"{where}top level must be an object")
    for key in ("vertices", "edges"):
        if key not in obj or not isinstance(obj[key], list):
            raise FormatError(f"{where}missing or non-list '{key}'")
    vertices = []
    labels = {}  # label -> number of the vertex that lists it
    for k, entry in enumerate(obj["vertices"], start=1):
        if not isinstance(entry, dict):
            raise FormatError(f"{where}vertex #{k} is not an object")
        vid, height = entry.get("id"), entry.get("height")
        if type(height) is not float:
            try:
                height = _number(height, "'height'")
            except MergespaceError as exc:
                if type(height) is int:  # too large for a float
                    raise FormatError(f"{where}vertex #{k}: {exc}")
                vid = None
        # `type(x) is int` throughout: JSON true and false decode as bools,
        # which isinstance counts as ints
        if type(vid) is not int:
            raise FormatError(f"{where}vertex #{k} needs integer 'id' and numeric 'height'")
        vertices.append((vid, height))
        labs = entry.get("labels", [])
        if not isinstance(labs, list):
            raise FormatError(f"{where}vertex #{k}: 'labels' must be a list")
        for lab in labs:
            if type(lab) is not int:
                raise FormatError(f"{where}vertex #{k}: label {lab!r} is not an integer")
            if lab in labels:
                if labels[lab] == k:
                    raise FormatError(f"{where}vertex #{k}: label {lab} is listed twice")
                raise FormatError(f"{where}label {lab} appears on two vertices")
            labels[lab] = k
    edges = []
    for k, entry in enumerate(obj["edges"], start=1):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or type(entry[0]) is not int
            or type(entry[1]) is not int
        ):
            raise FormatError(f"{where}edge #{k} must be a [childId, parentId] pair")
        edges.append(tuple(entry))
    labels = tuple(sorted((lab, vertices[k - 1][0]) for lab, k in labels.items())) or None
    return _stored(tuple(sorted(vertices)), tuple(sorted(edges)), labels)


def parse_tree(text: str) -> Union[MergeTree, LabeledMergeTree]:
    """Validated tree from JSON; labeled when any labels are present."""
    return _tree_from_json(_load_json(text)).ensure_valid()


def write_tree(t: Union[MergeTree, LabeledMergeTree]) -> str:
    return json.dumps(_tree_to_json(t), indent=2) + "\n"


def _tree_to_json(t: Union[MergeTree, LabeledMergeTree]) -> dict:
    if isinstance(t, LabeledMergeTree):
        tree, labels_of = t.tree, t.labels_of
    else:
        tree, labels_of = t, {}
    vertices = [
        {
            "id": v,
            "height": _jsonable_num(h),
            "labels": list(labels_of.get(v, ())),
        }
        for v, h in tree.vertices
    ]
    return {"vertices": vertices, "edges": [list(e) for e in tree.edges]}


# -- matrix text ----------------------------------------------------------


def parse_matrix(text: str) -> SymMatrix:
    """First line is n, then n rows of n numbers and nothing after them but
    blank lines; rounding asymmetry is averaged.

    An entry is any finite number that float() reads.  The rows are read in
    one numpy pass; a file that pass refuses is read again row by row, so a
    bad row is reported by its line.
    """
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty matrix file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise FormatError(f"expected the size, got {lines[0]!r}", line=1)
    if n < 1:
        raise FormatError(f"size must be positive, got {n}", line=1)
    if len(lines) < n + 1:
        raise FormatError(f"expected {n} rows, file has {len(lines) - 1}")
    rows = _bulk_rows(lines[1 : n + 1])
    if rows is None:
        rows = _rows_one_by_one(lines, n)
    for k in range(n + 1, len(lines)):
        if lines[k].strip():
            raise FormatError(f"data after the {n} rows", line=k + 1)
    return SymMatrix(rows)


def _bulk_rows(body):
    """The n body lines as an n x n array of finite floats, or None.

    loadtxt converts each field with the converter inside float(), so the
    values it gives are float()'s.  It skips blank lines, which must count
    as rows here, and refuses some syntax float() reads (`1_0`, non-ASCII
    digits); None hands such files to the row reader.
    """
    if not all(line.strip() for line in body):
        return None
    try:
        a = np.loadtxt(body, dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    n = len(body)
    if a.shape != (n, n) or not np.isfinite(a).all():
        return None
    return a


def _rows_one_by_one(lines, n):
    """Rows 1..n of `lines` as lists of finite floats; a bad row raises
    FormatError with its line number."""
    rows = []
    for k in range(1, n + 1):
        parts = lines[k].split()
        if len(parts) != n:
            raise FormatError(
                f"expected {n} entries, got {len(parts)}", line=k + 1
            )
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(str(exc), line=k + 1)
        if not all(math.isfinite(x) for x in row):
            raise FormatError("entries must be finite", line=k + 1)
        rows.append(row)
    return rows


def write_matrix(m) -> str:
    m = as_sym_matrix(m)
    lines = [str(m.n)]
    for row in m.array:
        lines.append(" ".join(fmt_num(x) for x in row))
    return "\n".join(lines) + "\n"


# -- diagram text ---------------------------------------------------------


def parse_diagram(text: str) -> PersistenceDiagram:
    """'birth death' lines, inf only as written; a bad point names its line."""
    finite, infinite = [], []
    for k, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            if len(parts) != 2:
                raise ValueError("expected 'birth death'")
            birth, death = float(parts[0]), float(parts[1])
            if math.isinf(death) and parts[1] != "inf":
                raise ValueError(f"death {parts[1]} is infinite but not written inf")
            _checked(((birth, death),), finite, infinite)
        except (ValueError, MergespaceError) as exc:
            raise FormatError(str(exc), line=k) from None
    return _store(object.__new__(PersistenceDiagram), finite, infinite)


def write_diagram(d: PersistenceDiagram) -> str:
    lines = []
    for birth, death in d.points:
        tail = "inf" if math.isinf(death) else fmt_num(death)
        lines.append(f"{fmt_num(birth)} {tail}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- points ---------------------------------------------------------------


def _point_to_json(t: MergeTree, p: PointOnTree, tree_tag=None) -> dict:
    out = {}
    if tree_tag is not None:
        out["tree"] = tree_tag
    if is_vertex_point(t, p):
        out["vertex"] = p.anchor
    else:
        out["edge"] = [p.anchor, t.parent[p.anchor]]
    out["height"] = _jsonable_num(p.height)
    return out


def _point_from_json(t: MergeTree, obj, what: str) -> PointOnTree:
    if not isinstance(obj, dict) or "height" not in obj:
        raise FormatError(f"{what}: point needs a 'height'")
    try:
        height = _number(obj["height"])
    except MergespaceError as exc:
        raise FormatError(f"{what}: {exc}")
    if "vertex" in obj:
        anchor = obj["vertex"]
    elif "edge" in obj:
        edge = obj["edge"]
        if not isinstance(edge, list) or len(edge) != 2:
            raise FormatError(f"{what}: 'edge' must be [childId, parentId]")
        anchor = edge[0]
    else:
        raise FormatError(f"{what}: point needs 'vertex' or 'edge'")
    if type(anchor) is not int:
        raise FormatError(f"{what}: vertex id must be an integer")
    try:
        point = as_point(t, PointOnTree(anchor, height))
    except MergespaceError as exc:
        raise FormatError(f"{what}: {exc}")
    if "edge" in obj:
        parent = t.parent[anchor]
        # null on the top's ray; types compare too, since JSON true == 1
        if (type(edge[1]), edge[1]) != (type(parent), parent):
            raise FormatError(f"{what}: {edge} is not an edge [childId, parentId] of the tree")
    return point


# -- pairing JSON ---------------------------------------------------------


def write_pairing(p: LabelPairing) -> str:
    pairs = [
        [
            _point_to_json(p.source, a, tree_tag=1),
            _point_to_json(p.target, b, tree_tag=2),
        ]
        for a, b in p.pairs
    ]
    return json.dumps({"pairs": pairs}, indent=2) + "\n"


def parse_pairing(text: str, source: MergeTree, target: MergeTree) -> LabelPairing:
    source.ensure_valid()
    target.ensure_valid()
    obj = _load_json(text)
    if not isinstance(obj, dict) or not isinstance(obj.get("pairs"), list):
        raise FormatError("expected an object with a 'pairs' list")
    pairs = []
    for k, entry in enumerate(obj["pairs"], start=1):
        if not isinstance(entry, list) or len(entry) != 2:
            raise FormatError(f"pair #{k} must be a two-point list")
        a = _point_from_json(source, entry[0], f"pair #{k} first point")
        b = _point_from_json(target, entry[1], f"pair #{k} second point")
        pairs.append((a, b))
    return LabelPairing(source, target, tuple(pairs))


# -- map JSON -------------------------------------------------------------


def write_map(vm: VertexMap) -> str:
    payload = {
        "source": _tree_to_json(vm.source),
        "target": _tree_to_json(vm.target),
        "delta": _jsonable_num(vm.delta),
        "images": [
            [v, _point_to_json(vm.target, p)] for v, p in vm.images
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_map(text: str) -> VertexMap:
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise FormatError("top level must be an object")
    for key in ("source", "target", "delta", "images"):
        if key not in obj:
            raise FormatError(f"missing '{key}'")
    source = _bare(_tree_from_json(obj["source"], "source: "))
    target = _bare(_tree_from_json(obj["target"], "target: "))
    for where, t in (("source: ", source), ("target: ", target)):
        try:
            t.ensure_valid()
        except InvalidTreeError as exc:
            raise FormatError(f"{where}{exc}") from exc
    try:
        delta = _number(obj["delta"], "delta")
    except MergespaceError as exc:
        raise FormatError(str(exc))
    if not isinstance(obj["images"], list):
        raise FormatError("'images' must be a list")
    images = {}
    for k, entry in enumerate(obj["images"], start=1):
        if not isinstance(entry, list) or len(entry) != 2 or type(entry[0]) is not int:
            raise FormatError(f"image #{k} must be [vertexId, point]")
        if entry[0] in images:
            raise FormatError(f"image #{k}: vertex {entry[0]} already has an image")
        images[entry[0]] = _point_from_json(target, entry[1], f"image #{k}")
    return VertexMap(source, target, delta, images)
