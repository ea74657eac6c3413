"""Shared generators and brute-force oracles for the test suite.

The oracles deliberately take different routes than the library code:
minimax values come from enumerating simple paths, tree equality from
nested signatures, diagrams from ancestor chains, bottleneck cost from
enumerating matchings (or, for larger diagrams, from scipy's
Hopcroft-Karp), induced entries and meets from walking ancestor chains,
a walk's matrix from one running maximum per row, a label walk from a
recursive preorder and ancestor chains, a 1-center from the exact midrange
of the stacked induced matrices, rounded once, exact entry gaps and ranges
from `fractions.Fraction`, unlabeled distances from enumerating good maps
by their leaf images, map verdicts from a sweep over every critical height,
label transfers from ancestor chains, tree validation from a walk up every
parent chain, matrix text from float() on every entry, row by row, and a
refinement from one chain of inserted heights per vertex.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from mergespace import (
    FormatError,
    GoodMapReport,
    LabelPairing,
    LabeledMergeTree,
    MergeTree,
    MergespaceError,
    PersistenceDiagram,
    PointOnTree,
    SymMatrix,
    VertexMap,
    as_sym_matrix,
    induced_matrix,
    linf_distance,
    map_point,
    tree_of_matrix,
    ultrafy,
)
from mergespace.goodmaps import _snap_point
from mergespace.trees import (
    ValidationReport,
    _bare,
    as_point,
    height_tol,
    is_vertex_point,
    point_at,
    points_at,
    vertex_point,
)

INF = float("inf")


# -- random inputs --------------------------------------------------------


def rand_valid_matrix(rng, n: int, integral: bool = False) -> SymMatrix:
    """Symmetric matrix with every diagonal entry minimal in its row."""
    if integral:
        diag = rng.integers(0, 5, size=n).astype(float)
        bump = rng.integers(0, 5, size=(n, n)).astype(float)
    else:
        diag = rng.uniform(0.0, 4.0, size=n)
        bump = rng.uniform(0.0, 4.0, size=(n, n))
    m = np.empty((n, n))
    for i in range(n):
        m[i, i] = diag[i]
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = max(diag[i], diag[j]) + bump[i, j]
    return as_sym_matrix(m)


def rand_ultra_matrix(rng, n: int, integral: bool = False) -> SymMatrix:
    return ultrafy(rand_valid_matrix(rng, n, integral=integral))


def _rand_tree_parts(rng, max_leaves: int, integral: bool):
    def pick(low, high):
        if integral:
            return float(rng.integers(int(low), int(high) + 1))
        return float(rng.uniform(low, high))

    k = int(rng.integers(1, max_leaves + 1))
    vertices = []
    next_id = 0
    active = []
    for _ in range(k):
        h = pick(0, 3)
        vertices.append((next_id, h))
        active.append((next_id, h))
        next_id += 1
    edges = []
    while len(active) > 1:
        size = 2
        if len(active) > 2 and rng.random() < 0.2:
            size = 3
        group = [active.pop(int(rng.integers(len(active)))) for _ in range(size)]
        top = max(h for _, h in group)
        h = top + pick(1, 3) if integral else top + pick(0.25, 2.0)
        vertices.append((next_id, h))
        for v, _ in group:
            edges.append((v, next_id))
        active.append((next_id, h))
        next_id += 1

    # sprinkle single-child subdivision vertices, sometimes above the top
    for _ in range(int(rng.integers(0, 3))):
        if edges and rng.random() < 0.7:
            c, p = edges[int(rng.integers(len(edges)))]
            hc = dict(vertices)[c]
            hp = dict(vertices)[p]
            low, high = (hc + 1, hp - 1) if integral else (hc + 1e-3, hp - 1e-3)
            if high < low:
                continue  # the edge is too short to hold a vertex
            h = pick(low, high)
            if not (hc < h < hp):
                continue
            edges.remove((c, p))
            edges.extend([(c, next_id), (next_id, p)])
        else:
            top_id, top_h = max(vertices, key=lambda vh: vh[1])
            h = top_h + pick(1, 2) if integral else top_h + pick(0.25, 1.5)
            edges.append((top_id, next_id))
        vertices.append((next_id, h))
        next_id += 1
    return vertices, edges


def rand_merge_tree(rng, max_leaves: int = 5, integral: bool = False) -> MergeTree:
    vertices, edges = _rand_tree_parts(rng, max_leaves, integral)
    return MergeTree(vertices, edges).ensure_valid()


def rand_grown_tree(rng, n_leaves: int, integral: bool = False) -> MergeTree:
    """Tree on exactly n_leaves leaves, grown as the benchmark grows its
    trees: leaves born in [0, 4], each merge 0.05 to 1.5 above its highest
    child, one merge in five ternary.  `integral` puts the leaves on the
    integers 0..4 and each merge 1 or 2 above, so heights tie often."""
    def pick(low, high):
        return float(rng.integers(low, high + 1) if integral else rng.uniform(low, high))

    vertices = [(v, pick(0, 4)) for v in range(n_leaves)]
    height = dict(vertices)
    active, edges = list(range(n_leaves)), []
    while len(active) > 1:
        size = 3 if len(active) > 2 and rng.random() < 0.2 else 2
        kids = [active.pop(int(rng.integers(len(active)))) for _ in range(size)]
        v = len(vertices)
        height[v] = max(height[c] for c in kids) + (pick(1, 2) if integral else pick(0.05, 1.5))
        vertices.append((v, height[v]))
        edges += [(c, v) for c in kids]
        active.append(v)
    return MergeTree(vertices, edges).ensure_valid()


def rand_labeled_tree(
    rng, n_labels: int, max_leaves: int = 5, integral: bool = False
) -> LabeledMergeTree:
    """Random tree with labels 1..n_labels covering every leaf.

    Extra labels land on arbitrary vertices, so repeats on a shared vertex
    and labels on internal vertices both occur.
    """
    t = rand_merge_tree(rng, max_leaves=min(max_leaves, n_labels), integral=integral)
    return _label_tree(rng, t, n_labels)


def rand_labeled_pair(rng, max_leaves: int = 4, integral: bool = False):
    """Two labeled trees over a common label set."""
    return rand_labeled_collection(rng, 2, max_leaves, integral)


def rand_labeled_triple(rng, max_leaves: int = 4, integral: bool = False):
    """Three labeled trees over one common label set."""
    return rand_labeled_collection(rng, 3, max_leaves, integral)


def rand_labeled_collection(rng, size: int, max_leaves: int = 4, integral: bool = False):
    """`size` labeled trees over one common label set."""
    trees = [
        rand_merge_tree(rng, max_leaves=max_leaves, integral=integral)
        for _ in range(size)
    ]
    n = max(len(t.leaves) for t in trees) + int(rng.integers(0, 3))
    return tuple(_label_tree(rng, t, n) for t in trees)


def _label_tree(rng, t: MergeTree, n: int) -> LabeledMergeTree:
    ids = [v for v, _ in t.vertices]
    targets = list(t.leaves)
    while len(targets) < n:
        targets.append(ids[int(rng.integers(len(ids)))])
    perm = rng.permutation(n)
    return LabeledMergeTree(
        t, {int(i + 1): targets[int(perm[i])] for i in range(n)}
    ).ensure_valid()


def rand_leaf_up_map(rng, s: MergeTree, t: MergeTree, delta: float):
    """A map built leaf-up: each vertex delta above itself, a leaf (or, one
    time in ten, an inner vertex) on a random branch of the target, an inner
    vertex otherwise on the upward path of a random child's image."""
    order, stack = [], [s.top]  # depth-first, each child before its parent
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(s.children[v])
    images = {}
    for v in reversed(order):
        h = s.height[v] + delta
        kids = s.children[v]
        if kids and rng.random() > 0.1:
            base = images[kids[int(rng.integers(len(kids)))]]
            images[v] = ancestor_at(t, base, max(h, base.height))
        else:
            pts = points_at(t, max(h, min(t.height.values())), 0.0)
            images[v] = pts[int(rng.integers(len(pts)))]
    return VertexMap(s, t, delta, images)


def fresh_copy(lt: LabeledMergeTree) -> LabeledMergeTree:
    """An equal tree with no cached state: a new object, so the store of
    recent matrices holds none for it."""
    return LabeledMergeTree(MergeTree(lt.tree.vertices, lt.tree.edges), lt.labels)


def with_heights(t, f):
    """The same tree, labels kept, with every height h replaced by f(h)."""
    if isinstance(t, LabeledMergeTree):
        return LabeledMergeTree(with_heights(t.tree, f), t.labels)
    return MergeTree([(v, f(h)) for v, h in t.vertices], t.edges)


def straddling_zero(t: MergeTree, sign: float = 1.0) -> MergeTree:
    """The same tree shifted so that its median height lands on zero.

    Heights then straddle zero, and each vertex at the median gets a zero
    whose sign alternates with the parity of its id, starting from the sign
    of `sign` at even ids; ties at the median so carry both zero signs.
    """
    mid = sorted(h for _, h in t.vertices)[len(t.vertices) // 2]
    zeros = (math.copysign(0.0, sign), math.copysign(0.0, -sign))
    return MergeTree(
        [(v, zeros[v % 2] if h == mid else h - mid) for v, h in t.vertices], t.edges
    ).ensure_valid()


def rand_point(rng, t: MergeTree) -> PointOnTree:
    """Uniformly messy point: a vertex, an edge interior, or the top ray."""
    ids = [v for v, _ in t.vertices]
    v = ids[int(rng.integers(len(ids)))]
    r = rng.random()
    if r < 0.5:
        return vertex_point(t, v)
    parent = t.parent[v]
    if parent is None or r < 0.6:
        top = t.top
        return as_point(t, (top, t.height[top] + float(rng.uniform(0.1, 2.0))))
    lo, hi = t.height[v], t.height[parent]
    return as_point(t, (v, float(rng.uniform(lo, hi))))


def rand_diagram(rng, max_pts: int = 5) -> PersistenceDiagram:
    pts = []
    for _ in range(int(rng.integers(0, max_pts + 1))):
        b = float(rng.uniform(-2, 2))
        pts.append((b, b + float(rng.uniform(0.05, 3.0))))
    for _ in range(int(rng.integers(1, 3))):
        pts.append((float(rng.uniform(-2, 2)), INF))
    return PersistenceDiagram(pts)


# -- oracles --------------------------------------------------------------


def tree_signature(t: MergeTree, labels_of=None):
    """Canonical nested-tuple invariant of the (optionally labeled) tree.

    Two trees get equal signatures exactly when an isomorphism matches
    heights, edges, and label placement, ignoring vertex ids.  Comparing
    signatures recurses as deep as the tree, so keep the trees small.
    """
    t.ensure_valid()
    sig = {}
    for v, _ in sorted(t.vertices, key=lambda vh: vh[1]):  # edges climb
        kids = tuple(sorted(sig[c] for c in t.children[v]))
        lab = tuple(sorted(labels_of[v])) if labels_of else ()
        sig[v] = (t.height[v], lab, kids)
    return sig[t.top]


def parse_matrix_rowwise(text: str) -> SymMatrix:
    """Matrix text read one row at a time, each entry through float()."""
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
    rows = []
    for k in range(1, n + 1):
        parts = lines[k].split()
        if len(parts) != n:
            raise FormatError(f"expected {n} entries, got {len(parts)}", line=k + 1)
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(str(exc), line=k + 1)
        if not all(math.isfinite(x) for x in row):
            raise FormatError("entries must be finite", line=k + 1)
        rows.append(row)
    for k in range(n + 1, len(lines)):
        if lines[k].strip():
            raise FormatError(f"data after the {n} rows", line=k + 1)
    return SymMatrix(rows)


def minimax_value(m: SymMatrix, i: int, j: int) -> float:
    """Minimum over simple i-j paths of the largest step entry."""
    n = m.n
    best = m[i, j]
    others = [k for k in range(n) if k not in (i, j)]
    for r in range(1, len(others) + 1):
        for mid in itertools.permutations(others, r):
            path = [i, *mid, j]
            cost = max(m[a, b] for a, b in zip(path, path[1:]))
            best = min(best, cost)
    return best


def minimax_matrix(m: SymMatrix) -> np.ndarray:
    n = m.n
    out = np.array(m.array)
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = minimax_value(m, i, j)
    return out


def mst_sweep_oracle(m: SymMatrix) -> list:
    """Minimum spanning tree by Kruskal's sweep over all pairs.

    Sorts every (M_ij, i, j) with i < j and keeps each edge that joins two
    union-find components: (h, i, j) triples in key order.
    """
    a = m.array
    n = m.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    kept = []
    for h, i, j in sorted((float(a[i, j]), i, j) for i in range(n) for j in range(i + 1, n)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            kept.append((h, i, j))
    return kept


def sweep_tree_oracle(m: SymMatrix) -> LabeledMergeTree:
    """Tree of a valid matrix by the plain single-linkage sweep over all pairs.

    Visits every pair (M_ij, i, j), i < j, in sorted order and merges the
    components of its ends when they differ, so it owes nothing to a
    spanning-tree shortcut.  Vertex ids, tie collapsing and label placement follow the
    rules `tree_of_matrix` documents.
    """
    a = m.array
    n = m.n
    heights = {i: float(a[i, i]) for i in range(n)}
    labels_at = {i: [i + 1] for i in range(n)}
    children_of = {i: [] for i in range(n)}
    comp = list(range(n))  # label -> component id; a component id is a label
    top = list(range(n))  # component id -> its current top vertex
    next_id = n
    for h, i, j in sorted((float(a[i, j]), i, j) for i in range(n) for j in range(i + 1, n)):
        ci, cj = comp[i], comp[j]
        if ci == cj:
            continue
        ta, tb = top[ci], top[cj]
        if heights[ta] == h and heights[tb] == h:
            labels_at[ta].extend(labels_at.pop(tb))
            children_of[ta].extend(children_of.pop(tb))
            del heights[tb]
            new_top = ta
        elif heights[ta] == h:
            children_of[ta].append(tb)
            new_top = ta
        elif heights[tb] == h:
            children_of[tb].append(ta)
            new_top = tb
        else:
            heights[next_id] = h
            labels_at[next_id] = []
            children_of[next_id] = [ta, tb]
            new_top = next_id
            next_id += 1
        comp = [ci if c == cj else c for c in comp]
        top[ci] = new_top
    edges = [(c, v) for v, kids in children_of.items() for c in kids]
    label_map = {i: v for v, ls in labels_at.items() for i in ls}
    return LabeledMergeTree(MergeTree(heights, edges), label_map)


def ultra_witness_oracle(m: SymMatrix):
    """First (i, j, k), one-based in row-major order, with M_ij > max(M_ik, M_kj).

    None when the relaxed ultrametric bound holds everywhere.
    """
    a = m.array
    n = m.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if a[i, j] > max(a[i, k], a[k, j]):
                    return (i + 1, j + 1, k + 1)
    return None


def induced_oracle(lt: LabeledMergeTree) -> np.ndarray:
    """Pairwise meet heights by explicit ancestor-chain intersection."""
    t = lt.tree
    n = lt.n_labels
    chains = {}
    for v in t.height:
        chain = []
        u = v
        while u is not None:
            chain.append(u)
            u = t.parent[u]
        chains[v] = chain
    out = np.empty((n, n))
    for i in range(1, n + 1):
        vi = lt.label_to_vertex[i]
        out[i - 1, i - 1] = t.height[vi]
        for j in range(i + 1, n + 1):
            vj = lt.label_to_vertex[j]
            common = set(chains[vi]) & set(chains[vj])
            h = min(t.height[u] for u in common)
            out[i - 1, j - 1] = out[j - 1, i - 1] = h
    return out


def walk_matrix_oracle(labels, own, gaps) -> np.ndarray:
    """The matrix of a label walk, filled one row at a time.

    Row p of the matrix in walk order is one running maximum over the gaps
    after position p; a scatter puts the labels in index order.
    """
    n = len(labels)
    gaps = np.array(gaps, dtype=float)
    d = np.empty((n, n), dtype=float)
    for p in range(n - 1):
        d[p, p + 1 :] = d[p + 1 :, p] = np.maximum.accumulate(gaps[p:])
    np.fill_diagonal(d, own)
    order = np.array(labels, dtype=np.intp) - 1
    a = np.empty_like(d)
    a[np.ix_(order, order)] = d
    return a


def label_walk_oracle(lt: LabeledMergeTree) -> tuple:
    """(labels, heights, gaps) of a recursive preorder from the vertex with
    no parent: children by id, each vertex's labels in ascending order
    before its children's.  Each gap is the height of the lowest common
    ancestor of two neighbouring labels' vertices, the first vertex of the
    second one's ancestor chain that lies on the first one's."""
    up = dict(lt.tree.edges)
    height = dict(lt.tree.vertices)
    below = {}
    for c, p in lt.tree.edges:
        below.setdefault(p, []).append(c)
    on = {}
    for i, v in lt.labels:
        on.setdefault(v, []).append(i)
    (top,) = [v for v in height if v not in up]
    met = []  # (label, vertex) in preorder

    def visit(v):
        met.extend((i, v) for i in sorted(on.get(v, ())))
        for c in sorted(below.get(v, ())):
            visit(c)

    visit(top)

    def chain(v):
        out = [v]
        while out[-1] in up:
            out.append(up[out[-1]])
        return out

    gaps = []
    for (_, u), (_, w) in zip(met, met[1:]):
        above_u = set(chain(u))
        gaps.append(height[next(x for x in chain(w) if x in above_u)])
    return tuple(i for i, _ in met), tuple(height[v] for _, v in met), tuple(gaps)


def one_center_stacked(trees) -> tuple:
    """(center, radius) through the stacked induced matrices: their `max`
    and `min` over the stack, the tree of their exact midrange, rounded once,
    and the largest entry gap of the center's matrix to any input's.  A
    midrange that rounds to zero takes the sign IEEE arithmetic gives hi + lo."""
    stack = np.stack([induced_matrix(t).array for t in trees])
    mid = [
        [math.copysign(float((Fraction(h) + Fraction(l)) / 2), h + l) for h, l in zip(hs, ls)]
        for hs, ls in zip(stack.max(axis=0).tolist(), stack.min(axis=0).tolist())
    ]
    center = tree_of_matrix(mid)
    return center, max(linf_distance(induced_matrix(center), induced_matrix(t)) for t in trees)


def exact_gap(a, b) -> Fraction:
    """The exact largest |A_ij - B_ij| of two matrices' float entries."""
    return max(
        abs(Fraction(x) - Fraction(y))
        for x, y in zip(as_sym_matrix(a).array.flat, as_sym_matrix(b).array.flat)
    )


def exact_half_range(matrices) -> Fraction:
    """Half the exact largest range max_k M_ij - min_k M_ij of one entry over
    the matrices: the radius of their smallest enclosing L-infinity ball."""
    stack = np.stack([as_sym_matrix(m).array for m in matrices]).reshape(len(matrices), -1)
    return max(Fraction(max(col)) - Fraction(min(col)) for col in stack.T.tolist()) / 2


def induced_rowwise_oracle(lt: LabeledMergeTree) -> np.ndarray:
    """Pairwise meet heights filled one row at a time.

    Its own depth-first walk lists the labels and the meets of neighbouring
    ones, and `walk_matrix_oracle` fills the matrix from them.
    """
    t = lt.tree
    order, own, gaps = [], [], []
    meet = -INF  # highest vertex on the path since the last label
    stack = [t.top]
    while stack:
        v = stack.pop()
        if t.parent[v] is not None:
            meet = max(meet, t.height[t.parent[v]])
        for i in lt.labels_of[v]:
            if order:
                gaps.append(meet)
            order.append(i)
            own.append(t.height[v])
            meet = t.height[v]
        stack.extend(reversed(t.children[v]))
    return walk_matrix_oracle(order, own, gaps)


def candidate_shifts_oracle(t1: MergeTree, t2: MergeTree) -> list:
    """`candidate_shifts` by the loop over every pair of distinct heights."""
    heights = sorted(set(t1.height.values()) | set(t2.height.values()))
    out = {0.0}
    for i, a in enumerate(heights):
        for b in heights[i + 1 :]:
            gap = b - a
            out.add(gap)
            out.add(gap / 2.0)
    return sorted(out)


def refine_at_oracle(t: MergeTree, points):
    """`trees.refine_at` as it was written before it spliced the parent map:
    each vertex's new heights are sorted into a chain from the vertex up to
    its old parent, and every edge is listed again from those chains."""
    t.ensure_valid()
    points = [as_point(t, p) for p in points]
    next_id = max(t.height) + 1
    where = {}
    inserts = {}  # anchor vertex -> sorted list of new heights on its parent edge/ray
    for p in points:
        if is_vertex_point(t, p):
            where[p] = p.anchor
        else:
            inserts.setdefault(p.anchor, set()).add(p.height)

    vertices = list(t.vertices)
    edges = []
    new_at = {}
    for anchor in sorted(inserts):
        for h in sorted(inserts[anchor]):
            vertices.append((next_id, h))
            new_at[(anchor, h)] = next_id
            next_id += 1

    for v, _ in t.vertices:
        chain = [v] + [
            new_at[(v, h)] for h in sorted(inserts.get(v, ()))
        ]
        par = t.parent[v]
        for lower, upper in zip(chain, chain[1:]):
            edges.append((lower, upper))
        if par is not None:
            edges.append((chain[-1], par))

    out = MergeTree(vertices, edges)
    for p in points:
        if p not in where:
            where[p] = new_at[(p.anchor, p.height)]
    return out, where


def _vertex_chain_above(t: MergeTree, p: PointOnTree):
    """Vertices strictly on the upward path from p, lowest first; the
    anchor itself when p is that vertex."""
    v = p.anchor
    if not is_vertex_point(t, p):
        v = t.parent[v]
    while v is not None:
        yield v
        v = t.parent[v]


def ancestor_at(t: MergeTree, p, height: float) -> PointOnTree:
    """The unique point at the given height on the upward path from p."""
    p = as_point(t, p)
    if height < p.height:
        raise MergespaceError(
            f"ancestor height {height} is below the point at {p.height}"
        )
    return point_at(t, p.anchor, height)


def lca_oracle(t: MergeTree, a, b) -> PointOnTree:
    """Lowest common ancestor by intersecting the two vertex chains."""
    a = as_point(t, a)
    b = as_point(t, b)
    lo, hi = (a, b) if a.height <= b.height else (b, a)
    if ancestor_at(t, lo, hi.height) == hi:
        return hi
    seen = set(_vertex_chain_above(t, lo))
    for v in _vertex_chain_above(t, hi):
        if v in seen:
            return vertex_point(t, v)
    raise MergespaceError("points share no ancestor; tree is disconnected")


def _points_close_oracle(t: MergeTree, a, b, tol: float) -> bool:
    """Same point up to tol: both lifted to the higher height plus tol land
    on one branch."""
    if abs(a.height - b.height) > tol:
        return False
    if a.anchor == b.anchor:
        return True
    hi = max(a.height, b.height) + tol
    return ancestor_at(t, a, hi).anchor == ancestor_at(t, b, hi).anchor


def _is_ancestor_close_oracle(t: MergeTree, below, above, tol: float) -> bool:
    if below.height > above.height + tol:
        return False
    hi = max(below.height, above.height)
    return _points_close_oracle(t, ancestor_at(t, below, hi), above, tol)


def _preimage_oracle(vm, p):
    out = []
    for x in points_at(vm.source, p.height - vm.delta, vm.tol):
        if _points_close_oracle(vm.target, map_point(vm, x), p, 2 * vm.tol):
            out.append(x)
    return out


def _missed_oracle(vm, vertices):
    """(w, attach, leaf) for each target vertex no leaf image reaches: the
    lowest `lca_oracle` of w with a leaf image, and the first leaf there."""
    t = vm.target
    leaves = vm.source.leaves
    leaf_images = [vm.image_of[leaf] for leaf in leaves]
    for w in vertices:
        wp = vertex_point(t, w)
        if not any(_is_ancestor_close_oracle(t, li, wp, vm.tol) for li in leaf_images):
            meets = [(lca_oracle(t, wp, li), u) for u, li in zip(leaves, leaf_images)]
            attach, leaf = min(meets, key=lambda m: m[0].height)
            yield w, attach, leaf


def verify_delta_good_oracle(vm) -> GoodMapReport:
    """`verify_delta_good` by lifting points along ancestor chains and, for
    merge-spread, sweeping every image and target vertex height."""
    s, t, d, tol = vm.source, vm.target, vm.delta, vm.tol
    img = vm.image_of
    for v in sorted(s.height):
        want = s.height[v] + d
        got = img[v].height
        if abs(got - want) > tol:
            return GoodMapReport(
                False, "height-shift", (v,),
                f"vertex {v} at {s.height[v]} maps to height {got}, not {want}",
            )
    for c, p in s.edges:
        lifted = ancestor_at(t, img[c], max(img[c].height, img[p].height))
        if not _points_close_oracle(t, lifted, img[p], tol):
            return GoodMapReport(
                False, "edge-coherence", (c, p),
                f"images of edge ({c}, {p}) do not lie on one target path",
            )
    crit = sorted({img[v].height for v in s.height} | {t.height[w] for w in t.height})
    for g in crit:
        if g - d < min(h for _, h in s.vertices) - tol:
            continue
        for p in points_at(t, g, 0.0):
            pre = _preimage_oracle(vm, p)
            if len(pre) < 2:
                continue
            meet = pre[0]
            for q in pre[1:]:
                meet = lca_oracle(s, meet, q)
            spread = meet.height - min(x.height for x in pre)
            if spread > 2 * d + tol:
                return GoodMapReport(
                    False, "merge-spread", (p, tuple(pre), meet),
                    f"branches merging at {meet.height} share the image point "
                    f"({p.anchor}, {p.height}) but lie {spread} below it",
                )
    for w, attach, _ in _missed_oracle(vm, sorted(t.height)):
        below = [x for x in t.height if w in _vertex_chain_above(t, vertex_point(t, x))]
        gap = attach.height - min(t.height[x] for x in below)
        if gap > 2 * d + tol:
            return GoodMapReport(
                False, "missed-depth", (w, attach),
                f"the image misses the branch at vertex {w}, leaving depth {gap} "
                f"unreached",
            )
    return GoodMapReport(True)


def labeling_from_map_oracle(vm) -> LabelPairing:
    """`labeling_from_map` with the oracle's misses: each source leaf paired
    with its image, each missed target leaf with the point delta below its
    attach point on the ancestor chain of the leaf whose image it meets."""
    s, t, tol = vm.source, vm.target, vm.tol
    pairs = [(vertex_point(s, v), map_point(vm, v)) for v in s.leaves]
    for w, attach, u in _missed_oracle(vm, t.leaves):
        x = ancestor_at(s, u, max(attach.height - vm.delta, s.height[u]))
        pairs.append((_snap_point(s, x, tol), vertex_point(t, w)))
    return LabelPairing(s, t, tuple(pairs))


def _crossings(t: MergeTree, h: float, tol: float) -> list:
    """The points of t at height h, read off its vertices and edges: each
    vertex within tol of h, then one point per edge, or the top's ray, that
    crosses h with neither end within tol.  Sorted by anchor."""
    height, parent = dict(t.vertices), dict(t.edges)
    near = {v for v, hv in t.vertices if abs(hv - h) <= tol}
    pts = [PointOnTree(v, height[v]) for v in near]
    for c, hc in t.vertices:
        p = parent.get(c)  # None at the top, whose ray climbs forever
        if hc < h < height.get(p, INF) and not near & {c, p}:
            pts.append(PointOnTree(c, h))
    return sorted(pts)


def good_map_exists(s: MergeTree, t: MergeTree, delta: float) -> bool:
    """Whether some delta-good map s -> t exists, judged by
    `verify_delta_good_oracle` on every map with leaf images at leaf height
    + delta (Touli & Wang, ESA 2019).

    A good map shifts heights by delta and is continuous, so its leaf images
    fix it: each inner vertex goes to the point at its own height + delta
    above the image of a leaf below it.  One map per combination of leaf
    images, so small trees only.
    """
    tol = height_tol(s, t)
    leaf_below = {}
    for leaf in s.leaves:
        v = leaf
        while v is not None and v not in leaf_below:
            leaf_below[v] = leaf
            v = s.parent[v]
    options = [_crossings(t, s.height[leaf] + delta, tol) for leaf in s.leaves]
    for choice in itertools.product(*options):
        at = dict(zip(s.leaves, choice))
        images = {}
        for v, h in s.vertices:
            base = at[leaf_below[v]]
            images[v] = base if v in at else ancestor_at(t, base, max(h + delta, base.height))
        if verify_delta_good_oracle(VertexMap(s, t, delta, images)):
            return True
    return False


def diagram_oracle(t) -> PersistenceDiagram:
    """Elder rule leaf by leaf, from the raw vertices and edges: a leaf dies
    at the first vertex up its ancestor chain whose subtree holds an elder
    leaf (smaller (height, id)); the eldest leaf never dies."""
    t = _bare(t)
    height = dict(t.vertices)
    parent = dict.fromkeys(height)
    parent.update(t.edges)
    leaves = sorted(set(height) - set(parent.values()))
    below = {v: [] for v in height}
    for leaf in leaves:
        u = leaf
        while u is not None:
            below[u].append((height[leaf], leaf))
            u = parent[u]
    points = []
    for leaf in leaves:
        u = parent[leaf]
        while u is not None and min(below[u]) == (height[leaf], leaf):
            u = parent[u]
        points.append((height[leaf], INF if u is None else height[u]))
    return PersistenceDiagram(points)


def validate_oracle(t: MergeTree) -> ValidationReport:
    """Every structural check in the library's order, plus a walk up every
    parent chain that reports a missing top or a cycle; the library proves
    both impossible once the edge checks pass, so it skips them."""
    problems = []
    if not t.vertices:
        return ValidationReport(("tree has no vertices",))

    heights = {}
    for v, h in t.vertices:
        if v < 0:
            problems.append(f"vertex id {v} is negative")
        if v in heights:
            problems.append(f"duplicate vertex id {v}")
        if not math.isfinite(h):
            problems.append(f"vertex {v} has non-finite height {h}")
        heights[v] = h
    if problems:
        return ValidationReport(tuple(problems))

    parents = {}
    seen_edges = set()
    for c, p in t.edges:
        if (c, p) in seen_edges:
            problems.append(f"duplicate edge ({c}, {p})")
            continue
        seen_edges.add((c, p))
        if c not in heights or p not in heights:
            problems.append(f"edge ({c}, {p}) references an unknown vertex")
            continue
        if c == p:
            problems.append(f"edge ({c}, {p}) is a self loop")
            continue
        if heights[c] == heights[p]:
            problems.append(f"edge ({c}, {p}) has equal function value on both ends")
        elif heights[c] > heights[p]:
            problems.append(f"edge ({c}, {p}) runs downward: child above parent")
        if c in parents:
            problems.append(f"vertex {c} has multiple ancestors ({parents[c]} and {p})")
        else:
            parents[c] = p
    if problems:
        return ValidationReport(tuple(problems))

    tops = [v for v in heights if v not in parents]
    if not tops:
        problems.append("no top vertex: the parent relation contains a cycle")
    elif len(tops) > 1:
        problems.append(
            "disconnected: multiple top vertices " + str(tuple(sorted(tops)))
        )

    # walk the parent chain from every vertex; a cycle revisits a vertex
    state = {}
    for v in heights:
        path = []
        u = v
        while u is not None and state.get(u) is None:
            state[u] = "open"
            path.append(u)
            u = parents.get(u)
        if u is not None and state[u] == "open":
            problems.append(f"cycle in ancestry through vertex {u}")
        for w in path:
            state[w] = "closed"
        if problems:
            break

    return ValidationReport(tuple(problems))


def _pair_cost(p, q) -> float:
    if math.isinf(p[1]) != math.isinf(q[1]):
        return INF
    if math.isinf(p[1]):
        return abs(p[0] - q[0])
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def _diag_cost(p) -> float:
    if math.isinf(p[1]):
        return INF
    return (p[1] - p[0]) / 2.0


def bottleneck_oracle(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Best matching cost by enumerating assignments (small inputs only)."""
    inf1 = sorted(b for b, _ in d1.infinite)
    inf2 = sorted(b for b, _ in d2.infinite)
    if len(inf1) != len(inf2):
        return INF
    base = max((abs(a - b) for a, b in zip(inf1, inf2)), default=0.0)

    left = list(d1.finite)
    right = list(d2.finite)
    best = INF

    def go(i: int, used: set, cur: float):
        nonlocal best
        if cur >= best:
            return
        if i == len(left):
            rest = max(
                (_diag_cost(right[j]) for j in range(len(right)) if j not in used),
                default=0.0,
            )
            best = min(best, max(cur, rest))
            return
        go(i + 1, used, max(cur, _diag_cost(left[i])))
        for j in range(len(right)):
            if j not in used:
                go(i + 1, used | {j}, max(cur, _pair_cost(left[i], right[j])))

    go(0, set(), base)
    return best


def _reference_search(d1: PersistenceDiagram, d2: PersistenceDiagram, feasible) -> float:
    """Binary search over the candidate costs for the least feasible one.

    `feasible(c, pair, diag_l, diag_r)` decides one cost from the matrix of
    point-to-point costs and the two half-persistence vectors.
    """
    inf1 = sorted(b for b, _ in d1.infinite)
    inf2 = sorted(b for b, _ in d2.infinite)
    if len(inf1) != len(inf2):
        return INF
    base = max((abs(a - b) for a, b in zip(inf1, inf2)), default=0.0)
    left = np.array(d1.finite, dtype=float).reshape(-1, 2)
    right = np.array(d2.finite, dtype=float).reshape(-1, 2)
    pair = np.maximum(
        np.abs(left[:, None, 0] - right[None, :, 0]),
        np.abs(left[:, None, 1] - right[None, :, 1]),
    )
    diag_l = (left[:, 1] - left[:, 0]) / 2.0
    diag_r = (right[:, 1] - right[:, 0]) / 2.0
    cands = np.unique(np.concatenate([[0.0, base], pair.ravel(), diag_l, diag_r]))
    cands = cands[cands >= base]
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(cands[mid], pair, diag_l, diag_r):
            hi = mid
        else:
            lo = mid + 1
    return float(cands[lo])


def _max_matching(adj: np.ndarray) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    return maximum_bipartite_matching(csr_matrix(adj), perm_type="column")


def _augmented_feasible(c, pair, diag_l, diag_r) -> bool:
    """Perfect matching between each diagram's points plus one diagonal
    stand-in per point of the other diagram; stand-ins join their own point
    within c and each other freely."""
    nl, nr = pair.shape
    adj = np.zeros((nl + nr, nr + nl), dtype=bool)
    adj[:nl, :nr] = pair <= c
    adj[np.arange(nl), nr + np.arange(nl)] = diag_l <= c
    adj[nl + np.arange(nr), np.arange(nr)] = diag_r <= c
    adj[nl:, nr:] = True
    return bool(np.all(_max_matching(adj) >= 0))


def _covering_feasible(c, pair, diag_l, diag_r) -> bool:
    """Matchings within c that cover the points of each diagram that cannot
    retire to the diagonal at c, one side at a time (Mendelsohn-Dulmage)."""
    must_l = diag_l > c
    must_r = diag_r > c
    return bool(
        np.all(_max_matching(pair[must_l] <= c) >= 0)
        and np.all(_max_matching(pair.T[must_r] <= c) >= 0)
    )


def bottleneck_reference(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Exact bottleneck distance with scipy's Hopcroft-Karp on the classic
    augmented graph, diagonal clique included (up to a few hundred points)."""
    return _reference_search(d1, d2, _augmented_feasible)


def bottleneck_covering_reference(d1: PersistenceDiagram, d2: PersistenceDiagram) -> float:
    """Exact bottleneck distance with scipy's Hopcroft-Karp on the covering
    form, which has no diagonal clique and so scales to thousands of points."""
    return _reference_search(d1, d2, _covering_feasible)
