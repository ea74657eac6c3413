"""Planted faults: each row is a fault that some tests must catch.

    python tests/faults.py

A row names a file of the checkout, an exact text in it, the text that
replaces it, and the pytest node ids that must fail once it is planted.
The runner first runs every listed test on an unplanted copy, where all
must pass.  Then, for each row, it copies `src/`, `tests/` and
`pyproject.toml` to a fresh temporary directory outside the checkout,
plants the fault and runs all of that row's tests.  Every listed id must
fail: an id names one test or, without its parameters, each of them, and
it fails when one of the tests it names fails.  The runner exits nonzero,
naming each offending id, when a listed id passes under its fault, when
a listed id runs no test or fails unplanted, or when a row's old text is
not found exactly once.  pytest does not collect this file: its name does
not match `test_*.py`.

A change that plants a fault by hand adds it here as a row, so that a later
refactor which leaves the catching tests vacuous fails in CI.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent

# (name, file, old text, new text, node ids that must fail)
FAULTS = [
    (
        "blend without the clip",
        "src/mergespace/metrics.py",
        "    np.maximum(mix, np.minimum(a, b), out=mix)\n"
        "    return SymMatrix._unchecked(np.minimum(mix, np.maximum(a, b), out=mix))\n",
        "    return SymMatrix._unchecked(mix)\n",
        [
            "tests/test_metrics.py::test_blend_property_keeps_each_entry_between_its_ends",
            "tests/test_metrics.py::test_geodesic_property_from_a_tree_to_itself_stays_at_the_tree",
            "tests/test_metrics.py::test_blend_near_the_largest_float_stays_between_its_ends",
        ],
    ),
    (
        "SymMatrix trusts a caller's matrix",
        "src/mergespace/matrices.py",
        "self._a, self._ultra, self._sweep = a, False, None",
        "self._a, self._ultra, self._sweep = a, False, MatrixCheck(True)",
        ["tests/test_matrices.py::test_an_invalid_matrix_is_checked_once"],
    ),
    (
        "an unpickled matrix left writeable",
        "src/mergespace/matrices.py",
        "        self._a.setflags(write=False)\n",
        "",
        ["tests/test_matrices.py::test_an_unpickled_matrix_stays_read_only_and_keeps_its_trust"],
    ),
    (
        "a computed matrix is checked again",
        "src/mergespace/matrices.py",
        "m._a, m._ultra, m._sweep = a, ultra, MatrixCheck(True)",
        "m._a, m._ultra, m._sweep = a, ultra, None",
        ["tests/test_metrics.py::test_a_computed_matrix_is_never_checked"],
    ),
    (
        "a nested sequence read by numpy's common dtype",
        "src/mergespace/matrices.py",
        "bulk = isinstance(entries, np.ndarray)",
        "bulk = True",
        [
            "tests/test_api.py::test_every_entry_point_refuses_a_value_that_is_not_its_kind_of_number",
            "tests/test_api.py::test_a_matrix_entry_beyond_the_64_bit_range_is_read_as_its_float",
            "tests/test_matrices.py::test_sym_matrix_refuses_a_ragged_list_by_its_shape",
        ],
    ),
    (
        "the matrix store serves an entry without its identity check",
        "src/mergespace/matrices.py",
        "if entry is not None and entry[0]() is lt:",
        "if entry is not None:",
        [
            "tests/test_matrices.py::test_a_dead_trees_matrix_is_never_served_to_a_new_tree",
            "tests/test_matrices.py::test_store_property_serves_each_tree_its_own_matrix",
        ],
    ),
    (
        "the matrix store never evicts",
        "src/mergespace/matrices.py",
        "while _kept_bytes > _KEPT_BYTES:",
        "while False:",
        ["tests/test_matrices.py::test_the_store_keeps_at_most_its_budget_of_dropped_trees_matrices"],
    ),
    (
        "the matrix store takes a matrix over its budget",
        "src/mergespace/matrices.py",
        "    if charge > _KEPT_BYTES:\n        return\n",
        "",
        ["tests/test_matrices.py::test_a_matrix_over_the_budget_is_returned_and_not_kept"],
    ),
    (
        "candidate_shifts without the half-gaps",
        "src/mergespace/unlabeled.py",
        "c = np.concatenate(([0.0], gaps, gaps / 2.0))",
        "c = np.concatenate(([0.0], gaps))",
        ["tests/test_unlabeled.py::test_candidate_shifts_cover_height_gaps_and_halves"],
    ),
    (
        "refuted_below one candidate low",
        "src/mergespace/unlabeled.py",
        "return max(below), min(above, default=None)",
        "return sorted(set(below))[-2:][0], min(above, default=None)",
        [
            "tests/test_unlabeled.py::test_bound_first_does_not_start_at_the_float_bound",
            "tests/test_cli.py::test_dist_unlabeled_warns_when_uncertified",
        ],
    ),
    (
        "re-test skipped",
        "src/mergespace/unlabeled.py",
        'by = "retest" if probe(below, refuted, delta) is None else None',
        'by = "retest"',
        [
            "tests/test_unlabeled.py::test_bisection_equals_the_ascending_scan[0.0001]",
            "tests/test_cli.py::test_dist_unlabeled_warns_when_uncertified",
        ],
    ),
    (
        "bound without its slack",
        "src/mergespace/unlabeled.py",
        "_shifts_around(_heights(a, b), bound - slack)",
        "_shifts_around(_heights(a, b), bound)",
        ["tests/test_unlabeled.py::test_bound_first_does_not_start_at_the_float_bound"],
    ),
    (
        "the shift sweep passes a candidate equal to y",
        "src/mergespace/unlabeled.py",
        "while j < n and (h[j] - x) / div < y:",
        "while j < n and (h[j] - x) / div <= y:",
        ["tests/test_unlabeled.py::test_shift_sweep_property_finds_the_neighbours_in_the_candidate_list"],
    ),
    (
        "meet rows' running maximum started one gap late",
        "src/mergespace/unlabeled.py",
        "for g in gaps[p:]:",
        "for g in [-math.inf] + gaps[p + 1 :]:",
        [
            "tests/test_unlabeled.py::test_meet_table_property_matches_the_labeled_route_and_the_lca_oracle",
            "tests/test_unlabeled.py::test_prepare_property_gives_the_canonical_tree_its_meet_rows_and_its_points",
            "tests/test_unlabeled.py::test_bisection_equals_the_ascending_scan",
            "tests/test_acceptance.py::test_criterion_06_unlabeled_distance_is_exact_with_witness",
        ],
    ),
    (
        "the walk's chain skip stops one vertex early",
        "src/mergespace/unlabeled.py",
        "        while len(ch := children.get(v, ())) == 1:\n",
        "        while len(ch := children.get(v, ())) == 1 and len(children.get(ch[0], ())) == 1:\n",
        [
            "tests/test_unlabeled.py::test_prepare_property_gives_the_canonical_tree_its_meet_rows_and_its_points",
            "tests/test_unlabeled.py::test_meet_table_property_matches_the_labeled_route_and_the_lca_oracle",
            "tests/test_unlabeled.py::test_unlabeled_property_bound_first_equals_the_ascending_scan",
            "tests/test_golden.py::test_dist_unlabeled_matches_golden[refuted-first-probe]",
        ],
    ),
    (
        "the canonical top's ray ends at the removed top above it",
        "src/mergespace/unlabeled.py",
        "    stack = [(kept(t.top), None)]\n",
        "    stack = [(kept(t.top), None if kept(t.top) == t.top else t.top)]\n",
        [
            "tests/test_unlabeled.py::test_prepare_property_gives_the_canonical_tree_its_meet_rows_and_its_points",
            "tests/test_golden.py::test_dist_unlabeled_matches_golden[real-5]",
        ],
    ),
    (
        "the walk visits kept children in the order of the chains above them",
        "src/mergespace/unlabeled.py",
        "stack.extend([(c, v) for c in sorted(map(kept, children[v]), reverse=True)])",
        "stack.extend([(kept(c), v) for c in reversed(children[v])])",
        [
            "tests/test_unlabeled.py::test_prepare_property_gives_the_canonical_tree_its_meet_rows_and_its_points",
            "tests/test_unlabeled.py::test_meet_table_property_matches_the_labeled_route_and_the_lca_oracle",
        ],
    ),
    (
        "the search budget allows one state more",
        "src/mergespace/unlabeled.py",
        "if states > budget:",
        "if states > budget + 1:",
        ["tests/test_unlabeled.py::test_the_budget_counts_every_option_tried"],
    ),
    (
        "the pair check drops its lower one-sided test",
        "src/mergespace/unlabeled.py",
        "if m - k > limit or k - m > limit:",
        "if m - k > limit:",
        [
            "tests/test_unlabeled.py::test_at_tolerance_zero_the_pair_check_admits_a_gap_equal_to_the_shift[True]",
            "tests/test_unlabeled.py::test_a_probe_explores_a_pinned_number_of_states",
            "tests/test_unlabeled.py::test_witness_realizes_the_value",
            "tests/test_golden.py::test_dist_unlabeled_matches_golden[refuted-first-probe]",
            "tests/test_acceptance.py::test_criterion_06_unlabeled_distance_is_exact_with_witness",
        ],
    ),
    (
        "the placed second-tree point's height left out of its meet",
        "src/mergespace/unlabeled.py",
        "                    if eh > k:\n                        k = eh\n",
        "",
        [
            "tests/test_unlabeled.py::test_at_tolerance_zero_the_pair_check_admits_a_gap_equal_to_the_shift[False]",
            "tests/test_unlabeled.py::test_a_probe_explores_a_pinned_number_of_states",
            "tests/test_unlabeled.py::test_symmetry",
            "tests/test_golden.py::test_dist_unlabeled_matches_golden[grid-5]",
            "tests/test_acceptance.py::test_criterion_10_metric_axioms_hold",
        ],
    ),
    (
        "the pair check refuses a gap equal to its limit",
        "src/mergespace/unlabeled.py",
        "if m - k > limit or k - m > limit:",
        "if m - k >= limit or k - m >= limit:",
        ["tests/test_unlabeled.py::test_at_tolerance_zero_the_pair_check_admits_a_gap_equal_to_the_shift"],
    ),
    (
        "_walk_gap without the diagonal",
        "src/mergespace/trees.py",
        "max(d, _walk_excess(a, b), _walk_excess(b, a))",
        "max(_walk_excess(a, b), _walk_excess(b, a))",
        [
            "tests/test_metrics.py::test_labeled_interleaving_property_is_the_rounded_exact_gap",
            "tests/test_metrics.py::test_distance_never_exceeds_the_matrix_gap",
            "tests/test_trees.py::test_labeled_trees_equal_property_agrees_with_signatures",
        ],
    ),
    (
        "labeled equality with a tolerance",
        "src/mergespace/trees.py",
        "_walk_gap(a.walk_spans, b.walk_spans) == 0.0",
        "_walk_gap(a.walk_spans, b.walk_spans) <= 1e-9",
        ["tests/test_matrices.py::test_labeled_trees_equal_property_agrees_with_signatures"],
    ),
    (
        "parse_diagram appending without _checked",
        "src/mergespace/fileio.py",
        "_checked(((birth, death),), finite, infinite)",
        "(finite if death < math.inf else infinite).append((birth, death))",
        [
            "tests/test_fileio.py::test_diagram_rejects_a_nan_death",
            "tests/test_fileio.py::test_diagram_text_property_reads_as_the_checked_constructor",
        ],
    ),
    (
        "diagram points stored unsorted",
        "src/mergespace/persistence.py",
        "points=tuple(sorted(finite + infinite))",
        "points=tuple(finite + infinite)",
        [
            "tests/test_persistence.py::test_diagram_normalizes_and_sorts",
            "tests/test_persistence.py::test_wye_diagram",
            "tests/test_persistence.py::test_diagram_property_stores_the_sorted_points_split",
            "tests/test_fileio.py::test_diagram_text_is_checked_and_stored_once",
        ],
    ),
    (
        "elder rule walks the edges in stored order",
        "src/mergespace/persistence.py",
        "sorted(t.edges, key=lambda e: height[e[0]])",
        "t.edges",
        [
            "tests/test_persistence.py::test_ties_multiway_merges_and_subdivisions_follow_the_elder_rule",
            "tests/test_persistence.py::test_diagram_property_matches_the_ancestor_chain_oracle",
        ],
    ),
    (
        "bottleneck list path ignores the essential floor",
        "src/mergespace/persistence.py",
        "c = max([inf_cost, *fates])",
        "c = max(fates, default=0.0)",
        [
            "tests/test_persistence.py::test_bottleneck_pairs_essential_points_by_birth_order",
            "tests/test_persistence.py::test_bottleneck_property_small_path_is_bit_identical",
            "tests/test_acceptance.py::test_criterion_09_bottleneck_matches_exhaustive_matching",
        ],
    ),
    (
        "the list path's ascent drops the half-persistence events",
        "src/mergespace/persistence.py",
        "sorted([*(half[r] for r in rows), *(x for x in joins if x > c)])",
        "sorted([*(x for x in joins if x > c)])",
        [
            "tests/test_persistence.py::test_bottleneck_property_matches_the_enumeration_oracle",
            "tests/test_persistence.py::test_bottleneck_ascent_property_probes_rise_to_the_value",
        ],
    ),
    (
        "the numpy path's ascent drops the half-persistence events",
        "src/mergespace/persistence.py",
        "events = np.concatenate((half[rows], joins[joins > c]))",
        "events = joins[joins > c]",
        [
            "tests/test_persistence.py::test_bottleneck_property_matches_the_scipy_reference",
            "tests/test_persistence.py::test_bottleneck_ascent_property_probes_rise_to_the_value",
        ],
    ),
    (
        "the ascent steps to the first relief event",
        "src/mergespace/persistence.py",
        "return float(np.partition(events, k - 1)[k - 1])",
        "return float(events.min())",
        ["tests/test_persistence.py::test_bottleneck_ascent_steps_to_the_kth_relief_event"],
    ),
    (
        "_covers leaves the free rows out of its Hall violator",
        "src/mergespace/persistence.py",
        "return free + [match_col[j] for j in seen], len(free)",
        "return [match_col[j] for j in seen], len(free)",
        ["tests/test_persistence.py::test_covers_property_agrees_with_scipy_matching"],
    ),
    (
        "edge coherence compared exactly",
        "src/mergespace/goodmaps.py",
        "_points_close(meets, lifted, img[p], tol)",
        "_points_close(meets, lifted, img[p], 0.0)",
        ["tests/test_goodmaps.py::test_edge_coherence_compares_within_the_tolerance"],
    ),
    (
        "preimages matched within one tolerance",
        "src/mergespace/goodmaps.py",
        "_points_close(meets, map_point(vm, x), p, 2 * vm.tol)",
        "_points_close(meets, map_point(vm, x), p, vm.tol)",
        ["tests/test_goodmaps.py::test_merge_spread_at_the_tolerance_edge_equals_the_sweep_oracle[case3]"],
    ),
    (
        "missed depth measured from the missed vertex's own height",
        "src/mergespace/goodmaps.py",
        "np.diag(h)[below].min()",
        "np.diag(h)[below].max()",
        ["tests/test_goodmaps.py::test_missed_depth_is_measured_from_the_lowest_vertex_of_the_branch"],
    ),
    (
        "merge spread reads the target's meet table as the source's",
        "src/mergespace/goodmaps.py",
        "(srows, sh), (trows, th) = smeets, tmeets",
        "(srows, sh), (trows, th) = tmeets, tmeets",
        [
            "tests/test_goodmaps.py::test_merge_spread_catches_collapsed_branches",
            "tests/test_goodmaps.py::test_merge_spread_at_the_tolerance_edge_equals_the_sweep_oracle",
            "tests/test_goodmaps.py::test_map_layer_property_reports_and_pairings_equal_the_sweep_oracle",
            "tests/test_acceptance.py::test_criterion_07_good_maps_induce_close_labelings",
            "tests/test_golden.py::test_checkmap_matches_golden[merge-spread]",
        ],
    ),
    (
        "labeling_from_map finds misses in the source's meet table",
        "src/mergespace/goodmaps.py",
        "_missed_branches(vm, t.leaves, meet_table(t))",
        "_missed_branches(vm, t.leaves, meet_table(s))",
        [
            "tests/test_goodmaps.py::test_map_from_labeling_round_trip_on_the_seven_label_pair",
            "tests/test_goodmaps.py::test_a_300_leaf_independent_pair_transfers_one_label_per_leaf",
            "tests/test_goodmaps.py::test_map_layer_property_reports_and_pairings_equal_the_sweep_oracle",
            "tests/test_goodmaps.py::test_labeling_from_map_builds_the_target_table_only",
            "tests/test_acceptance.py::test_criterion_07_good_maps_induce_close_labelings",
        ],
    ),
    (
        "a missed branch attaches to the last of equal nearest leaf images",
        "src/mergespace/goodmaps.py",
        "nearest = meet.argmin(axis=1)",
        "nearest = meet.shape[1] - 1 - meet[:, ::-1].argmin(axis=1)",
        ["tests/test_goodmaps.py::test_map_layer_property_reports_and_pairings_equal_the_sweep_oracle"],
    ),
    (
        "_number tests numpy's scalar types through the handle",
        "src/mergespace/trees.py",
        "        isinstance(x, (int, float))\n"
        "        or (numpy := sys.modules.get(\"numpy\")) is not None\n"
        "        and isinstance(x, (numpy.integer, numpy.floating))\n",
        "        isinstance(x, (int, float, np.integer, np.floating))\n",
        ["tests/test_numpy_import.py::test_tree_reads_diagrams_and_small_searches_leave_numpy_unloaded"],
    ),
    (
        "persistence imports numpy itself",
        "src/mergespace/persistence.py",
        "from .trees import LabeledMergeTree, MergeTree, _bare, _number, np\n",
        "import numpy as np\n\nfrom .trees import LabeledMergeTree, MergeTree, _bare, _number\n",
        [
            "tests/test_numpy_import.py::test_tree_reads_diagrams_and_small_searches_leave_numpy_unloaded",
            "tests/test_numpy_import.py::test_threads_racing_to_the_first_numpy_call_all_get_numpy",
            "tests/test_numpy_import.py::test_numpy_scalars_loaded_after_mergespace_are_numbers",
        ],
    ),
    (
        "the numpy handle becomes a plain module without numpy's names",
        "src/mergespace/trees.py",
        "        vars(self).update(vars(numpy))\n",
        "",
        [
            "tests/test_numpy_import.py::test_tree_reads_diagrams_and_small_searches_leave_numpy_unloaded",
            "tests/test_numpy_import.py::test_threads_racing_to_the_first_numpy_call_all_get_numpy",
        ],
    ),
]

# Known equivalent mutants: each changes no result, so no test can catch it
# and it is kept out of FAULTS.
# - `matrices._walk_meets` accumulating each block from its second row
#   (`block[1:]`): the block's first row lies wholly on or above the
#   diagonal of its square, so it is all -inf.  From the third row on
#   (`block[2:]`) it is a fault, and the walk-kernel tests catch it.
# - `low <= other` for `low < other` in `persistence_diagram`: two carried
#   minima never compare equal, since each carries its own leaf id.
# - `sorted(infinite + finite)` in `persistence._store`: no finite point
#   equals an essential one, so the stable sort's order among equal points
#   is the same either way.
# - `g >= m` for `g > m` in `unlabeled._prepare`'s meet rows: the highest
#   gaps of a stretch of a valid tree's walk are all one vertex's height, so
#   the running maximum keeps the same bits either way, signed zeros
#   included (`test_meet_table_property_matches_the_labeled_route_and_the_lca_oracle`
#   checks that on the walk).


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _pytest(where: Path, ids) -> dict:
    """Outcome of each listed id in the copy, importing the copy's package:
    "failed" when a test it names fails, "passed" when all of them pass,
    and "not run" when it names none."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    found = subprocess.run(
        [sys.executable, "-c", "import mergespace; print(mergespace.__file__)"],
        cwd=where, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(found).resolve().is_relative_to(where.resolve()):
        sys.exit(f"mergespace resolves to {found}, outside the copy {where}")
    report = where / "report.xml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           f"--junitxml={report}", *ids]
    subprocess.run(cmd, cwd=where, env=env, capture_output=True)
    ran = {}  # node id -> failed; a case's class name is its module's dotted path
    if report.exists():
        for case in ElementTree.parse(report).iter("testcase"):
            node = f"{case.get('classname').replace('.', '/')}.py::{case.get('name')}"
            ran[node] = case.find("failure") is not None or case.find("error") is not None
    outcome = {}
    for i in ids:
        named = [failed for node, failed in ran.items() if node == i or node.startswith(i + "[")]
        outcome[i] = "not run" if not named else "failed" if any(named) else "passed"
    return outcome


def main() -> int:
    bad, stale = [], set()
    for name, file, old, _, _ in FAULTS:
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            stale.add(name)
            bad.append(f"stale row {name!r}: its old text occurs {count} times in {file}")
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp)
        _copy(clean)
        ids = sorted({i for *_, row_ids in FAULTS for i in row_ids})
        for i, got in _pytest(clean, ids).items():
            if got != "passed":
                bad.append(f"{i} {got} with no fault planted")
    for name, file, old, new, row_ids in FAULTS:
        if name in stale:
            continue
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            _copy(copy)
            path = copy / file
            path.write_text(path.read_text().replace(old, new))
            missed = [(i, got) for i, got in _pytest(copy, row_ids).items() if got != "failed"]
        verdict = "SURVIVED" if len(missed) == len(row_ids) else "MISSED BY SOME" if missed else "caught"
        print(f"{verdict}  {name}  ({time.perf_counter() - start:.1f} s)")
        bad += [f"under {name!r}: {i} {got}" for i, got in missed]
    for b in bad:
        print(b, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
