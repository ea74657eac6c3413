"""Benchmark of mergespace on one seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: labeled-collection, unlabeled-search, diagrams (see README.md).
The command generates the workload's inputs from the seed, writes them in
the program's file formats, and times the set-up (a fresh interpreter that
imports mergespace and parses the files) at the start and end of the run.
It then runs the workload's fixed operation list: once untimed on its
first sixteenth as a warm-up, then ceil(S / PASS_SECONDS) timed passes over
the whole list.  Each pass parses the files anew, so no state carries over
between passes.  Every time is scaled to a reference host speed by the
calibration kernel of hostspeed.py, timed between operations and around
each set-up probe.  Every result is checked against the references in
reference.py after the timed passes; results that fail a check, or
operations that raise, count as failed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones from spans around mergespace's public functions,
and the spans of the last pass are written to
.perfbench-runs/NAME.spans.tsv.gz.
"""

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one thread everywhere, set before numpy loads; child interpreters inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import load  # noqa: E402

ms = load.import_mergespace()

import numpy as np  # noqa: E402

import generate as gen  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"
PASS_SECONDS = 20  # each operation list lasts about this long on a 2-core host
SETUP_PROBES = 3  # timed set-up interpreters at the start and again at the end


def setup_times(directory: Path, warm: bool) -> list:
    """Scaled wall times of fresh interpreters that import mergespace and load the inputs.

    With warm, an untimed interpreter runs first: right after an idle gap
    the first start-up is slower, and that gap is not what a CLI call pays.
    Each probe is scaled by calibration blocks timed just before and after it.
    """
    cmd = [sys.executable, str(HERE / "load.py"), str(directory)]
    times = []
    before = hostspeed.block()
    for _ in range(SETUP_PROBES + warm):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        wall = time.perf_counter() - t0
        after = hostspeed.block()
        times.append(wall * hostspeed.REFERENCE_S / ((before + after) / 2))
        before = after
    return times[warm:]


def run_pass(workload, directory: Path, warmup: bool = False) -> dict:
    """Parse the inputs afresh, then time each operation of the list.

    One calibration kernel runs before the first operation and after each
    one; an operation's time is scaled by the mean of the two kernels that
    bracket it.  A warm-up pass runs the first sixteenth of the list.
    """
    ops = workload.ops(load.load_dir(directory))
    if warmup:
        ops = ops[: len(ops) // 16]
    results, times, kernels = [], [], [hostspeed.sample()]
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.call(results)
        except Exception as exc:  # a failed operation; reported with the checks
            result = exc
        times.append(time.perf_counter() - t0)
        results.append(result)
        kernels.append(hostspeed.sample())
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    kernels = np.array(kernels)
    scaled = np.array(times) * hostspeed.REFERENCE_S / ((kernels[:-1] + kernels[1:]) / 2)
    return {"ops": ops, "results": results, "scaled": scaled, "wall": wall, "cpu": cpu, "kernels": kernels}


def layer_probe():
    """One small call into every traced layer.

    Run after each traced pass so that every layer reports a measured time
    on every workload, including layers the workload itself leaves idle.
    """
    rng = gen.rng_for("probe", 0)
    a, b = (ms.parse_tree(gen.labeled_tree(rng, 6, None)[0].to_json()) for _ in range(2))
    ms.geodesic_point(a, b, 0.5)
    center, _ = ms.one_center([a, b])
    ms.is_ultra(ms.ultrafy(ms.induced_matrix(center)))
    ms.unlabeled_interleaving(a, b)
    ms.bottleneck_tree_distance(a, b)


def check(workload, run) -> tuple:
    """(operations that raised, results that failed a check), as messages."""
    raised, wrong = [], []
    for k, (op, result) in enumerate(zip(run["ops"], run["results"])):
        where = f"op {k} ({op.kind} {op.ref[:4]})"
        if isinstance(result, Exception):
            raised.append(f"{where}: raised {result!r}")
        else:
            reason = workload.check(op, result)
            if reason is not None:
                wrong.append(f"{where}: {reason}")
    return raised, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=PASS_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workload = workloads.WORKLOADS[args.workload](args.seed)
    RUNS.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS))
    try:
        workload.write(directory)
        setups = setup_times(directory, warm=True)
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        run_pass(workload, directory, warmup=True)
        runs, layers = [], []
        for _ in range(math.ceil(args.seconds / PASS_SECONDS)):
            gc.collect()
            if tracer:
                tracer.start()
            runs.append(run_pass(workload, directory))
            if tracer:
                layer_probe()
                layers.append(tracer.stop())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        n_ops = sum(len(r["ops"]) for r in runs)
        checked = [check(workload, r) for r in runs]
        raised = [m for r, _ in checked for m in r]
        wrong = [m for _, w in checked for m in w]
        failures = raised + wrong
        # the host's speed drifts over seconds; sampling set-up at both ends
        # of the run keeps its median from hanging on one moment
        setup = statistics.median(setups + setup_times(directory, warm=False))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if tracer:
        tracer.write(RUNS / f"{args.workload}.spans.tsv.gz")

    scaled = np.concatenate([r["scaled"] for r in runs])
    wall = sum(r["wall"] for r in runs)
    kernel_ms = float(np.median(np.concatenate([r["kernels"] for r in runs]))) * 1e3
    for f in failures[:5]:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(runs)} pass(es) of "
        f"{len(runs[0]['ops'])} ops, wall {wall:.3f} s, cpu {sum(r['cpu'] for r in runs):.3f} s, "
        f"{n_ops / float(scaled.sum()):.3f} ops/s scaled, {n_ops / wall:.3f} ops/s unscaled, median kernel {kernel_ms:.3f} ms, setup {setup:.4f} s, {len(failures)} failed",
        file=sys.stderr,
    )
    if tracer:
        metrics = {
            name: {"value": statistics.median(pass_[name] for pass_ in layers), "unit": unit}
            for name, unit in tracing.LAYER_METRICS.items()
        }
    else:
        p50, p90 = np.percentile(scaled, [50, 90]) * 1000.0
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "ops_per_s": {"value": n_ops / float(scaled.sum()), "unit": "1/s"},
            "op_p50_ms": {"value": float(p50), "unit": "ms"},
            "op_p90_ms": {"value": float(p90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": n_ops,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
