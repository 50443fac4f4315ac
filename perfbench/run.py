"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream_camera --seed 1 --seconds 45 --trace 0

Every metric is printed as ``name value unit`` and the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is non-zero when any
operation failed or any served verdict differed from the offline one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

#: BLAS thread pools default to one thread, as ``WorkerPool`` sets for its
#: workers: the monitored matrices are small, and several scoring threads
#: sharing one BLAS pool spin against each other.  Set the variables to
#: measure another configuration; the environment record shows what ran.
BLAS_THREADS_DEFAULT = "1"
for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_key, BLAS_THREADS_DEFAULT)

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Scratch files (deployment bundles, worker span tables) live here, inside
#: the checkout, and are removed when the run ends.
WORK_DIR = ROOT / ".perfbench_work"

WORKLOADS = ("stream_camera", "remote_socket")

#: End-to-end metrics: every workload reports each of them.
END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "overhead_x": "x",
}

#: Per-layer metrics of the traced run; a layer a workload does not cross
#: reads 0.
PER_LAYER = {
    "nn.activations_us": "us",
    "monitors.minmax_std_us": "us",
    "monitors.minmax_rob_us": "us",
    "monitors.boolean_std_us": "us",
    "monitors.boolean_rob_us": "us",
    "monitors.interval_std_us": "us",
    "monitors.interval_rob_us": "us",
    "monitors.dont_care_fraction_box": "share",
    "monitors.dont_care_fraction_zonotope": "share",
    "monitors.dont_care_fraction_star": "share",
    "monitors.ambiguous_fraction_box": "share",
    "monitors.ambiguous_fraction_zonotope": "share",
    "monitors.ambiguous_fraction_star": "share",
    "monitors.robust_fp_rate": "share",
    "monitors.robust_detection_rate": "share",
    "runtime.score_batch_us": "us",
    "runtime.engine_self_us": "us",
    "runtime.codec_codes_us": "us",
    "runtime.pack_codes_us": "us",
    "runtime.matcher_us": "us",
    "runtime.matcher_exact_us": "us",
    "runtime.matcher_ternary_us": "us",
    "runtime.matcher_range_us": "us",
    "runtime.exact_entries": "count",
    "runtime.ternary_entries": "count",
    "runtime.range_entries": "count",
    "runtime.probes": "count",
    "runtime.range_probes": "count",
    "runtime.hit_share": "share",
    "runtime.bound_codes_ms": "ms",
    "runtime.ternary_planes_ms": "ms",
    "bdd.insert_ms": "ms",
    "bdd.materialisations": "count",
    "symbolic.bounds_box_ms": "ms",
    "symbolic.bounds_zonotope_ms": "ms",
    "symbolic.bounds_star_ms": "ms",
    "symbolic.star_lp_ms": "ms",
    "symbolic.star_closed_form_stars": "count",
    "symbolic.star_lp_stars": "count",
    "symbolic.star_lp_programs": "count",
    "symbolic.star_lp_objectives": "count",
    "fit.box_ms": "ms",
    "fit.zonotope_ms": "ms",
    "fit.star_ms": "ms",
    "fit.standard_ms": "ms",
    "service.submit_us": "us",
    "service.queue_wait_ms": "ms",
    "service.score_batch_us": "us",
    "proc.cpu_us_per_frame": "us",
    "service.mean_batch_size": "count",
    "service.flush_size": "count",
    "service.flush_deadline": "count",
    "serving.encode_request_us": "us",
    "serving.decode_request_us": "us",
    "serving.encode_result_us": "us",
    "serving.decode_result_us": "us",
    "serving.pool_submit_us": "us",
    "serving.ring_write_us": "us",
    "serving.front_cpu_us_per_frame": "us",
    "serving.worker_cpu_us_per_frame": "us",
    "serving.mean_batch_size": "count",
    "serving.flush_adaptive": "count",
    "serving.flush_deadline": "count",
    "serving.restarts": "count",
    "gen.late_p95_ms": "ms",
    "gen.backlog_end": "count",
    "gen.invalid_phases": "count",
    "trace.overhead_us": "us",
    "trace.overhead_pct": "%",
    "trace.score_batch_coverage": "share",
    "trace.star_bounds_coverage": "share",
}
#: Layers of the traced offline scoring of the six reference monitors.
OFFLINE_PROFILE = (
    "nn.activations_us",
    "monitors.minmax_std_us",
    "monitors.minmax_rob_us",
    "monitors.boolean_std_us",
    "monitors.boolean_rob_us",
    "monitors.interval_std_us",
    "monitors.interval_rob_us",
    "runtime.score_batch_us",
    "runtime.engine_self_us",
    "runtime.codec_codes_us",
    "runtime.pack_codes_us",
    "runtime.matcher_us",
    "runtime.matcher_exact_us",
    "runtime.matcher_ternary_us",
    "runtime.matcher_range_us",
    "runtime.exact_entries",
    "runtime.ternary_entries",
    "runtime.range_entries",
    "runtime.probes",
    "runtime.range_probes",
    "runtime.hit_share",
    "bdd.materialisations",
    "trace.score_batch_coverage",
)
PER_LAYER.update({f"offline.{name}": PER_LAYER[name] for name in OFFLINE_PROFILE})


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace, work_root: str):
    from perfbench import workloads

    trace = bool(args.trace)
    if args.workload == "stream_camera":
        return workloads.run_stream_camera(args.seed, args.seconds, trace)
    return workloads.run_remote_socket(args.seed, args.seconds, trace, work_root)


def stop_resource_tracker() -> None:
    """Stop (and reap) the helper process that shared memory starts.

    Semaphores of closed pools unregister from the tracker when they are
    collected, so collect first; a tracker stopped earlier would report
    them as leaked.
    """
    import gc
    from multiprocessing import resource_tracker

    gc.collect()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    from perfbench.measure import environment_record
    from repro.symbolic.star_lp import resolve_star_lp_backend

    WORK_DIR.mkdir(exist_ok=True)
    work_root = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        outcome = run(args, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
        stop_resource_tracker()

    environment = environment_record(outcome.monitors, resolve_star_lp_backend(None).name)
    print("# environment " + json.dumps(environment, sort_keys=True))
    for note in outcome.notes:
        print("# " + note)
    for why, count in outcome.failures.items():
        print(f"# FAILED x{count}: {why}")
    catalogue = PER_LAYER if args.trace else END_TO_END
    values = outcome.layers if args.trace else outcome.metrics
    metrics = {}
    for name, unit in catalogue.items():
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload} {name} {value:.6g} {unit}")
    correct = outcome.failed == 0
    print(
        f"# {args.workload}: attempted {outcome.attempted}, failed {outcome.failed}, "
        f"correct {correct}"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
