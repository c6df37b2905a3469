"""Benchmark of sigblock: train, batch dedup blocking and online lookup.

Run from the root of a checkout::

    python3 perfbench/run.py --workload block_dedup --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it is the full report: every timing and
quality figure under its own name, the environment, the digests and any
failed checks. Spans of a traced run are written under ``.perfbench/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "block_dedup", "lookup")

# unit of every end-to-end metric
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "job_s": "s", "pair_recall": "fraction"}
# unit of every figure in the report line
REPORT_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "job_s": "s",
    "job_wall_s": "s",
    "setup_wall_s": "s",
    "host_factor": "ratio",
    "train_s": "s",
    "block_s": "s",
    "block_default_workers_s": "s",
    "exact_block_s": "s",
    "recall_vs_exact": "fraction",
    "pair_recall": "fraction",
    "pe_ratio": "pairs/record",
    "index_build_s": "s",
    "index_load_s": "s",
    "lookup_p50_ms": "ms",
    "lookup_p99_ms": "ms",
    "lookups": "count",
    "passes": "count",
}
# the figures each workload reports
COMMON_FIGURES = (
    "setup_s", "setup_wall_s", "peak_rss_mb", "job_s", "job_wall_s", "host_factor",
)
REPORT_FIGURES = {
    "train": COMMON_FIGURES + ("train_s", "pair_recall", "passes"),
    "block_dedup": COMMON_FIGURES + (
        "block_s", "block_default_workers_s", "exact_block_s",
        "recall_vs_exact", "pair_recall", "pe_ratio", "passes",
    ),
    "lookup": COMMON_FIGURES + (
        "index_build_s", "index_load_s", "lookup_p50_ms", "lookup_p99_ms",
        "recall_vs_exact", "pair_recall", "lookups", "passes",
    ),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "toy"), default="full",
        help="toy: a few dozen entities and a tiny model, for the self-test",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "sigblock" / "__init__.py").is_file():
        print(f"error: no sigblock sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread: spinning BLAS threads beside the program's own
    # threads would measure the host's scheduler, not the program.
    # Set before numpy loads; the environment record shows the count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import envinfo
    import layers
    import workloads

    sizes = workloads.TOY if args.size == "toy" else workloads.FULL
    out_dir = ROOT / ".perfbench"
    work = out_dir / "work" / f"{args.workload}-{args.seed}-{args.trace}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result, report, recorder = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), sizes, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = layers.UNITS if args.trace else E2E_UNITS
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "figures": {
            k: {"value": report[k], "unit": REPORT_UNITS[k]} for k in REPORT_FIGURES[args.workload]
        },
        "trace_overhead_s": report.get("trace_overhead_s"),
        "pass_timings": report["pass_timings"],
        "setup_times": report["setup_times"],
        "gauge_times": report["gauge_times"],
        "digests": report["digests"],
        "check_failures": report["check_failures"],
        "environment": envinfo.environment(ROOT),
    }
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    saved = {"report": report, "result": result}
    if recorder is not None:
        saved["trace"] = recorder.dump()
    (out_dir / f"{stem}.json").write_text(json.dumps(saved), encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
