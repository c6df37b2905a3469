"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402
from sigblock.blocking import CandidateSet  # noqa: E402
from sigblock.lsh import LshIndex  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@lru_cache(maxsize=None)
def toy_run(workload: str, trace: int, seed: int = 5) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "toy",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    report, result = toy_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        for m in result["metrics"].values():
            assert m["value"] > 0
    for name in run.REPORT_FIGURES[workload]:
        assert report["figures"][name]["unit"] == run.REPORT_UNITS[name]


def test_traced_self_times_account_for_the_traced_time():
    for workload in run.WORKLOADS:
        metrics = toy_run(workload, 1)[1]["metrics"]
        assert metrics["trace.accounted_fraction"]["value"] == pytest.approx(1.0, abs=1e-6)


def test_job_s_is_the_median_pass_at_reference_host_speed():
    report, result = toy_run("block_dedup", 0)
    passes = report["pass_timings"]
    assert all(p["host_factor"] > 0 for p in passes)
    expected = statistics.median(p["job_s"] * p["host_factor"] for p in passes)
    assert result["metrics"]["job_s"]["value"] == pytest.approx(expected)
    assert report["figures"]["job_wall_s"]["value"] == pytest.approx(
        statistics.median(p["job_s"] for p in passes)
    )


def test_two_toy_runs_give_identical_quality():
    for workload in run.WORKLOADS:
        first, _ = toy_run(workload, 0)
        second, _ = toy_run(workload, 1)
        for name in ("pair_recall", "recall_vs_exact", "pe_ratio"):
            if name in first["figures"]:
                assert first["figures"][name] == second["figures"][name], (workload, name)
        assert first["digests"] == second["digests"]


def test_runs_refuse_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _exact(pairs):
    return CandidateSet(frozenset(pairs), {p: (0, 0.9) for p in pairs})


def test_foreign_candidate_pair_counts_as_failure():
    exact = _exact([("a", "b"), ("a", "c")])
    hashed = _exact([("a", "b"), ("x", "y")])
    checks = workloads.Checks()
    workloads.check_candidates(checks, hashed, exact, 0.8)
    assert (checks.attempted, checks.failed) == (2, 1)


def test_foreign_lookup_hit_counts_as_failure():
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((60, 8))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    index = LshIndex.build([(f"r{i}", 0, v) for i, v in enumerate(vectors)], 8)
    unit = {(i, 0): vectors[i] for i in range(5)}
    hits = {key: index.query(q, 0.5, signature=0) for key, q in unit.items()}
    clean = workloads.Checks()
    found, total = workloads.check_lookups(clean, index, unit, hits, 0.5)
    assert clean.failed == 0 and found <= total and total >= 5
    hits[(0, 0)] = hits[(0, 0)] + [("foreign", 0, 0.99)]
    dirty = workloads.Checks()
    workloads.check_lookups(dirty, index, unit, hits, 0.5)
    assert dirty.failed == 1 and dirty.attempted == clean.attempted + 1


def test_recorder_keeps_every_span_and_count_of_racing_threads():
    rec = Recorder()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def work(k):
        for _ in range(2000):
            sid = rec.open(f"t{k}")
            rec.count("calls")
            rec.close(sid)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert rec.counts["calls"] == len(rec.spans) == 16000
    threads_by_name: dict[str, list] = {}
    for name, start, end, parent, tid in rec.spans:
        assert end is not None and end >= start and parent is None
        threads_by_name.setdefault(name, []).append(tid)
    assert sorted(threads_by_name) == [f"t{k}" for k in range(8)]
    assert all(len(t) == 2000 and len(set(t)) == 1 for t in threads_by_name.values())
