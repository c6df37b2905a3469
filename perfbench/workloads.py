"""Seeded inputs, the three workloads, and the checks on their outputs.

Each workload drives ``sigblock`` only through public entry points:
``sigblock.cli.main`` in-process for ``train``, ``block`` and ``index``,
``LshIndex.load`` / ``LshIndex.query``, ``SignatureModel.signature_vectors``
and ``block_brute_force``. The program sees only the files set-up writes.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import io
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed
import layers
import sigblock.blocking as blocking
import sigblock.cli as cli
from sigblock.blocking import read_candidates
from sigblock.data_model import Dataset, LabelSet, Table, export, ingest, load_labels, write_labels
from sigblock.encoder import AttentionalEncoder
from sigblock.evaluation import SynthSpec, recall, synthesize
from sigblock.lsh import LshIndex
from sigblock.model_io import load_model, save_model
from sigblock.signatures import SignatureModel, SignatureWeights
from sigblock.text_embedding import EmbeddingTable
from spans import Recorder

COPIES = 4  # per entity: copies 0-2 are the records, copy 3 the unseen queries
INDEXED_COPIES = 3
# The README's corruption rates.
CORRUPTION = {
    "typo_rate": 0.3,
    "missing_attr_rate": 0.3,
    "attr_swap_rate": 0.2,
    "version_suffix_rate": 0.2,
}
# Cosines computed by two different matrix products may differ in the last
# bits; a hit counts as exact when its exact cosine is this close to theta.
COS_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    # 1,000 entities and 4 training steps keep one pass to a few seconds,
    # so a run holds several passes and its median rides out the bursts
    # of load a shared host puts on a single long pass
    entities: int = 1000
    dim: int = 64
    hidden: int = 64
    bucket_count: int = 2**16
    train_iterations: int = 4
    batch_size: int = 64
    negatives: int = 10
    theta: float = 0.8
    setup_repeats: int = 7


FULL = Sizes()
TOY = Sizes(
    entities=40, dim=8, hidden=4, bucket_count=256, train_iterations=2,
    batch_size=8, negatives=3, setup_repeats=2,
)


_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only


def settle() -> None:
    """Collect garbage and hand free heap pages back to the system.

    Every timed call starts from a trimmed heap, as a fresh CLI process
    would, so ``peak_rss_mb`` does not depend on how earlier calls left
    the allocator's free lists.
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


class Checks:
    """Counts checked operations and failures instead of aborting."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
                print(f"check failed: {what}", file=sys.stderr)
        return ok


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- set-up -------------------------------------------------------------


@dataclass
class Inputs:
    dir: Path
    config: Path
    records: Path
    labels: Path
    queries: Path
    model: Path


def _copy_of(record_id: str) -> int:
    return int(record_id.rsplit("-", 1)[1])


def untrained_model(schema, sizes: Sizes, seed: int) -> SignatureModel:
    """Seeded, untrained model with signatures ``title | the other three``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    table = EmbeddingTable(
        sizes.dim, sizes.bucket_count, seed=int(rng.integers(2**32)), trainable=True
    )
    encoders = [
        AttentionalEncoder.initialize(sizes.dim, sizes.hidden, 1.0 if j == 0 else 0.0, rng)
        for j in range(len(schema))
    ]
    weights = np.zeros((2, len(schema)))
    weights[0, 0] = 1.0
    weights[1, 1:] = 1.0 / np.sqrt(len(schema) - 1)
    return SignatureModel(
        tuple(schema), table, encoders, SignatureWeights(weights),
        config_snapshot={"untrained": True, "seed": seed},
    )


def setup(work: Path, seed: int, sizes: Sizes) -> Inputs:
    """Write the records, labels, queries, model and INI files for one seed."""
    work.mkdir(parents=True)
    spec = SynthSpec(sizes.entities, COPIES - 1, "dirty", **CORRUPTION)
    dataset, labels = synthesize(spec, seed)
    records = [r for r in dataset.all_records() if _copy_of(r.record_id) < INDEXED_COPIES]
    queries = [r for r in dataset.all_records() if _copy_of(r.record_id) >= INDEXED_COPIES]
    kept = frozenset(
        p for p in labels.pairs
        if _copy_of(p[0]) < INDEXED_COPIES and _copy_of(p[1]) < INDEXED_COPIES
    )
    inputs = Inputs(
        work, work / "run.ini", work / "records.csv", work / "labels.csv",
        work / "queries.csv", work / "model.bin",
    )
    export(Dataset(dataset.schema, (Table(records),)), inputs.records)
    export(Dataset(dataset.schema, (Table(queries),)), inputs.queries)
    write_labels(LabelSet(kept), inputs.labels)
    save_model(untrained_model(dataset.schema, sizes, seed), inputs.model)
    inputs.config.write_text(
        "[data]\n"
        f"dataset = {inputs.records}\n"
        f"labels = {inputs.labels}\n"
        "[model]\n"
        f"dim = {sizes.dim}\n"
        f"hidden = {sizes.hidden}\n"
        f"bucket_count = {sizes.bucket_count}\n"
        "[training]\n"
        f"iterations = {sizes.train_iterations}\n"
        f"batch_size = {sizes.batch_size}\n"
        f"negatives = {sizes.negatives}\n"
        "max_signatures = 1\n"
        f"seed = {seed}\n"
        "[lsh]\n"
        f"theta = {sizes.theta}\n"
        f"seed = {seed}\n",
        encoding="utf-8",
    )
    return inputs


# -- workloads ------------------------------------------------------------


class Workload:
    """One workload: ``measure`` times one pass, ``finish`` checks outputs.

    ``measure`` returns the pass's timings in seconds; ``job_s`` is the
    one the end-to-end ``job_s`` metric reports. With a recorder the
    pass opens root spans around each measured call.
    """

    def __init__(self, inputs: Inputs, sizes: Sizes, checks: Checks):
        self.inputs = inputs
        self.sizes = sizes
        self.checks = checks
        self.passes = 0
        self.digests: list[str] = []

    def reference(self, rec=None) -> dict[str, float]:
        """Timed once per run, after the passes; by default nothing."""
        return {}

    def cli(self, rec, *argv: str) -> float:
        out = io.StringIO()
        settle()
        start = time.perf_counter()
        sid = rec.open("cli.command") if rec is not None else None
        with redirect_stdout(out):
            code = cli.main(list(argv))
        if sid is not None:
            rec.close(sid)
        elapsed = time.perf_counter() - start
        self.checks.check(code == 0, f"sigblock {argv[0]} exited with {code}")
        return elapsed

    def artifact(self, stem: str, suffix: str) -> Path:
        self.passes += 1
        return self.inputs.dir / f"{stem}-{self.passes}{suffix}"

    def record_digest(self, path: Path, what: str) -> None:
        self.digests.append(digest(path))
        self.checks.check(
            self.digests[-1] == self.digests[0], f"{what} differs between repeats"
        )

    def model_round_trip(self, path: Path) -> None:
        copy = path.with_suffix(".resaved")
        save_model(load_model(path), copy)
        self.checks.check(
            copy.read_bytes() == path.read_bytes(), f"model {path.name} changed on re-save"
        )


class Train(Workload):
    def measure(self, rec=None) -> dict[str, float]:
        out = self.artifact("model-trained", ".bin")
        seconds = self.cli(rec, "train", "--config", str(self.inputs.config), "--out", str(out))
        self.record_digest(out, "trained model")
        self.last = out
        return {"job_s": seconds, "train_s": seconds}

    def finish(self) -> dict[str, float]:
        self.model_round_trip(self.last)
        dataset = ingest(self.inputs.records)
        labels = load_labels(self.inputs.labels, dataset)
        exact = blocking.block_brute_force(dataset, load_model(self.last), self.sizes.theta)
        return {"pair_recall": recall(exact, labels)}


class BlockDedup(Workload):
    """The timed passes run ``sigblock block --workers 1``: with the
    default ``os.cpu_count()`` query threads handing the GIL between
    cores, a pass's time depends on how the host schedules those cores
    and spreads too widely to bound. The default worker count is timed
    once per run, after the passes, and must write the same file."""

    def block(self, rec, out: Path, *workers: str) -> float:
        return self.cli(
            rec, "block", "--config", str(self.inputs.config),
            "--model", str(self.inputs.model), "--out", str(out), *workers,
        )

    def measure(self, rec=None) -> dict[str, float]:
        out = self.artifact("candidates", ".csv")
        block_s = self.block(rec, out, "--workers", "1")
        self.record_digest(out, "candidate file")
        self.last = out
        return {"job_s": block_s, "block_s": block_s}

    def reference(self, rec=None) -> dict[str, float]:
        out = self.inputs.dir / "candidates-default-workers.csv"
        default_s = self.block(rec, out)
        self.record_digest(out, "candidate file of the default worker count")
        # loaded only now, so the block jobs run without them on the heap
        self.dataset = ingest(self.inputs.records)
        model = load_model(self.inputs.model)
        settle()
        start = time.perf_counter()
        # looked up at call time, so a traced run records it
        self.exact = blocking.block_brute_force(self.dataset, model, self.sizes.theta)
        return {
            "exact_block_s": time.perf_counter() - start,
            "block_default_workers_s": default_s,
        }

    def finish(self) -> dict[str, float]:
        self.model_round_trip(self.inputs.model)
        hashed = read_candidates(self.last)
        check_candidates(self.checks, hashed, self.exact, self.sizes.theta)
        labels = load_labels(self.inputs.labels, self.dataset)
        found = len(hashed.pairs & self.exact.pairs)
        return {
            "recall_vs_exact": found / len(self.exact.pairs) if self.exact.pairs else 1.0,
            "pair_recall": recall(hashed, labels),
            "pe_ratio": len(hashed) / self.dataset.n,
        }


def check_candidates(checks: Checks, hashed, exact, theta: float) -> None:
    """Every hashed pair is an exact candidate and carries cosine >= theta."""
    for pair in hashed.sorted_pairs():
        ok = pair in exact.pairs
        if hashed.provenance is not None:
            ok = ok and hashed.provenance[pair][1] >= theta
        checks.check(ok, f"candidate {pair} is not an exact candidate at theta={theta}")


class Lookup(Workload):
    """Write side: ``sigblock index``. Read side: load, then one closed-loop
    client encoding each unseen record alone and querying every signature."""

    def __init__(self, inputs, sizes, checks):
        super().__init__(inputs, sizes, checks)
        self.model = load_model(inputs.model)
        self.queries = list(ingest(inputs.queries).all_records())
        self.latencies: list[float] = []

    def measure(self, rec=None) -> dict[str, float]:
        # drop the last pass's index and hits, so the peak memory does not
        # depend on how many passes fit in a run
        self.index = self.unit = self.hits = None
        out = self.artifact("index", ".bin")
        build_s = self.cli(
            rec, "index", "--config", str(self.inputs.config),
            "--model", str(self.inputs.model), "--out", str(out),
        )
        self.record_digest(out, "index file")
        settle()
        start = time.perf_counter()
        index = LshIndex.load(out)
        load_s = time.perf_counter() - start
        theta = self.sizes.theta
        latencies = []
        unit: dict[tuple[int, int], np.ndarray] = {}
        hits: dict[tuple[int, int], list] = {}
        settle()
        for qi, record in enumerate(self.queries):
            sid = rec.open("bench.lookup") if rec is not None else None
            start = time.perf_counter()
            merged: dict[str, float] = {}
            for s, vec in enumerate(self.model.signature_vectors(record)):
                norm = 0.0 if vec is None else float(np.linalg.norm(vec))
                if norm == 0.0:
                    continue
                q = vec / norm
                found = index.query(q, theta, signature=s)
                for rid, _, cos in found:  # merged hits: best cosine per record
                    if cos > merged.get(rid, -2.0):
                        merged[rid] = cos
                unit[qi, s] = q
                hits[qi, s] = found
            latencies.append(time.perf_counter() - start)
            if sid is not None:
                rec.close(sid)
        if rec is None:  # latency figures come from untraced passes only
            self.latencies.extend(latencies)
        self.index, self.unit, self.hits, self.last = index, unit, hits, out
        return {
            "job_s": build_s + load_s + sum(latencies),
            "index_build_s": build_s,
            "index_load_s": load_s,
        }

    def finish(self) -> dict[str, float]:
        self.model_round_trip(self.inputs.model)
        resaved = self.last.with_suffix(".resaved")
        LshIndex.load(self.last).save(resaved)
        self.checks.check(
            resaved.read_bytes() == self.last.read_bytes(), "index changed on re-save"
        )
        found, total = check_lookups(
            self.checks, self.index, self.unit, self.hits, self.sizes.theta
        )
        pairs_found = 0
        for qi, record in enumerate(self.queries):
            entity = record.record_id.rsplit("-", 1)[0]
            returned = {
                rid for s in range(self.model.num_signatures)
                for rid, _, _ in self.hits.get((qi, s), ())
            }
            pairs_found += sum(f"{entity}-{c}" in returned for c in range(INDEXED_COPIES))
        lat_ms = np.array(self.latencies) * 1e3
        return {
            "recall_vs_exact": found / total if total else 1.0,
            "pair_recall": pairs_found / (INDEXED_COPIES * len(self.queries)),
            "lookup_p50_ms": float(np.percentile(lat_ms, 50)),
            "lookup_p99_ms": float(np.percentile(lat_ms, 99)),
            "lookups": len(self.latencies),
        }


def check_lookups(checks: Checks, index, unit, hits, theta: float):
    """Check every hit against a numpy exact scan of the loaded index.

    Returns ``(found, total)``: exact same-signature neighbours at or
    above theta, capped at ``max_results`` per query, that were returned,
    out of all of them.
    """
    ids = np.array([rid for rid, _ in index.entries], dtype=object)
    sigs = np.array([s for _, s in index.entries], dtype=np.int64)
    cap = index.default_max_results
    found = total = 0
    for s in sorted({s for _, s in unit}):
        rows = np.nonzero(sigs == s)[0]
        vectors, row_ids = index.vectors[rows], ids[rows]
        keys = sorted(k for k in unit if k[1] == s)
        for lo in range(0, len(keys), 256):  # 256 queries per matrix product
            block = keys[lo : lo + 256]
            cos = np.stack([unit[k] for k in block]) @ vectors.T
            for key, row in zip(block, cos):
                near = set(row_ids[row >= theta - COS_TOL])
                returned = set()
                for rid, sig, c in hits[key]:
                    checks.check(
                        sig == s and rid in near,
                        f"lookup {key}: hit {rid!r} is not an exact neighbour",
                    )
                    returned.add(rid)
                above = np.nonzero(row >= theta)[0]
                order = sorted(above, key=lambda j: (-row[j], row_ids[j]))[:cap]
                total += len(order)
                found += sum(row_ids[j] in returned for j in order)
    return found, total


WORKLOADS = {"train": Train, "block_dedup": BlockDedup, "lookup": Lookup}


# -- one run --------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path):
    """Set up, measure and check one workload; returns (result, report, spans).

    Checks run after the wrappers are removed, so they never show up in
    a trace.
    """
    checks = Checks()
    gauge = hostspeed.Gauge()
    gauge.warm_up()
    gauge.sample()
    setup_times = []
    setup_scaled = []  # each set-up scaled toward reference host speed
    input_digests = []
    for k in range(sizes.setup_repeats):
        shutil.rmtree(work / f"setup-{k - 1}", ignore_errors=True)
        settle()
        start = time.perf_counter()
        inputs = setup(work / f"setup-{k}", seed, sizes)
        setup_times.append(time.perf_counter() - start)
        gauge.sample()
        setup_scaled.append(setup_times[-1] * gauge.factor(-2, -1))
        input_digests.append(
            [digest(p) for p in sorted(inputs.dir.iterdir()) if p.name != "run.ini"]
        )
        checks.check(input_digests[-1] == input_digests[0], "set-up is not deterministic")

    workload = WORKLOADS[name](inputs, sizes, checks)

    def timed_pass(rec=None) -> dict[str, float]:
        timing = workload.measure(rec)
        gauge.sample()
        timing["host_factor"] = gauge.factor(-2, -1)
        return timing

    passes: list[dict[str, float]] = []
    recorder = None
    if trace:
        # untraced, traced, untraced: the median (mean) of the two untraced
        # passes cancels a steady drift or warm-up in the overhead
        passes.append(timed_pass())
        recorder = Recorder()
        layers.instrument(recorder)
        try:
            traced = workload.measure(recorder)
            traced.update(workload.reference(recorder))
        finally:
            recorder.restore()
        gauge.sample()
        passes.append(timed_pass())
        reference = workload.reference()
    else:
        # a pass starts only if one more pass of the median length still
        # ends within the measuring time, so a run never overruns by a pass
        started = time.perf_counter()
        lengths: list[float] = []
        while not passes or (
            time.perf_counter() - started + statistics.median(lengths) <= seconds
        ):
            begun = time.perf_counter()
            passes.append(timed_pass())
            lengths.append(time.perf_counter() - begun)
        reference = workload.reference()
    quality = workload.finish()

    timings = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    timings.update(reference)
    report = dict(timings)
    report.update(quality)
    # job_s and setup_s scaled toward reference host speed; wall times beside them
    report["job_wall_s"] = timings["job_s"]
    report["job_s"] = statistics.median(p["job_s"] * p["host_factor"] for p in passes)
    report["setup_wall_s"] = statistics.median(setup_times)
    report["setup_s"] = statistics.median(setup_scaled)
    report["passes"] = len(passes)
    report["pass_timings"] = passes
    report["setup_times"] = setup_times
    report["gauge_times"] = gauge.times
    report["peak_rss_mb"] = peak_rss_mb()

    if trace:
        metrics = layers.layer_metrics(recorder)
        root = recorder.root_time()
        metrics["trace.traced_s"] = traced["job_s"]
        metrics["trace.untraced_s"] = timings["job_s"]
        metrics["trace.overhead_s"] = traced["job_s"] - timings["job_s"]
        accounted = sum(metrics[m] for m in set(layers.SELF_METRIC.values()))
        metrics["trace.accounted_fraction"] = accounted / root if root else 0.0
        report["trace_overhead_s"] = {k: traced[k] - timings[k] for k in traced}
    else:
        metrics = {
            "setup_s": report["setup_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "job_s": report["job_s"],
            "pair_recall": quality["pair_recall"],
        }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    report["digests"] = {"inputs": input_digests[0], "outputs": sorted(set(workload.digests))}
    report["check_failures"] = checks.messages
    return result, report, recorder


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
