"""Which program names the traced run wraps, and the per-layer metrics.

Every wrapper sits at the name the caller looks the function up by, so
the program's source stays untouched. Each span name belongs to one
layer metric ending in ``_s``; those metrics hold wall-clock self time
and add up to the traced time of the measured calls.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

# span name -> the per-layer metric that receives its self time
SELF_METRIC = {
    "cli.command": "cli.self_s",
    "bench.lookup": "bench.self_s",
    "data_model.ingest": "data_model.ingest_s",
    "data_model.load_labels": "data_model.labels_s",
    "model_io.save_model": "model_io.save_s",
    "model_io.load_model": "model_io.load_s",
    "training.train": "training.loop_self_s",
    "training.init": "training.init_s",
    "training.batch_loss": "training.loss_self_s",
    "training.adam_step": "training.adam_s",
    "training.project_weights": "training.project_s",
    "autodiff.backward": "autodiff.backward_s",
    "text_embedding.prepare_sequence": "text_embedding.prepare_s",
    "encoder.encode_sequences_tape": "encoder.forward_s",
    "blocking.signature_matrix": "blocking.signature_matrix_s",
    "blocking.block": "blocking.merge_self_s",
    "blocking.block_brute_force": "blocking.exact_scan_self_s",
    "blocking.write_candidates": "blocking.write_s",
    "lsh.build": "lsh.build_s",
    "lsh.query": "lsh.query_self_s",
    "lsh.save": "lsh.save_s",
    "lsh.load": "lsh.load_s",
    "signatures.signature_vectors": "signatures.encode_s",
}


def _file_size(key):
    def observe(rec, args, kwargs, result):
        path = kwargs.get("path", args[-1])
        rec.counts[key] = os.path.getsize(path)

    return observe


def _observe_batch_loss(rec, args, kwargs, result):
    loss, used = result
    rec.count("training.batch_pairs", len(args[3]))
    rec.count("training.kept_pairs", used)
    rec.count("training.skipped_batches", loss is None)


def _observe_signature_matrix(rec, args, kwargs, result):
    rec.count("blocking.records_encoded", len(args[1]))


def _observe_build(rec, args, kwargs, result):
    rec.samples["lsh.indexes"].append(result)


def _observe_query(rec, args, kwargs, result):
    index = args[0]
    cap = args[3] if len(args) > 3 else kwargs.get("max_results")
    if cap is None:
        cap = index.default_max_results
    rec.count("lsh.hits", len(result))
    rec.count("lsh.truncated_queries", len(result) >= cap)


def _observe_write(rec, args, kwargs, result):
    rec.count("blocking.candidates", len(args[0]))


def instrument(rec) -> None:
    """Install every wrapper on the imported ``sigblock`` modules."""
    import sigblock.autodiff as autodiff
    import sigblock.blocking as blocking
    import sigblock.cli as cli
    import sigblock.config as config
    import sigblock.training as training
    from sigblock.lsh import LshIndex
    from sigblock.signatures import SignatureModel

    rec.wrap(config, "ingest", "data_model.ingest")
    rec.wrap(config, "load_labels", "data_model.load_labels")
    rec.wrap(cli, "save_model", "model_io.save_model", _file_size("model_io.model_bytes"))
    rec.wrap(cli, "load_model", "model_io.load_model")
    rec.wrap(cli, "train", "training.train")
    rec.wrap(training.SignatureTrainer, "__init__", "training.init")
    rec.wrap(training.SignatureTrainer, "batch_loss", "training.batch_loss", _observe_batch_loss)
    rec.wrap(training.SignatureTrainer, "prepared", "training.prepared", count_only=True)
    rec.wrap(training.Adam, "step", "training.adam_step")
    rec.wrap(training, "project_weights", "training.project_weights")
    rec.wrap(autodiff, "backward", "autodiff.backward")
    for module in (training, blocking):
        rec.wrap(module, "prepare_sequence", "text_embedding.prepare_sequence")
        rec.wrap(module, "encode_sequences_tape", "encoder.encode_sequences_tape")
    rec.wrap(blocking, "signature_matrix", "blocking.signature_matrix", _observe_signature_matrix)
    rec.wrap(cli, "block", "blocking.block")
    rec.wrap(blocking, "block_brute_force", "blocking.block_brute_force")
    rec.wrap(cli, "write_candidates", "blocking.write_candidates", _observe_write)
    rec.wrap(LshIndex, "build", "lsh.build", _observe_build)
    rec.wrap(LshIndex, "query", "lsh.query", _observe_query)
    rec.wrap(LshIndex, "save", "lsh.save", _file_size("lsh.index_bytes"))
    rec.wrap(LshIndex, "load", "lsh.load")
    rec.wrap(SignatureModel, "signature_vectors", "signatures.signature_vectors")


def _pct(values: list[float], q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def _bucket_stats(indexes) -> dict[str, float]:
    sizes: list[int] = []
    own_total = 0
    entries = 0
    for index in indexes:
        entries += len(index)
        for table in index.tables:
            for bucket in table.values():
                sizes.append(len(bucket))
                own_total += len(bucket) * len(bucket)
    return {
        "lsh.bucket_entries_mean": float(np.mean(sizes)) if sizes else 0.0,
        "lsh.bucket_entries_max": float(max(sizes, default=0)),
        "lsh.own_bucket_entries": own_total / entries if entries else 0.0,
    }


def _step_times(rec) -> list[float]:
    """Intervals between consecutive projections: one per optimizer step."""
    ends = [s[2] for s in rec.spans if s[0] == "training.project_weights"]
    return [b - a for a, b in zip(ends, ends[1:])]


def layer_metrics(rec) -> dict[str, float]:
    """Every per-layer metric, zero for layers this workload never called."""
    out = {metric: 0.0 for metric in SELF_METRIC.values()}
    for name, seconds in rec.self_by_name().items():
        out[SELF_METRIC[name]] += seconds
    c = rec.counts
    queries = rec.durations("lsh.query")
    encodes = rec.durations("signatures.signature_vectors")
    steps = _step_times(rec)
    misses = len(rec.durations("text_embedding.prepare_sequence"))
    prepared = c["training.prepared.calls"]
    out.update(
        {
            "text_embedding.prepare_misses": misses,
            "text_embedding.prepare_hit_ratio": (
                1.0 - min(misses, prepared) / prepared if prepared else 0.0
            ),
            "encoder.forward_calls": len(rec.durations("encoder.encode_sequences_tape")),
            "training.steps": len(rec.durations("autodiff.backward")),
            "training.skipped_batches": c["training.skipped_batches"],
            "training.kept_pair_ratio": (
                c["training.kept_pairs"] / c["training.batch_pairs"]
                if c["training.batch_pairs"]
                else 0.0
            ),
            "training.step_ms_p50": statistics.median(steps) * 1e3 if steps else 0.0,
            "training.step_ms_max": max(steps) * 1e3 if steps else 0.0,
            "blocking.records_encoded": c["blocking.records_encoded"],
            "blocking.candidates": c["blocking.candidates"],
            "lsh.build_calls": len(rec.durations("lsh.build")),
            "lsh.query_calls": len(queries),
            "lsh.query_busy_s": sum(queries),
            "lsh.query_us_p50": _pct(queries, 50, 1e6),
            "lsh.query_us_p99": _pct(queries, 99, 1e6),
            "lsh.hits_per_query": c["lsh.hits"] / len(queries) if queries else 0.0,
            "lsh.truncated_queries": c["lsh.truncated_queries"],
            "lsh.index_bytes": c["lsh.index_bytes"],
            "model_io.model_bytes": c["model_io.model_bytes"],
            "signatures.encode_us_p50": _pct(encodes, 50, 1e6),
            "signatures.encode_us_p99": _pct(encodes, 99, 1e6),
            "trace.spans": len(rec.spans),
        }
    )
    out.update(_bucket_stats(rec.samples["lsh.indexes"]))
    return out


# unit of every per-layer metric, in the order BENCHMARK.json lists them
UNITS = {
    "cli.self_s": "s",
    "bench.self_s": "s",
    "data_model.ingest_s": "s",
    "data_model.labels_s": "s",
    "model_io.save_s": "s",
    "model_io.load_s": "s",
    "model_io.model_bytes": "bytes",
    "training.init_s": "s",
    "training.loop_self_s": "s",
    "training.loss_self_s": "s",
    "training.adam_s": "s",
    "training.project_s": "s",
    "training.step_ms_p50": "ms",
    "training.step_ms_max": "ms",
    "training.steps": "count",
    "training.skipped_batches": "count",
    "training.kept_pair_ratio": "fraction",
    "autodiff.backward_s": "s",
    "text_embedding.prepare_s": "s",
    "text_embedding.prepare_misses": "count",
    "text_embedding.prepare_hit_ratio": "fraction",
    "encoder.forward_s": "s",
    "encoder.forward_calls": "count",
    "blocking.signature_matrix_s": "s",
    "blocking.records_encoded": "count",
    "blocking.merge_self_s": "s",
    "blocking.exact_scan_self_s": "s",
    "blocking.write_s": "s",
    "blocking.candidates": "count",
    "lsh.build_s": "s",
    "lsh.build_calls": "count",
    "lsh.query_self_s": "s",
    "lsh.query_busy_s": "s",
    "lsh.query_calls": "count",
    "lsh.query_us_p50": "us",
    "lsh.query_us_p99": "us",
    "lsh.hits_per_query": "hits/query",
    "lsh.truncated_queries": "count",
    "lsh.bucket_entries_mean": "entries",
    "lsh.bucket_entries_max": "entries",
    "lsh.own_bucket_entries": "entries",
    "lsh.save_s": "s",
    "lsh.load_s": "s",
    "lsh.index_bytes": "bytes",
    "signatures.encode_s": "s",
    "signatures.encode_us_p50": "us",
    "signatures.encode_us_p99": "us",
    "trace.spans": "count",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_fraction": "fraction",
}
