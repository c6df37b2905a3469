"""Command-line surface tying the pipeline together.

Subcommands: ``synth`` writes a synthetic corpus, ``train`` fits and
persists a model, ``block`` generates candidates with it, ``baseline``
runs the key and MinHash blockers, ``index`` saves a standalone LSH
index, ``inspect`` dumps per-token attention weights, and ``eval``
scores candidate files against labels.

Every command is deterministic given its configuration: all randomness
is derived from the configured seeds. Exit codes: 0 on success, 1 on
runtime failure, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
import time
from pathlib import Path

from .baselines import KeySpec, key_block, minhash_block
from .blocking import block, pe_ratio, unit_signatures, write_candidates
from .config import ConfigError, RunConfig, check_threshold, checked, load_config
from .data_model import DatasetError, export, load_labels, write_labels
from .encoder import token_attention
from .evaluation import RunRecord, SynthSpec, metrics_csv, recall, summary_table, synthesize
from .lsh import LshIndex
from .model_io import load_model, save_model
from .signatures import SignatureModel
from .training import train

logger = logging.getLogger("sigblock")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI run configuration")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a configuration value (repeatable)",
    )


def _config(args) -> RunConfig:
    return load_config(args.config, args.overrides)


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    spec = SynthSpec(
        entity_count=args.entities,
        duplicates_per_entity=args.duplicates,
        regime=args.regime,
        typo_rate=args.typo_rate,
        token_drop_rate=args.token_drop_rate,
        missing_attr_rate=args.missing_attr_rate,
        attr_swap_rate=args.attr_swap_rate,
        version_suffix_rate=args.version_suffix_rate,
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    dataset, labels = synthesize(spec, args.seed)
    export(dataset, args.out, args.format)
    write_labels(labels, args.labels_out)
    print(
        f"wrote {dataset.n} records to {args.out} and "
        f"{len(labels)} label pairs to {args.labels_out}"
    )
    return 0


def cmd_train(args) -> int:
    config = _config(args)
    training = checked(config.training)
    dataset = config.load_dataset()
    try:
        training.check_schema(dataset.schema)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    labels = config.load_label_set(dataset)
    table = None
    if config.pretrained:
        from .text_embedding import load_pretrained

        if not Path(config.pretrained).exists():
            raise ConfigError(f"model.pretrained: no such file: {config.pretrained}")
        table = load_pretrained(
            config.pretrained,
            bucket_count=training.bucket_count,
            ngram_range=(training.ngram_min, training.ngram_max),
            seed=training.seed,
        )
    t0 = time.perf_counter()
    model = train(dataset, labels, training, table)
    save_model(model, args.out)
    print(
        f"trained {model.num_signatures} signature(s) over {dataset.n} records "
        f"in {time.perf_counter() - t0:.1f}s -> {args.out}"
    )
    return 0


def _load_model_for(path: str) -> SignatureModel:
    if not Path(path).exists():
        raise ConfigError(f"no such model file: {path}")
    return load_model(path)


def _print_summary(candidates, dataset, wall: float, out: str) -> None:
    """The last line of ``block`` and ``baseline``; P/E is 0 on no records."""
    pe = pe_ratio(candidates, dataset) if dataset.n else 0.0
    print(f"candidates={len(candidates)} pe_ratio={pe:.4f} wall_time_s={wall:.2f} -> {out}")


def cmd_block(args) -> int:
    config = _config(args)
    theta = check_threshold("lsh.theta", config.theta)
    lsh_params = checked(config.lsh, "lsh: ")
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    dataset = config.load_dataset()
    model = _load_model_for(args.model)
    model.validate_schema(dataset)
    t0 = time.perf_counter()
    candidates = block(dataset, model, theta, lsh_params)
    wall = time.perf_counter() - t0
    write_candidates(candidates, args.out)
    _print_summary(candidates, dataset, wall, args.out)
    return 0


def cmd_baseline(args) -> int:
    key_flags = {"--key-kind": args.key_kind, "--key-attributes": args.key_attributes}
    for flag, value in key_flags.items():
        if args.method == "minhash" and value is not None:
            raise ConfigError(f"{flag} does not apply to --method minhash")
    config = _config(args)
    kind = args.key_kind or "disjunction"
    if args.method == "minhash":
        theta = check_threshold("minhash.theta", config.minhash_theta)
        params = checked(config.minhash)
    named = tuple(args.key_attributes.split(",")) if args.key_attributes else ()
    if args.method == "key" and kind == "single" and len(named) > 1:
        raise ConfigError(f"--key-kind single takes one attribute, got {','.join(named)}")
    dataset = config.load_dataset()
    t0 = time.perf_counter()
    if args.method == "key":
        attributes = named or tuple(dataset.schema)
        if kind == "single":
            attributes = attributes[:1]  # default: the first schema attribute
        candidates = key_block(dataset, KeySpec(kind, attributes))
    elif args.method == "minhash":
        attributes = config.minhash_attributes or tuple(dataset.schema)
        candidates = minhash_block(dataset, attributes, theta, params)
    else:
        raise ConfigError(f"unknown baseline method {args.method!r}")
    wall = time.perf_counter() - t0
    write_candidates(candidates, args.out)
    _print_summary(candidates, dataset, wall, args.out)
    return 0


def cmd_index(args) -> int:
    config = _config(args)
    lsh_params = checked(config.lsh, "lsh: ")
    dataset = config.load_dataset()
    model = _load_model_for(args.model)
    model.validate_schema(dataset)
    records = list(dataset.all_records())
    sig, ok = unit_signatures(model, records)
    items = [
        (rec.record_id, s, sig[i, s])
        for i, rec in enumerate(records)
        for s in range(model.num_signatures)
        if ok[i, s]
    ]
    index = LshIndex.build(items, model.table.dim, lsh_params)
    index.save(args.out)
    print(f"indexed {len(index)} signature vectors into {args.out}")
    return 0


def cmd_inspect(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise ConfigError(f"--limit must be at least 1, got {args.limit}")
    config = _config(args)
    dataset = config.load_dataset()
    model = _load_model_for(args.model)
    model.validate_schema(dataset)
    if args.attribute is not None and args.attribute not in model.schema:
        raise ConfigError(
            f"--attribute {args.attribute!r} names no attribute of the schema"
            f" ({', '.join(model.schema)})"
        )
    records = list(dataset.all_records())
    if args.record_id is not None:
        records = [r for r in records if r.record_id == args.record_id]
        if not records:
            raise ConfigError(f"record id {args.record_id!r} not found")
    if args.limit is not None:
        records = records[: args.limit]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record_id", "attribute", "token", "weight"])
        for rec in records:
            for j, name in enumerate(model.schema):
                if args.attribute is not None and name != args.attribute:
                    continue
                pairs = token_attention(model.encoders[j], model.table, rec.attributes[j])
                for token, weight in pairs:
                    writer.writerow([rec.record_id, name, token, repr(weight)])
    print(f"wrote attention weights for {len(records)} record(s) to {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = _config(args)
    dataset = config.load_dataset()
    labels = config.load_label_set(dataset)
    if len(labels) == 0:
        raise ConfigError("label set is empty")
    runs: list[RunRecord] = []
    repeat_of: dict[str, int] = {}
    for item in args.candidates:
        if "=" not in item:
            raise ConfigError(f"candidates must look like method=path: {item!r}")
        method, path = item.split("=", 1)
        candidates = load_labels(path, dataset)
        rep = repeat_of.get(method, 0)
        repeat_of[method] = rep + 1
        runs.append(
            RunRecord(
                method=method,
                dataset=args.dataset_name,
                regime=args.regime,
                repeat=rep,
                recall=recall(candidates, labels),
                pe_ratio=pe_ratio(candidates, dataset),
                wall_time_s=0.0,
            )
        )
    text = metrics_csv(runs)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(summary_table(runs), end="")
    print(f"wrote {len(runs)} metric rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigblock",
        description="Learned-signature blocking for entity matching",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with labels")
    p.add_argument("--entities", type=int, required=True)
    p.add_argument("--duplicates", type=int, default=2)
    p.add_argument("--regime", choices=["clean", "dirty", "unstructured"], default="dirty")
    p.add_argument("--typo-rate", type=float, default=0.0)
    p.add_argument("--token-drop-rate", type=float, default=0.0)
    p.add_argument("--missing-attr-rate", type=float, default=0.0)
    p.add_argument("--attr-swap-rate", type=float, default=0.0)
    p.add_argument("--version-suffix-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "tsv", "jsonl"], default="csv")
    p.add_argument("--out", required=True)
    p.add_argument("--labels-out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a signature model")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("block", help="generate candidate pairs with a model")
    _add_config_args(p)
    p.add_argument("--model", required=True)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="kept for compatibility; must be at least 1 and changes nothing:"
        " queries run in one thread, one batch per signature",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_block)

    p = sub.add_parser("baseline", help="run the key or MinHash baseline")
    _add_config_args(p)
    p.add_argument("--method", choices=["key", "minhash"], required=True)
    p.add_argument(
        "--key-kind",
        choices=["single", "conjunction", "disjunction"],
        help="key kind of --method key (default: disjunction)",
    )
    p.add_argument("--key-attributes", help="comma-separated attribute names")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("index", help="build and save a standalone LSH index")
    _add_config_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("inspect", help="dump per-token attention weights")
    _add_config_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--record-id")
    p.add_argument("--attribute")
    p.add_argument("--limit", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("eval", help="score candidate files against labels")
    _add_config_args(p)
    p.add_argument(
        "--candidates",
        nargs="+",
        required=True,
        metavar="METHOD=PATH",
        help="candidate CSVs; repeat a method name for repeats",
    )
    p.add_argument("--dataset-name", default="dataset")
    p.add_argument("--regime", default="unknown")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    for p in sub.choices.values():  # no prefix matching: eval --dataset is not --dataset-name
        p.allow_abbrev = False
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
