"""Run configuration: INI file plus command-line overrides.

A run is described by one declarative file with ``[data]``, ``[model]``,
``[training]``, ``[lsh]``, and ``[minhash]`` sections; any value can be
overridden on the command line with ``--set section.key=value``.
Precedence is ``--set`` over file over defaults; no other flag sets a
configuration value.

Each setting is declared once. ``RunConfig`` holds the library's own
parameter objects: ``[model]`` and ``[training]`` fill a
``TrainingConfig``, ``[lsh]`` an ``LshParams`` and ``[minhash]`` a
``MinHashParams``, and those classes own the defaults. ``RunConfig``
declares only what no library object owns: the ``[data]`` fields, the
pretrained vector file, the two thresholds and the MinHash attributes.

Loading parses every key and reports an unknown key or an unparsable
value as the offending ``section.key``. Values are checked by the owner
when a command reads them (:func:`checked`, :func:`check_threshold`), so
a command never fails on a section it does not use.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from .baselines import MinHashParams
from .data_model import Dataset, LabelSet, ingest, load_labels, make_bipartite, read_text
from .lsh import LshParams
from .training import TrainingConfig


class ConfigError(ValueError):
    """Invalid or missing configuration; exits with code 2 at the CLI."""


@dataclass
class RunConfig:
    # [data]
    dataset: str = ""
    dataset_b: str = ""
    format: str = "csv"
    id_column: str = "id"
    schema: tuple[str, ...] | None = None
    labels: str = ""
    # model.pretrained, lsh.theta, minhash.theta, minhash.attributes
    pretrained: str = ""
    theta: float = 0.8
    minhash_theta: float = 0.4
    minhash_attributes: tuple[str, ...] | None = None
    # every other key of [model], [training], [lsh] and [minhash]
    training: TrainingConfig = field(default_factory=TrainingConfig)
    lsh: LshParams = field(default_factory=LshParams)
    minhash: MinHashParams = field(default_factory=MinHashParams)

    def load_dataset(self) -> Dataset:
        if not self.dataset:
            raise ConfigError("data.dataset is required")
        if not Path(self.dataset).exists():
            raise ConfigError(f"data.dataset: no such file: {self.dataset}")
        left = ingest(self.dataset, self.format, self.schema, self.id_column)
        if not self.dataset_b:
            return left
        if not Path(self.dataset_b).exists():
            raise ConfigError(f"data.dataset_b: no such file: {self.dataset_b}")
        right = ingest(self.dataset_b, self.format, self.schema, self.id_column)
        return make_bipartite(left, right)

    def load_label_set(self, dataset: Dataset) -> LabelSet:
        if not self.labels:
            raise ConfigError("data.labels is required")
        if not Path(self.labels).exists():
            raise ConfigError(f"data.labels: no such file: {self.labels}")
        return load_labels(self.labels, dataset)


P = TypeVar("P", TrainingConfig, LshParams, MinHashParams)


def checked(params: P, prefix: str = "") -> P:
    """``params`` once its own ``validate()`` passes; its ValueError becomes ConfigError."""
    try:
        params.validate()
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None
    return params


def check_threshold(key: str, value: float) -> float:
    """A similarity threshold, which must lie strictly between 0 and 1."""
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{key} must lie in (0, 1)")
    return value


def _names(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(",") if x.strip())


def _name_or_none(raw: str) -> str | None:
    return raw or None


# (section, key) -> (dotted RunConfig field path, parser of the raw text)
_SECTION_KEYS: dict[tuple[str, str], tuple[str, Callable[[str], object]]] = {
    ("data", "dataset"): ("dataset", str),
    ("data", "dataset_b"): ("dataset_b", str),
    ("data", "format"): ("format", str),
    ("data", "id_column"): ("id_column", str),
    ("data", "schema"): ("schema", _names),
    ("data", "labels"): ("labels", str),
    ("model", "dim"): ("training.embedding_dim", int),
    ("model", "hidden"): ("training.hidden_size", int),
    ("model", "bucket_count"): ("training.bucket_count", int),
    ("model", "ngram_min"): ("training.ngram_min", int),
    ("model", "ngram_max"): ("training.ngram_max", int),
    ("model", "max_tokens"): ("training.max_tokens", int),
    ("model", "primary_attribute"): ("training.primary_attribute", _name_or_none),
    ("model", "pretrained"): ("pretrained", str),
    ("training", "iterations"): ("training.iterations", int),
    ("training", "batch_size"): ("training.batch_size", int),
    ("training", "negatives"): ("training.negatives", int),
    ("training", "learning_rate"): ("training.learning_rate", float),
    ("training", "temperature"): ("training.temperature", float),
    ("training", "max_signatures"): ("training.max_signatures", int),
    ("training", "seed"): ("training.seed", int),
    ("training", "log_every"): ("training.log_every", int),
    ("lsh", "theta"): ("theta", float),
    ("lsh", "tables"): ("lsh.tables", int),
    ("lsh", "hashes_per_table"): ("lsh.hashes_per_table", int),
    ("lsh", "multiprobe"): ("lsh.multiprobe", int),
    ("lsh", "max_results"): ("lsh.max_results", int),
    ("lsh", "seed"): ("lsh.seed", int),
    ("minhash", "theta"): ("minhash_theta", float),
    ("minhash", "bands"): ("minhash.bands", int),
    ("minhash", "band_size"): ("minhash.band_size", int),
    ("minhash", "seed"): ("minhash.seed", int),
    ("minhash", "attributes"): ("minhash_attributes", _names),
    ("minhash", "ngram_sizes"): ("minhash.ngram_sizes", _ints),
}


def _apply(config: RunConfig, section: str, key: str, raw: str) -> None:
    if section == "model" and key.startswith("rho_"):
        try:
            config.training.rho_overrides[key[len("rho_") :]] = float(raw)
        except ValueError:
            raise ConfigError(f"model.{key}: expected a float, got {raw!r}") from None
        return
    spec = _SECTION_KEYS.get((section, key))
    if spec is None:
        raise ConfigError(f"unknown configuration key {section}.{key}")
    path, parse = spec
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from None
    *owners, name = path.split(".")
    target: object = config
    for owner in owners:
        target = getattr(target, owner)
    setattr(target, name, value)


def load_config(
    path: str | Path | None, overrides: list[str] | None = None
) -> RunConfig:
    """Build a RunConfig from an INI file plus ``section.key=value`` overrides.

    A file whose bytes are not UTF-8 raises ``DatasetError`` naming the
    path, the line and the byte offset."""
    config = RunConfig()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"no such config file: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read_string(read_text(path), source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for section in parser.sections():
            for key, raw in parser.items(section):
                _apply(config, section, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        _apply(config, section.strip(), key.strip(), raw.strip())
    return config
