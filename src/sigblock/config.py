"""Run configuration: INI file plus command-line overrides.

A run is described by one declarative file with ``[data]``, ``[model]``,
``[training]``, ``[lsh]``, and ``[minhash]`` sections; any value can be
overridden on the command line with ``--set section.key=value``.
Precedence is flags over file over defaults. Validation happens at load
time and reports the offending ``section.key``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

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
    # [model]
    dim: int = 64
    hidden: int = 64
    bucket_count: int = 2**16
    ngram_min: int = 3
    ngram_max: int = 5
    max_tokens: int = 64
    primary_attribute: str | None = None
    rho_overrides: dict[str, float] = field(default_factory=dict)
    pretrained: str = ""
    # [training]
    iterations: int = 2000
    batch_size: int = 64
    negatives: int = 10
    learning_rate: float = 1e-3
    temperature: float = 1.0
    max_signatures: int | None = None
    seed: int = 0
    log_every: int = 100
    # [lsh]
    theta: float = 0.8
    theta_prime: float = 0.4
    tables: int = 10
    hashes_per_table: int = 2
    multiprobe: int = 1
    max_results: int | None = None
    lsh_seed: int = 0
    # [minhash]
    minhash_theta: float = 0.4
    minhash_bands: int = 32
    minhash_band_size: int = 4
    minhash_seed: int = 0
    minhash_attributes: tuple[str, ...] | None = None
    minhash_ngram_sizes: tuple[int, ...] = (2, 3)

    @property
    def mode(self) -> str:
        return "bipartite" if self.dataset_b else "self"

    def training_config(self) -> TrainingConfig:
        cfg = TrainingConfig(
            iterations=self.iterations,
            batch_size=self.batch_size,
            negatives=self.negatives,
            learning_rate=self.learning_rate,
            temperature=self.temperature,
            max_signatures=self.max_signatures,
            seed=self.seed,
            embedding_dim=self.dim,
            hidden_size=self.hidden,
            bucket_count=self.bucket_count,
            ngram_min=self.ngram_min,
            ngram_max=self.ngram_max,
            max_tokens=self.max_tokens,
            primary_attribute=self.primary_attribute or None,
            rho_overrides=dict(self.rho_overrides),
            log_every=self.log_every,
        )
        try:
            cfg.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cfg

    def lsh_params(self) -> LshParams:
        params = LshParams(
            tables=self.tables,
            hashes_per_table=self.hashes_per_table,
            multiprobe=self.multiprobe,
            seed=self.lsh_seed,
            max_results=self.max_results,
        )
        try:
            params.validate()
        except ValueError as exc:
            raise ConfigError(f"lsh: {exc}") from None
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("lsh.theta must lie in (0, 1)")
        return params

    def minhash_params(self) -> MinHashParams:
        if self.minhash_bands <= 0 or self.minhash_band_size <= 0:
            raise ConfigError("minhash.bands and minhash.band_size must be positive")
        if not 0.0 < self.minhash_theta < 1.0:
            raise ConfigError("minhash.theta must lie in (0, 1)")
        return MinHashParams(
            bands=self.minhash_bands,
            band_size=self.minhash_band_size,
            seed=self.minhash_seed,
            ngram_sizes=self.minhash_ngram_sizes,
        )

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


_SECTION_KEYS = {
    ("data", "dataset"): ("dataset", str),
    ("data", "dataset_b"): ("dataset_b", str),
    ("data", "format"): ("format", str),
    ("data", "id_column"): ("id_column", str),
    ("data", "schema"): ("schema", "strlist"),
    ("data", "labels"): ("labels", str),
    ("model", "dim"): ("dim", int),
    ("model", "hidden"): ("hidden", int),
    ("model", "bucket_count"): ("bucket_count", int),
    ("model", "ngram_min"): ("ngram_min", int),
    ("model", "ngram_max"): ("ngram_max", int),
    ("model", "max_tokens"): ("max_tokens", int),
    ("model", "primary_attribute"): ("primary_attribute", str),
    ("model", "pretrained"): ("pretrained", str),
    ("training", "iterations"): ("iterations", int),
    ("training", "batch_size"): ("batch_size", int),
    ("training", "negatives"): ("negatives", int),
    ("training", "learning_rate"): ("learning_rate", float),
    ("training", "temperature"): ("temperature", float),
    ("training", "max_signatures"): ("max_signatures", int),
    ("training", "seed"): ("seed", int),
    ("training", "log_every"): ("log_every", int),
    ("lsh", "theta"): ("theta", float),
    ("lsh", "theta_prime"): ("theta_prime", float),
    ("lsh", "tables"): ("tables", int),
    ("lsh", "hashes_per_table"): ("hashes_per_table", int),
    ("lsh", "multiprobe"): ("multiprobe", int),
    ("lsh", "max_results"): ("max_results", int),
    ("lsh", "seed"): ("lsh_seed", int),
    ("minhash", "theta"): ("minhash_theta", float),
    ("minhash", "bands"): ("minhash_bands", int),
    ("minhash", "band_size"): ("minhash_band_size", int),
    ("minhash", "seed"): ("minhash_seed", int),
    ("minhash", "attributes"): ("minhash_attributes", "strlist"),
    ("minhash", "ngram_sizes"): ("minhash_ngram_sizes", "intlist"),
}


def _apply(config: RunConfig, section: str, key: str, raw: str) -> None:
    if section == "model" and key.startswith("rho_"):
        attr = key[len("rho_") :]
        try:
            config.rho_overrides[attr] = float(raw)
        except ValueError:
            raise ConfigError(f"model.{key}: expected a float, got {raw!r}") from None
        return
    spec = _SECTION_KEYS.get((section, key))
    if spec is None:
        raise ConfigError(f"unknown configuration key {section}.{key}")
    attr, kind = spec
    value: object
    try:
        if kind is str:
            value = raw
        elif kind is int:
            value = int(raw)
        elif kind is float:
            value = float(raw)
        elif kind == "strlist":
            value = tuple(x.strip() for x in raw.split(",") if x.strip())
        elif kind == "intlist":
            value = tuple(int(x) for x in raw.split(",") if x.strip())
        else:  # pragma: no cover
            raise AssertionError(kind)
    except ValueError:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from None
    setattr(config, attr, value)


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
