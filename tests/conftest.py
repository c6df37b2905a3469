"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from sigblock.data_model import (
    AttributeValue,
    Dataset,
    LabelSet,
    Record,
    Table,
    canonical_pair,
)
from sigblock.text_embedding import EmbeddingTable

# HYPOTHESIS_PROFILE=ci makes every property test draw the same examples
# on every run, so a random draw cannot fail CI; local runs stay random.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

SYLLABLES = (
    "ba de ki lo mu na re si tu vo za po fa ge hi do ku me ni ra"
).split()


def pseudo_word(rng: np.random.Generator, syllables: int | None = None) -> str:
    n = syllables or int(rng.integers(2, 5))
    return "".join(SYLLABLES[int(i)] for i in rng.integers(0, len(SYLLABLES), n))


def pseudo_vocab(rng: np.random.Generator, size: int) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < size:
        w = pseudo_word(rng)
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def phrase(rng: np.random.Generator, vocab: list[str], lo: int, hi: int) -> tuple[str, ...]:
    n = int(rng.integers(lo, hi + 1))
    return tuple(vocab[int(i)] for i in rng.integers(0, len(vocab), n))


def duplicated_dataset(
    entities: int,
    attrs_informative: int = 1,
    attrs_noise: int = 0,
    copies: int = 2,
    seed: int = 0,
) -> tuple[Dataset, LabelSet]:
    """Entities duplicated verbatim on informative attributes; noise
    attributes are redrawn per record."""
    rng = np.random.default_rng(seed)
    vocab = pseudo_vocab(rng, 400)
    records: list[Record] = []
    pairs: list[tuple[str, str]] = []
    for e in range(entities):
        shared = [phrase(rng, vocab, 3, 5) for _ in range(attrs_informative)]
        ids = []
        for c in range(copies):
            rid = f"e{e:05d}-{c}"
            ids.append(rid)
            values = [AttributeValue(t) for t in shared]
            values += [
                AttributeValue(phrase(rng, vocab, 2, 4)) for _ in range(attrs_noise)
            ]
            records.append(Record(rid, tuple(values)))
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                pairs.append(canonical_pair(ids[x], ids[y]))
    schema = [f"info{j}" for j in range(attrs_informative)] + [
        f"noise{j}" for j in range(attrs_noise)
    ]
    return Dataset(schema, (Table(records),)), LabelSet(frozenset(pairs))


def bucket_ids(table: EmbeddingTable, token: str) -> np.ndarray:
    """Bucket index per n-gram of one token, a batch of one."""
    return table.batch_bucket_ids([token])[0]


def token_vector(table: EmbeddingTable, token: str) -> np.ndarray:
    """A token's d-vector, the reference for the encoder's vocabulary sum:
    its pretrained vector if mapped, else the sum of its n-gram rows."""
    vec = table.pretrained.get(token)
    if vec is not None:
        return vec
    return table.rows[bucket_ids(table, token)].sum(axis=0)


# One unit in the last place of 1.0 in float32, the precision inference
# computes in: the unit of every bound between float32 results that sum
# or multiply in a different order, or between them and a float64 path.
F32_EPS = float(np.finfo(np.float32).eps)


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Max elementwise |a - b| / max(|a|, |b|, floor)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
