"""Key-based and MinHash blocking baselines.

Key blocking pairs records whose key strings match exactly; a key is
one attribute's space-joined tokens, a conjunction of several, or a
disjunction (union of single-key runs). Missing values never match.

MinHash blocking sketches each record's representative set (tokens
plus contiguous token n-grams of an attribute) with banded min-hashes
and verifies banding candidates by exact Jaccard, so no emitted pair
falls below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .blocking import CandidateSet
from .data_model import Dataset, Record, canonical_pair
from .text_embedding import fnv1a64

_MERSENNE31 = (1 << 31) - 1


@dataclass(frozen=True)
class KeySpec:
    """Which attributes form the blocking key and how they combine."""

    kind: str  # "single" | "conjunction" | "disjunction"
    attributes: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in ("single", "conjunction", "disjunction"):
            raise ValueError(f"unknown key kind {self.kind!r}")
        if not self.attributes:
            raise ValueError("key spec needs at least one attribute")
        if self.kind == "single" and len(self.attributes) != 1:
            raise ValueError("single key takes exactly one attribute")


def _key_of(record: Record, attr_idx: Sequence[int]) -> tuple[str, ...] | None:
    parts = []
    for j in attr_idx:
        value = record.attributes[j]
        if value.is_missing:
            return None
        parts.append(value.text())
    return tuple(parts)


def _pairs_from_groups(
    groups: dict, dataset: Dataset
) -> set[tuple[str, str]]:
    out: set[tuple[str, str]] = set()
    if dataset.is_bipartite:
        for members in groups.values():
            left = [rid for t, rid in members if t == 0]
            right = [rid for t, rid in members if t == 1]
            for a in left:
                for b in right:
                    out.add(canonical_pair(a, b))
    else:
        for members in groups.values():
            ids = [rid for _, rid in members]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    out.add(canonical_pair(ids[i], ids[j]))
    return out


def key_block(dataset: Dataset, key_spec: KeySpec) -> CandidateSet:
    """Pairs agreeing exactly on the key; disjunction unions single keys."""
    if key_spec.kind == "disjunction":
        pairs: set[tuple[str, str]] = set()
        for name in key_spec.attributes:
            sub = key_block(dataset, KeySpec("single", (name,)))
            pairs |= sub.pairs
        return CandidateSet(frozenset(pairs))
    attr_idx = [dataset.attribute_index(a) for a in key_spec.attributes]
    groups: dict[tuple[str, ...], list[tuple[int, str]]] = {}
    for t, table in enumerate(dataset.tables):
        for rec in table:
            key = _key_of(rec, attr_idx)
            if key is None:
                continue
            groups.setdefault(key, []).append((t, rec.record_id))
    return CandidateSet(frozenset(_pairs_from_groups(groups, dataset)))


def representative_set(
    record: Record, attr_index: int, ngram_sizes: Sequence[int] = (2, 3)
) -> frozenset[str]:
    """Tokens plus contiguous token n-grams (space-joined) of one
    attribute, for n-gram sizes of at least 2."""
    value = record.attributes[attr_index]
    if value.is_missing:
        return frozenset()
    tokens = value.tokens
    out = set(tokens)
    for n in ngram_sizes:
        for i in range(len(tokens) - n + 1):
            out.add(" ".join(tokens[i : i + n]))
    return frozenset(out)


def exact_jaccard(a: frozenset[str] | set[str], b: frozenset[str] | set[str]) -> float:
    if not a and not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


@dataclass
class MinHashParams:
    bands: int = 32  # banding tables
    band_size: int = 4  # min-hash rows per band
    seed: int = 0
    ngram_sizes: tuple[int, ...] = (2, 3)

    def validate(self) -> None:
        if self.bands <= 0 or self.band_size <= 0:
            raise ValueError("minhash.bands and minhash.band_size must be positive")
        if self.seed < 0:
            raise ValueError(f"minhash.seed must be non-negative, got {self.seed}")
        if not self.ngram_sizes or min(self.ngram_sizes) < 2:
            raise ValueError(f"minhash.ngram_sizes must be at least 2, got {self.ngram_sizes}")

    @property
    def num_hashes(self) -> int:
        return self.bands * self.band_size


class MinHasher:
    """Banded min-hash sketches under 2^31-1 universal hashing."""

    def __init__(self, num_hashes: int, seed: int = 0):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.num_hashes = num_hashes
        self.a = rng.integers(1, _MERSENNE31, size=num_hashes, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE31, size=num_hashes, dtype=np.uint64)

    def sketch(self, elements: Iterable[str]) -> np.ndarray:
        """Per-row minimum hash values; raises on an empty set."""
        xs = np.fromiter(
            (fnv1a64(e) % _MERSENNE31 for e in elements), dtype=np.uint64
        )
        if xs.size == 0:
            raise ValueError("cannot sketch an empty set")
        vals = (self.a[:, None] * xs[None, :] + self.b[:, None]) % np.uint64(
            _MERSENNE31
        )
        return vals.min(axis=1)


def estimate_jaccard(sketch_a: np.ndarray, sketch_b: np.ndarray) -> float:
    """Fraction of agreeing rows; unbiased for the true Jaccard."""
    if sketch_a.shape != sketch_b.shape:
        raise ValueError("sketch length mismatch")
    return float(np.mean(sketch_a == sketch_b))


def minhash_block(
    dataset: Dataset,
    attributes: Sequence[str],
    theta: float,
    params: MinHashParams | None = None,
) -> CandidateSet:
    """Banded MinHash retrieval, unioned across attributes.

    A banding candidate is kept only when the exact Jaccard of its
    representative sets reaches ``theta``. ``params`` that
    ``MinHashParams.validate`` refuses raise ``ValueError``.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    params = params or MinHashParams()
    params.validate()
    hasher = MinHasher(params.num_hashes, params.seed)
    pairs: set[tuple[str, str]] = set()
    for name in attributes:
        j = dataset.attribute_index(name)
        ids: list[str] = []
        table_of: list[int] = []
        sets: list[frozenset[str]] = []
        sketches: list[np.ndarray] = []
        for t, table in enumerate(dataset.tables):
            for rec in table:
                rep = representative_set(rec, j, params.ngram_sizes)
                if not rep:
                    continue
                ids.append(rec.record_id)
                table_of.append(t)
                sets.append(rep)
                sketches.append(hasher.sketch(rep))
        cands: set[tuple[int, int]] = set()
        for band in range(params.bands):
            lo = band * params.band_size
            hi = lo + params.band_size
            buckets: dict[bytes, list[int]] = {}
            for i, sk in enumerate(sketches):
                buckets.setdefault(sk[lo:hi].tobytes(), []).append(i)
            for members in buckets.values():
                if len(members) < 2:
                    continue
                for x in range(len(members)):
                    for y in range(x + 1, len(members)):
                        a, b = members[x], members[y]
                        if dataset.is_bipartite and table_of[a] == table_of[b]:
                            continue
                        cands.add((a, b) if a < b else (b, a))
        for a, b in cands:
            if ids[a] == ids[b]:
                continue
            if exact_jaccard(sets[a], sets[b]) < theta:
                continue
            pairs.add(canonical_pair(ids[a], ids[b]))
    return CandidateSet(frozenset(pairs))
