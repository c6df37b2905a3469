"""Key-based and MinHash blocking baselines.

Key blocking pairs records whose key strings match exactly; a key is
one attribute's space-joined tokens, a conjunction of several, or a
disjunction (union of single-key runs). Missing values never match.

MinHash blocking sketches each record's representative set (tokens
plus contiguous token n-grams of an attribute) with banded min-hashes
and verifies banding candidates by exact Jaccard, so no emitted pair
falls below the threshold.

Each key or band gives every record a group number, and the records of
a group are paired as array code, in the blocking engine's pair codes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np

from .blocking import CandidateSet, id_pairs
from .codec import ranges
from .data_model import Dataset, Record
from .text_embedding import fnv1a64_many

_MERSENNE31 = np.uint64((1 << 31) - 1)
_SKETCH_CHUNK = 1024  # sets per hash-and-min product of MinHasher.sketches


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
        tokens = record.attributes[j].tokens
        if not tokens:  # missing
            return None
        parts.append(" ".join(tokens))
    return tuple(parts)


def _sorted_records(dataset: Dataset) -> tuple[list[str], list[Record], np.ndarray | None]:
    """The sorted ids, their records and, on two tables, which are in the second."""
    records = sorted(dataset.all_records(), key=lambda r: r.record_id)
    ids = [r.record_id for r in records]
    table = np.array([rid in dataset.tables[-1] for rid in ids]) if dataset.is_bipartite else None
    return ids, records, table


def _shared_group_pairs(group: np.ndarray, table: np.ndarray | None) -> np.ndarray:
    """Pair codes ``i * n + j`` (i < j) of every two records i and j, by
    position in the sorted ids, whose group numbers agree (-1: no group);
    given which records are in the second table, only pairs across."""
    # stable, so a group's members stay in ascending position: i < j
    order = np.argsort(group, kind="stable")[np.count_nonzero(group < 0) :]
    after = np.arange(1, len(order) + 1)
    count = np.searchsorted(group[order], group[order], side="right") - after
    a, b = order[np.repeat(after - 1, count)], order[ranges(after, count)]
    cross = slice(None) if table is None else table[a] != table[b]
    return (a * len(group) + b)[cross]


def key_block(dataset: Dataset, key_spec: KeySpec) -> CandidateSet:
    """Pairs agreeing exactly on the key; disjunction unions single keys."""
    ids, records, table = _sorted_records(dataset)
    singles = key_spec.kind == "disjunction"
    codes = []
    for key in [(a,) for a in key_spec.attributes] if singles else [key_spec.attributes]:
        attr_idx = [dataset.attribute_index(a) for a in key]
        number: dict[tuple[str, ...] | None, int] = {None: -1}  # None: a key part is missing
        group = [number.setdefault(_key_of(rec, attr_idx), len(number) - 1) for rec in records]
        codes.append(_shared_group_pairs(np.array(group, np.int64), table))
    return CandidateSet(frozenset(id_pairs(np.concatenate(codes), ids)))


def representative_set(
    record: Record, attr_index: int, ngram_sizes: Sequence[int] = (2, 3)
) -> frozenset[str]:
    """Tokens plus contiguous token n-grams (space-joined) of one
    attribute, for n-gram sizes of at least 2."""
    tokens = record.attributes[attr_index].tokens
    grams = (" ".join(tokens[i : i + n]) for n in ngram_sizes for i in range(len(tokens) - n + 1))
    return frozenset(tokens).union(grams)


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
        return self.sketches([list(elements)])[0]

    def sketches(self, sets: Sequence[Collection[str]]) -> np.ndarray:
        """:meth:`sketch` of every set, as rows: one ``fnv1a64_many`` pass
        hashes all elements, then one segmented min per _SKETCH_CHUNK sets."""
        size = np.fromiter(map(len, sets), np.int64, len(sets))
        if not size.all():
            raise ValueError("cannot sketch an empty set")
        xs = fnv1a64_many([e for s in sets for e in s]) % _MERSENNE31
        start = np.append(np.cumsum(size) - size, len(xs))
        out = np.empty((len(sets), self.num_hashes), np.uint64)
        for lo in range(0, len(sets), _SKETCH_CHUNK):
            hi = min(lo + _SKETCH_CHUNK, len(sets))
            vals = (self.a[:, None] * xs[start[lo] : start[hi]] + self.b[:, None]) % _MERSENNE31
            out[lo:hi] = np.minimum.reduceat(vals, start[lo:hi] - start[lo], axis=1).T
        return out


def estimate_jaccard(sketch_a: np.ndarray, sketch_b: np.ndarray) -> float:
    """Fraction of agreeing rows; unbiased for the true Jaccard."""
    if sketch_a.shape != sketch_b.shape:
        raise ValueError("sketch length mismatch")
    return float(np.mean(sketch_a == sketch_b))


def _jaccards(sets: Sequence[Collection[str]], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``exact_jaccard(sets[a[p]], sets[b[p]])`` for every p: each
    element of ``sets[a[p]]`` is looked up among ``sets[b[p]]``'s."""
    number: dict[str, int] = {}
    elems = np.fromiter((number.setdefault(e, len(number)) for s in sets for e in s), np.int64)
    size = np.fromiter(map(len, sets), np.int64, len(sets))
    held = np.repeat(np.arange(len(sets)), size) * len(number) + elems
    pair = np.repeat(np.arange(len(a)), size[a])
    probe = b[pair] * len(number) + elems[ranges(np.cumsum(size)[a] - size[a], size[a])]
    inter = np.bincount(pair[np.isin(probe, held)], minlength=len(a))
    return inter / (size[a] + size[b] - inter)


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
    ids, records, table = _sorted_records(dataset)
    codes = [np.zeros(0, np.int64)]
    for name in attributes:
        j = dataset.attribute_index(name)
        sets = [representative_set(rec, j, params.ngram_sizes) for rec in records]
        present = np.flatnonzero([len(s) > 0 for s in sets])
        # each band of a sketch row as one 8 * band_size byte string
        bands = hasher.sketches([sets[i] for i in present]).view(f"V{8 * params.band_size}")
        found = []
        for band in bands.T:
            group = np.full(len(sets), -1)
            group[present] = np.unique(band, return_inverse=True)[1]
            found.append(_shared_group_pairs(group, table))
        pair = np.sort(np.concatenate(found))
        pair = pair[np.diff(pair, prepend=-1) != 0]  # each banding candidate once
        codes.append(pair[_jaccards(sets, *np.divmod(pair, len(sets))) >= theta])
    return CandidateSet(frozenset(id_pairs(np.concatenate(codes), ids)))
