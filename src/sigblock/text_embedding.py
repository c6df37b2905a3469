"""Token embeddings from hashed character n-grams.

A token is wrapped in ``<`` ``>`` boundary markers and decomposed into
character n-grams; each n-gram is hashed (64-bit FNV-1a) into a fixed
bucket table and the token vector is the sum of the bucket rows. Every
string therefore maps to a finite vector, with no out-of-vocabulary
sentinel, and near-identical spellings share most of their rows.

Optionally a table can carry pretrained word vectors loaded from a text
file; mapped tokens return their pretrained vector unchanged while
unseen tokens fall back to the hashed n-gram sum.

A new table holds float64 rows and pretrained vectors; the table of a
``signatures.SignatureModel`` holds their f32 values as float32, and
so do the rows of a table a trainer is built with.

The encoder reaches the table once per batch, with the batch's distinct
tokens (``encoder.prepare_values``): :meth:`EmbeddingTable.batch_bucket_ids`
hashes every token the table has not seen yet in one vectorised pass and
caches each token's ids on the table. That pass (:func:`fnv1a64_many`)
runs the FNV-1a state of all n-grams together over byte positions,
longest n-grams first, so the n-grams still holding a byte at position k
form a prefix; :func:`fnv1a64` hashes one string and stays as the
reference.
"""

from __future__ import annotations

import io
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data_model import read_text

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_PRIME64 = np.uint64(_FNV_PRIME)  # array ops wrap modulo 2^64 without a warning


def fnv1a64(data: str, seed: int = 0) -> int:
    """64-bit FNV-1a over the UTF-8 bytes, mixed with a fixed seed."""
    h = _FNV_OFFSET ^ (seed & _MASK64)
    for byte in data.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def fnv1a64_many(data: list[str], seed: int = 0) -> np.ndarray:
    """:func:`fnv1a64` of every string, as one uint64 array.

    The strings are sorted longest first, so the ones that hold a k-th
    byte are a prefix; step k folds those bytes, gathered for all k up
    front, into the prefix's states, so every state sees its own bytes
    in order.
    """
    encoded = [s.encode("utf-8") for s in data]
    lengths = np.fromiter(map(len, encoded), np.int64, len(encoded))
    order = np.argsort(-lengths)
    starts = (np.cumsum(lengths) - lengths)[order]
    # live[k]: how many strings are longer than k bytes
    live = np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)), side="left")
    # byte k of each of the live[k] longest strings, for k = 0, 1, ...
    first = np.cumsum(live) - live
    k = np.repeat(np.arange(len(live)), live)
    flat = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    column = flat[starts[np.arange(len(k)) - first[k]] + k]
    h = np.full(len(encoded), np.uint64(_FNV_OFFSET ^ (seed & _MASK64)))
    for a, n in zip(first.tolist(), live.tolist()):
        state = h[:n]
        state ^= column[a : a + n]
        state *= _PRIME64
    out = np.empty_like(h)
    out[order] = h
    return out


def ngrams(token: str, min_n: int, max_n: int) -> list[str]:
    """Boundary-marked character n-grams plus the whole wrapped token.

    The wrapped token is appended once; duplicates (for tokens shorter
    than ``min_n``) are dropped while preserving first-seen order.
    """
    if min_n > max_n:
        raise ValueError(f"min_n={min_n} exceeds max_n={max_n}")
    wrapped = f"<{token}>"
    out: list[str] = []
    seen: set[str] = set()
    for n in range(min_n, max_n + 1):
        for i in range(len(wrapped) - n + 1):
            gram = wrapped[i : i + n]
            if gram not in seen:
                seen.add(gram)
                out.append(gram)
    if wrapped not in seen:
        out.append(wrapped)
    return out


class EmbeddingTable:
    """Hashed n-gram bucket rows with an optional pretrained token map.

    Given ``rows`` stay float32 when they are float32 and become float64
    otherwise.
    """

    def __init__(
        self,
        dim: int,
        bucket_count: int = 2**16,
        ngram_range: tuple[int, int] = (3, 5),
        seed: int = 0,
        trainable: bool = True,
        pretrained: dict[str, np.ndarray] | None = None,
        rows: np.ndarray | None = None,
    ):
        if dim <= 0:
            raise ValueError("dim must be positive")
        if bucket_count & (bucket_count - 1) != 0 or bucket_count <= 0:
            raise ValueError("bucket_count must be a power of two")
        if not 1 <= ngram_range[0] <= ngram_range[1]:
            raise ValueError(f"ngram_range {ngram_range} must satisfy 1 <= min <= max")
        self.dim = dim
        self.bucket_count = bucket_count
        self.ngram_range = ngram_range
        self.seed = seed
        self.trainable = trainable
        self.pretrained = pretrained or {}
        if rows is None:
            rng = np.random.Generator(np.random.PCG64(seed))
            rows = rng.uniform(-1.0 / dim, 1.0 / dim, size=(bucket_count, dim))
        self.rows = ad.float_array(rows)
        if self.rows.shape != (bucket_count, dim):
            raise ValueError(
                f"rows shape {self.rows.shape} != ({bucket_count}, {dim})"
            )
        self._bucket_cache: dict[str, np.ndarray] = {}

    def batch_bucket_ids(self, tokens: list[str]) -> list[np.ndarray]:
        """Bucket index per n-gram of each token, in ``ngrams`` order.

        Tokens the table has not seen are hashed together in one
        :func:`fnv1a64_many` pass; each token's ids are cached on the
        table, keyed by the token string.
        """
        cache = self._bucket_cache
        new = [t for t in dict.fromkeys(tokens) if t not in cache]
        if new:
            grams = [ngrams(t, *self.ngram_range) for t in new]
            hashed = fnv1a64_many([g for token_grams in grams for g in token_grams], self.seed)
            ids = (hashed & np.uint64(self.bucket_count - 1)).astype(np.int64)
            ends = list(accumulate(map(len, grams)))
            cache.update(zip(new, (ids[a:b] for a, b in zip([0, *ends], ends))))
        return [cache[t] for t in tokens]


def load_pretrained(
    path: str | Path,
    bucket_count: int = 2**16,
    ngram_range: tuple[int, int] = (3, 5),
    seed: int = 0,
) -> EmbeddingTable:
    """Load ``token v1 .. vd`` lines into a frozen table with hashed fallback.

    The dimension is fixed by the first line; a line with a different
    float count, or with an entry that is no finite number (``nan`` and
    ``inf`` parse as floats), raises with its line number, and a token
    given twice raises naming both lines; bytes that are not UTF-8 raise
    ``DatasetError`` naming the line and the byte.
    Out-of-vocabulary tokens still embed through the (untrained, frozen)
    hashed rows.
    """
    path = Path(path)
    pretrained: dict[str, np.ndarray] = {}
    line_of: dict[str, int] = {}
    dim: int | None = None
    with io.StringIO(read_text(path), newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                if line.strip() == "":
                    continue
                raise ValueError(f"{path}: line {lineno}: expected token and floats")
            token = parts[0]
            if token in line_of:
                raise ValueError(
                    f"{path}: line {lineno}: token {token!r} repeats line {line_of[token]}"
                )
            line_of[token] = lineno
            try:
                vec = np.array([float(x) for x in parts[1:] if x != ""], dtype=np.float64)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric vector entry") from None
            if not np.isfinite(vec).all():
                raise ValueError(f"{path}: line {lineno}: non-finite vector entry")
            if dim is None:
                dim = len(vec)
                if dim == 0:
                    raise ValueError(f"{path}: line {lineno}: empty vector")
            elif len(vec) != dim:
                raise ValueError(
                    f"{path}: line {lineno}: dimension {len(vec)} != {dim}"
                )
            pretrained[token] = vec
    if dim is None:
        raise ValueError(f"{path}: no vectors")
    return EmbeddingTable(
        dim=dim,
        bucket_count=bucket_count,
        ngram_range=ngram_range,
        seed=seed,
        trainable=False,
        pretrained=pretrained,
    )
