"""Cross-polytope LSH over unit vectors for sublinear cosine search.

A hash maps a unit vector to the signed standard-basis vector nearest
to its random rotation: rotate, take the coordinate of largest
magnitude, keep its sign. Each table composes ``hashes_per_table``
such hashes into one bucket key (AND-composition); a query probes its
own bucket in every table plus, per table, the ``multiprobe``
next-closest buckets obtained by flipping the hash component whose
winner margin is smallest to its runner-up axis. Candidates are then
re-ranked by exact cosine, so results are always a subset of a
brute-force scan at the same threshold.

Queries run in batches (``LshIndex.search``; ``LshIndex.query`` is a
batch of one). A batch is hashed under all rotations in one matrix
product; each probe is packed into one int64 key and joined to the
index by binary search over every table's sorted keys, and the
(query, entry) candidates are deduplicated, re-ranked and cut per
query with array operations. Building an index hashes its vectors the
same way and groups equal keys by sorting.

Vectors are zero-padded to a power-of-two dimension before rotation,
which leaves cosines unchanged.

Index file layout (all integers little-endian)::

    magic  6 bytes  b"XPLSH1"
    u16    version (currently 1)
    u32    dim, u32 dim_padded, u32 tables, u32 hashes_per_table
    u32    multiprobe, u64 seed, u32 n_entries, u32 max_results (0 = auto)
    f32 x  tables * hashes_per_table * dim_padded^2   rotation matrices,
           row-major, table-major
    per entry: u16 id-length, UTF-8 id bytes, u32 signature_id,
           dim x f32 unit vector
    per table: u32 n_buckets, then per bucket: hashes_per_table x i32
           key components, u32 count, count x u32 entry indices
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

UNIT_TOL = 1e-6
# Vectors are hashed 256 rows per matrix product and queries re-ranked in
# parts of about 2^13 bucket entries, so temporaries stay a few MB even
# when one bucket holds a large share of the index.
_CHUNK_ROWS = 256
_CHUNK_PAIRS = 1 << 13
_MAGIC = b"XPLSH1"
_VERSION = 1


def next_pow2(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


def random_rotations(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim, dim) stack of independent Haar-distributed orthogonal
    matrices, via QR with sign correction."""
    gauss = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.einsum("kii->ki", r))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def pad_to(v: np.ndarray, dim_padded: int) -> np.ndarray:
    if v.shape[-1] == dim_padded:
        return v
    pad_width = [(0, 0)] * (v.ndim - 1) + [(0, dim_padded - v.shape[-1])]
    return np.pad(v, pad_width)


def _top2(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best and runner-up signed axes of rotated vectors, and their gap.

    ``u`` holds one rotated vector per row. A signed axis is coded
    ``2 * index + (coordinate < 0)``; ties go to the smallest index and
    a zero coordinate counts as positive. With one coordinate the
    runner-up is the opposite sign and the gap 2|u|.
    """
    r = np.arange(len(u))
    mag = np.abs(u)
    j1 = mag.argmax(axis=1)
    m1 = mag[r, j1]
    best = 2 * j1 + (u[r, j1] < 0.0)
    if u.shape[1] == 1:
        return best, best ^ 1, 2.0 * m1
    mag[r, j1] = -np.inf
    j2 = mag.argmax(axis=1)
    return best, 2 * j2 + (u[r, j2] < 0.0), m1 - mag[r, j2]


def _hash(
    rotations: np.ndarray, padded: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_top2`` of padded rows under every rotation, each (rows, tables, hashes)."""
    tables, hashes, dp, _ = rotations.shape
    u = padded @ rotations.reshape(-1, dp).T
    shape = (len(padded), tables, hashes)
    return tuple(a.reshape(shape) for a in _top2(u.reshape(-1, dp)))


def _stack_vectors(items: list[tuple[str, int, np.ndarray]], dim: int) -> np.ndarray:
    """The items' vectors as (n, dim) float64 rows; an item of another
    shape fails with a message naming the first such id."""
    if not items:
        return np.zeros((0, dim))
    rows = [vec for _, _, vec in items]
    try:
        vectors = np.array(rows, dtype=np.float64)
    except ValueError:  # rows of different shapes
        vectors = None
    if vectors is None or vectors.shape != (len(rows), dim):
        for (rid, _, _), vec in zip(items, rows):
            if np.shape(vec) != (dim,):
                raise ValueError(f"vector for {rid!r} has shape {np.shape(vec)}, want ({dim},)")
        vectors = np.array(rows, dtype=np.float64)  # not numbers: numpy's own error
    return vectors


def _key_shifts(dp: int, hashes: int, tables: int) -> tuple[np.ndarray, int]:
    """Bit offsets of each hash component and of the table number in a
    packed 64-bit bucket key."""
    bits = dp.bit_length()  # axis index and sign of one component
    if bits * hashes + (tables - 1).bit_length() > 63:
        raise ValueError(
            f"{tables} tables of {hashes} hashes of dimension {dp} "
            "overflow a 64-bit bucket key"
        )
    return bits * np.arange(hashes - 1, -1, -1, dtype=np.int64), bits * hashes


def _signed(codes: np.ndarray) -> np.ndarray:
    """Axis codes of ``_top2`` as signed axes +/-1..+/-d."""
    return ((codes >> 1) + 1) * (1 - 2 * (codes & 1))


def _bucket_arrays(
    tables: list[dict[tuple[int, ...], list[int]]], shifts: np.ndarray, table_shift: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every bucket as (sorted packed keys, starts, sizes, members).

    Bucket ``i`` of the sorted keys holds the entries
    ``members[starts[i]:starts[i] + sizes[i]]``.
    """
    keys = np.array([key for t in tables for key in t], dtype=np.int64)
    keys = keys.reshape(-1, len(shifts))
    table = np.repeat(np.arange(len(tables), dtype=np.int64), [len(t) for t in tables])
    packed = ((2 * (np.abs(keys) - 1) + (keys < 0)) << shifts).sum(axis=1)
    packed += table << table_shift
    buckets = [b for t in tables for b in t.values()]
    sizes = np.fromiter(map(len, buckets), dtype=np.int64, count=len(buckets))
    members = np.fromiter(chain.from_iterable(buckets), dtype=np.int64, count=int(sizes.sum()))
    order = np.argsort(packed)
    return packed[order], (np.cumsum(sizes) - sizes)[order], sizes[order], members


@dataclass
class LshParams:
    tables: int = 10  # K independent tables
    hashes_per_table: int = 2  # B composed hashes per bucket key
    multiprobe: int = 1  # extra buckets probed per table
    seed: int = 0
    max_results: int | None = None  # None: max(1000, floor(sqrt(n_indexed)))

    def validate(self) -> None:
        if self.tables <= 0 or self.hashes_per_table <= 0:
            raise ValueError("tables and hashes_per_table must be positive")
        if self.multiprobe < 0:
            raise ValueError("multiprobe must be nonnegative")
        if self.max_results is not None and self.max_results <= 0:
            raise ValueError("max_results must be positive when set")


@dataclass
class LshTheoryParams:
    """Threshold pair mapped to the Euclidean guarantee parameters."""

    theta: float
    theta_prime: float

    def __post_init__(self):
        if not (-1.0 < self.theta_prime < self.theta < 1.0):
            raise ValueError("need -1 < theta_prime < theta < 1")

    @property
    def rho(self) -> float:
        return rho_exponent(self.theta, self.theta_prime)

    @property
    def euclid_r(self) -> float:
        return cosine_to_euclidean(self.theta)

    @property
    def factor_c(self) -> float:
        return approx_factor(self.theta, self.theta_prime)

    @property
    def failure_bound(self) -> float:
        return 1.0 / 3.0 + 1.0 / np.e


def rho_exponent(theta: float, theta_prime: float) -> float:
    """Query-time exponent for the (theta, theta_prime) guarantee.

    The vanishing correction term of the underlying bound is reported
    as zero.
    """
    if not (-1.0 < theta_prime < theta < 1.0):
        raise ValueError("need -1 < theta_prime < theta < 1")
    return (1.0 - theta) / (1.0 - theta_prime) * (1.0 + theta_prime) / (1.0 + theta)


def cosine_to_euclidean(theta: float) -> float:
    """Distance between unit vectors at cosine ``theta``."""
    if not (-1.0 < theta <= 1.0):
        raise ValueError("theta must lie in (-1, 1]")
    return float(np.sqrt(max(2.0 - 2.0 * theta, 0.0)))


def approx_factor(theta: float, theta_prime: float) -> float:
    if not (-1.0 < theta_prime < theta < 1.0):
        raise ValueError("need -1 < theta_prime < theta < 1")
    return float(np.sqrt((1.0 - theta_prime) / (1.0 - theta)))


class LshIndex:
    """Immutable multi-table index over unit vectors tagged (id, signature)."""

    def __init__(
        self,
        dim: int,
        params: LshParams,
        rotations: np.ndarray,
        entries: list[tuple[str, int]],
        vectors: np.ndarray,
        tables: list[dict[tuple[int, ...], list[int]]],
    ):
        self.dim = dim
        self.dim_padded = rotations.shape[-1]
        self.params = params
        self.rotations = rotations  # (tables, hashes_per_table, dp, dp)
        self.entries = entries
        self.vectors = vectors  # (n, dim) unit rows
        self.tables = tables
        self._shifts, table_shift = _key_shifts(
            self.dim_padded, params.hashes_per_table, params.tables
        )
        self._table_keys = np.arange(params.tables, dtype=np.int64) << table_shift
        self._signatures = np.array([s for _, s in entries], dtype=np.int64)
        # position of each entry in (record_id, signature) order: the tie-break
        self._rank = np.empty(len(entries), dtype=np.int64)
        self._rank[sorted(range(len(entries)), key=entries.__getitem__)] = np.arange(
            len(entries)
        )
        self._buckets = _bucket_arrays(tables, self._shifts, table_shift)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def default_max_results(self) -> int:
        if self.params.max_results is not None:
            return self.params.max_results
        return max(1000, int(np.sqrt(len(self.entries)))) if self.entries else 1000

    @classmethod
    def build(
        cls,
        items: Iterable[tuple[str, int, np.ndarray]],
        dim: int,
        params: LshParams | None = None,
    ) -> "LshIndex":
        """Index (record_id, signature_id, unit vector) triples."""
        params = params or LshParams()
        params.validate()
        items = list(items)
        entries = [(rid, sig) for rid, sig, _ in items]
        vectors = _stack_vectors(items, dim)
        # written so that a NaN norm fails too
        off_unit = ~(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= UNIT_TOL)
        if off_unit.any():
            rid = entries[off_unit.argmax()][0]
            raise ValueError(f"vector for id {rid!r} is not unit norm")
        if len(set(entries)) != len(entries):
            seen: set[tuple[str, int]] = set()
            for rid, sig in entries:
                if (rid, sig) in seen:
                    raise ValueError(f"duplicate entry ({rid!r}, {sig})")
                seen.add((rid, sig))
        dp = next_pow2(dim)
        rng = np.random.Generator(np.random.PCG64(params.seed))
        rotations = random_rotations(dp, params.tables * params.hashes_per_table, rng)
        rotations = rotations.reshape(params.tables, params.hashes_per_table, dp, dp)
        if not entries:
            tables = [dict() for _ in range(params.tables)]
            return cls(dim, params, rotations, entries, vectors, tables)
        n = len(entries)
        best = np.concatenate(
            [
                _hash(rotations, pad_to(vectors[lo : lo + _CHUNK_ROWS], dp))[0]
                for lo in range(0, n, _CHUNK_ROWS)
            ]
        )
        shifts, _ = _key_shifts(dp, params.hashes_per_table, params.tables)
        packed = (best << shifts).sum(axis=-1)
        signed = _signed(best)
        tables = []
        for k in range(params.tables):
            order = np.argsort(packed[:, k], kind="stable")
            run = packed[order, k]
            starts = np.flatnonzero(np.r_[True, run[1:] != run[:-1]])
            bounds = np.append(starts, n).tolist()
            members = order.tolist()
            # buckets in order of their first entry, as inserting the
            # entries one by one gives
            groups = np.argsort(order[starts])
            keys = map(tuple, signed[order[starts[groups]], k].tolist())
            tables.append(
                {key: members[bounds[g] : bounds[g + 1]] for key, g in zip(keys, groups.tolist())}
            )
        return cls(dim, params, rotations, entries, vectors, tables)

    def search(
        self,
        queries: np.ndarray,
        theta: float,
        max_results: int | None = None,
        signature: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hits of a batch of unit queries as ``(row, entry, cosine)`` arrays.

        ``row`` indexes ``queries`` and ``entry`` indexes ``entries``.
        Each query's candidates are the union of its probed buckets
        across all tables, re-ranked by exact cosine, kept at or above
        ``theta`` and cut to the ``max_results`` best. Hits come grouped
        by row in input order; within a row the best come first, ties in
        cosine going to the smaller (record_id, signature). When the
        index mixes several signatures, pass ``signature`` to restrict
        hits to one of them.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if not np.all(np.abs(np.linalg.norm(queries, axis=1) - 1.0) <= UNIT_TOL):
            raise ValueError("query vector is not unit norm")
        if max_results is None:
            max_results = self.default_max_results
        keys, starts, sizes, _ = self._buckets
        hits = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
        for lo in range(0, len(queries) if self.entries else 0, _CHUNK_ROWS):
            q = queries[lo : lo + _CHUNK_ROWS]
            probes = self._probes(q).ravel()
            per_row = len(probes) // len(q)
            pos = np.searchsorted(keys, probes)
            pos[pos == len(keys)] = 0
            size = np.where(keys[pos] == probes, sizes[pos], 0)
            # re-rank rows in parts of about _CHUNK_PAIRS bucket entries
            filled = np.cumsum(size.reshape(len(q), per_row).sum(axis=1)) // _CHUNK_PAIRS
            cuts = [0, *(np.flatnonzero(np.diff(filled)) + 1).tolist(), len(q)]
            for a, b in zip(cuts, cuts[1:]):
                part = slice(a * per_row, b * per_row)
                row, entry, cos = self._rerank(
                    q[a:b], starts[pos[part]], size[part], theta, max_results, signature
                )
                hits.append((row + lo + a, entry, cos))
        row, entry, cos = (np.concatenate(part) for part in zip(*hits))
        return row, entry, cos

    def _probes(self, q: np.ndarray) -> np.ndarray:
        """Packed keys of the buckets each query row probes.

        Shape (rows, tables, 1 + min(multiprobe, hashes_per_table)): per
        table the row's own bucket, then one bucket per flip of the
        components with the smallest winner margins to their runner-up
        axis, smallest margin first.
        """
        best, second, gap = _hash(self.rotations, pad_to(q, self.dim_padded))
        primary = (best << self._shifts).sum(axis=-1) + self._table_keys
        flips = np.argsort(gap, axis=-1, kind="stable")[..., : self.params.multiprobe]
        flip = np.take_along_axis((second - best) << self._shifts, flips, -1)
        return np.concatenate([primary[..., None], primary[..., None] + flip], axis=-1)

    def _rerank(
        self,
        q: np.ndarray,
        start: np.ndarray,
        size: np.ndarray,
        theta: float,
        max_results: int,
        signature: int | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``search`` hits of the rows ``q``, given the start and size of
        each probed bucket in ``members``, row by row."""
        _, _, _, members = self._buckets
        n = len(self.entries)
        rows = np.repeat(np.arange(len(size)) // (len(size) // len(q)), size)
        first = np.repeat(start - (np.cumsum(size) - size), size)
        pairs = rows * n + members[first + np.arange(len(first))]
        row, entry = np.divmod(np.unique(pairs), n)
        # re-rank by exact cosine; a row keeps its max_results best
        if signature is not None:
            keep = self._signatures[entry] == signature
            row, entry = row[keep], entry[keep]
        cos = np.einsum("ij,ij->i", q[row], self.vectors[entry])
        keep = cos >= theta
        row, entry, cos = row[keep], entry[keep], cos[keep]
        order = np.lexsort((self._rank[entry], -cos, row))
        row, entry, cos = row[order], entry[order], cos[order]
        keep = np.arange(len(row)) - np.searchsorted(row, row) < max_results
        return row[keep], entry[keep], cos[keep]

    def query(
        self,
        q: np.ndarray,
        theta: float,
        max_results: int | None = None,
        signature: int | None = None,
    ) -> list[tuple[str, int, float]]:
        """(record_id, signature_id, cosine) hits with cosine >= theta.

        A batch of one for ``search``: hits come best first, at most
        ``max_results`` of them.
        """
        _, entry, cos = self.search(
            np.asarray(q, dtype=np.float64)[None], theta, max_results, signature
        )
        return [(*self.entries[e], c) for e, c in zip(entry.tolist(), cos.tolist())]

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<H", _VERSION))
            fh.write(
                struct.pack(
                    "<IIII",
                    self.dim,
                    self.dim_padded,
                    self.params.tables,
                    self.params.hashes_per_table,
                )
            )
            fh.write(struct.pack("<IQ", self.params.multiprobe, self.params.seed))
            fh.write(
                struct.pack(
                    "<II",
                    len(self.entries),
                    0 if self.params.max_results is None else self.params.max_results,
                )
            )
            fh.write(self.rotations.astype("<f4").tobytes())
            for (rid, sig), vec in zip(self.entries, self.vectors):
                raw = rid.encode("utf-8")
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<I", sig))
                fh.write(vec.astype("<f4").tobytes())
            for table in self.tables:
                fh.write(struct.pack("<I", len(table)))
                for key, bucket in table.items():
                    fh.write(struct.pack(f"<{len(key)}i", *key))
                    fh.write(struct.pack("<I", len(bucket)))
                    fh.write(struct.pack(f"<{len(bucket)}I", *bucket))

    @classmethod
    def load(cls, path: str | Path) -> "LshIndex":
        with open(path, "rb") as fh:
            magic = fh.read(6)
            if magic != _MAGIC:
                raise ValueError(f"{path}: not an index file (magic {magic!r})")
            (version,) = struct.unpack("<H", fh.read(2))
            if version != _VERSION:
                raise ValueError(
                    f"{path}: unsupported index version {version} (want {_VERSION})"
                )
            dim, dp, tables_n, hashes = struct.unpack("<IIII", fh.read(16))
            multiprobe, seed = struct.unpack("<IQ", fh.read(12))
            n_entries, max_results = struct.unpack("<II", fh.read(8))
            params = LshParams(
                tables=tables_n,
                hashes_per_table=hashes,
                multiprobe=multiprobe,
                seed=seed,
                max_results=max_results or None,
            )
            count = tables_n * hashes * dp * dp
            rotations = np.frombuffer(fh.read(4 * count), dtype="<f4").astype(np.float64)
            rotations = rotations.reshape(tables_n, hashes, dp, dp)
            entries: list[tuple[str, int]] = []
            vectors = np.empty((n_entries, dim), dtype=np.float64)
            for i in range(n_entries):
                (id_len,) = struct.unpack("<H", fh.read(2))
                rid = fh.read(id_len).decode("utf-8")
                (sig,) = struct.unpack("<I", fh.read(4))
                entries.append((rid, sig))
                vectors[i] = np.frombuffer(fh.read(4 * dim), dtype="<f4")
            tables: list[dict[tuple[int, ...], list[int]]] = []
            for _ in range(tables_n):
                (n_buckets,) = struct.unpack("<I", fh.read(4))
                table: dict[tuple[int, ...], list[int]] = {}
                for _ in range(n_buckets):
                    key = struct.unpack(f"<{hashes}i", fh.read(4 * hashes))
                    (cnt,) = struct.unpack("<I", fh.read(4))
                    bucket = list(struct.unpack(f"<{cnt}I", fh.read(4 * cnt)))
                    table[key] = bucket
                tables.append(table)
        return cls(dim, params, rotations, entries, vectors, tables)
