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

An index keeps each entry's bucket keys and its tables as sorted arrays
derived from them: one stable argsort of every (entry, table) key,
packed with its table number into an int64, gives the bucket keys,
sizes and members (ascending per bucket); ``LshIndex.tables`` derives
the per-table dicts from them. Queries run in batches (``search``;
``query`` is a batch of one), hashed under all rotations in one matrix
product, joined to the keys by binary search, then filtered by
signature, deduplicated by sorting their (query, entry) codes and
dropping repeats, re-ranked and cut with array operations.
``build`` keeps its hashes, so a self-join (``search_self``) needs no
second pass.

Vectors are zero-padded to a power-of-two dimension before rotation,
which leaves cosines unchanged.

Index file layout (all integers little-endian)::

    magic  6 bytes  b"XPLSH1"
    u16    version (currently 2)
    u32    dim, u32 dim_padded, u32 tables, u32 hashes_per_table
    u32    multiprobe, u64 seed, u32 n_entries, u32 max_results (0 = auto)
    f32 x  tables * hashes_per_table * dim_padded^2   rotation matrices,
           row-major, table-major
    per entry: u16 id-length, UTF-8 id bytes, u32 signature_id,
           dim x f32 unit vector
    i32 x  n_entries * tables * hashes_per_table   bucket keys as signed
           axes +/-1..+/-dim_padded, row-major (entry, table, hash)

The file stores each entry's keys, not the buckets: ``load`` builds the
buckets from the keys as ``build`` does. Version-1 files, which listed
the buckets, are refused; ``sigblock index`` rebuilds them.

Files go through ``codec``: ``save`` checks every field before the
path is opened, and ``load`` raises ``ValueError`` naming the path, the
byte offset and the field for a file cut short or overlong, a
non-finite float, a header the layout rules out, an entry ``build``
refuses (a repeated (id, signature), a vector off unit norm), or a key
component outside +/-1..+/-dim_padded. ``save`` checks the vectors as
``load`` will read them, rounded to f32, so every file it writes loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .codec import Reader, Writer, ranges

UNIT_TOL = 1e-6
# Vectors are hashed 256 rows per matrix product and queries re-ranked in
# parts of about 2^13 bucket entries, so temporaries stay a few MB even
# when one bucket holds a large share of the index.
_CHUNK_ROWS = 256
_CHUNK_PAIRS = 1 << 13
_MAGIC = b"XPLSH1"
_VERSION = 2
_HEADER = "dim dim_padded tables hashes_per_table multiprobe seed n_entries max_results"
_HEADER_FORMATS = "IIIIIQII"


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


def pair_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosines ``a[i] . b[i]`` of paired unit rows: the one scorer of both
    blockers. Swapping ``a`` and ``b`` gives the same bits."""
    return np.einsum("ij,ij->i", a, b)


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


def _entry_fault(entries: list[tuple[str, int]], vectors: np.ndarray) -> tuple[int, str] | None:
    """(number, message) of the first entry ``build``, ``save`` and
    ``load`` refuse: a vector off unit norm (NaN too), else a repeat."""
    off_unit = ~(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= UNIT_TOL)
    if off_unit.any():
        i = int(off_unit.argmax())
        return i, f"vector for id {entries[i][0]!r} is not unit norm"
    if len(set(entries)) != len(entries):
        seen: set[tuple[str, int]] = set()
        for i, (rid, sig) in enumerate(entries):
            if (rid, sig) in seen:
                return i, f"duplicate entry ({rid!r}, {sig})"
            seen.add((rid, sig))
    return None


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
        if not 0 <= self.seed < 2**64:  # the index file stores it as u64
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


def rho_exponent(theta: float, theta_prime: float) -> float:
    """Query-time exponent for the (theta, theta_prime) guarantee.

    The vanishing correction term of the underlying bound is reported
    as zero.
    """
    if not (-1.0 < theta_prime < theta < 1.0):
        raise ValueError("need -1 < theta_prime < theta < 1")
    return (1.0 - theta) / (1.0 - theta_prime) * (1.0 + theta_prime) / (1.0 + theta)


class LshIndex:
    """Immutable multi-table index over unit vectors tagged (id, signature).

    ``codes`` (entries, tables, hashes_per_table) holds every entry's
    bucket keys as ``_top2`` axis codes. ``hashes``, when given, is the
    ``_hash`` of ``vectors`` (``codes`` its first array) for ``search_self``.
    """

    def __init__(
        self,
        dim: int,
        params: LshParams,
        rotations: np.ndarray,
        entries: list[tuple[str, int]],
        vectors: np.ndarray,
        codes: np.ndarray,
        hashes: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        self.dim = dim
        self.dim_padded = rotations.shape[-1]
        self.params = params
        self.rotations = rotations  # (tables, hashes_per_table, dp, dp)
        self.entries = entries
        self.vectors = vectors  # (n, dim) unit rows
        self._codes = codes  # what save writes
        self._hashes = hashes
        self._tables: list[dict[tuple[int, ...], list[int]]] | None = None
        self._shifts, self._table_shift = _key_shifts(
            self.dim_padded, params.hashes_per_table, params.tables
        )
        self._table_keys = np.arange(params.tables, dtype=np.int64) << self._table_shift
        self._signatures = np.array([s for _, s in entries], dtype=np.int64)
        # position of each entry in (record_id, signature) order: the tie-break
        self._rank = np.empty(len(entries), dtype=np.int64)
        self._rank[sorted(range(len(entries)), key=entries.__getitem__)] = np.arange(
            len(entries)
        )
        # (entry, table) keys table-major, so the stable sort keeps members
        # ascending; bucket i has key _keys[i] and the entries
        # _members[_starts[i]:_starts[i] + _sizes[i]]
        packed = ((codes << self._shifts).sum(axis=-1) + self._table_keys).T.ravel()
        order = np.argsort(packed, kind="stable")
        run = packed[order]
        self._starts = np.flatnonzero(np.diff(run, prepend=-1))
        self._keys = run[self._starts]
        self._sizes = np.diff(np.append(self._starts, len(run)))
        self._members = np.tile(np.arange(len(entries)), params.tables)[order]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def default_max_results(self) -> int:
        if self.params.max_results is not None:
            return self.params.max_results
        return max(1000, int(np.sqrt(len(self.entries)))) if self.entries else 1000

    @property
    def tables(self) -> list[dict[tuple[int, ...], list[int]]]:
        """Per table, signed-axis key -> ascending entry indices, buckets
        in order of their first entry; built from the arrays on first use."""
        if self._tables is None:
            table = self._keys >> self._table_shift
            order = np.lexsort((self._members[self._starts], table))
            mask = (1 << self.dim_padded.bit_length()) - 1
            keys = _signed((self._keys[order, None] >> self._shifts) & mask)
            members = self._members.tolist()
            bounds = zip(self._starts[order].tolist(), self._sizes[order].tolist())
            self._tables = [{} for _ in range(self.params.tables)]
            for k, key, (a, size) in zip(table[order].tolist(), keys.tolist(), bounds):
                self._tables[k][tuple(key)] = members[a : a + size]
        return self._tables

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
        fault = _entry_fault(entries, vectors)
        if fault is not None:
            raise ValueError(fault[1])
        dp = next_pow2(dim)
        rng = np.random.Generator(np.random.PCG64(params.seed))
        rotations = random_rotations(dp, params.tables * params.hashes_per_table, rng)
        rotations = rotations.reshape(params.tables, params.hashes_per_table, dp, dp)
        # in the chunks that search hashes queries in; one empty chunk if none
        chunks = [
            _hash(rotations, pad_to(vectors[lo : lo + _CHUNK_ROWS], dp))
            for lo in range(0, max(len(entries), 1), _CHUNK_ROWS)
        ]
        hashes = tuple(np.concatenate(parts) for parts in zip(*chunks))
        return cls(dim, params, rotations, entries, vectors, hashes[0], hashes)

    def search(
        self, queries: np.ndarray, theta: float, signature: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hits of a batch of unit queries as ``(row, entry, cosine)`` arrays.

        ``row`` indexes ``queries`` and ``entry`` indexes ``entries``.
        Each query's candidates are the union of its probed buckets
        across all tables, re-ranked by exact cosine, kept at or above
        ``theta`` and cut to the ``default_max_results`` best. Hits come
        grouped by row in input order; within a row the best come first,
        ties in cosine going to the smaller (record_id, signature). When
        the index mixes several signatures, pass ``signature`` to
        restrict hits to one of them. Queries of another shape than
        (rows, dim) raise ``ValueError``.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"queries have shape {queries.shape}, want (rows, {self.dim})")
        if not np.all(np.abs(np.linalg.norm(queries, axis=1) - 1.0) <= UNIT_TOL):
            raise ValueError("query vector is not unit norm")
        return self._search(queries, None, theta, signature)

    def search_self(self, theta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``search`` with the indexed vectors as the queries (row i is
        entry i), probing from the hashes ``build`` kept when it has them."""
        return self._search(self.vectors, self._hashes, theta, None)

    def _search(self, queries, hashes, theta, signature):
        """``search`` of unit ``queries`` whose ``_hash`` is ``hashes``
        (computed here when None)."""
        max_results = self.default_max_results
        hits = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
        for lo in range(0, len(queries) if self.entries else 0, _CHUNK_ROWS):
            q = queries[lo : lo + _CHUNK_ROWS]
            if hashes is None:
                hashed = _hash(self.rotations, pad_to(q, self.dim_padded))
            else:
                hashed = [a[lo : lo + _CHUNK_ROWS] for a in hashes]
            probes = self._probes(*hashed).ravel()
            per_row = len(probes) // len(q)
            pos = self._locate(probes)
            pos[pos == len(self._keys)] = 0
            size = np.where(self._keys[pos] == probes, self._sizes[pos], 0)
            # re-rank rows in parts of about _CHUNK_PAIRS bucket entries
            if size.sum() < _CHUNK_PAIRS:
                cuts = [0, len(q)]
            else:
                filled = np.cumsum(size.reshape(len(q), per_row).sum(axis=1)) // _CHUNK_PAIRS
                cuts = [0, *(np.flatnonzero(np.diff(filled)) + 1).tolist(), len(q)]
            for a, b in zip(cuts, cuts[1:]):
                part = slice(a * per_row, b * per_row)
                row, entry, cos = self._rerank(
                    q[a:b], self._starts[pos[part]], size[part], theta, max_results, signature
                )
                hits.append((row + lo + a, entry, cos))
        row, entry, cos = (np.concatenate(part) for part in zip(*hits))
        return row, entry, cos

    def _locate(self, probes: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self._keys, probes)``, searched in key order,
        where numpy starts each binary search from the previous answer,
        and scattered back to probe order."""
        order = np.argsort(probes)
        pos = np.empty_like(order)
        pos[order] = np.searchsorted(self._keys, probes[order])
        return pos

    def _probes(self, best: np.ndarray, second: np.ndarray, gap: np.ndarray) -> np.ndarray:
        """Packed keys of the buckets each hashed query row probes.

        Shape (rows, tables, 1 + min(multiprobe, hashes_per_table)): per
        table the row's own bucket, then one bucket per flip of the
        components with the smallest winner margins to their runner-up
        axis, smallest margin first.
        """
        primary = (best << self._shifts).sum(axis=-1) + self._table_keys
        flips = np.argsort(gap, axis=-1, kind="stable")[..., : self.params.multiprobe]
        delta = (second - best) << self._shifts
        # delta[r, t, flips[r, t, j]], read by flat position
        first = np.arange(0, delta.size, delta.shape[-1]).reshape(primary.shape + (1,))
        flip = np.take(delta, flips + first)
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
        each probed bucket in ``_members``, row by row."""
        rows = np.repeat(np.arange(len(size)) // (len(size) // len(q)), size)
        members = self._members[ranges(start, size)]
        if signature is not None:
            keep = self._signatures[members] == signature
            rows, members = rows[keep], members[keep]
        # distinct (row, entry) codes in ascending order: sort, then drop repeats
        n = len(self.entries)
        pairs = rows * n + members
        pairs.sort()
        row, entry = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], n)
        # re-rank by exact cosine; a row keeps its max_results best
        cos = pair_cosines(q[row], self.vectors[entry])
        keep = cos >= theta
        row, entry, cos = row[keep], entry[keep], cos[keep]
        order = np.lexsort((self._rank[entry], -cos, row))
        row, entry, cos = row[order], entry[order], cos[order]
        if len(row) <= max_results:  # no row can be over the cap
            return row, entry, cos
        keep = np.arange(len(row)) - np.searchsorted(row, row) < max_results
        return row[keep], entry[keep], cos[keep]

    def query(
        self, q: np.ndarray, theta: float, signature: int | None = None
    ) -> list[tuple[str, int, float]]:
        """(record_id, signature_id, cosine) hits with cosine >= theta.

        A batch of one for ``search``: hits come best first, at most
        ``default_max_results`` of them. A query of another shape than
        (dim,) raises ``ValueError``.
        """
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query has shape {q.shape}, want ({self.dim},)")
        _, entry, cos = self.search(q[None], theta, signature)
        return [(*self.entries[e], c) for e, c in zip(entry.tolist(), cos.tolist())]

    # -- persistence ---------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the index file. A value that does not fit its field
        raises ``ValueError`` naming it, and no file is created."""
        p = self.params
        head = (self.dim, self.dim_padded, p.tables, p.hashes_per_table, p.multiprobe)
        head += (p.seed, len(self.entries), p.max_results or 0)
        w = Writer()
        w.raw(_MAGIC)
        w.pack("<H", "version", _VERSION)
        for field, fmt, value in zip(_HEADER.split(), _HEADER_FORMATS, head):
            w.pack("<" + fmt, field, value)
        w.f32(self.rotations, "rotations")
        wide = (self._signatures < 0) | (self._signatures > 0xFFFFFFFF)
        if wide.any():
            raise ValueError(f"entry {self.entries[wide.argmax()]}: signature id over u32")
        rows = np.empty(len(self.entries), dtype=[("sig", "<u4"), ("vec", "<f4", (self.dim,))])
        rows["sig"], rows["vec"] = self._signatures, self.vectors
        fault = _entry_fault(self.entries, rows["vec"].astype(np.float64))  # as load reads them
        if fault is not None:
            raise ValueError(f"{fault[1]} once stored as f32")
        w.records([rid for rid, _ in self.entries], rows, "entry id")
        w.raw(_signed(self._codes).astype("<i4"))
        w.write(path)

    @classmethod
    def load(cls, path: str | Path) -> "LshIndex":
        r = Reader(Path(path).read_bytes(), path)
        magic = bytes(r.take(6, "magic"))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not an index file (magic {magic!r})")
        (version,) = r.unpack("<H", "version")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported index version {version} (want {_VERSION})")
        head = [r.unpack("<" + fmt, f)[0] for f, fmt in zip(_HEADER.split(), _HEADER_FORMATS)]
        dim, dp, tables, hashes, multiprobe, seed, n, max_results = head
        params = LshParams(tables, hashes, multiprobe, seed, max_results or None)
        try:
            if dp != next_pow2(dim):
                raise ValueError(f"dim_padded {dp} is not next_pow2(dim {dim})")
            params.validate()
            _key_shifts(dp, hashes, tables)
        except ValueError as exc:
            raise r.fail(str(exc), "header", 8) from None
        rotations = r.f32((tables, hashes, dp, dp), "rotations").astype(np.float64)
        ids, rows, starts = r.records(
            n, 4 + 4 * dim, "entry {} id", "entry {} signature and vector", floats=4
        )
        entries = list(zip(ids, rows[:, :4].view("<u4")[:, 0].tolist()))
        vectors = rows[:, 4:].view("<f4").astype(np.float64)
        fault = _entry_fault(entries, vectors)
        if fault is not None:
            raise r.fail(fault[1], f"entry {fault[0]}", starts[fault[0]])
        keys = r.array("<i4", n * tables * hashes, "bucket keys").astype(np.int64)
        axis = np.abs(keys)  # in int64, as abs(-2**31) stays negative in i32
        bad = (axis == 0) | (axis > dp)
        if bad.any():
            at = int(bad.argmax())
            e, k = divmod(at // hashes, tables)
            what = f"key component {keys[at]} outside +/-1..+/-{dp}"
            raise r.fail(what, f"entry {e} table {k} key", r.last + 4 * at)
        r.finish()
        codes = (2 * (axis - 1) + (keys < 0)).reshape(n, tables, hashes)
        return cls(dim, params, rotations, entries, vectors, codes)
