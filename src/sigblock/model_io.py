"""Binary persistence for trained signature models.

The file is self-describing and round-trips byte-identically through
load followed by save. All floats are little-endian 32-bit. Layout::

    magic  6 bytes  b"SBMDL1"
    u16    version (currently 1)
    u32    attribute count m, then per attribute: u16 name length,
           UTF-8 name
    u32    dim, u32 bucket_count, u16 ngram_min, u16 ngram_max,
    u64    embedding seed, u8 trainable flag
    f32 x  bucket_count * dim embedding rows (row-major)
    u32    pretrained token count, then per token: u16 length, UTF-8
           token, dim x f32 vector
    u32    hidden units, u32 max tokens, u8 cell kind (1 = LSTM)
    per attribute: f32 attention-smoothing rho, then the seven
           parameter blocks (wx_f, wh_f, b_f, wx_b, wh_b, b_b, attn)
           as f32, shapes implied by dim and hidden
    u32    signature count S, then S * m f32 weight matrix (row-major)
    u32    JSON length, UTF-8 JSON training-config snapshot
           (keys sorted)

A version or magic mismatch fails loudly; nothing is reinterpreted. A
file cut short, malformed text or trailing bytes raise ``ValueError``
naming the path, the byte offset and the field.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .encoder import PARAM_NAMES, AttentionalEncoder
from .signatures import SignatureModel, SignatureWeights
from .text_embedding import EmbeddingTable

_MAGIC = b"SBMDL1"
_VERSION = 1
_CELL_KINDS = {"lstm": 1}
_CELL_NAMES = {v: k for k, v in _CELL_KINDS.items()}


def _write_str(fh, s: str) -> None:
    raw = s.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)


def _param_shapes(dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    return {
        "wx_f": (dim, 4 * hidden),
        "wh_f": (hidden, 4 * hidden),
        "b_f": (4 * hidden,),
        "wx_b": (dim, 4 * hidden),
        "wh_b": (hidden, 4 * hidden),
        "b_b": (4 * hidden,),
        "attn": (2 * hidden,),
    }


def save_model(model: SignatureModel, path: str | Path) -> None:
    table = model.table
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        fh.write(struct.pack("<I", len(model.schema)))
        for name in model.schema:
            _write_str(fh, name)
        fh.write(
            struct.pack(
                "<IIHH",
                table.dim,
                table.bucket_count,
                table.ngram_range[0],
                table.ngram_range[1],
            )
        )
        fh.write(struct.pack("<QB", table.seed, int(table.trainable)))
        fh.write(table.rows.astype("<f4").tobytes())
        fh.write(struct.pack("<I", len(table.pretrained)))
        for token, vec in table.pretrained.items():
            _write_str(fh, token)
            fh.write(np.asarray(vec).astype("<f4").tobytes())
        hidden = model.encoders[0].hidden
        max_tokens = model.encoders[0].max_tokens
        fh.write(struct.pack("<IIB", hidden, max_tokens, _CELL_KINDS[model.seq_cell]))
        for enc in model.encoders:
            fh.write(struct.pack("<f", enc.smoothing_rho))
            for pname in PARAM_NAMES:
                fh.write(enc.params[pname].astype("<f4").tobytes())
        W = model.weights.matrix
        fh.write(struct.pack("<I", W.shape[0]))
        fh.write(W.astype("<f4").tobytes())
        blob = json.dumps(model.config_snapshot, sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)


class _Reader:
    """Bounded reads over the bytes of one file.

    Every read names the field it reads. Running past the end, malformed
    text and bytes left over raise ``ValueError`` naming the path, the
    byte offset where the field starts and the field, on one line.
    """

    def __init__(self, data: bytes, path: str | Path):
        self.data = memoryview(data)
        self.path = path
        self.pos = 0

    def fail(self, what: str, field: str, pos: int | None = None) -> ValueError:
        at = self.pos if pos is None else pos
        return ValueError(f"{self.path}: {what} at byte {at} while reading {field}")

    def take(self, n: int, field: str) -> memoryview:
        left = len(self.data) - self.pos
        if n > left:
            raise self.fail(f"truncated ({n} bytes needed, {left} left)", field)
        raw = self.data[self.pos : self.pos + n]
        self.pos += n
        return raw

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def text(self, field: str) -> str:
        (n,) = self.unpack("<H", f"{field} length")
        start = self.pos
        try:
            return str(self.take(n, field), "utf-8")
        except UnicodeDecodeError:
            raise self.fail("invalid UTF-8", field, start) from None

    def f32(self, shape: tuple[int, ...], field: str) -> np.ndarray:
        raw = self.take(4 * math.prod(shape), field)
        return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(shape)

    def finish(self) -> None:
        extra = len(self.data) - self.pos
        if extra:
            raise ValueError(f"{self.path}: {extra} trailing bytes at byte {self.pos}")


def load_model(path: str | Path) -> SignatureModel:
    r = _Reader(Path(path).read_bytes(), path)
    magic = bytes(r.take(6, "magic"))
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a model file (magic {magic!r})")
    (version,) = r.unpack("<H", "version")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported model version {version} (want {_VERSION})")
    (m,) = r.unpack("<I", "attribute count")
    schema = tuple(r.text(f"attribute {a} name") for a in range(m))
    dim, buckets, nmin, nmax = r.unpack("<IIHH", "table shape")
    seed, trainable = r.unpack("<QB", "table seed")
    rows = r.f32((buckets, dim), "embedding rows")
    (n_pre,) = r.unpack("<I", "pretrained count")
    pretrained: dict[str, np.ndarray] = {}
    for k in range(n_pre):
        token = r.text(f"pretrained token {k}")
        pretrained[token] = r.f32((dim,), f"pretrained vector {k}")
    table = EmbeddingTable(
        dim=dim,
        bucket_count=buckets,
        ngram_range=(nmin, nmax),
        seed=seed,
        trainable=bool(trainable),
        pretrained=pretrained,
        rows=rows,
    )
    hidden, max_tokens, cell = r.unpack("<IIB", "encoder shape")
    if cell not in _CELL_NAMES:
        raise ValueError(f"{path}: unknown sequence cell kind {cell}")
    shapes = _param_shapes(dim, hidden)
    encoders = []
    for a in range(m):
        (rho,) = r.unpack("<f", f"encoder {a} rho")
        params = {p: r.f32(shapes[p], f"encoder {a} {p}") for p in PARAM_NAMES}
        encoders.append(AttentionalEncoder(dim, hidden, float(rho), max_tokens, params))
    (S,) = r.unpack("<I", "signature count")
    W = r.f32((S, m), "signature weights")
    (n_blob,) = r.unpack("<I", "config snapshot length")
    pos = r.pos
    blob = bytes(r.take(n_blob, "config snapshot"))
    try:
        snapshot = json.loads(blob)
    except ValueError:  # bad UTF-8 or bad JSON
        raise r.fail("invalid JSON", "config snapshot", pos) from None
    r.finish()
    return SignatureModel(
        schema=schema,
        table=table,
        encoders=encoders,
        weights=SignatureWeights(W),
        seq_cell=_CELL_NAMES[cell],
        config_snapshot=snapshot,
    )
