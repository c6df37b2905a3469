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
    u32    hidden units, u32 max tokens, u8 cell kind (always 1, LSTM)
    per attribute: f32 attention-smoothing rho, then the seven
           parameter blocks in ``encoder.BLOCKS`` order (wx_f, wh_f,
           b_f, wx_b, wh_b, b_b, attn) as f32: the forward and backward
           halves of the encoder's ``wx`` (2, dim, 4 * hidden), ``wh``
           (2, hidden, 4 * hidden) and ``b`` (2, 4 * hidden), then
           ``attn`` (2 * hidden)
    u32    signature count S, then S * m f32 weight matrix (row-major)
    u32    JSON length, UTF-8 JSON training-config snapshot
           (keys sorted)

Reads and writes go through ``codec``. A version or magic mismatch
fails loudly; nothing is reinterpreted. A file cut short, malformed
text, a non-finite float, a value the model rules out (a zero dim,
hidden size or max_tokens, a bucket count that is no power of two,
n-gram sizes outside 1 <= ngram_min <= ngram_max, a trainable flag
other than 0 or 1, a cell kind other than 1, a smoothing rho outside
[0, 1], a repeated pretrained token, a config snapshot not in the form
``save_model`` writes) or trailing bytes raise ``ValueError``
naming the path, the byte offset and the field. What loads re-saves to
the same bytes.

``load_model`` keeps the table rows, the pretrained vectors and the
encoder blocks as float32 arrays, the smoothing rhos and the signature
weights as the float64 widening of their f32 values: the values any
``SignatureModel`` holds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .codec import Reader, Writer, to_f32
from .encoder import AttentionalEncoder, block_shapes
from .signatures import SignatureModel, SignatureWeights
from .text_embedding import EmbeddingTable

_MAGIC = b"SBMDL1"
_VERSION = 1
_LSTM_CELL = 1  # the one sequence cell kind


def save_model(model: SignatureModel, path: str | Path) -> None:
    """Write ``model`` to ``path``. A value that does not fit its field
    raises ``ValueError`` naming it, and no file is created."""
    table = model.table
    w = Writer()
    w.raw(_MAGIC)
    w.pack("<H", "version", _VERSION)
    w.pack("<I", "attribute count", len(model.schema))
    w.records(model.schema, np.zeros((len(model.schema), 0), np.uint8), "attribute name")
    w.pack("<IIHH", "table shape", table.dim, table.bucket_count, *table.ngram_range)
    w.pack("<QB", "table seed", table.seed, int(table.trainable))
    w.f32(table.rows, "embedding rows")
    w.pack("<I", "pretrained count", len(table.pretrained))
    vectors = np.array(list(table.pretrained.values()), dtype=np.float64)
    vectors = to_f32(vectors.reshape(len(table.pretrained), table.dim), "pretrained vectors")
    w.records(list(table.pretrained), vectors, "pretrained token")
    hidden, max_tokens = model.encoder_shape()  # checked again: fields are mutable
    w.pack("<IIB", "encoder shape", hidden, max_tokens, _LSTM_CELL)
    for a, enc in enumerate(model.encoders):
        w.pack("<f", f"encoder {a} rho", enc.smoothing_rho)
        for name, block in enc.blocks():
            w.f32(block, f"encoder {a} {name}")
    W = model.weights.matrix
    w.pack("<I", "signature count", W.shape[0])
    w.f32(W, "signature weights")
    blob = json.dumps(model.config_snapshot, sort_keys=True).encode("utf-8")
    w.pack("<I", "config snapshot length", len(blob))
    w.raw(blob)
    w.write(path)


def load_model(path: str | Path) -> SignatureModel:
    r = Reader(Path(path).read_bytes(), path)
    magic = bytes(r.take(6, "magic"))
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a model file (magic {magic!r})")
    (version,) = r.unpack("<H", "version")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported model version {version} (want {_VERSION})")
    (m,) = r.unpack("<I", "attribute count")
    schema = tuple(r.records(m, 0, "attribute {} name", "attribute {} name")[0])
    dim, buckets, nmin, nmax = r.unpack("<IIHH", "table shape")
    if not dim or not buckets or buckets & (buckets - 1) or not 1 <= nmin <= nmax:
        raise r.fail(
            f"dim {dim}, {buckets} buckets, n-grams {nmin}..{nmax}: need a positive dim,"
            " a power-of-two bucket count and 1 <= ngram_min <= ngram_max",
            "table shape",
            r.last,
        )
    seed, trainable = r.unpack("<QB", "table seed")
    if trainable > 1:
        raise r.fail(f"trainable flag {trainable} is not 0 or 1", "table seed", r.last)
    rows = r.f32((buckets, dim), "embedding rows")
    (n_pre,) = r.unpack("<I", "pretrained count")
    tokens, vectors, starts = r.records(
        n_pre, 4 * dim, "pretrained token {}", "pretrained vector {}", floats=0
    )
    seen: set[str] = set()
    for i, token in enumerate(tokens):
        if token in seen:
            raise r.fail(f"duplicate token {token!r}", f"pretrained token {i}", starts[i])
        seen.add(token)
    table = EmbeddingTable(
        dim=dim,
        bucket_count=buckets,
        ngram_range=(nmin, nmax),
        seed=seed,
        trainable=bool(trainable),
        pretrained=dict(zip(tokens, vectors.view("<f4").astype(np.float32))),
        rows=rows,
    )
    hidden, max_tokens, cell = r.unpack("<IIB", "encoder shape")
    if cell != _LSTM_CELL:
        raise r.fail(f"unknown sequence cell kind {cell}", "encoder shape", r.last)
    if not hidden or not max_tokens:
        raise r.fail(
            f"hidden {hidden} and max_tokens {max_tokens} must be positive", "encoder shape", r.last
        )
    encoders = []
    for a in range(m):
        rho = float(r.f32((), f"encoder {a} rho"))
        if not 0.0 <= rho <= 1.0:
            raise r.fail(f"smoothing rho {rho} outside [0, 1]", f"encoder {a} rho", r.last)
        blocks = [r.f32(shape, f"encoder {a} {name}") for name, shape in block_shapes(dim, hidden)]
        encoders.append(AttentionalEncoder.from_blocks(blocks, rho, max_tokens))
    (S,) = r.unpack("<I", "signature count")
    W = r.f32((S, m), "signature weights")
    (n_blob,) = r.unpack("<I", "config snapshot length")
    blob = bytes(r.take(n_blob, "config snapshot"))
    try:
        snapshot = json.loads(blob)
    except ValueError:  # bad UTF-8 or bad JSON
        raise r.fail("invalid JSON", "config snapshot", r.last) from None
    if json.dumps(snapshot, sort_keys=True).encode("utf-8") != blob:
        raise r.fail("JSON not in the form save_model writes", "config snapshot", r.last)
    r.finish()
    return SignatureModel(
        schema=schema,
        table=table,
        encoders=encoders,
        weights=SignatureWeights(W),
        config_snapshot=snapshot,
    )
