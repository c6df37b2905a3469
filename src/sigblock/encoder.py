"""Attention-based attribute encoder.

A bidirectional single-layer LSTM reads the token-vector sequence and
emits one hidden state per position (forward and backward halves
concatenated). The hidden states are scored against a learned attention
vector, softmaxed, and smoothed toward the uniform weight ``1/l`` by a
coefficient ``rho`` in [0, 1]; the attribute embedding is the weighted
average of the raw token vectors under those smoothed weights. An
attribute with ``rho = 0`` is therefore the plain mean of its token
vectors, and its encoder runs no LSTM and no attention: with the
default training config that is every attribute but the primary one.

An :class:`AttentionalEncoder` holds its parameters as four arrays:
``wx`` (2, d, 4H), ``wh`` (2, H, 4H) and ``b`` (2, 4H), forward
direction first, and ``attn`` (2H,). :data:`BLOCKS` names the seven
blocks these split into, in the order they are drawn and stored in a
model file. Gate order in the packed LSTM weight matrices is input,
forget, cell, output.

Text enters at vocabulary level. :func:`prepare_values` turns a batch of
values into a :class:`PreparedBatch`: the distinct tokens with their
bucket ids (the tokens the table has not seen hashed in one pass) plus
each value's token numbers.
:func:`embed_vocabulary` sums each distinct token's rows once, and
:func:`encode_sequences_tape` returns the embeddings of a batch's values,
encoding each distinct value once on the autodiff tape; values that
repeat one (equal token numbers) share its row. The BiLSTM is a single
tape op, :func:`autodiff.bilstm`, which steps both directions together
and has a hand-written backward pass (backpropagation through time); one
stacked matrix product then scores every position. Training records
gradients through it; blocking, single-record signatures and
:func:`token_attention`, which reads the attention weights of one value,
run the same routines on tensors that do not require gradients, so they
record nothing.

Every routine computes in the dtype of the arrays it is given. A
``signatures.SignatureModel`` and the trainer both round their encoders
and table to the f32 values of a model file when they are built, so
inference and training run in float32; the gradient checks run on
float64 copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .codec import ranges, to_f32
from .data_model import AttributeValue
from .text_embedding import EmbeddingTable

# The seven parameter blocks in draw and file order: (name, field,
# index), the block being ``getattr(encoder, field)[index]``. Index 0 is
# a field's forward direction, 1 its backward one; ``...`` is all of it.
BLOCKS = (
    ("wx_f", "wx", 0),
    ("wh_f", "wh", 0),
    ("b_f", "b", 0),
    ("wx_b", "wx", 1),
    ("wh_b", "wh", 1),
    ("b_b", "b", 1),
    ("attn", "attn", ...),
)
FIELDS = tuple(dict.fromkeys(field for _, field, _ in BLOCKS))  # wx, wh, b, attn


def block_shapes(dim: int, hidden: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each block, in ``BLOCKS`` order, for token
    vectors of ``dim`` and ``hidden`` units per direction."""
    h4 = 4 * hidden
    shape = {"wx": (dim, h4), "wh": (hidden, h4), "b": (h4,), "attn": (2 * hidden,)}
    return [(name, shape[field]) for name, field, _ in BLOCKS]


@dataclass
class AttentionalEncoder:
    """Per-attribute encoder parameters plus its smoothing coefficient.

    ``wx`` (2, d, 4H), ``wh`` (2, H, 4H) and ``b`` (2, 4H) hold the
    LSTM weights of the forward direction, then the backward one;
    ``attn`` (2H,) is the attention vector. ``dim`` and ``hidden`` are
    read off these shapes. A field given as float32, as a model's are,
    stays float32; any other becomes float64. At ``smoothing_rho`` 0 the
    weights are uniform and none of the four fields is read: the
    embedding is the mean of the token vectors, and training leaves the
    fields as they were drawn.
    """

    wx: np.ndarray
    wh: np.ndarray
    b: np.ndarray
    attn: np.ndarray
    smoothing_rho: float
    max_tokens: int = 64

    def __post_init__(self):
        if not 0.0 <= self.smoothing_rho <= 1.0:
            raise ValueError("smoothing_rho must lie in [0, 1]")
        for name in FIELDS:  # no copy, so tensors over them share memory
            setattr(self, name, ad.float_array(getattr(self, name)))
        if self.hidden < 1 or self.max_tokens < 1:
            raise ValueError(
                f"hidden {self.hidden} and max_tokens {self.max_tokens} must be positive"
            )

    @property
    def dim(self) -> int:
        return self.wx.shape[1]

    @property
    def hidden(self) -> int:
        return self.wh.shape[1]

    def round_to_f32(self, label: str) -> None:
        """Round, in place, every field to a float32 array and rho to its
        f32 value, as a model file stores them. A float32 field is kept,
        not copied; a value that is no finite f32 raises ``ValueError``
        naming ``label`` and the field."""
        for name in FIELDS:
            setattr(self, name, to_f32(getattr(self, name), f"{label} {name}"))
        self.smoothing_rho = to_f32(self.smoothing_rho, f"{label} rho").item()

    def blocks(self) -> Iterator[tuple[str, np.ndarray]]:
        """(name, view) of each parameter block, in ``BLOCKS`` order."""
        for name, field, index in BLOCKS:
            yield name, getattr(self, field)[index]

    @classmethod
    def from_blocks(
        cls, blocks: Sequence[np.ndarray], smoothing_rho: float, max_tokens: int = 64
    ) -> "AttentionalEncoder":
        """The encoder of the seven blocks, given in ``BLOCKS`` order."""
        parts: dict[str, list[np.ndarray]] = {name: [] for name in FIELDS}
        for (_, name, _), block in zip(BLOCKS, blocks):
            parts[name].append(block)
        (attn,) = parts.pop("attn")
        return cls(*map(np.stack, parts.values()), attn, smoothing_rho, max_tokens)

    @classmethod
    def initialize(
        cls,
        dim: int,
        hidden: int,
        smoothing_rho: float,
        rng: np.random.Generator,
        max_tokens: int = 64,
    ) -> "AttentionalEncoder":
        """Every block uniform in +-1/sqrt(hidden), drawn in ``BLOCKS`` order."""
        k = 1.0 / np.sqrt(hidden)
        blocks = [rng.uniform(-k, k, size=shape) for _, shape in block_shapes(dim, hidden)]
        return cls.from_blocks(blocks, smoothing_rho, max_tokens)


@dataclass
class PreparedBatch:
    """Values resolved to embedding-table bucket ids at vocabulary level.

    The distinct tokens of the batch form its vocabulary, numbered in
    first-seen order. ``ids`` holds their bucket ids back to back, token
    t owning ``ids[offsets[t]:offsets[t + 1]]`` (CSR). A token covered by
    a pretrained map owns no ids; its vector is row t of ``const``,
    which is None when no token is pretrained. ``tokens`` holds the
    vocabulary number of every kept token of every value back to back,
    value v owning ``tokens[bounds[v]:bounds[v + 1]]``; a missing value
    owns none.
    """

    ids: np.ndarray
    offsets: np.ndarray
    const: np.ndarray | None  # (vocabulary, d) pretrained vectors, or None
    tokens: np.ndarray
    bounds: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        """How many ids each vocabulary token owns."""
        return self.offsets[1:] - self.offsets[:-1]

    @property
    def lengths(self) -> np.ndarray:
        """How many tokens each value kept."""
        return self.bounds[1:] - self.bounds[:-1]

    def select(self, values: np.ndarray) -> "PreparedBatch":
        """The values numbered ``values`` (an int array) as a batch of
        their own, over the part of the vocabulary they use."""
        starts = self.bounds[values]
        lengths = self.bounds[values + 1] - starts
        used, tokens = _first_seen(self.tokens[ranges(starts, lengths)].tolist())
        used = np.array(used, dtype=np.int64)
        starts = self.offsets[used]
        counts = self.offsets[used + 1] - starts
        return PreparedBatch(
            self.ids[ranges(starts, counts)],
            _offsets(counts),
            None if self.const is None else self.const[used],
            tokens,
            _offsets(lengths),
        )


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of runs of the given lengths: run k is
    ``[offsets[k], offsets[k + 1])``."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    counts.cumsum(out=offsets[1:])
    return offsets


def _first_seen(items: list) -> tuple[list, np.ndarray]:
    """The distinct items in first-seen order, and each item's number
    in that order."""
    distinct = list(dict.fromkeys(items))
    number = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(number.__getitem__, items), np.int64, len(items))


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False  # shared by every pretrained token


def prepare_values(
    table: EmbeddingTable,
    rows: Sequence[Sequence[AttributeValue]],
    max_tokens: Sequence[int],
) -> PreparedBatch:
    """Resolve a table of values to one vocabulary-level batch.

    ``rows[r][j]`` becomes value ``r * len(max_tokens) + j`` and keeps
    its first ``max_tokens[j]`` tokens. Each distinct token is looked up
    once: its pretrained vector if mapped, else its bucket ids, which
    one :meth:`EmbeddingTable.batch_bucket_ids` call gives for all of them.
    """
    caps = list(max_tokens)
    if min(caps, default=1) < 1:
        raise ValueError(f"max_tokens must be positive, got {caps}")
    kept: list[str] = []
    lengths: list[int] = []
    for row in rows:
        if len(row) != len(caps):
            raise ValueError(f"a row has {len(row)} values, expected {len(caps)}")
        for value, cap in zip(row, caps):
            tokens = value.tokens[:cap]
            lengths.append(len(tokens))
            kept.extend(tokens)
    vocab, numbers = _first_seen(kept)
    pretrained = table.pretrained
    hashed = iter(table.batch_bucket_ids([t for t in vocab if t not in pretrained]))
    ids = [_NO_IDS if t in pretrained else next(hashed) for t in vocab]
    const = None
    if pretrained and not pretrained.keys().isdisjoint(vocab):
        const = np.zeros((len(vocab), table.dim))
        for k, t in enumerate(vocab):
            if t in pretrained:
                const[k] = pretrained[t]
    return PreparedBatch(
        np.concatenate(ids) if ids else _NO_IDS,
        _offsets(np.fromiter(map(len, ids), np.int64, len(ids))),
        const,
        numbers,
        _offsets(np.array(lengths, dtype=np.int64)),
    )


def prepare_sequence(
    table: EmbeddingTable, value: AttributeValue, max_tokens: int
) -> PreparedBatch | None:
    """One value as a batch of one; None for a missing value."""
    if value.is_missing:
        return None
    return prepare_values(table, [(value,)], [max_tokens])


def encoder_tensors(encoder: AttentionalEncoder, requires_grad: bool) -> dict[str, ad.Tensor]:
    """The encoder's fields ``wx``, ``wh``, ``b`` and ``attn`` as new
    tensors sharing their memory, so an in-place optimizer step on a
    tensor is a step on the encoder."""
    return {name: ad.Tensor(getattr(encoder, name), requires_grad) for name in FIELDS}


def embed_vocabulary(emb: ad.Tensor, batch: PreparedBatch) -> ad.Tensor:
    """The (vocabulary, d) token vectors of a batch, on the tape.

    Each distinct token's bucket rows are summed once, by one
    ``embedding_bag`` over the vocabulary, from zero and in id order;
    pretrained tokens then add their constant vectors, in the dtype of
    ``emb``.
    """
    vectors = ad.embedding_bag(emb, batch.ids, batch.offsets)
    if batch.const is not None:
        vectors = ad.add(vectors, batch.const)
    return vectors


def encode_sequences_tape(
    vectors: ad.Tensor,
    enc: dict[str, ad.Tensor],
    rho: float,
    batch: PreparedBatch,
    values: np.ndarray,
) -> ad.Tensor:
    """Encode the values numbered ``values`` of a batch on the tape; none
    may be missing.

    ``vectors`` holds the batch's token vectors (:func:`embed_vocabulary`);
    every position of a value takes its token's row. Returns the
    (len(values), d) attribute embeddings. Values with equal token
    numbers encode equally, so each distinct sequence is encoded once,
    for its first occurrence, and its copies share that row (their
    gradients sum before the one backward pass). The distinct sequences
    are grouped by length so each group runs as dense batched matmuls
    without masking.
    """
    starts = batch.bounds[values]
    lengths = batch.bounds[values + 1] - starts
    if not lengths.all():
        raise ValueError("cannot encode a missing value")
    copy_of = np.arange(len(values))  # each value's distinct sequence
    if len(values) > 1:
        flat = batch.tokens[ranges(starts, lengths)].tolist()
        bounds = _offsets(lengths).tolist()
        _, copy_of = _first_seen([tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])])
        first = np.unique(copy_of, return_index=True)[1]
        starts, lengths = starts[first], lengths[first]
    by_len: dict[int, list[int]] = {}
    for idx, length in enumerate(lengths.tolist()):
        by_len.setdefault(length, []).append(idx)

    outputs: list[ad.Tensor] = []
    order: list[int] = []
    attn_col = ad.reshape(enc["attn"], (-1, 1))
    for length in sorted(by_len):
        members = by_len[length]
        order.extend(members)
        tokens = batch.tokens[starts[members][:, None] + np.arange(length)]
        outputs.append(_encode_group(vectors, tokens, enc, attn_col, rho)[0])

    stacked = outputs[0] if len(outputs) == 1 else ad.concat(outputs, axis=0)
    # the row in `stacked` of each distinct sequence, then of each value
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[np.array(order, dtype=np.int64)] = np.arange(len(order))
    index = inverse[copy_of]
    if np.array_equal(index, np.arange(len(index))):
        return stacked
    return ad.take_rows(stacked, index)


def _encode_group(
    vectors: ad.Tensor,
    tokens: np.ndarray,
    enc: dict[str, ad.Tensor],
    attn_col: ad.Tensor,
    rho: float,
) -> tuple[ad.Tensor, ad.Tensor]:
    """Encode n sequences of one length L, ``tokens`` (n, L) holding their
    rows of ``vectors``: the (n, d) embeddings and the (n, L) smoothed
    attention weights. ``attn_col`` is ``enc["attn"]`` as a column. At
    rho 0 the weights are the constant 1/L and no BiLSTM runs."""
    n, length = tokens.shape
    v3 = ad.reshape(ad.take_rows(vectors, tokens.reshape(-1)), (n, length, vectors.data.shape[1]))
    if rho == 0.0:  # -0.0 too; a subnormal rho takes the full path
        # rho * alpha + (1 - rho) / L with a finite softmax alpha >= 0:
        # alpha * 0 is a zero, and a zero plus the constant's rounding of
        # 1/L is that rounding. So the weights are 1/L in alpha's dtype,
        # bit for bit, and the BiLSTM and the scores need not run
        dtype = np.result_type(vectors.data, attn_col.data)
        beta = ad.Tensor(np.full((n, length), 1.0 / length, dtype))
    else:
        states = ad.bilstm(v3, enc["wx"], enc["wh"], enc["b"])  # (length, n, 2H)
        # one (n, 2H) @ (2H, 1) product per position, stacked; the scores
        # are then copied to C order, because a softmax over a strided row
        # can sum it in another order
        scores = ad.transpose(ad.reshape(ad.matmul(states, attn_col), (length, n)))
        alpha = ad.softmax(scores, axis=1)
        beta = ad.add(ad.mul(alpha, rho), (1.0 - rho) / length)
    # sums over positions in order, as a running sum would
    return ad.tsum(ad.mul(ad.reshape(beta, (n, length, 1)), v3), axis=1), beta


def token_attention(
    encoder: AttentionalEncoder, table: EmbeddingTable, value: AttributeValue
) -> list[tuple[str, float]]:
    """(token, weight) pairs of the smoothed attention over one value's
    tokens, encoded as a group of one; empty for a missing value."""
    batch = prepare_sequence(table, value, encoder.max_tokens)
    if batch is None:
        return []
    enc = encoder_tensors(encoder, requires_grad=False)
    _, beta = _encode_group(
        embed_vocabulary(ad.Tensor(table.rows), batch),
        batch.tokens[None, :],
        enc,
        ad.reshape(enc["attn"], (-1, 1)),
        encoder.smoothing_rho,
    )
    return list(zip(value.tokens[: encoder.max_tokens], beta.data[0].tolist()))
