"""Attention-based attribute encoder.

A bidirectional single-layer LSTM reads the token-vector sequence and
emits one hidden state per position (forward and backward halves
concatenated). The hidden states are scored against a learned attention
vector, softmaxed, and smoothed toward the uniform weight ``1/l`` by a
coefficient ``rho`` in [0, 1]; the attribute embedding is the weighted
average of the raw token vectors under those smoothed weights.

Text enters at vocabulary level. :func:`prepare_values` turns a batch of
values into a :class:`PreparedBatch`: the distinct tokens with their
bucket ids (each token hashed once) plus each value's token numbers.
:func:`embed_vocabulary` sums each distinct token's rows once, and
:func:`encode_sequences_tape` encodes each distinct value once on the
autodiff tape, gathering one row per token of it; values that repeat
one (equal token numbers) share its row. The BiLSTM is a single tape op,
:func:`autodiff.bilstm`, which steps both directions together and has a
hand-written backward pass (backpropagation through time); one stacked
matrix product then scores every position. Training records gradients
through it; blocking, single-record signatures and attention
introspection run the same routines on tensors that do not require
gradients, so they record nothing. Gate order in the packed LSTM weight
matrices is input, forget, cell, output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .data_model import AttributeValue
from .text_embedding import EmbeddingTable

PARAM_NAMES = ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b", "attn")
# each stacked array and the names of its forward and backward halves
_PAIRS = (("wx", "wx_f", "wx_b"), ("wh", "wh_f", "wh_b"), ("b", "b_f", "b_b"))


class _Stacked(NamedTuple):
    sources: tuple[np.ndarray, ...]  # the params arrays, in PARAM_NAMES order
    arrays: dict[str, np.ndarray]  # wx, wh, b stacked (2, ...), and attn
    tensors: dict[str, ad.Tensor]  # over ``arrays``, without gradients


@dataclass
class AttentionalEncoder:
    """Per-attribute encoder parameters plus its smoothing coefficient.

    Each forward/backward pair of LSTM parameters is stored as one
    (2, ...) array, forward first, and ``params`` holds views of its two
    halves, so an in-place change through ``params`` is a change to the
    stacked array that :func:`encoder_tensors` wraps.
    """

    dim: int
    hidden: int
    smoothing_rho: float
    max_tokens: int = 64
    params: dict[str, np.ndarray] = field(default_factory=dict)
    _stacked: _Stacked | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.smoothing_rho <= 1.0:
            raise ValueError("smoothing_rho must lie in [0, 1]")
        if self.params:
            self._stack()

    def _stack(self) -> _Stacked:
        """Stack each direction pair of ``params`` into one array and put
        views of it back into ``params``."""
        p = self.params
        arrays = {}
        for name, fwd, bwd in _PAIRS:
            arrays[name] = np.stack([p[fwd], p[bwd]]).astype(np.float64, copy=False)
            p[fwd], p[bwd] = arrays[name]
        arrays["attn"] = p["attn"] = np.asarray(p["attn"], dtype=np.float64)
        tensors = {name: ad.Tensor(a) for name, a in arrays.items()}
        self._stacked = _Stacked(tuple(p[name] for name in PARAM_NAMES), arrays, tensors)
        return self._stacked

    @classmethod
    def initialize(
        cls,
        dim: int,
        hidden: int,
        smoothing_rho: float,
        rng: np.random.Generator,
        max_tokens: int = 64,
    ) -> "AttentionalEncoder":
        k = 1.0 / np.sqrt(hidden)
        params = {
            "wx_f": rng.uniform(-k, k, size=(dim, 4 * hidden)),
            "wh_f": rng.uniform(-k, k, size=(hidden, 4 * hidden)),
            "b_f": rng.uniform(-k, k, size=(4 * hidden,)),
            "wx_b": rng.uniform(-k, k, size=(dim, 4 * hidden)),
            "wh_b": rng.uniform(-k, k, size=(hidden, 4 * hidden)),
            "b_b": rng.uniform(-k, k, size=(4 * hidden,)),
            "attn": rng.uniform(-k, k, size=(2 * hidden,)),
        }
        return cls(dim, hidden, smoothing_rho, max_tokens, params)


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
        bounds = _offsets(self.bounds[values + 1] - starts)
        used, tokens = _first_seen(self.tokens[_ranges(starts, bounds)].tolist())
        used = np.array(used, dtype=np.int64)
        starts = self.offsets[used]
        offsets = _offsets(self.offsets[used + 1] - starts)
        return PreparedBatch(
            self.ids[_ranges(starts, offsets)],
            offsets,
            None if self.const is None else self.const[used],
            tokens,
            bounds,
        )


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of runs of the given lengths: run k is
    ``[offsets[k], offsets[k + 1])``."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    counts.cumsum(out=offsets[1:])
    return offsets


def _ranges(starts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``arange(starts[k], starts[k] + offsets[k + 1] - offsets[k])`` for
    every k, back to back."""
    return (starts - offsets[:-1]).repeat(offsets[1:] - offsets[:-1]) + np.arange(offsets[-1])


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
    once: its pretrained vector if mapped, else its bucket ids through
    :meth:`EmbeddingTable.bucket_ids`.
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
    ids = [_NO_IDS if t in pretrained else table.bucket_ids(t) for t in vocab]
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
    """The encoder's parameters as tensors sharing memory with
    ``encoder.params``: ``wx`` (2, d, 4H), ``wh`` (2, H, 4H) and ``b``
    (2, 4H), forward direction first, and ``attn`` (2H,).

    Tensors without gradients are built once per encoder and reused;
    tensors with gradients are new on every call, so their gradients
    belong to the caller. An array replaced in ``params`` since the last
    call is stacked again first.
    """
    stacked = encoder._stacked
    p = encoder.params
    if stacked is None or any(p[n] is not a for n, a in zip(PARAM_NAMES, stacked.sources)):
        stacked = encoder._stack()
    if not requires_grad:
        return stacked.tensors
    return {name: ad.Tensor(a, requires_grad=True) for name, a in stacked.arrays.items()}


def embed_vocabulary(emb: ad.Tensor, batch: PreparedBatch) -> ad.Tensor:
    """The (vocabulary, d) token vectors of a batch, on the tape.

    Each distinct token's bucket rows are summed once, by one
    ``embedding_bag`` over the vocabulary, from zero and in id order;
    pretrained tokens then add their constant vectors.
    """
    vectors = ad.embedding_bag(emb, batch.ids, batch.offsets)
    if batch.const is not None:
        vectors = ad.add(vectors, batch.const)
    return vectors


def encode_sequences_tape(
    vectors: ad.Tensor,
    enc: dict[str, ad.Tensor],
    rho: float,
    hidden: int,
    batch: PreparedBatch,
    values: np.ndarray,
) -> tuple[ad.Tensor, list[np.ndarray]]:
    """Encode the values numbered ``values`` of a batch on the tape; none
    may be missing.

    ``vectors`` holds the batch's token vectors (:func:`embed_vocabulary`);
    every position of a value takes its token's row. Returns the
    (len(values), d) attribute embeddings and, per value, its smoothed
    attention weights (an array of its length). Values with equal token
    numbers encode equally, so each distinct sequence is encoded once,
    for its first occurrence, and its copies share that row and weight
    array (their gradients sum before the one backward pass). The
    distinct sequences are grouped by length so each group runs as dense
    batched matmuls without masking.
    """
    starts = batch.bounds[values]
    lengths = batch.bounds[values + 1] - starts
    if not lengths.all():
        raise ValueError("cannot encode a missing value")
    copy_of = np.arange(len(values))  # each value's distinct sequence
    if len(values) > 1:
        offsets = _offsets(lengths)
        flat = batch.tokens[_ranges(starts, offsets)].tolist()
        bounds = offsets.tolist()
        _, copy_of = _first_seen([tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])])
        first = np.unique(copy_of, return_index=True)[1]
        starts, lengths = starts[first], lengths[first]
    by_len: dict[int, list[int]] = {}
    for idx, length in enumerate(lengths.tolist()):
        by_len.setdefault(length, []).append(idx)

    outputs: list[ad.Tensor] = []
    order: list[int] = []
    weights: list[np.ndarray] = [None] * len(starts)
    dim = vectors.data.shape[1]
    attn_col = ad.reshape(enc["attn"], (2 * hidden, 1))
    for length in sorted(by_len):
        members = by_len[length]
        order.extend(members)
        n = len(members)
        positions = (starts[members][:, None] + np.arange(length)).reshape(-1)
        v3 = ad.reshape(ad.take_rows(vectors, batch.tokens[positions]), (n, length, dim))

        states = ad.bilstm(v3, enc["wx"], enc["wh"], enc["b"])  # (length, n, 2H)
        # one (n, 2H) @ (2H, 1) product per position, stacked; the scores
        # are then copied to C order, because a softmax over a strided
        # row can sum it in another order
        scores = ad.transpose(ad.reshape(ad.matmul(states, attn_col), (length, n)))
        alpha = ad.softmax(scores, axis=1)
        beta = ad.add_const(ad.scale(alpha, rho), (1.0 - rho) / length)
        for idx, row in zip(members, beta.data):
            weights[idx] = row
        # sums over positions in order, as a running sum would
        acc = ad.tsum(ad.mul(ad.reshape(beta, (n, length, 1)), v3), axis=1)
        outputs.append(acc)

    stacked = outputs[0] if len(outputs) == 1 else ad.concat(outputs, axis=0)
    # the row in `stacked` of each distinct sequence, then of each value
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[np.array(order, dtype=np.int64)] = np.arange(len(order))
    index = inverse[copy_of]
    weights = [weights[k] for k in copy_of.tolist()]
    if np.array_equal(index, np.arange(len(index))):
        return stacked, weights
    return ad.take_rows(stacked, index), weights


def token_attention(
    encoder: AttentionalEncoder, table: EmbeddingTable, value: AttributeValue
) -> list[tuple[str, float]]:
    """(token, weight) pairs of the smoothed attention over one value's
    tokens, read off :func:`encode_sequences_tape` for a batch of one;
    empty for a missing value."""
    batch = prepare_sequence(table, value, encoder.max_tokens)
    if batch is None:
        return []
    _, (beta,) = encode_sequences_tape(
        embed_vocabulary(ad.Tensor(table.rows), batch),
        encoder_tensors(encoder, requires_grad=False),
        encoder.smoothing_rho,
        encoder.hidden,
        batch,
        np.zeros(1, dtype=np.int64),
    )
    return list(zip(value.tokens[: encoder.max_tokens], beta.tolist()))

