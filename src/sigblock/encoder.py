"""Attention-based attribute encoder.

A bidirectional single-layer LSTM reads the token-vector sequence and
emits one hidden state per position (forward and backward halves
concatenated). The hidden states are scored against a learned attention
vector, softmaxed, and smoothed toward the uniform weight ``1/l`` by a
coefficient ``rho`` in [0, 1]; the attribute embedding is the weighted
average of the raw token vectors under those smoothed weights.

One implementation, :func:`encode_sequences_tape`, encodes a batch of
sequences on the autodiff tape. Training records gradients through it;
blocking, single-record signatures and attention introspection run the
same routine on tensors that do not require gradients, so it records
nothing. Gate order in the packed LSTM weight matrices is input,
forget, cell, output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data_model import AttributeValue
from .text_embedding import EmbeddingTable

PARAM_NAMES = ("wx_f", "wh_f", "b_f", "wx_b", "wh_b", "b_b", "attn")


@dataclass
class AttentionalEncoder:
    """Per-attribute encoder parameters plus its smoothing coefficient."""

    dim: int
    hidden: int
    smoothing_rho: float
    max_tokens: int = 64
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.smoothing_rho <= 1.0:
            raise ValueError("smoothing_rho must lie in [0, 1]")

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
class PreparedSequence:
    """A token sequence resolved to embedding-table bucket ids.

    ``ids`` holds the bucket ids of all tokens back to back, and
    ``sizes[k]`` says how many of them belong to token k. Tokens covered
    by a pretrained map contribute a constant vector in ``const`` and no
    ids; hashed tokens do the opposite.
    """

    ids: np.ndarray
    sizes: np.ndarray
    const: np.ndarray | None  # (l, d) pretrained contributions, or None

    @property
    def length(self) -> int:
        return len(self.sizes)


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.flags.writeable = False  # shared by every prepared sequence


def prepare_sequence(
    table: EmbeddingTable, value: AttributeValue, max_tokens: int
) -> PreparedSequence | None:
    if value.is_missing:
        return None
    tokens = value.tokens[:max_tokens]
    ids: list[np.ndarray] = []
    const: np.ndarray | None = None
    for k, tok in enumerate(tokens):
        vec = table.pretrained.get(tok) if table.pretrained else None
        if vec is not None:
            if const is None:
                const = np.zeros((len(tokens), table.dim))
            const[k] = vec
            ids.append(_NO_IDS)
        else:
            ids.append(table.bucket_ids(tok))
    sizes = np.array([len(a) for a in ids], dtype=np.int64)
    return PreparedSequence(np.concatenate(ids) if ids else _NO_IDS, sizes, const)


def encoder_tensors(encoder: AttentionalEncoder, requires_grad: bool) -> dict[str, ad.Tensor]:
    """Tensors sharing memory with the encoder's parameter arrays."""
    out = {}
    for name in PARAM_NAMES:
        t = ad.Tensor(encoder.params[name], requires_grad=requires_grad)
        out[name] = t
    return out


def encode_sequences_tape(
    emb: ad.Tensor,
    enc: dict[str, ad.Tensor],
    rho: float,
    hidden: int,
    seqs: list[PreparedSequence],
) -> tuple[ad.Tensor, list[np.ndarray]]:
    """Encode a batch of sequences on the tape.

    Returns the (n_seqs, d) attribute embeddings and, per sequence, its
    smoothed attention weights (an array of its length). Sequences are
    grouped by length so each group runs as dense batched matmuls
    without masking.
    """
    by_len: dict[int, list[int]] = {}
    for idx, s in enumerate(seqs):
        by_len.setdefault(s.length, []).append(idx)

    outputs: list[ad.Tensor] = []
    order: list[int] = []
    weights: list[np.ndarray] = [None] * len(seqs)
    dim = emb.data.shape[1]
    attn_col = ad.reshape(enc["attn"], (2 * hidden, 1))
    for length in sorted(by_len):
        members = by_len[length]
        order.extend(members)
        n = len(members)
        group = [seqs[idx] for idx in members]
        indices = np.concatenate([s.ids for s in group])
        offsets = np.zeros(n * length + 1, dtype=np.int64)
        np.cumsum(np.concatenate([s.sizes for s in group]), out=offsets[1:])
        flat = ad.embedding_bag(emb, indices, offsets)
        const = None
        for row, s in enumerate(group):
            if s.const is not None:
                if const is None:
                    const = np.zeros((n, length, dim))
                const[row] = s.const
        if const is not None:
            flat = ad.add(flat, const.reshape(n * length, dim))
        v3 = ad.reshape(flat, (n, length, dim))
        v_steps = [v3[:, k, :] for k in range(length)]

        h_f = _lstm_tape(v_steps, enc["wx_f"], enc["wh_f"], enc["b_f"], hidden, n)
        h_b = _lstm_tape(v_steps[::-1], enc["wx_b"], enc["wh_b"], enc["b_b"], hidden, n)[::-1]

        score_cols = [
            ad.matmul(ad.concat([h_f[k], h_b[k]], axis=1), attn_col)
            for k in range(length)
        ]
        scores = score_cols[0] if length == 1 else ad.concat(score_cols, axis=1)
        alpha = ad.softmax(scores, axis=1)
        beta = ad.add_const(ad.scale(alpha, rho), (1.0 - rho) / length)
        for idx, row in zip(members, beta.data):
            weights[idx] = row
        acc = ad.mul(beta[:, 0:1], v_steps[0])
        for k in range(1, length):
            acc = ad.add(acc, ad.mul(beta[:, k : k + 1], v_steps[k]))
        outputs.append(acc)

    stacked = outputs[0] if len(outputs) == 1 else ad.concat(outputs, axis=0)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[np.array(order, dtype=np.int64)] = np.arange(len(order))
    if np.array_equal(inverse, np.arange(len(order))):
        return stacked, weights
    return ad.take_rows(stacked, inverse), weights


def token_attention(
    encoder: AttentionalEncoder, table: EmbeddingTable, value: AttributeValue
) -> list[tuple[str, float]]:
    """(token, weight) pairs of the smoothed attention over one value's
    tokens, read off :func:`encode_sequences_tape` for a batch of one;
    empty for a missing value."""
    seq = prepare_sequence(table, value, encoder.max_tokens)
    if seq is None:
        return []
    _, (beta,) = encode_sequences_tape(
        ad.Tensor(table.rows),
        encoder_tensors(encoder, requires_grad=False),
        encoder.smoothing_rho,
        encoder.hidden,
        [seq],
    )
    return list(zip(value.tokens[: encoder.max_tokens], beta.tolist()))


def _lstm_tape(
    v_steps: list[ad.Tensor],
    wx: ad.Tensor,
    wh: ad.Tensor,
    b: ad.Tensor,
    hidden: int,
    batch: int,
) -> list[ad.Tensor]:
    h = ad.Tensor(np.zeros((batch, hidden)))
    c = ad.Tensor(np.zeros((batch, hidden)))
    states: list[ad.Tensor] = []
    for v in v_steps:
        z = ad.add(ad.add(ad.matmul(v, wx), ad.matmul(h, wh)), b)
        # one elementwise sigmoid over all gates; the cell slice is unused
        gates = ad.sigmoid(z)
        i = gates[:, :hidden]
        f = gates[:, hidden : 2 * hidden]
        g = ad.tanh(z[:, 2 * hidden : 3 * hidden])
        o = gates[:, 3 * hidden :]
        c = ad.add(ad.mul(f, c), ad.mul(i, g))
        h = ad.mul(o, ad.tanh(c))
        states.append(h)
    return states
