"""End-to-end training of encoders and signature weights.

Signatures are learned one at a time. While signature ``s`` trains, only
the attributes still marked usable receive gradient updates, and after
each optimizer step the signature's weight vector is projected back to
the nonnegative unit sphere supported on the usable set. When ``s``
finishes, the attributes it uses (weights above a small numeric cutoff)
are removed from the usable set, which makes the supports of successive
signatures disjoint by construction. Training stops when the usable set
empties or the signature budget is reached.

Each positive pair is scored against freshly sampled irrelevant records:
the loss is the negative mean log-probability of picking the positive
pair out of the ``2|U| + 1`` pairs formed with the sampled records. A
minibatch is one softmax row per pair. A record on which the current
signature is inapplicable (all positively weighted attributes missing)
takes no part: an inapplicable endpoint removes its pair from the
batch, and an inapplicable negative is masked to ``-inf`` in its row,
so it leaves the denominator.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .codec import to_f32
from .data_model import Dataset, LabelSet, Record
from .encoder import (  # noqa: F401  perfbench wraps prepare_sequence here by name
    AttentionalEncoder,
    PreparedBatch,
    embed_vocabulary,
    encode_sequences_tape,
    encoder_tensors,
    prepare_sequence,
    prepare_values,
)
from .signatures import SignatureModel, SignatureWeights, cosine, prune_support
from .text_embedding import EmbeddingTable

logger = logging.getLogger(__name__)

_NORM_GUARD = 1e-30  # keeps zero-norm signatures from poisoning the graph


def _f32(value: float) -> float:
    """``value`` rounded to float32, overflow giving inf."""
    with np.errstate(over="ignore"):
        return float(np.float32(value))


@dataclass
class TrainingConfig:
    """All knobs for one training run; persisted with the model."""

    iterations: int = 2000  # steps per signature
    max_signatures: int | None = None  # None: one per attribute
    negatives: int = 10  # irrelevant records sampled per pair
    batch_size: int = 64
    learning_rate: float = 1e-3
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8
    temperature: float = 1.0
    seed: int = 0
    embedding_dim: int = 64
    hidden_size: int = 64
    bucket_count: int = 2**16
    ngram_min: int = 3
    ngram_max: int = 5
    max_tokens: int = 64
    primary_attribute: str | None = None  # attention-smoothing rho 1; others 0
    rho_overrides: dict[str, float] = field(default_factory=dict)
    log_every: int = 100

    def validate(self) -> None:
        if self.iterations <= 0 or self.batch_size <= 0 or self.negatives <= 0:
            raise ValueError("iterations, batch_size, and negatives must be positive")
        if self.max_signatures is not None and self.max_signatures <= 0:
            raise ValueError("max_signatures must be positive when set")
        # written as ``not 0 < x < inf`` so that NaN fails too; training
        # computes in float32, where a value that rounds to 0 or inf
        # trains to NaN
        for key in ("learning_rate", "adam_eps", "temperature"):
            value = getattr(self, key)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{key} must be finite and positive, got {value}")
            if not 0.0 < _f32(value) < math.inf:
                raise ValueError(f"{key} must round to a finite, nonzero float32, got {value}")
        if not _f32(1.0 / self.temperature) < math.inf:
            raise ValueError(
                f"temperature must have an inverse that is finite in float32, got {self.temperature}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be at least 1, got {self.log_every}")
        if not (0 <= self.adam_betas[0] < 1 and 0 <= self.adam_betas[1] < 1):
            raise ValueError("adam betas must lie in [0, 1)")
        if self.embedding_dim <= 0 or self.hidden_size <= 0:
            raise ValueError("embedding_dim and hidden_size must be positive")
        if self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")
        if self.bucket_count <= 0 or self.bucket_count & (self.bucket_count - 1):
            raise ValueError(f"bucket_count must be a power of two, got {self.bucket_count}")
        if self.ngram_min < 1:
            raise ValueError(f"ngram_min must be at least 1, got {self.ngram_min}")
        if self.ngram_min > self.ngram_max:
            raise ValueError("ngram_min must not exceed ngram_max")
        for name, rho in self.rho_overrides.items():
            if not 0.0 <= rho <= 1.0:  # NaN fails too
                raise ValueError(f"rho_{name} must lie in [0, 1], got {rho}")

    def check_schema(self, schema: Sequence[str]) -> None:
        """Refuse a ``primary_attribute`` or ``rho_<name>`` that names no
        attribute of ``schema``; the message names the key."""
        named = [(f"rho_{name}", name) for name in self.rho_overrides]
        if self.primary_attribute is not None:
            named.insert(0, ("primary_attribute", self.primary_attribute))
        for key, name in named:
            if name not in schema:
                known = ", ".join(schema)
                raise ValueError(f"{key}: no attribute {name!r} in the schema ({known})")

    def rho_for(self, attribute: str, schema: Sequence[str]) -> float:
        if attribute in self.rho_overrides:
            return float(self.rho_overrides[attribute])
        primary = self.primary_attribute if self.primary_attribute is not None else schema[0]
        return 1.0 if attribute == primary else 0.0

    def snapshot(self) -> dict:
        out = asdict(self)
        out["adam_betas"] = list(self.adam_betas)
        return out


def selection_probability(
    pos_cos: float, neg_cos: Sequence[float], tau: float = 1.0
) -> float:
    """Probability that the positive pair wins the softmax over all pairs.

    Scores are cosines divided by the temperature; with no negatives the
    probability is exactly 1.
    """
    scores = np.concatenate(([pos_cos], np.asarray(neg_cos, dtype=np.float64))) / tau
    m = scores.max()
    return float(np.exp(scores[0] - m) / np.exp(scores - m).sum())


def project_weights(w: np.ndarray, usable: Sequence[int]) -> np.ndarray:
    """Project onto the nonnegative unit sphere supported on ``usable``.

    Entries outside the usable set are zeroed, negatives are clamped,
    and the result is L2-normalized; if everything clamps to zero the
    weight restarts uniform over the usable set.
    """
    usable = sorted(usable)
    if not usable:
        raise ValueError("usable attribute set is empty")
    out = np.zeros_like(np.asarray(w, dtype=np.float64))
    idx = np.array(usable, dtype=np.int64)
    out[idx] = np.maximum(np.asarray(w, dtype=np.float64)[idx], 0.0)
    peak = out.max()
    if peak == 0.0:
        out[idx] = 1.0
        peak = 1.0
    out = out / peak  # pre-scale so squaring cannot underflow
    return out / np.linalg.norm(out)


def sample_negatives(
    n: int, i: int, j: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform sample of ``k`` record indices from [0, n) without
    replacement, excluding ``i`` and ``j``."""
    if n - 2 < k:
        raise ValueError(f"need at least {k + 2} records to sample from, have {n}")
    lo, hi = (i, j) if i < j else (j, i)
    draw = rng.choice(n - 2, size=k, replace=False)
    draw = draw + (draw >= lo)
    draw = draw + (draw >= hi)
    return draw


class Adam:
    """Adam with bias-corrected moments; updates parameter data in place.

    Besides the parameters it holds only their two moments. A step
    works in one scratch array per parameter and in the parameter's
    spent gradient, and then drops that gradient (``p.grad = None``).
    """

    def __init__(self, params: list[ad.Tensor], lr: float, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps), every operation
            # on the operands the out-of-place formula gives it, so the
            # step is bitwise that formula's; `s` is the one temporary
            g = p.grad
            s = np.empty_like(g)
            np.multiply(g, 1.0 - self.b1, out=s)
            m *= self.b1
            m += s
            np.multiply(g, g, out=g)
            g *= 1.0 - self.b2
            v *= self.b2
            v += g
            np.divide(m, bc1, out=s)
            s *= self.lr
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            s /= g
            p.data -= s
            p.grad = None


class SignatureTrainer:
    """Holds the in-training state: parameter tensors, caches, rng streams.

    Training computes in float32 from the f32 values of the model file:
    building a trainer rounds ``table.rows`` in place, a given table
    too, and its encoders, and a value that is no finite f32 raises
    ``ValueError`` then. It trains the rows some value reaches as
    ``emb_t``, the encoders in place through ``enc_t`` and the
    signature weights, all float32, as are their Adam moments and each
    step's tape; no gradient outlives its step. An encoder whose rho is
    0 is not trained: no forward pass reads it.
    """

    def __init__(
        self,
        dataset: Dataset,
        labels: LabelSet,
        config: TrainingConfig,
        table: EmbeddingTable | None = None,
    ):
        config.validate()
        config.check_schema(dataset.schema)
        if len(labels) < config.batch_size:
            raise ValueError(
                f"need at least batch_size={config.batch_size} labels, have {len(labels)}"
            )
        self.dataset = dataset
        self.config = config
        self.records: list[Record] = list(dataset.all_records())
        self.n = len(self.records)
        if self.n - 2 < config.negatives:
            raise ValueError(
                f"need at least negatives+2={config.negatives + 2} records, have {self.n}"
            )
        self.index_of = {r.record_id: k for k, r in enumerate(self.records)}
        self.pairs = [
            (self.index_of[a], self.index_of[b]) for a, b in labels.sorted_pairs()
        ]
        self.m = len(dataset.schema)

        seq = np.random.SeedSequence(config.seed)
        s_table, s_enc, s_batch, s_neg = seq.spawn(4)
        if table is None:
            table = EmbeddingTable(
                dim=config.embedding_dim,
                bucket_count=config.bucket_count,
                ngram_range=(config.ngram_min, config.ngram_max),
                seed=int(s_table.generate_state(1)[0]),
                trainable=True,
            )
        self.table = table
        enc_rng = np.random.Generator(np.random.PCG64(s_enc))
        self.encoders = [
            AttentionalEncoder.initialize(
                table.dim,
                config.hidden_size,
                config.rho_for(name, dataset.schema),
                enc_rng,
                max_tokens=config.max_tokens,
            )
            for name in dataset.schema
        ]
        self.rng_batch = np.random.Generator(np.random.PCG64(s_batch))
        self.rng_neg = np.random.Generator(np.random.PCG64(s_neg))

        for a, enc in enumerate(self.encoders):
            enc.round_to_f32(f"encoder {a}")
        table.rows = to_f32(table.rows, "embedding rows")
        # every value of every record at vocabulary level, its bucket ids
        # renumbered to positions in `reachable`, the sorted table rows
        # some value names: the trainer optimises those rows as the
        # compact `emb_t`, since no other row can ever get a gradient,
        # and writes them back to the table when it is done
        batch = prepare_values(
            table, [r.attributes for r in self.records], [e.max_tokens for e in self.encoders]
        )
        self.reachable, local = np.unique(batch.ids, return_inverse=True)
        self.prepared_values = replace(batch, ids=local)
        self.presence = batch.lengths.reshape(self.n, self.m) > 0
        self.emb_t = ad.Tensor(table.rows[self.reachable], requires_grad=table.trainable)
        # an encoder at rho 0 is read by no forward pass, so it gets no
        # gradient and no optimizer state
        self.enc_t = [
            encoder_tensors(e, requires_grad=e.smoothing_rho != 0.0) for e in self.encoders
        ]

    def prepared(self, rec_idx: int, attr: int) -> PreparedBatch | None:
        """The value as a batch of one, its ids numbered as rows of
        ``emb_t``; None for a missing value."""
        if not self.presence[rec_idx, attr]:
            return None
        return self.prepared_values.select(np.array([rec_idx * self.m + attr]))

    def batch_loss(
        self,
        w_t: ad.Tensor,
        usable: Sequence[int],
        pair_idx: list[tuple[int, int]],
        negatives: list[np.ndarray],
    ) -> tuple[ad.Tensor | None, int]:
        """Tape loss for one minibatch; None when the batch filters empty.

        One softmax row per kept pair: the positive cosine, then (a, u) and
        (b, u) for each negative u. An inapplicable negative reads the
        pair's a instead and is masked to ``-inf``."""
        active = [j for j in usable if w_t.data[j] > 0.0]
        applicable = self.presence[:, active].any(axis=1)
        pairs = np.asarray(pair_idx, dtype=np.int64).reshape(-1, 2)
        kept = applicable[pairs].all(axis=1)
        if not kept.any():
            return None, 0
        # per kept pair: a, b, then its negatives
        slots = np.concatenate([pairs, np.asarray(negatives, dtype=np.int64)], axis=1)[kept]
        live = applicable[slots]
        slots = np.where(live, slots, slots[:, :1])
        # the records in first-seen order, and each slot's position among them
        needed, first, inverse = np.unique(slots.ravel(), return_index=True, return_inverse=True)
        order = np.argsort(first)
        at = np.argsort(order)[inverse].reshape(slots.shape)

        sig = self._signatures_tape(w_t, usable, needed[order])
        sq = ad.tsum(ad.mul(sig, sig), axis=1, keepdims=True)
        norm = ad.sqrt(ad.add(sq, _NORM_GUARD))
        unit = ad.div(sig, norm)

        def cosines(left: np.ndarray, right: np.ndarray) -> ad.Tensor:
            """The cosines of the rows ``left`` and ``right`` name, shaped like them."""
            products = ad.mul(ad.take_rows(unit, left.ravel()), ad.take_rows(unit, right.ravel()))
            return ad.reshape(ad.tsum(products, axis=1), left.shape)

        k = slots.shape[1] - 2
        pos = cosines(at[:, :1], at[:, 1:2])
        neg = cosines(np.tile(at[:, :2], k), np.repeat(at[:, 2:], 2, axis=1))
        allowed = np.concatenate([live[:, :1], np.repeat(live[:, 2:], 2, axis=1)], axis=1)
        tau = self.config.temperature
        scores = ad.mul(ad.concat([pos, neg], axis=1), 1.0 / tau)
        scores = ad.add(scores, np.where(allowed, 0.0, -np.inf))
        lse = ad.logsumexp(scores, axis=1)
        total = ad.add(ad.tsum(ad.mul(pos, 1.0 / tau)), ad.mul(ad.tsum(lse), -1.0))
        return ad.mul(total, -1.0 / len(slots)), len(slots)

    def _signatures_tape(
        self, w_t: ad.Tensor, usable: Sequence[int], records: np.ndarray
    ) -> ad.Tensor:
        """Signature vectors (len(records), d) under the current weights."""
        usable = sorted(usable)
        # the records' usable values as one batch, value k * len(usable) + u
        step = self.prepared_values.select((records[:, None] * self.m + usable).reshape(-1))
        vectors = embed_vocabulary(self.emb_t, step)
        total: ad.Tensor | None = None
        for u, j in enumerate(usable):
            rows = np.flatnonzero(self.presence[records, j])
            if not rows.size:
                continue
            encoded = encode_sequences_tape(
                vectors,
                self.enc_t[j],
                self.encoders[j].smoothing_rho,
                step,
                rows * len(usable) + u,
            )
            weighted = ad.mul(encoded, ad.take_rows(ad.reshape(w_t, (-1, 1)), np.array([j])))
            part = ad.scatter_rows(weighted, rows, len(records))
            total = part if total is None else ad.add(total, part)
        if total is None:
            raise ValueError("no applicable attribute among the requested records")
        return total

    def signature_parameters(self, usable: Sequence[int], w_t: ad.Tensor) -> list[ad.Tensor]:
        params: list[ad.Tensor] = [w_t]
        for j in sorted(usable):
            params.extend(t for t in self.enc_t[j].values() if t.requires_grad)
        if self.table.trainable:
            params.append(self.emb_t)
        return params

    def train(self) -> SignatureModel:
        cfg = self.config
        max_s = cfg.max_signatures if cfg.max_signatures is not None else self.m
        usable = set(range(self.m))
        rows: list[np.ndarray] = []
        for s in range(1, max_s + 1):
            w0 = project_weights(np.ones(self.m), sorted(usable))
            # float32 like every parameter: a float64 `w_t` would widen
            # the tape from the weighting on
            w_t = ad.Tensor(w0.astype(np.float32), requires_grad=True)
            params = self.signature_parameters(usable, w_t)
            opt = Adam(params, cfg.learning_rate, cfg.adam_betas, cfg.adam_eps)
            for t in range(1, cfg.iterations + 1):
                chosen = self.rng_batch.choice(
                    len(self.pairs), size=cfg.batch_size, replace=False
                )
                batch = [self.pairs[c] for c in chosen]
                negs = [
                    sample_negatives(self.n, a, b, cfg.negatives, self.rng_neg)
                    for a, b in batch
                ]
                loss, used = self.batch_loss(w_t, sorted(usable), batch, negs)
                if loss is None:
                    logger.warning(
                        "signature=%d step=%d skipped: batch empty after filtering", s, t
                    )
                    continue
                ad.backward(loss)
                opt.step()
                w_t.data[...] = project_weights(w_t.data, sorted(usable))
                if t % cfg.log_every == 0 or t == cfg.iterations:
                    logger.info(
                        "signature=%d step=%d loss=%.6f pairs=%d usable=%d",
                        s,
                        t,
                        float(loss.data),
                        used,
                        len(usable),
                    )
            row = prune_support(w_t.data)
            rows.append(row)
            support = {int(j) for j in np.nonzero(row > 0)[0]}
            usable -= support
            logger.info(
                "signature=%d done support=%s remaining=%s",
                s,
                sorted(support),
                sorted(usable),
            )
            if not usable:
                break
        weights = SignatureWeights(np.stack(rows))
        self.table.rows[self.reachable] = self.emb_t.data
        return SignatureModel(
            schema=tuple(self.dataset.schema),
            table=self.table,
            encoders=self.encoders,
            weights=weights,
            config_snapshot=self.config.snapshot(),
        )


def train(
    dataset: Dataset,
    labels: LabelSet,
    config: TrainingConfig,
    table: EmbeddingTable | None = None,
) -> SignatureModel:
    """Learn encoders and signature weights from positive labels."""
    return SignatureTrainer(dataset, labels, config, table).train()


def minibatch_loss(
    model: SignatureModel,
    pairs: list[tuple[str, str]],
    negatives: list[list[str]],
    s: int,
    dataset: Dataset,
    tau: float = 1.0,
) -> float:
    """Negative mean log selection probability for signature ``s``.

    Evaluated on a finished model; pairs whose signature is missing on
    either side are dropped, as are inapplicable negatives. Raises when
    everything filters out.
    """
    vectors: dict[str, np.ndarray | None] = {}

    def sig(rid: str) -> np.ndarray | None:
        if rid not in vectors:
            vectors[rid] = model.signature_vectors(dataset.get(rid))[s]
        return vectors[rid]

    logs: list[float] = []
    for (a, b), negs in zip(pairs, negatives):
        fa, fb = sig(a), sig(b)
        if fa is None or fb is None:
            continue
        neg_scores: list[float] = []
        for u in negs:
            fu = sig(u)
            if fu is None:
                continue
            neg_scores.append(cosine(fa, fu))
            neg_scores.append(cosine(fb, fu))
        p = selection_probability(cosine(fa, fb), neg_scores, tau)
        logs.append(math.log(p))
    if not logs:
        raise ValueError("batch empty after applicability filtering")
    return -sum(logs) / len(logs)
