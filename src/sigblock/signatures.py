"""Tuple signatures and the max-cosine tuple similarity.

A signature is a nonnegative, unit-norm weighting over attributes; the
signature vector of a record is the weighted sum of its non-missing
attribute embeddings and is missing when no positively-weighted
attribute is present. Records are compared by the maximum cosine over
their signature pairs, with missing or zero-norm signatures scoring
zero.

A :class:`SignatureModel` is the token table, one attribute encoder per
schema attribute, whose embeddings :func:`encoder.encode_sequences_tape`
returns as (values, d) rows, and the (S, m) signature weight matrix.
Building one rounds every parameter to the f32 value the model file
stores, so inference reads a model as it is and a model encodes
bitwise like its saved copy. Training computes in float32 from the
same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import to_f32
from .data_model import Dataset, Record
from .encoder import AttentionalEncoder
from .text_embedding import EmbeddingTable

SUPPORT_EPS = 1e-3


@dataclass
class SignatureWeights:
    """Rows of attribute weights, one per signature; supports are disjoint
    after sequential training."""

    matrix: np.ndarray  # (S, m) nonnegative, unit-norm rows

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise ValueError("weight matrix must be (S, m)")

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    def support(self, s: int) -> tuple[int, ...]:
        return tuple(int(j) for j in np.nonzero(self.matrix[s] > 0)[0])


def prune_support(row: np.ndarray, eps: float = SUPPORT_EPS) -> np.ndarray:
    """Zero entries at or below ``eps`` and renormalize to unit L2 norm,
    in float64 whatever the dtype of ``row``."""
    row = np.asarray(row, dtype=np.float64)
    out = np.where(row > eps, row, 0.0)
    peak = out.max()
    if peak <= 0.0:
        raise ValueError("pruning removed every entry of a signature row")
    out = out / peak  # pre-scale so squaring cannot underflow
    return out / np.linalg.norm(out)


def cosine(f: np.ndarray | None, g: np.ndarray | None) -> float:
    """Cosine similarity; zero when either side is missing or zero-norm."""
    if f is None or g is None:
        return 0.0
    nf = np.linalg.norm(f)
    ng = np.linalg.norm(g)
    if nf == 0.0 or ng == 0.0:
        return 0.0
    return float(np.dot(f, g) / (nf * ng))


@dataclass
class SignatureModel:
    """Everything needed to map records to signature vectors: the token
    table, one encoder per attribute of ``schema`` and the signature
    weights.

    Construction rounds, in place, the table rows, the pretrained
    vectors and every encoder field to float32 arrays, each smoothing
    rho to its f32 value and the signature weights to the float64
    widening of theirs; a value that is no finite f32 raises
    ``ValueError`` naming its field. Float32 arrays are kept, not copied.
    An encoder count or a weight column count other than ``len(schema)``
    raises ``ValueError`` naming both numbers, and so do encoders a model
    file cannot hold (:meth:`encoder_shape`).
    """

    schema: tuple[str, ...]
    table: EmbeddingTable
    encoders: list[AttentionalEncoder]
    weights: SignatureWeights
    config_snapshot: dict = field(default_factory=dict)

    def __post_init__(self):
        m, columns = len(self.schema), self.weights.matrix.shape[1]
        if len(self.encoders) != m or columns != m:
            raise ValueError(
                f"{m} attributes need {m} encoders and {m} weight columns,"
                f" got {len(self.encoders)} and {columns}"
            )
        self.encoder_shape()
        table = self.table
        table.rows = to_f32(table.rows, "embedding rows")
        table.pretrained = {
            t: to_f32(v, f"pretrained vector {t!r}") for t, v in table.pretrained.items()
        }
        for a, enc in enumerate(self.encoders):
            enc.round_to_f32(f"encoder {a}")
        self.weights.matrix = to_f32(self.weights.matrix, "signature weights").astype(np.float64)

    def encoder_shape(self) -> tuple[int, int]:
        """The (hidden, max_tokens) all encoders share, which a model file
        stores once. Encoders that differ in it, or an encoder whose dim
        is not the table's, which the file takes for every encoder,
        raise ``ValueError``."""
        shapes = [(enc.hidden, enc.max_tokens) for enc in self.encoders]
        if len(set(shapes)) > 1:
            raise ValueError(f"encoder shape: encoders differ in (hidden, max_tokens): {shapes}")
        dims = [enc.dim for enc in self.encoders]
        if set(dims) != {self.table.dim}:
            raise ValueError(
                f"encoder shape: encoder dims {dims} differ from the table dim {self.table.dim}"
            )
        return shapes[0]

    @property
    def num_signatures(self) -> int:
        return self.weights.count

    def signature_vectors(self, record: Record) -> list[np.ndarray | None]:
        """One record's signature vectors, ``None`` where a signature is
        absent: a batch of one through ``blocking.signature_matrix``."""
        from .blocking import signature_matrix  # blocking imports this module

        sig, present = signature_matrix(self, [record])
        return [v if ok else None for v, ok in zip(sig[0], present[0])]

    def tuple_similarity(self, x: Record, y: Record) -> float:
        """Maximum cosine over aligned signature pairs."""
        fx = self.signature_vectors(x)
        fy = self.signature_vectors(y)
        return max(cosine(a, b) for a, b in zip(fx, fy))

    def validate_schema(self, dataset: Dataset) -> None:
        if tuple(dataset.schema) != tuple(self.schema):
            missing = [a for a in self.schema if a not in dataset.schema]
            extra = [a for a in dataset.schema if a not in self.schema]
            raise ValueError(
                "dataset schema does not match model schema"
                f" (model-only: {missing}, dataset-only: {extra})"
            )
