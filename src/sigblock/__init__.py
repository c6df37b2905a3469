"""Hands-off blocking for entity matching.

Learns similarity-preserving tuple signatures from positive pair
labels and generates candidate record pairs by cosine nearest-neighbor
search with cross-polytope LSH, alongside key-based and MinHash
baselines and an evaluation harness.
"""

from .data_model import (
    AttributeValue,
    Dataset,
    DatasetError,
    LabelSet,
    Record,
    Table,
    ingest,
    load_labels,
    make_bipartite,
    tokenize,
)
from .text_embedding import EmbeddingTable, load_pretrained, ngrams
from .encoder import AttentionalEncoder
from .signatures import SignatureModel, SignatureWeights, cosine
from .training import TrainingConfig, train
from .lsh import LshIndex, LshParams, rho_exponent
from .blocking import CandidateSet, block, block_brute_force, pe_ratio
from .baselines import KeySpec, MinHashParams, key_block, minhash_block
from .evaluation import RunRecord, SplitSpec, SynthSpec, recall, split, synthesize
from .model_io import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "AttributeValue",
    "AttentionalEncoder",
    "CandidateSet",
    "Dataset",
    "DatasetError",
    "EmbeddingTable",
    "KeySpec",
    "LabelSet",
    "LshIndex",
    "LshParams",
    "MinHashParams",
    "Record",
    "RunRecord",
    "SignatureModel",
    "SignatureWeights",
    "SplitSpec",
    "SynthSpec",
    "Table",
    "TrainingConfig",
    "block",
    "block_brute_force",
    "cosine",
    "ingest",
    "key_block",
    "load_labels",
    "load_model",
    "load_pretrained",
    "make_bipartite",
    "minhash_block",
    "ngrams",
    "pe_ratio",
    "recall",
    "rho_exponent",
    "save_model",
    "split",
    "synthesize",
    "tokenize",
    "train",
]
