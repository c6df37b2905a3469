"""Float32 inference and float32 training.

Inference encodes in float32 from every parameter rounded as the model
file stores it, so a model built in the process and its saved copy
block alike to the byte. Training computes in float32 from those same
values. The float64 encode path the library ran before inference moved
to float32 is kept here as the oracle: :func:`signature_matrix_at` with
float64.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from sigblock import autodiff as ad
from sigblock.blocking import block, block_brute_force, signature_matrix, write_candidates
from sigblock.encoder import (
    FIELDS,
    AttentionalEncoder,
    embed_vocabulary,
    encode_sequences_tape,
    encoder_tensors,
    prepare_values,
    token_attention,
)
from sigblock.evaluation import SynthSpec, synthesize
from sigblock.lsh import LshParams
from sigblock.model_io import load_model, save_model
from sigblock.signatures import SignatureModel, SignatureWeights
from sigblock.text_embedding import EmbeddingTable
from sigblock.training import TrainingConfig, train

from conftest import F32_EPS

SRC = Path(__file__).resolve().parents[1] / "src"


def signature_matrix_at(model, records, dtype):
    """``signature_matrix`` with every parameter rounded to ``dtype`` and
    encoding computed in it. float32 is what the library runs; float64
    is the library's encode path before inference moved to float32."""
    n, m = len(records), len(model.schema)
    batch = prepare_values(
        model.table, [rec.attributes for rec in records], [e.max_tokens for e in model.encoders]
    )
    present = batch.lengths.reshape(n, m) > 0
    # the pretrained vectors are rounded where they are added to these
    vectors = embed_vocabulary(ad.Tensor(model.table.rows.astype(dtype)), batch)
    attr_emb = np.zeros((n, m, model.table.dim))
    for j, enc in enumerate(model.encoders):
        rows = np.flatnonzero(present[:, j])
        if rows.size:
            tensors = {name: ad.Tensor(getattr(enc, name).astype(dtype)) for name in FIELDS}
            encoded = encode_sequences_tape(vectors, tensors, enc.smoothing_rho, batch, rows * m + j)
            attr_emb[rows, j] = encoded.data
    weights = model.weights.matrix.astype(dtype).astype(np.float64)
    sig = np.einsum("sj,njd->nsd", weights, attr_emb * present[:, :, None])
    sig_present = (present[:, None, :] & (weights > 0)[None, :, :]).any(axis=2)
    return sig, sig_present


def corpus(seed=1, entities=150):
    return synthesize(SynthSpec(entities, 2, "dirty"), seed)


def hand_model(dataset, rho=0.9, seed=4, dim=32, hidden=16, trainable=True):
    """An untrained model whose rho, weights and pretrained vectors are
    no float32 values, so rounding them shows: (1 - rho) / L rounds to
    another float32 for rho 0.9 than for rho rounded first, at every
    length L from 1 to 8."""
    rng = np.random.default_rng(seed)
    m = len(dataset.schema)
    first = next(dataset.all_records()).attributes[0].tokens
    table = EmbeddingTable(
        dim,
        2**10,
        seed=seed,
        trainable=trainable,
        pretrained={t: rng.standard_normal(dim) / 3 for t in first},
    )
    encoders = [AttentionalEncoder.initialize(dim, hidden, rho, rng) for _ in range(m)]
    weights = np.zeros((2, m))
    weights[0, 0] = 1.0
    weights[1, 1:] = 1.0 / np.sqrt(m - 1)
    return SignatureModel(tuple(dataset.schema), table, encoders, SignatureWeights(weights))


def trained_model(dataset, labels, table=None):
    cfg = TrainingConfig(
        iterations=4, batch_size=16, negatives=5, embedding_dim=24, hidden_size=12,
        bucket_count=2**10, seed=3, log_every=1000,
    )
    return train(dataset, labels, cfg, table)


def saved_copy(model, path):
    save_model(model, path)
    return load_model(path)


class TestSavedCopy:
    """A model built in the process encodes and blocks like its saved copy."""

    @pytest.mark.parametrize("kind", ["trained", "pretrained"])
    def test_signatures_and_candidates_bitwise(self, tmp_path, kind):
        dataset, labels = corpus()
        model = trained_model(dataset, labels) if kind == "trained" else hand_model(dataset)
        loaded = saved_copy(model, tmp_path / "model.bin")
        assert loaded.table.rows.dtype == np.float32 and model.table.rows.dtype == np.float32
        records = list(dataset.all_records())
        sig, ok = signature_matrix(model, records)
        got_sig, got_ok = signature_matrix(loaded, records)
        assert sig.tobytes() == got_sig.tobytes() and ok.tobytes() == got_ok.tobytes()
        for blocker in (block_brute_force, lambda d, m, t: block(d, m, t, LshParams(seed=2))):
            write_candidates(blocker(dataset, model, 0.8), tmp_path / "a.csv")
            write_candidates(blocker(dataset, loaded, 0.8), tmp_path / "b.csv")
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        value = records[0].attributes[0]
        assert token_attention(model.encoders[0], model.table, value) == token_attention(
            loaded.encoders[0], loaded.table, value
        )

    @pytest.mark.parametrize("kind", ["hand", "trained", "loaded"])
    def test_model_holds_f32_values(self, tmp_path, kind):
        # however a model is made, it holds what its file stores
        dataset, labels = corpus(entities=40)
        if kind == "trained":
            first = next(dataset.all_records()).attributes[0].tokens
            rng = np.random.default_rng(4)
            pretrained = {t: rng.standard_normal(24) / 3 for t in first}
            model = trained_model(dataset, labels, EmbeddingTable(24, 2**10, pretrained=pretrained))
        else:
            model = hand_model(dataset)
        if kind == "loaded":
            model = saved_copy(model, tmp_path / "model.bin")
        f32 = {np.dtype(np.float32)}
        assert model.table.rows.dtype == np.float32
        assert {v.dtype for v in model.table.pretrained.values()} == f32
        for enc in model.encoders:
            assert {getattr(enc, name).dtype for name in FIELDS} == f32
            assert type(enc.smoothing_rho) is float
            assert float(np.float32(enc.smoothing_rho)) == enc.smoothing_rho
        weights = model.weights.matrix
        assert weights.dtype == np.float64
        assert weights.astype(np.float32).astype(np.float64).tobytes() == weights.tobytes()


class TestTrainingDtype:
    """Training computes in float32 from the f32 values of the model
    file; a tensor keeps the dtype it is given."""

    @pytest.mark.parametrize("trainable", [True, False])
    def test_loaded_table_trains_like_its_float64_widening(self, tmp_path, trainable):
        dataset, labels = corpus(entities=40)
        path = tmp_path / "model.bin"
        save_model(hand_model(dataset, trainable=trainable), path)
        cfg = TrainingConfig(
            iterations=3, batch_size=8, negatives=3, embedding_dim=32, hidden_size=8,
            bucket_count=2**10, seed=5, log_every=1000,
        )
        narrow = load_model(path).table
        wide = load_model(path).table
        wide = EmbeddingTable(
            wide.dim,
            wide.bucket_count,
            wide.ngram_range,
            wide.seed,
            wide.trainable,
            {t: v.astype(np.float64) for t, v in wide.pretrained.items()},
            wide.rows.astype(np.float64),
        )
        assert narrow.rows.dtype == np.float32 and wide.rows.dtype == np.float64
        save_model(train(dataset, labels, cfg, table=narrow), tmp_path / "narrow.bin")
        save_model(train(dataset, labels, cfg, table=wide), tmp_path / "wide.bin")
        assert (tmp_path / "narrow.bin").read_bytes() == (tmp_path / "wide.bin").read_bytes()

    def test_float32_encoder_trains_in_place(self, tmp_path):
        dataset, _ = corpus(entities=20)
        enc = saved_copy(hand_model(dataset), tmp_path / "model.bin").encoders[0]
        for requires_grad in (True, False):
            tensors = encoder_tensors(enc, requires_grad=requires_grad)
            assert all(tensors[name].data is getattr(enc, name) for name in FIELDS)
            assert {tensors[name].data.dtype for name in FIELDS} == {np.dtype(np.float32)}

    def test_tensors_and_gradients_keep_their_dtype(self):
        narrow = np.ones(3, dtype=np.float32)
        assert ad.Tensor(narrow).data is narrow
        assert ad.Tensor(narrow, requires_grad=True).data is narrow
        assert ad.Tensor(np.arange(3), requires_grad=True).data.dtype == np.float64
        for dtype in (np.float32, np.float64):
            x = ad.Tensor(np.ones(3, dtype=dtype), requires_grad=True)
            x.accumulate(np.ones(3, dtype=np.float64 if dtype == np.float32 else np.float32))
            assert x.grad.dtype == dtype


class TestInferenceDtype:
    """Every tensor inference makes is float32, whatever type rho has:
    NEP 50 promotes a float32 array with a numpy float64 scalar to
    float64, older numpy does not, and a Python float to neither."""

    def test_scalar_constants_take_the_tensor_dtype(self):
        narrow = ad.Tensor(np.ones(2, dtype=np.float32))
        for c in (0.3, np.float64(0.3)):
            assert ad.mul(narrow, c).data.dtype == np.float32
            assert ad.add(narrow, c).data.dtype == np.float32
        assert ad.mul(ad.Tensor(np.ones(2)), np.float32(0.5)).data.dtype == np.float64

    @pytest.mark.parametrize("rho", [0.3, np.float64(0.3), 1.0, np.float64(0.0)])
    def test_every_intermediate_is_float32(self, rho):
        dataset, _ = corpus(entities=30)
        model = hand_model(dataset, rho=rho)
        made = []
        node = ad._node

        def recording(data, parents, backward):
            made.append(data.dtype)
            return node(data, parents, backward)

        records = list(dataset.all_records())
        with patch.object(ad, "_node", recording):
            sig, ok = signature_matrix(model, records)
            weights = token_attention(model.encoders[0], model.table, records[0].attributes[0])
        assert ok.any() and sig.dtype == np.float64
        assert len(made) > 20 and set(made) == {np.dtype(np.float32)}
        assert all(type(w) is float for _, w in weights)


class TestAgainstFloat64:
    def test_oracle_at_float32_is_the_library(self):
        dataset, labels = corpus()
        records = list(dataset.all_records())
        for model in (hand_model(dataset), trained_model(dataset, labels)):
            sig, ok = signature_matrix(model, records)
            want, want_ok = signature_matrix_at(model, records, np.float32)
            assert sig.tobytes() == want.tobytes() and ok.tobytes() == want_ok.tobytes()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_within_float32_ulps_of_float64_path(self, seed):
        # both paths read the model's f32 parameter values; the float32
        # arithmetic moves a signature row by a few float32 ulps of its norm
        dataset, labels = corpus(seed)
        records = list(dataset.all_records())
        for model in (hand_model(dataset, seed=seed), trained_model(dataset, labels)):
            sig, ok = signature_matrix(model, records)
            want, want_ok = signature_matrix_at(model, records, np.float64)
            assert ok.tobytes() == want_ok.tobytes()
            norms = np.linalg.norm(want, axis=2)
            err = np.abs(sig - want).max(axis=2)
            assert (err <= 32 * F32_EPS * norms).all()
            assert (err[ok] > 0).any()  # float32 inference, not float64


def test_signatures_independent_of_blas_threads():
    # a matrix product split over two threads rounds as on one
    script = (
        "import hashlib, numpy as np\n"
        "from sigblock.encoder import AttentionalEncoder\n"
        "from sigblock.evaluation import SynthSpec, synthesize\n"
        "from sigblock.blocking import signature_matrix\n"
        "from sigblock.signatures import SignatureModel, SignatureWeights\n"
        "from sigblock.text_embedding import EmbeddingTable\n"
        "dataset, _ = synthesize(SynthSpec(400, 2, 'dirty'), 7)\n"
        "rng = np.random.default_rng(7)\n"
        "m = len(dataset.schema)\n"
        "encoders = [AttentionalEncoder.initialize(64, 64, 0.5, rng) for _ in range(m)]\n"
        "model = SignatureModel(tuple(dataset.schema), EmbeddingTable(64, 2**12, seed=7),\n"
        "                       encoders, SignatureWeights(np.eye(m)))\n"
        "sig, ok = signature_matrix(model, list(dataset.all_records()))\n"
        "print(hashlib.sha256(sig.tobytes() + ok.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]

