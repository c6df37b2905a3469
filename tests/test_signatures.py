"""Signature combination and the max-cosine tuple similarity."""

import numpy as np
import pytest

from sigblock import autodiff as ad
from sigblock.blocking import signature_matrix
from sigblock.data_model import AttributeValue, Record
from sigblock.encoder import (
    AttentionalEncoder,
    embed_vocabulary,
    encode_sequences_tape,
    encoder_tensors,
    prepare_sequence,
)
from sigblock.signatures import (
    SignatureModel,
    SignatureWeights,
    cosine,
    prune_support,
)
from sigblock.text_embedding import EmbeddingTable


def attribute_embedding(model, j, value):
    """One value's embedding, as a batch of one."""
    enc = model.encoders[j]
    batch = prepare_sequence(model.table, value, enc.max_tokens)
    out = encode_sequences_tape(
        embed_vocabulary(ad.Tensor(model.table.rows), batch),
        encoder_tensors(enc, False),
        enc.smoothing_rho,
        batch,
        np.zeros(1, dtype=np.int64),
    )
    return out.data[0]


class TestComputeSignature:
    """Signature vectors are weighted sums of the present attribute
    embeddings, absent when every supporting attribute is missing."""

    def test_all_missing_gives_none(self):
        model = tiny_model(["title", "album"], [[0.6, 0.8]], rho=0.5)
        x = record("a", "", "")
        assert model.signature_vectors(x) == [None]
        sig, present = signature_matrix(model, [x])
        assert not present.any()
        assert not sig.any()

    def test_one_hot_passthrough(self):
        model = tiny_model(["title", "album"], [[1.0, 0.0]], rho=0.5)
        x = record("a", "me and mrs. jones", "")
        (got,) = model.signature_vectors(x)
        want = attribute_embedding(model, 0, x.attributes[0])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_weighted_combination(self):
        model = tiny_model(
            ["title", "album", "year"],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.6, 0.8, 0.0]],
            rho=0.5,
        )
        for x in (
            record("a", "me and mrs. jones", "call me irresponsible", ""),
            record("b", "me and mrs. jones", "call me irresponsible", "2007"),
        ):
            sig, present = signature_matrix(model, [x])
            assert present.all()
            np.testing.assert_allclose(
                sig[0, 2], 0.6 * sig[0, 0] + 0.8 * sig[0, 1], atol=1e-15
            )

    def test_zero_weight_on_only_present_attribute_is_missing(self):
        model = tiny_model(["title", "album"], [[0.0, 1.0]], rho=0.5)
        assert model.signature_vectors(record("a", "me and mrs. jones", "")) == [None]


class TestSignatureVectors:
    def test_alone_matches_mixed_batch(self):
        # A record encoded alone (a batch of one) against the same record
        # in a batch of other lengths and missing patterns.
        model = tiny_model(
            ["title", "album"], [[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], rho=0.7
        )
        records = [
            record("a", "me and mrs. jones", "call me irresponsible"),
            record("b", "dylan", ""),
            record("c", "", "blowin in the wind live"),
            record("d", "", ""),
            record("e", "me and mrs. jones remix edit", "it's time"),
        ]
        sig, present = signature_matrix(model, records)
        for i, x in enumerate(records):
            alone = model.signature_vectors(x)
            assert [v is not None for v in alone] == present[i].tolist()
            for s, v in enumerate(alone):
                if v is not None:
                    np.testing.assert_allclose(v, sig[i, s], rtol=0, atol=1e-15)


class TestCosine:
    def test_identical(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_missing_side_is_zero(self):
        assert cosine(None, np.array([1.0, 0.0])) == 0.0
        assert cosine(np.array([1.0, 0.0]), None) == 0.0

    def test_zero_norm_is_zero(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_scale_invariance(self, rng):
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        assert abs(cosine(a, b) - cosine(3.7 * a, b)) < 1e-12

    def test_range(self, rng):
        for _ in range(100):
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            assert -1.0 - 1e-12 <= cosine(a, b) <= 1.0 + 1e-12


class TestPruneSupport:
    def test_small_entries_dropped_and_renormalized(self):
        row = np.array([0.9995, 5e-4, 0.02])
        pruned = prune_support(row, eps=1e-3)
        assert pruned[1] == 0.0
        assert abs(np.linalg.norm(pruned) - 1.0) < 1e-12

    def test_all_pruned_raises(self):
        with pytest.raises(ValueError):
            prune_support(np.array([1e-4, 1e-5]), eps=1e-3)


def tiny_model(schema, weights, rho=0.0, seed=0):
    rng = np.random.default_rng(seed)
    dim, hidden = 8, 4
    table = EmbeddingTable(dim=dim, bucket_count=64, seed=seed)
    encoders = [
        AttentionalEncoder.initialize(dim, hidden, rho, rng) for _ in schema
    ]
    return SignatureModel(
        schema=tuple(schema),
        table=table,
        encoders=encoders,
        weights=SignatureWeights(np.asarray(weights, dtype=np.float64)),
    )


def record(rid, *texts):
    return Record(
        rid, tuple(AttributeValue(tuple(t.split()) if t else ()) for t in texts)
    )


class TestTupleSimilarity:
    def test_self_similarity_is_one(self):
        model = tiny_model(["title", "album"], [[1.0, 0.0], [0.0, 1.0]])
        x = record("a", "me and mrs. jones", "")
        assert abs(model.tuple_similarity(x, x) - 1.0) < 1e-12

    def test_all_signatures_missing_is_zero(self):
        model = tiny_model(["title", "album"], [[1.0, 0.0], [0.0, 1.0]])
        x = record("a", "", "")
        y = record("b", "something", "else")
        assert model.tuple_similarity(x, y) == 0.0

    def test_symmetry(self, rng):
        model = tiny_model(["title", "album"], [[0.6, 0.8]])
        x = record("a", "me and mrs. jones", "call me irresponsible")
        y = record("b", "me and mrs. jones remix", "")
        assert abs(model.tuple_similarity(x, y) - model.tuple_similarity(y, x)) < 1e-12

    def test_extra_signature_only_increases(self):
        one = tiny_model(["title", "album"], [[1.0, 0.0]])
        two = tiny_model(["title", "album"], [[1.0, 0.0], [0.0, 1.0]])
        x = record("a", "me and mrs. jones", "call me irresponsible")
        y = record("b", "blowing in the wind", "call me irresponsible")
        assert two.tuple_similarity(x, y) >= one.tuple_similarity(x, y) - 1e-12

    def test_multi_signature_bridging_scenario(self):
        # Three records of one song: x1 has only the title, x3 has a
        # variant title; two signatures bridge x2 to both while the
        # (x1, x3) pair stays below a high threshold.
        model = tiny_model(
            ["title", "album", "composer"],
            [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]],
        )
        x1 = record("x1", "me and mrs. jones", "", "")
        x2 = record("x2", "me and mrs. jones", "call me irresponsible", "michael buble")
        x3 = record("x3", "me & mrs.", "call me irresponsible", "michael buble")
        theta = 0.95
        s12 = model.tuple_similarity(x1, x2)
        s23 = model.tuple_similarity(x2, x3)
        s13 = model.tuple_similarity(x1, x3)
        assert s12 > theta  # identical titles under signature 1
        assert s23 > theta  # identical album+composer under signature 2
        assert s13 < theta  # no shared full aspect
