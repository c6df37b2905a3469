"""The batched attribute encoder: attention weights, attribute
embeddings, and agreement with a per-sequence numpy oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigblock import autodiff as ad
from sigblock import encoder
from sigblock.data_model import AttributeValue
from sigblock.encoder import (
    BLOCKS,
    AttentionalEncoder,
    _encode_group,
    block_shapes,
    embed_vocabulary,
    encode_sequences_tape,
    encoder_tensors,
    prepare_sequence,
    prepare_values,
    token_attention,
)
from sigblock.text_embedding import EmbeddingTable

from conftest import F32_EPS, bucket_ids, encode_group_oracle, relative_error, token_vector


def make_encoder(dim=6, hidden=4, rho=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return AttentionalEncoder.initialize(dim, hidden, rho, rng)


def encode(enc, table, values):
    """Embeddings (n, d) of one batch in float64, and each value's
    attention weights as :func:`token_attention` reads them."""
    batch = prepare_values(table, [(v,) for v in values], [enc.max_tokens])
    out = encode_sequences_tape(
        embed_vocabulary(ad.Tensor(table.rows), batch),
        encoder_tensors(enc, False),
        enc.smoothing_rho,
        batch,
        np.arange(len(values)),
    )
    weights = [np.array([w for _, w in token_attention(enc, table, v)]) for v in values]
    return out.data, weights


def embed(enc, table, value):
    """One value's embedding, encoded as a batch of one."""
    return encode(enc, table, [value])[0][0]


def token_vectors(table, value, max_tokens=64):
    return np.stack([token_vector(table, t) for t in value.tokens[:max_tokens]])


def oracle(enc, vectors):
    """Per-sequence numpy BiLSTM with smoothed attention over (l, d)
    token vectors; returns (embedding, attention weights)."""
    p, hid = dict(enc.blocks()), enc.hidden

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    def run(xs, wx, wh, b):
        h = c = np.zeros(hid)
        states = []
        for x in xs:
            z = x @ wx + h @ wh + b
            i, f, o = sigmoid(z[:hid]), sigmoid(z[hid : 2 * hid]), sigmoid(z[3 * hid :])
            c = f * c + i * np.tanh(z[2 * hid : 3 * hid])
            h = o * np.tanh(c)
            states.append(h)
        return np.array(states)

    fwd = run(vectors, p["wx_f"], p["wh_f"], p["b_f"])
    bwd = run(vectors[::-1], p["wx_b"], p["wh_b"], p["b_b"])[::-1]
    scores = np.hstack([fwd, bwd]) @ p["attn"]
    alpha = np.exp(scores - scores.max())
    alpha /= alpha.sum()
    rho = enc.smoothing_rho
    beta = rho * alpha + (1.0 - rho) / len(vectors)
    return beta @ vectors, beta


def words(n, prefix="tok"):
    return AttributeValue(tuple(f"{prefix}{i}" for i in range(n)))


class TestSeqEncode:
    def test_single_position(self):
        enc = make_encoder(rho=0.5, seed=1)
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0)
        value = AttributeValue(("dylan",))
        out, (beta,) = encode(enc, table, [value])
        assert out.shape == (1, 6) and beta.shape == (1,)
        want, _ = oracle(enc, token_vectors(table, value))
        np.testing.assert_allclose(out[0], want, atol=1e-12)

    def test_zero_inputs_zero_biases_give_zero_states(self):
        # Zero states score every position alike, so even rho = 1 gives
        # uniform attention and a zero embedding.
        enc = make_encoder(rho=1.0, seed=3)
        enc.b[...] = 0.0
        enc.attn[:] = 5.0
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0, rows=np.zeros((32, 6)))
        out, (beta,) = encode(enc, table, [words(4)])
        np.testing.assert_allclose(beta, np.full(4, 0.25), atol=1e-15)
        np.testing.assert_allclose(out, np.zeros((1, 6)), atol=1e-15)

    def test_reversal_swaps_halves_with_tied_weights(self):
        # With the backward direction tied to the forward one, reversing
        # the tokens swaps and reverses the hidden-state halves; under a
        # symmetric attention vector the weights reverse and the
        # embedding stays the same.
        enc = make_encoder(rho=0.8, seed=5)
        for name in ("wx", "wh", "b"):
            stacked = getattr(enc, name)
            stacked[1] = stacked[0]
        hid = enc.hidden
        enc.attn[hid:] = enc.attn[:hid]
        table = EmbeddingTable(dim=6, bucket_count=64, seed=0)
        value = AttributeValue(("blowin'", "in", "the", "wind", "again"))
        reversed_value = AttributeValue(value.tokens[::-1])
        out, (beta, beta_rev) = encode(enc, table, [value, reversed_value])
        np.testing.assert_allclose(beta_rev, beta[::-1], atol=1e-12)
        np.testing.assert_allclose(out[1], out[0], atol=1e-12)


class TestAttentionWeights:
    def test_rho_zero_is_uniform(self):
        enc = make_encoder(rho=0.0)
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0)
        _, (beta,) = encode(enc, table, [words(4)])
        np.testing.assert_allclose(beta, np.full(4, 0.25), atol=1e-15)

    def test_singleton_is_one(self):
        enc = make_encoder(rho=0.7)
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0)
        _, (beta,) = encode(enc, table, [words(1)])
        np.testing.assert_allclose(beta, [1.0], atol=1e-15)

    def test_hand_softmax(self):
        # Saturated gates (input and output 1, forget 0) and a cell gate
        # reading the token make the forward state tanh(tanh(x)); the
        # backward direction reads nothing and stays zero. Tokens 0 and 1
        # then score 0 and ln 3.
        enc = make_encoder(dim=1, hidden=1, rho=1.0)
        enc.wx[...] = 0.0
        enc.wh[...] = 0.0
        enc.b[:] = [40.0, -40.0, 0.0, 40.0]
        enc.wx[0, 0, 2] = 1.0
        enc.attn[:] = [math.log(3.0) / math.tanh(math.tanh(1.0)), 0.0]
        table = EmbeddingTable(
            dim=1, bucket_count=4, seed=0,
            pretrained={"a": np.array([0.0]), "b": np.array([1.0])},
        )
        _, (beta,) = encode(enc, table, [AttributeValue(("a", "b"))])
        np.testing.assert_allclose(beta, [0.25, 0.75], atol=1e-12)

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("length", [1, 2, 7])
    def test_sums_to_one_and_positive(self, rho, length):
        enc = make_encoder(rho=rho, seed=length)
        enc.attn *= 25.0  # peaked scores
        table = EmbeddingTable(dim=6, bucket_count=64, seed=1)
        _, weights = encode(enc, table, [words(length), words(length, "w"), words(3)])
        for beta in weights:
            assert abs(beta.sum() - 1.0) < 1e-6
            assert (beta > 0).all()

    def test_token_attention_reads_batched_weights(self):
        # the weights of the value's kept tokens, as the batched group
        # routine computes them for a batch of one
        enc = make_encoder(rho=0.6, seed=2)
        enc.max_tokens = 3
        table = EmbeddingTable(dim=6, bucket_count=64, seed=0)
        value = AttributeValue(("me", "and", "mrs.", "jones"))
        pairs = token_attention(enc, table, value)
        assert [t for t, _ in pairs] == ["me", "and", "mrs."]
        batch = prepare_sequence(table, value, enc.max_tokens)
        tensors = encoder_tensors(enc, False)
        _, beta = _encode_group(
            embed_vocabulary(ad.Tensor(table.rows), batch),
            batch.tokens[None, :],
            tensors,
            ad.reshape(tensors["attn"], (-1, 1)),
            enc.smoothing_rho,
        )
        assert [w for _, w in pairs] == beta.data[0].tolist()
        _, want = oracle(enc, token_vectors(table, value, 3))
        np.testing.assert_allclose([w for _, w in pairs], want, rtol=0, atol=16 * F32_EPS)
        assert token_attention(enc, table, AttributeValue(())) == []


class TestEncodeAttribute:
    def test_missing_gives_none(self):
        enc = make_encoder()
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0)
        assert prepare_sequence(table, AttributeValue(()), enc.max_tokens) is None

    def test_missing_value_cannot_be_encoded(self):
        enc = make_encoder()
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0)
        batch = prepare_values(table, [(AttributeValue(("dylan",)),), (AttributeValue(()),)], [4])
        with pytest.raises(ValueError, match="missing value"):
            encode_sequences_tape(
                embed_vocabulary(ad.Tensor(table.rows), batch),
                encoder_tensors(enc, False),
                enc.smoothing_rho,
                batch,
                np.arange(2),
            )

    def test_prepare_values_rejects_bad_shapes(self):
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0)
        value = AttributeValue(("dylan",))
        with pytest.raises(ValueError, match="max_tokens must be positive"):
            prepare_values(table, [(value, value)], [3, 0])
        with pytest.raises(ValueError, match="a row has 1 values, expected 2"):
            prepare_values(table, [(value, value), (value,)], [3, 3])

    def test_rho_zero_equals_token_mean(self):
        enc = make_encoder(rho=0.0)
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0)
        value = AttributeValue(("blowin'", "in", "the", "wind"))
        got = embed(enc, table, value)
        np.testing.assert_allclose(got, token_vectors(table, value).mean(axis=0), atol=1e-12)

    def test_single_token_passthrough(self):
        enc = make_encoder(rho=0.9)
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0)
        got = embed(enc, table, AttributeValue(("dylan",)))
        np.testing.assert_allclose(got, token_vector(table, "dylan"), atol=1e-12)

    def test_truncation_cap(self):
        enc = make_encoder()
        enc.max_tokens = 3
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0)
        out, weights = encode(enc, table, [words(10), words(3)])
        assert [len(b) for b in weights] == [3, 3]
        np.testing.assert_allclose(out[0], out[1], atol=1e-15)

    def test_hash_relabel_symmetry(self):
        # Permuting buckets together with the matching rows is invisible.
        enc = make_encoder(rho=0.8, seed=2)
        table = EmbeddingTable(dim=6, bucket_count=32, seed=0)
        value = AttributeValue(("me", "and", "mrs.", "jones"))
        base = embed(enc, table, value)
        perm = np.random.default_rng(1).permutation(32)
        inv = np.argsort(perm)
        permuted = EmbeddingTable(
            dim=6, bucket_count=32, seed=0, rows=table.rows[inv]
        )

        ids = {t: perm[bucket_ids(table, t)] for t in value.tokens}
        permuted._bucket_cache.update({t: np.asarray(v) for t, v in ids.items()})
        got = embed(enc, permuted, value)
        np.testing.assert_allclose(got, base, atol=1e-12)


class TestTapeConsistency:
    def test_batched_matches_single(self):
        # A mixed-length batch, repeats included, against the numpy oracle
        # run on each value alone.
        table = EmbeddingTable(dim=6, bucket_count=64, seed=1)
        enc = make_encoder(seed=3)
        values = [
            AttributeValue(("me", "and", "mrs.", "jones")),
            AttributeValue(("dylan",)),
            AttributeValue(("call", "me")),
            AttributeValue(("blowin'", "in", "the", "wind")),
            AttributeValue(("call", "me")),
            words(9),
        ]
        for rho in (0.0, 0.6, 1.0):
            enc.smoothing_rho = rho
            out, weights = encode(enc, table, values)
            for k, v in enumerate(values):
                want, want_beta = oracle(enc, token_vectors(table, v))
                np.testing.assert_allclose(out[k], want, atol=1e-12)
                np.testing.assert_allclose(weights[k], want_beta, rtol=0, atol=16 * F32_EPS)

    @pytest.mark.parametrize("length", [8, 12])
    def test_long_values_match_per_position_scores_bitwise(self, length):
        # Each position scored alone, as (n, 2H) @ (2H, 1), the scores
        # laid out as a C-contiguous (n, L) array and softmaxed along its
        # rows: numpy sums a contiguous row of 8 or more pairwise, so a
        # softmax over a strided score view would change the bits.
        table = EmbeddingTable(dim=6, bucket_count=64, seed=3)
        enc = make_encoder(rho=0.7, seed=8)
        enc.attn *= 4.0
        rng = np.random.default_rng(length)
        vocab = [f"w{i}" for i in range(40)]
        values = [AttributeValue(tuple(rng.choice(vocab, length))) for _ in range(400)]
        batch = prepare_values(table, [(v,) for v in values], [enc.max_tokens])
        vectors = embed_vocabulary(ad.Tensor(table.rows), batch)
        tensors = encoder_tensors(enc, False)
        out = encode_sequences_tape(
            vectors, tensors, enc.smoothing_rho, batch, np.arange(len(values))
        )
        n = len(values)
        _, weights = _encode_group(
            vectors,
            batch.tokens.reshape(n, length),
            tensors,
            ad.reshape(tensors["attn"], (-1, 1)),
            enc.smoothing_rho,
        )
        v3 = vectors.data[batch.tokens].reshape(n, length, 6)
        states = ad.bilstm(ad.Tensor(v3), tensors["wx"], tensors["wh"], tensors["b"]).data
        attn = enc.attn.reshape(-1, 1)
        scores = np.concatenate([states[k] @ attn for k in range(length)], axis=1)
        alpha = ad.softmax(ad.Tensor(scores), axis=1).data
        beta = alpha * enc.smoothing_rho + (1.0 - enc.smoothing_rho) / length
        assert weights.data.tobytes() == beta.tobytes()
        assert out.data.tobytes() == (beta[:, :, None] * v3).sum(axis=1).tobytes()
        for k, v in enumerate(values[:5]):
            want, _ = oracle(enc, token_vectors(table, v))
            np.testing.assert_allclose(out.data[k], want, atol=1e-12)

    def test_pretrained_tokens_enter_as_constants(self):
        table = EmbeddingTable(
            dim=4,
            bucket_count=16,
            seed=0,
            pretrained={"jones": np.array([1.0, 2.0, 3.0, 4.0])},
        )
        enc = make_encoder(dim=4, hidden=3, rho=0.0)
        np.testing.assert_allclose(
            embed(enc, table, AttributeValue(("jones",))), [1.0, 2.0, 3.0, 4.0], atol=1e-12
        )
        # mixed with hashed tokens, against the oracle
        enc.smoothing_rho = 0.7
        value = AttributeValue(("mrs.", "jones", "remix"))
        want, _ = oracle(enc, token_vectors(table, value))
        np.testing.assert_allclose(embed(enc, table, value), want, atol=1e-12)


class TestRhoZero:
    """At rho 0 the encoder runs no BiLSTM and gives, bit for bit, what the
    BiLSTM path gives once its attention is multiplied by 0."""

    # lengths 1 to 12, repeats included; 8 and more positions sum pairwise
    VALUES = [words(4), words(1, "a"), words(12, "b"), words(4), words(3, "c"), words(9, "d")]

    def run(self, rho, table_dtype=np.float32, encoder_dtype=np.float32):
        """The embeddings, the gradient of ``sum(out * probe)`` to the
        token vectors, and each value's ``token_attention`` weights."""
        table = EmbeddingTable(dim=6, bucket_count=64, seed=4)
        table.rows = table.rows.astype(table_dtype)
        enc = make_encoder(rho=rho, seed=11)
        for name in ("wx", "wh", "b", "attn"):
            setattr(enc, name, getattr(enc, name).astype(encoder_dtype))
        batch = prepare_values(table, [(v,) for v in self.VALUES], [enc.max_tokens])
        embedded = embed_vocabulary(ad.Tensor(table.rows), batch).data
        vectors = ad.Tensor(embedded, requires_grad=True)
        out = encode_sequences_tape(
            vectors, encoder_tensors(enc, True), rho, batch, np.arange(len(self.VALUES))
        )
        probe = np.random.default_rng(3).standard_normal(out.data.shape)
        ad.backward(ad.tsum(ad.mul(out, probe)))
        weights = [np.array([w for _, w in token_attention(enc, table, v)]) for v in self.VALUES]
        return out.data, vectors.grad, weights

    # float32 and float64, and a float32 table under a float64 encoder,
    # whose attention and embeddings are float64
    @pytest.mark.parametrize(
        "dtypes",
        [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
        ids=["float32", "float64", "mixed"],
    )
    @pytest.mark.parametrize("rho", [0.0, -0.0], ids=["zero", "negative-zero"])
    def test_matches_the_bilstm_path_bitwise(self, monkeypatch, dtypes, rho):
        out, grad, weights = self.run(rho, *dtypes)
        monkeypatch.setattr(encoder, "_encode_group", encode_group_oracle)
        want, want_grad, want_weights = self.run(rho, *dtypes)
        assert out.dtype == want.dtype == np.result_type(*dtypes)
        assert grad.dtype == want_grad.dtype == dtypes[0]
        assert out.tobytes() == want.tobytes()
        assert [w.tobytes() for w in weights] == [w.tobytes() for w in want_weights]
        # the BiLSTM path adds its zero gradients to the direct ones, so
        # only the sign of a zero may differ
        assert np.array_equal(grad, want_grad)

    # the smallest positive f32 rho runs the BiLSTM once per length group
    # (VALUES has five lengths), then once per value in token_attention
    @pytest.mark.parametrize(
        "rho, runs", [(0.0, 0), (-0.0, 0), (float(np.float32(1e-45)), 5 + len(VALUES))]
    )
    def test_bilstm_runs_only_where_rho_is_not_zero(self, monkeypatch, rho, runs):
        calls = []
        bilstm = ad.bilstm

        def counted(*args):
            calls.append(args[0].data.shape)
            return bilstm(*args)

        monkeypatch.setattr(ad, "bilstm", counted)
        self.run(rho)
        assert len(calls) == runs


class TestEncoderTensors:
    def test_tensors_share_memory_with_params(self):
        enc = make_encoder(seed=6)
        tensors = encoder_tensors(enc, False)
        assert tensors["wx"].data.shape == (2, 6, 16)
        assert tensors["b"].data.shape == (2, 16) and tensors["attn"].data.shape == (8,)
        # an in-place change on either side shows on the other, as an
        # optimizer step on the training tensors must
        enc.wh[1, 0, 0] = 7.0
        assert tensors["wh"].data[1, 0, 0] == 7.0
        trained = encoder_tensors(enc, True)
        trained["wx"].data[0, 1, 2] = -3.0
        trained["attn"].data[5] = 2.5
        assert enc.wx[0, 1, 2] == -3.0 and enc.attn[5] == 2.5
        assert tensors["wx"].data[0, 1, 2] == -3.0
        assert dict(enc.blocks())["wx_f"][1, 2] == -3.0

    def test_replaced_param_array_is_picked_up(self):
        enc = make_encoder(seed=7)
        table = EmbeddingTable(dim=6, bucket_count=64, seed=0)
        value = AttributeValue(("me", "and", "mrs.", "jones"))
        before = embed(enc, table, value)
        enc.wx = enc.wx * 2.0
        enc.attn = -enc.attn
        tensors = encoder_tensors(enc, False)
        assert np.shares_memory(tensors["wx"].data, enc.wx)
        assert np.shares_memory(tensors["attn"].data, enc.attn)
        got = embed(enc, table, value)
        want, _ = oracle(enc, token_vectors(table, value))
        assert not np.allclose(got, before)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_blocks_are_views_in_file_order(self):
        enc = make_encoder(dim=5, hidden=3, seed=1)
        assert (enc.dim, enc.hidden) == (5, 3)
        assert enc.wx.shape == (2, 5, 12) and enc.wh.shape == (2, 3, 12)
        assert enc.b.shape == (2, 12) and enc.attn.shape == (6,)
        blocks = list(enc.blocks())
        assert [name for name, _ in blocks] == [name for name, _, _ in BLOCKS]
        assert [b.shape for _, b in blocks] == [s for _, s in block_shapes(5, 3)]
        for (_, block), (_, field, _) in zip(blocks, BLOCKS):
            assert np.shares_memory(block, getattr(enc, field))
        again = AttentionalEncoder.from_blocks([b for _, b in blocks], 0.5)
        for name in ("wx", "wh", "b", "attn"):
            assert np.array_equal(getattr(again, name), getattr(enc, name))


class TestEncoderGradients:
    def test_encode_attribute_gradcheck(self):
        # Analytic gradients of a random projection of the attribute
        # embedding, against central differences, for every parameter.
        rng = np.random.default_rng(0)
        table = EmbeddingTable(dim=8, bucket_count=32, seed=2)
        enc = make_encoder(dim=8, hidden=4, rho=0.7, seed=4)
        value = AttributeValue(("me", "and", "mrs.", "jones", "remix"))
        probe = rng.standard_normal(8)

        emb_t = ad.Tensor(table.rows, requires_grad=True)
        enc_t = encoder_tensors(enc, requires_grad=True)
        batch = prepare_sequence(table, value, enc.max_tokens)

        def forward() -> ad.Tensor:
            out = encode_sequences_tape(
                embed_vocabulary(emb_t, batch),
                enc_t,
                enc.smoothing_rho,
                batch,
                np.zeros(1, dtype=np.int64),
            )
            return ad.tsum(ad.mul(out, ad.Tensor(probe.reshape(1, -1))))

        loss = forward()
        params = {"emb": emb_t, **enc_t}
        for t in params.values():
            t.grad = None
        ad.backward(loss)

        eps = 1e-6
        for name, t in params.items():
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                lp = float(forward().data)
                flat[k] = orig - eps
                lm = float(forward().data)
                flat[k] = orig
                numeric[k] = (lp - lm) / (2 * eps)
            assert (
                relative_error(np.asarray(analytic).reshape(-1), numeric) < 1e-4
            ), name


def encode_each_occurrence(vectors, enc, rho, batch, values):
    """The encoder before it deduplicated values: every requested value
    runs through the BiLSTM, its copies included, grouped by length and
    put back in request order by one gather."""
    starts = batch.bounds[values]
    by_len: dict[int, list[int]] = {}
    for idx, length in enumerate((batch.bounds[values + 1] - starts).tolist()):
        by_len.setdefault(length, []).append(idx)
    outputs, order = [], []
    dim = vectors.data.shape[1]
    attn_col = ad.reshape(enc["attn"], (-1, 1))
    for length in sorted(by_len):
        members = by_len[length]
        order.extend(members)
        n = len(members)
        positions = (starts[members][:, None] + np.arange(length)).reshape(-1)
        v3 = ad.reshape(ad.take_rows(vectors, batch.tokens[positions]), (n, length, dim))
        states = ad.bilstm(v3, enc["wx"], enc["wh"], enc["b"])
        scores = ad.transpose(ad.reshape(ad.matmul(states, attn_col), (length, n)))
        alpha = ad.softmax(scores, axis=1)
        beta = ad.add(ad.mul(alpha, rho), (1.0 - rho) / length)
        outputs.append(ad.tsum(ad.mul(ad.reshape(beta, (n, length, 1)), v3), axis=1))
    stacked = outputs[0] if len(outputs) == 1 else ad.concat(outputs, axis=0)
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[np.array(order, dtype=np.int64)] = np.arange(len(order))
    return ad.take_rows(stacked, inverse)


# a small pool of raw values, so a drawn batch repeats some; with
# max_tokens 3, "a b c d" and "a b c e" keep the same tokens
_POOL = [(), ("a",), ("b",), ("a", "b"), ("b", "a"), ("a", "b", "c", "d"),
         ("a", "b", "c", "e"), ("c", "d", "e"), ("e",), ("d", "d")]


@st.composite
def repeated_batches(draw):
    """Raw values drawn from the pool (missing ones included), and the
    present value numbers to encode, in any order and possibly repeated."""
    raw = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=14))
    present = [k for k, v in enumerate(raw) if v]
    if not present:
        raw, present = raw + [("a", "b")], [len(raw)]
    values = draw(st.lists(st.sampled_from(present), min_size=1, max_size=20))
    return raw, values


class TestDistinctValues:
    """Each distinct value is encoded once; its copies share the row."""

    def build(self, raw):
        table = EmbeddingTable(dim=5, bucket_count=32, seed=2)
        enc = make_encoder(dim=5, hidden=3, rho=0.6, seed=9)
        batch = prepare_values(table, [(AttributeValue(v),) for v in raw], [3])
        return table, enc, batch

    def run(self, encode_fn, table, enc, batch, values, probe):
        """Outputs and the gradients of ``sum(out * probe)``."""
        emb = ad.Tensor(table.rows, requires_grad=True)
        tensors = encoder_tensors(enc, True)
        out = encode_fn(embed_vocabulary(emb, batch), tensors, enc.smoothing_rho, batch, values)
        ad.backward(ad.tsum(ad.mul(out, ad.Tensor(probe))))
        grads = {name: t.grad for name, t in tensors.items()}
        grads["emb"] = emb.grad
        return out.data, grads

    @settings(max_examples=60, deadline=None)
    @given(repeated_batches())
    @example(([("a", "b", "c")] * 5, [0, 1, 2, 3, 4, 0]))  # all duplicates
    @example(([("a",), (), ("a", "b", "c", "d"), ("a", "b", "c", "e")], [3, 0, 2, 0]))
    def test_matches_every_occurrence_oracle(self, case):
        raw, values = case
        table, enc, batch = self.build(raw)
        values = np.array(values, dtype=np.int64)
        probe = np.random.default_rng(len(values)).standard_normal((len(values), 5))
        out, grads = self.run(encode_sequences_tape, table, enc, batch, values, probe)
        want, want_grads = self.run(encode_each_occurrence, table, enc, batch, values, probe)
        # duplicates: equal kept tokens, so equal outputs bitwise
        kept = [batch.tokens[batch.bounds[v] : batch.bounds[v + 1]].tobytes() for v in values]
        for k in range(len(values)):
            first = kept.index(kept[k])
            assert out[k].tobytes() == out[first].tobytes()
        # against the oracle: length groups of other sizes may round a
        # matrix product differently in the last bit
        assert np.abs(out - want).max() <= 1e-15
        for name, g in want_grads.items():
            assert np.abs(grads[name] - g).max() <= 1e-12, name
