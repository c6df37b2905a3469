"""Hashed n-gram embeddings and pretrained vector loading."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigblock.data_model import DatasetError
from sigblock.text_embedding import (
    EmbeddingTable,
    fnv1a64,
    fnv1a64_many,
    load_pretrained,
    ngrams,
)

from conftest import bucket_ids, token_vector


def brute_force_ngrams(token: str, min_n: int, max_n: int) -> list[str]:
    # Independent enumeration: every substring of the wrapped token with
    # a length in range, plus the wrapped token, first-seen order.
    wrapped = "<" + token + ">"
    subs = []
    for n in range(min_n, max_n + 1):
        for i in range(len(wrapped)):
            s = wrapped[i : i + n]
            if len(s) == n and s not in subs:
                subs.append(s)
    if wrapped not in subs:
        subs.append(wrapped)
    return subs


class TestNgrams:
    def test_short_token(self):
        assert ngrams("ab", 3, 3) == ["<ab", "ab>", "<ab>"]

    def test_token_shorter_than_n(self):
        assert ngrams("a", 3, 3) == ["<a>"]

    @pytest.mark.parametrize("token", ["dylan", "jones", "x", "blowin'", "remastered"])
    def test_matches_enumeration(self, token):
        assert ngrams(token, 3, 5) == brute_force_ngrams(token, 3, 5)

    def test_dylan_count(self):
        # "<dylan>" has 7 characters: 5 + 4 + 3 grams plus the whole word.
        got = ngrams("dylan", 3, 5)
        assert len(got) == len(brute_force_ngrams("dylan", 3, 5)) == 13

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            ngrams("abc", 5, 3)


class TestHash:
    def test_deterministic_across_calls(self):
        assert fnv1a64("dylan") == fnv1a64("dylan")
        assert fnv1a64("dylan", seed=1) != fnv1a64("dylan", seed=2)

    def test_known_empty_offset(self):
        # FNV-1a of the empty string is the offset basis.
        assert fnv1a64("", seed=0) == 0xCBF29CE484222325


class TestEmbeddingTable:
    def test_zero_rows_give_zero_vector(self):
        table = EmbeddingTable(dim=4, bucket_count=8, rows=np.zeros((8, 4)))
        assert np.array_equal(token_vector(table, "anything"), np.zeros(4))

    def test_pure_function(self):
        table = EmbeddingTable(dim=8, bucket_count=64, seed=3)
        np.testing.assert_array_equal(token_vector(table, "jones"), token_vector(table, "jones"))

    def test_order_independent_sum(self):
        table = EmbeddingTable(dim=8, bucket_count=64, seed=3)
        ids = bucket_ids(table, "jones")
        rng = np.random.default_rng(0)
        shuffled = ids[rng.permutation(len(ids))]
        np.testing.assert_allclose(
            table.rows[ids].sum(axis=0), table.rows[shuffled].sum(axis=0), atol=1e-12
        )

    def test_every_string_embeds_finite(self):
        table = EmbeddingTable(dim=8, bucket_count=64, seed=3)
        for token in ["", "zzxq", "misspeled", "ünïcode", "a" * 100]:
            v = token_vector(table, token)
            assert v.shape == (8,) and np.isfinite(v).all()

    def test_neighbor_tokens_more_similar_in_expectation(self):
        # Monte Carlo over 120 random inits: one-character edits share
        # most n-gram rows, random token pairs share almost none.
        wins = 0
        trials = 120
        for seed in range(trials):
            table = EmbeddingTable(dim=16, bucket_count=256, seed=seed)

            def cos(a, b):
                va, vb = token_vector(table, a), token_vector(table, b)
                return va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))

            if cos("blowin", "blowing") > cos("blowin", "irresponsible"):
                wins += 1
        assert wins / trials > 0.9

    def test_bucket_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dim=4, bucket_count=100)

    @pytest.mark.parametrize("ngram_range", [(0, 2), (3, 2)])
    def test_ngram_range_must_satisfy_1_le_min_le_max(self, ngram_range):
        # (0, 2) would hash the empty n-gram; (3, 2) would save a model
        # file that load_model refuses
        with pytest.raises(ValueError, match=re.escape(f"ngram_range {ngram_range} must")):
            EmbeddingTable(dim=4, bucket_count=16, ngram_range=ngram_range)


class TestPretrained:
    def test_passthrough_and_dim(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_text("jones 0.1 0.2 0.3 0.4\nsmith 1 2 3 4\n", encoding="utf-8")
        table = load_pretrained(f)
        assert table.dim == 4
        assert len(table.pretrained) == 2
        np.testing.assert_allclose(token_vector(table, "jones"), [0.1, 0.2, 0.3, 0.4])
        assert table.trainable is False

    def test_oov_falls_back_to_hashing(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_text("jones 0.1 0.2 0.3 0.4\n", encoding="utf-8")
        table = load_pretrained(f)
        v = token_vector(table, "notinfile")
        assert v.shape == (4,) and np.isfinite(v).all()

    def test_empty_file_errors(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no vectors"):
            load_pretrained(f)

    def test_repeated_token_names_path_and_both_lines(self, tmp_path):
        # a model file refuses a repeated token, so the text file does too
        f = tmp_path / "vec.txt"
        f.write_text("jones 1 2\nsmith 3 4\njones 5 6\n", encoding="utf-8")
        want = rf"^{re.escape(str(f))}: line 3: token 'jones' repeats line 1$"
        with pytest.raises(ValueError, match=want):
            load_pretrained(f)

    def test_inconsistent_dim_reports_line(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_text("a 1 2 3\nb 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_pretrained(f)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_reports_line(self, tmp_path, entry):
        # float() parses these, so without a check the token would load as a
        # NaN or inf vector and silently drop every record that holds it
        f = tmp_path / "vec.txt"
        f.write_text(f"good 1 2\nbad {entry} 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"{re.escape(str(f))}: line 2: non-finite"):
            load_pretrained(f)

    def test_non_utf8_names_path_line_and_byte(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_bytes(b"good 1 2\nb\xffd 1 2\n")
        want = rf"^{re.escape(str(f))}: line 2: byte 10: not UTF-8"
        with pytest.raises(DatasetError, match=want):
            load_pretrained(f)

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_text("hello 1 2\nworld 3 4\n", encoding="utf-8-sig")
        assert list(load_pretrained(f).pretrained) == ["hello", "world"]


# ASCII, the boundary markers, two- and three-byte UTF-8 and astral-plane
# characters (four bytes, a surrogate pair in UTF-16)
CHARS = st.one_of(
    st.sampled_from(list("ab<>é中😀𝄞 ")),
    st.characters(codec="utf-8"),
)


class TestBatchHash:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(CHARS, max_size=9), max_size=8),
        st.integers(1, 6),
        st.integers(0, 3),
        st.one_of(st.just(0), st.integers(2**63, 2**64 - 1), st.integers(0, 2**64 - 1)),
    )
    def test_batch_ids_equal_per_gram_fnv1a64(self, tokens, ngram_min, extra, seed):
        ngram_range = (ngram_min, ngram_min + extra)
        mask = 255
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = EmbeddingTable(2, 256, ngram_range, seed=seed, rows=np.zeros((256, 2)))
            got = table.batch_bucket_ids(tokens)
            single = EmbeddingTable(2, 256, ngram_range, seed=seed, rows=np.zeros((256, 2)))
            one_by_one = [bucket_ids(single, t) for t in tokens]
        assert len(got) == len(tokens)
        for token, ids, alone in zip(tokens, got, one_by_one):
            want = [fnv1a64(g, seed) & mask for g in ngrams(token, *ngram_range)]
            assert ids.dtype == np.int64 and ids.tolist() == want
            assert alone.dtype == np.int64 and alone.tolist() == want
            assert table._bucket_cache[token] is bucket_ids(table, token)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(CHARS, max_size=12), max_size=10),
        st.one_of(st.just(0), st.integers(2**63, 2**64 - 1), st.integers(0, 2**64 - 1)),
    )
    def test_fnv1a64_many_equals_fnv1a64(self, data, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fnv1a64_many(data, seed)
        assert got.dtype == np.uint64
        assert got.tolist() == [fnv1a64(s, seed) for s in data]

    def test_known_values(self):
        # FNV-1a 64 reference values: "" is the offset basis, "a" and "foobar"
        # are published test vectors
        got = fnv1a64_many(["", "a", "foobar"])
        assert got.tolist() == [0xCBF29CE484222325, 0xAF63DC4C8601EC8C, 0x85944171F73967E8]
