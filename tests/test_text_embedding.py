"""Hashed n-gram embeddings and pretrained vector loading."""

import re

import numpy as np
import pytest

from sigblock.data_model import DatasetError
from sigblock.text_embedding import EmbeddingTable, fnv1a64, load_pretrained, ngrams


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
        assert np.array_equal(table.embed("anything"), np.zeros(4))

    def test_pure_function(self):
        table = EmbeddingTable(dim=8, bucket_count=64, seed=3)
        np.testing.assert_array_equal(table.embed("jones"), table.embed("jones"))

    def test_order_independent_sum(self):
        table = EmbeddingTable(dim=8, bucket_count=64, seed=3)
        ids = table.bucket_ids("jones")
        rng = np.random.default_rng(0)
        shuffled = ids[rng.permutation(len(ids))]
        np.testing.assert_allclose(
            table.rows[ids].sum(axis=0), table.rows[shuffled].sum(axis=0), atol=1e-12
        )

    def test_every_string_embeds_finite(self):
        table = EmbeddingTable(dim=8, bucket_count=64, seed=3)
        for token in ["", "zzxq", "misspeled", "ünïcode", "a" * 100]:
            v = table.embed(token)
            assert v.shape == (8,) and np.isfinite(v).all()

    def test_neighbor_tokens_more_similar_in_expectation(self):
        # Monte Carlo over 120 random inits: one-character edits share
        # most n-gram rows, random token pairs share almost none.
        wins = 0
        trials = 120
        for seed in range(trials):
            table = EmbeddingTable(dim=16, bucket_count=256, seed=seed)

            def cos(a, b):
                va, vb = table.embed(a), table.embed(b)
                return va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))

            if cos("blowin", "blowing") > cos("blowin", "irresponsible"):
                wins += 1
        assert wins / trials > 0.9

    def test_bucket_count_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            EmbeddingTable(dim=4, bucket_count=100)


class TestPretrained:
    def test_passthrough_and_dim(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_text("jones 0.1 0.2 0.3 0.4\nsmith 1 2 3 4\n", encoding="utf-8")
        table = load_pretrained(f)
        assert table.dim == 4
        assert len(table.pretrained) == 2
        np.testing.assert_allclose(table.embed("jones"), [0.1, 0.2, 0.3, 0.4])
        assert table.trainable is False

    def test_oov_falls_back_to_hashing(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_text("jones 0.1 0.2 0.3 0.4\n", encoding="utf-8")
        table = load_pretrained(f)
        v = table.embed("notinfile")
        assert v.shape == (4,) and np.isfinite(v).all()

    def test_empty_file_errors(self, tmp_path):
        f = tmp_path / "vec.txt"
        f.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no vectors"):
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
