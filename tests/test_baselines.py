"""Key blocking exactness and MinHash estimator properties."""

import itertools
import math

import numpy as np
import pytest

from sigblock.baselines import (
    _SKETCH_CHUNK,
    KeySpec,
    MinHasher,
    MinHashParams,
    estimate_jaccard,
    exact_jaccard,
    key_block,
    minhash_block,
    representative_set,
)
from sigblock.data_model import (
    AttributeValue,
    Dataset,
    Record,
    Table,
    canonical_pair,
    make_bipartite,
    tokenize,
)
from sigblock.evaluation import SynthSpec, synthesize
from sigblock.text_embedding import fnv1a64

from conftest import phrase, pseudo_vocab


def record(rid, *texts):
    return Record(rid, tuple(tokenize(t) for t in texts))


def brute_force_key_join(dataset, attr_idx):
    """Independent oracle: quadratic scan for exact key agreement."""
    out = set()
    recs = list(dataset.all_records())
    for a, b in itertools.combinations(recs, 2):
        if dataset.is_bipartite and dataset.table_of(a.record_id) == dataset.table_of(
            b.record_id
        ):
            continue
        ka = [a.attributes[j] for j in attr_idx]
        kb = [b.attributes[j] for j in attr_idx]
        if any(v.is_missing for v in ka) or any(v.is_missing for v in kb):
            continue
        if [v.text() for v in ka] == [v.text() for v in kb]:
            out.add(canonical_pair(a.record_id, b.record_id))
    return out


class TestKeyBlock:
    def _dataset(self):
        recs = [
            record("1", "Me and Mrs. Jones", "Call Me Irresponsible"),
            record("2", "Me and Mrs. Jones", ""),
            record("3", "Blowin' in the Wind", "The Freewheelin' Bob Dylan"),
            record("4", "Blowing in the Wind", ""),
            record("5", "", "Call Me Irresponsible"),
        ]
        return Dataset(("title", "album"), (Table(recs),))

    def test_identical_titles_paired(self):
        got = key_block(self._dataset(), KeySpec("single", ("title",)))
        assert ("1", "2") in got.pairs

    def test_one_character_difference_not_paired(self):
        got = key_block(self._dataset(), KeySpec("single", ("title",)))
        assert ("3", "4") not in got.pairs

    def test_missing_never_matches(self):
        got = key_block(self._dataset(), KeySpec("single", ("album",)))
        assert ("1", "5") in got.pairs
        assert all("2" not in p and "4" not in p for p in got.pairs)

    def test_conjunction_requires_all_parts(self):
        ds = self._dataset()
        got = key_block(ds, KeySpec("conjunction", ("title", "album")))
        assert ("1", "2") not in got.pairs  # record 2 misses the album

    def test_disjunction_superset_of_singles(self):
        ds = self._dataset()
        dis = key_block(ds, KeySpec("disjunction", ("title", "album")))
        for attr in ("title", "album"):
            single = key_block(ds, KeySpec("single", (attr,)))
            assert single.pairs <= dis.pairs

    def test_matches_brute_force_join_on_random_data(self, rng):
        vocab = pseudo_vocab(rng, 30)
        recs = []
        for i in range(300):
            title = " ".join(phrase(rng, vocab, 1, 2))
            album = " ".join(phrase(rng, vocab, 1, 2)) if rng.random() > 0.2 else ""
            recs.append(record(f"r{i:03d}", title, album))
        ds = Dataset(("title", "album"), (Table(recs),))
        split = make_bipartite(
            Dataset(ds.schema, (Table(recs[::2]),)), Dataset(ds.schema, (Table(recs[1::2]),))
        )
        for data in (ds, split):
            for spec in (
                KeySpec("single", ("title",)),
                KeySpec("conjunction", ("title", "album")),
                KeySpec("disjunction", ("title", "album")),
            ):
                keys = [spec.attributes]
                if spec.kind == "disjunction":
                    keys = [(a,) for a in spec.attributes]
                want = set()
                for key in keys:
                    want |= brute_force_key_join(data, [data.attribute_index(a) for a in key])
                assert want
                assert key_block(data, spec).pairs == want

    def test_bipartite_crosses_tables(self):
        left = Dataset(("t",), (Table([record("a1", "same"), record("a2", "same")]),))
        right = Dataset(("t",), (Table([record("b1", "same")]),))
        got = key_block(make_bipartite(left, right), KeySpec("single", ("t",)))
        assert got.pairs == frozenset({("a1", "b1"), ("a2", "b1")})

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            KeySpec("both", ("a",))
        with pytest.raises(ValueError):
            KeySpec("single", ("a", "b"))


class TestRepresentativeSet:
    def test_tokens_plus_bigrams(self):
        rec = record("r", "bob dylan")
        assert representative_set(rec, 0, (2,)) == {"bob", "dylan", "bob dylan"}

    def test_single_token(self):
        rec = record("r", "dylan")
        assert representative_set(rec, 0, (2, 3)) == {"dylan"}

    def test_missing_gives_empty(self):
        rec = record("r", "")
        assert representative_set(rec, 0) == frozenset()

    def test_size_bound(self, rng):
        vocab = pseudo_vocab(rng, 50)
        for _ in range(30):
            tokens = phrase(rng, vocab, 1, 8)
            rec = Record("r", (AttributeValue(tokens),))
            got = representative_set(rec, 0, (2,))
            assert len(got) <= 2 * len(tokens) - 1 if len(tokens) > 1 else 1


class TestMinHash:
    def test_identical_sets_always_collide(self):
        h = MinHasher(64, seed=0)
        s = frozenset({"a", "b", "c"})
        assert estimate_jaccard(h.sketch(s), h.sketch(s)) == 1.0

    def test_disjoint_sets_essentially_never_collide(self):
        h = MinHasher(256, seed=0)
        a = frozenset(f"x{i}" for i in range(30))
        b = frozenset(f"y{i}" for i in range(30))
        assert estimate_jaccard(h.sketch(a), h.sketch(b)) < 0.05

    @pytest.mark.parametrize("true_j", [0.25, 0.5, 0.75])
    def test_estimator_unbiased(self, true_j):
        # Sets engineered to an exact Jaccard; 4096 rows keep the Monte
        # Carlo error a few sigma under 0.03.
        inter = int(round(12 * true_j / (1 - true_j))) if true_j != 0.75 else 36
        shared = [f"s{i}" for i in range(inter)]
        only_a = [f"a{i}" for i in range(6)]
        only_b = [f"b{i}" for i in range(6)]
        a = frozenset(shared + only_a)
        b = frozenset(shared + only_b)
        assert abs(exact_jaccard(a, b) - true_j) < 1e-9
        h = MinHasher(4096, seed=3)
        est = estimate_jaccard(h.sketch(a), h.sketch(b))
        sigma = math.sqrt(true_j * (1 - true_j) / 4096)
        assert abs(est - true_j) < 4 * sigma

    def test_single_hash_collision_matches_jaccard(self):
        # Per-row collision probability equals the true Jaccard within
        # Monte Carlo tolerance.
        rows = 10_000
        h = MinHasher(rows, seed=9)
        a = frozenset(f"s{i}" for i in range(10)) | frozenset(f"a{i}" for i in range(10))
        b = frozenset(f"s{i}" for i in range(10)) | frozenset(f"b{i}" for i in range(10))
        true_j = exact_jaccard(a, b)
        est = estimate_jaccard(h.sketch(a), h.sketch(b))
        sigma = math.sqrt(true_j * (1 - true_j) / rows)
        assert abs(est - true_j) < 3 * sigma

    def test_batch_equals_per_set_formula_across_chunks(self, rng):
        vocab = pseudo_vocab(rng, 40)
        sets = [frozenset(phrase(rng, vocab, 1, 6)) for _ in range(2 * _SKETCH_CHUNK + 7)]
        h = MinHasher(16, seed=5)
        got = h.sketches(sets)
        m = np.uint64((1 << 31) - 1)
        for row, s in zip(got, sets):
            xs = np.array([fnv1a64(e) for e in s], np.uint64) % m
            assert np.array_equal(row, ((h.a[:, None] * xs + h.b[:, None]) % m).min(axis=1))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            MinHasher(8).sketch(frozenset())


class TestMinhashBlock:
    def _dataset(self):
        recs = [
            record("1", "Blowin' in the Wind", "The Freewheelin' Bob Dylan"),
            record("2", "Blowing in the Wind", ""),
            record("3", "totally different words", "another thing"),
            record("4", "Blowin' in the Wind", "The Freewheelin' Bob Dylan"),
        ]
        return Dataset(("title", "album"), (Table(recs),))

    def test_identical_always_paired(self):
        got = minhash_block(self._dataset(), ("title",), 0.9)
        assert ("1", "4") in got.pairs

    def test_verified_pairs_meet_threshold(self):
        ds = self._dataset()
        got = minhash_block(ds, ("title", "album"), 0.4)
        for a, b in got.pairs:
            best = 0.0
            for j in range(2):
                ra = representative_set(ds.get(a), j)
                rb = representative_set(ds.get(b), j)
                best = max(best, exact_jaccard(ra, rb))
            assert best >= 0.4

    def test_one_character_title_variants_fuzzy_matched(self):
        # The exact Jaccard of these two titles' representative sets is
        # 0.5: tokens {in, the, wind} and the n-grams not touching the
        # misspelled word survive. Key blocking misses the pair; MinHash
        # at a threshold at or below 0.5 finds it.
        ds = self._dataset()
        ra = representative_set(ds.get("1"), 0)
        rb = representative_set(ds.get("2"), 0)
        assert abs(exact_jaccard(ra, rb) - 0.5) < 1e-9
        fuzzy = minhash_block(ds, ("title",), 0.45)
        assert ("1", "2") in fuzzy.pairs
        exact_key = key_block(ds, KeySpec("single", ("title",)))
        assert ("1", "2") not in exact_key.pairs

    def test_threshold_monotonic(self):
        ds = self._dataset()
        loose = minhash_block(ds, ("title", "album"), 0.3, MinHashParams(seed=1))
        tight = minhash_block(ds, ("title", "album"), 0.9, MinHashParams(seed=1))
        assert tight.pairs <= loose.pairs

    def test_union_across_attributes(self):
        ds = self._dataset()
        both = minhash_block(ds, ("title", "album"), 0.5, MinHashParams(seed=2))
        t = minhash_block(ds, ("title",), 0.5, MinHashParams(seed=2))
        a = minhash_block(ds, ("album",), 0.5, MinHashParams(seed=2))
        assert both.pairs == (t.pairs | a.pairs)

    def test_disjoint_never_verified(self):
        recs = [record("1", "aaa bbb"), record("2", "ccc ddd")]
        ds = Dataset(("title",), (Table(recs),))
        got = minhash_block(ds, ("title",), 0.3)
        assert len(got) == 0

    @pytest.mark.parametrize("sizes", [(), (0,), (-2,), (2, 1)])
    def test_ngram_size_below_two_rejected(self, sizes):
        # a size below 2 used to be skipped without a word
        with pytest.raises(ValueError, match=r"minhash.ngram_sizes must be at least 2, got \("):
            minhash_block(self._dataset(), ("title",), 0.5, MinHashParams(ngram_sizes=sizes))


def banding_oracle(dataset, attributes, theta, params):
    """Independent oracle: every pair of per-record sketches compared band
    by band, and a pair sharing a band kept at exact Jaccard >= theta."""
    hasher = MinHasher(params.num_hashes, params.seed)
    recs = list(dataset.all_records())
    table = [dataset.table_of(r.record_id) for r in recs]
    out = set()
    for name in attributes:
        j = dataset.attribute_index(name)
        reps = [representative_set(r, j, params.ngram_sizes) for r in recs]
        bands = {
            i: hasher.sketch(rep).reshape(params.bands, params.band_size)
            for i, rep in enumerate(reps)
            if rep
        }
        for x, y in itertools.combinations(bands, 2):
            if dataset.is_bipartite and table[x] == table[y]:
                continue
            if (bands[x] == bands[y]).all(axis=1).any() and exact_jaccard(reps[x], reps[y]) >= theta:
                out.add(canonical_pair(recs[x].record_id, recs[y].record_id))
    return out


class TestMinhashBlockOracle:
    @pytest.mark.parametrize("bipartite", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_brute_force_banding(self, seed, bipartite):
        ds, _ = synthesize(SynthSpec(60, 2, "dirty", 0.3, 0.0, 0.3, 0.2, 0.2), seed=seed)
        extra = [
            record("x-solo-a", "dylan", "", "", ""),  # one-token titles, equal sets
            record("x-solo-b", "dylan", "", "", ""),
            record("x-blank", "", "", "", ""),  # every attribute missing
        ]
        records = list(ds.all_records()) + extra
        assert any(v.is_missing for r in records[:-3] for v in r.attributes)
        if bipartite:
            left = [r for r in records if r.record_id.endswith(("-0", "-a"))]
            right = [r for r in records if not r.record_id.endswith(("-0", "-a"))]
            ds = make_bipartite(
                Dataset(ds.schema, (Table(left),)), Dataset(ds.schema, (Table(right),))
            )
        else:
            ds = Dataset(ds.schema, (Table(records),))
        params = MinHashParams(bands=16, band_size=3, seed=seed)
        got = minhash_block(ds, ds.schema, 0.3, params)
        assert ("x-solo-a", "x-solo-b") in got.pairs
        assert got.pairs == banding_oracle(ds, ds.schema, 0.3, params)
