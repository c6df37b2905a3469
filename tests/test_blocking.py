"""End-to-end candidate generation against the exact oracle."""

import re

import numpy as np
import pytest

from sigblock import autodiff as ad
from sigblock.blocking import (
    CandidateSet,
    _exact_hits,
    block,
    block_brute_force,
    pe_ratio,
    read_candidates,
    signature_matrix,
    unit_signatures,
    write_candidates,
)
from sigblock.data_model import (
    AttributeValue,
    Dataset,
    DatasetError,
    LabelSet,
    Record,
    Table,
    canonical_pair,
    make_bipartite,
    write_labels,
)
from sigblock.evaluation import SynthSpec, synthesize
from sigblock.encoder import (
    FIELDS,
    AttentionalEncoder,
    PreparedBatch,
    encode_sequences_tape,
)
from sigblock.lsh import LshIndex, LshParams, pair_cosines
from sigblock.signatures import SignatureModel, SignatureWeights
from sigblock.text_embedding import EmbeddingTable
from sigblock.training import TrainingConfig, train

from conftest import F32_EPS, bucket_ids, duplicated_dataset


def record(rid, *texts):
    return Record(
        rid, tuple(AttributeValue(tuple(t.split()) if t else ()) for t in texts)
    )


def song_model(schema, weights, seed=0, rho=0.0):
    rng = np.random.default_rng(seed)
    dim, hidden = 12, 4
    table = EmbeddingTable(dim=dim, bucket_count=128, seed=seed)
    encoders = [AttentionalEncoder.initialize(dim, hidden, rho, rng) for _ in schema]
    return SignatureModel(
        schema=tuple(schema),
        table=table,
        encoders=encoders,
        weights=SignatureWeights(np.asarray(weights, dtype=np.float64)),
    )


@pytest.fixture(scope="module")
def trained():
    ds, labels = duplicated_dataset(60, attrs_informative=2, seed=11)
    cfg = TrainingConfig(
        iterations=30,
        batch_size=8,
        negatives=4,
        embedding_dim=12,
        hidden_size=6,
        bucket_count=256,
        seed=1,
        learning_rate=0.02,
        temperature=0.2,
        log_every=1000,
    )
    return ds, labels, train(ds, labels, cfg)


class TestSignatureMatrix:
    def test_matches_per_record_path(self, trained):
        # float32 matrix products of another row count may round
        # differently, so a record alone agrees to a few float32 ulps
        ds, _, model = trained
        records = list(ds.all_records())[:20]
        sig, ok = signature_matrix(model, records)
        for i, rec in enumerate(records):
            singles = model.signature_vectors(rec)
            for s, single in enumerate(singles):
                if single is None:
                    assert not ok[i, s]
                else:
                    assert ok[i, s]
                    bound = 16 * F32_EPS * np.linalg.norm(single)
                    np.testing.assert_allclose(sig[i, s], single, rtol=0, atol=bound)


class TestBlock:
    def test_lsh_subset_of_brute_force_with_high_recall(self, trained):
        ds, labels, model = trained
        theta = 0.8
        exact = block_brute_force(ds, model, theta)
        hashed = block(ds, model, theta, LshParams(seed=5))
        assert hashed.pairs <= exact.pairs
        assert len(hashed.pairs & exact.pairs) / len(exact.pairs) >= 0.97

    def test_exact_duplicates_always_paired(self):
        model = song_model(["title"], [[1.0]])
        ds = Dataset(
            ("title",),
            (
                Table(
                    [record(f"r{i}", "some fixed title") for i in range(2)]
                    + [record(f"q{i}", f"other words {i} entirely") for i in range(20)]
                ),
            ),
        )
        got = block(ds, model, 0.8, LshParams(seed=0))
        assert ("r0", "r1") in got.pairs

    def test_near_orthogonal_signatures_empty(self, rng):
        # Titles built from disjoint pseudo-words: their hashed
        # embeddings share almost no rows, so no pair reaches 0.8.
        from conftest import pseudo_vocab

        vocab = pseudo_vocab(rng, 90)
        rng2 = np.random.default_rng(0)
        table = EmbeddingTable(dim=16, bucket_count=2048, seed=3)
        encoders = [AttentionalEncoder.initialize(16, 4, 0.0, rng2)]
        model = SignatureModel(
            schema=("title",),
            table=table,
            encoders=encoders,
            weights=SignatureWeights(np.array([[1.0]])),
        )
        ds = Dataset(
            ("title",),
            (
                Table(
                    [
                        record(f"r{i:02d}", " ".join(vocab[3 * i : 3 * i + 3]))
                        for i in range(30)
                    ]
                ),
            ),
        )
        got = block(ds, model, 0.8, LshParams(seed=1))
        assert len(got) == 0

    def test_theta_monotonic_with_fixed_seed(self, trained):
        ds, _, model = trained
        params = LshParams(seed=2)
        prev = None
        for theta in (0.6, 0.7, 0.8, 0.9):
            got = block(ds, model, theta, params)
            if prev is not None:
                assert got.pairs <= prev
            prev = got.pairs

    def test_union_over_signatures(self, trained):
        ds, _, model = trained
        theta = 0.75
        params = LshParams(seed=7)
        combined = block(ds, model, theta, params)
        union: set = set()
        for s in range(model.num_signatures):
            sub = SignatureModel(
                schema=model.schema,
                table=model.table,
                encoders=model.encoders,
                weights=SignatureWeights(model.weights.matrix[s : s + 1]),
            )
            union |= block(ds, sub, theta, params).pairs
        assert combined.pairs == union

    def test_bipartite_pairs_cross_tables(self):
        model = song_model(["title"], [[1.0]])
        left = Dataset(
            ("title",),
            (Table([record("a1", "same title here"), record("a2", "same title here")]),),
        )
        right = Dataset(
            ("title",),
            (
                Table(
                    [record("b1", "same title here")]
                    + [record(f"b{i}", f"junk{i} junk{i}") for i in range(2, 12)]
                ),
            ),
        )
        ds = make_bipartite(left, right)
        got = block(ds, model, 0.8, LshParams(seed=0))
        assert ("a1", "b1") in got.pairs and ("a2", "b1") in got.pairs
        assert ("a1", "a2") not in got.pairs  # same-table pair excluded

    def test_missing_signature_not_indexed_or_queried(self):
        model = song_model(["title", "album"], [[1.0, 0.0], [0.0, 1.0]])
        ds = Dataset(
            ("title", "album"),
            (
                Table(
                    [
                        record("a", "shared title words", ""),
                        record("b", "shared title words", ""),
                        record("c", "", "only an album"),
                    ]
                    + [record(f"x{i}", f"w{i} q{i}", f"z{i}") for i in range(10)]
                ),
            ),
        )
        got = block(ds, model, 0.8, LshParams(seed=0))
        assert ("a", "b") in got.pairs
        assert all("c" not in p for p in got.pairs)

    def test_example_scenario_bridged_pairs(self):
        # Signature 1 covers the title, signature 2 covers album+composer;
        # x2 links to both x1 and x3 while (x1, x3) stays apart.
        model = song_model(
            ["title", "album", "composer"],
            [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]],
            seed=2,
        )
        x1 = record("x1", "me and mrs. jones", "", "")
        x2 = record("x2", "me and mrs. jones", "call me irresponsible", "michael buble")
        x3 = record("x3", "me & mrs.", "call me irresponsible", "michael buble")
        filler = [record(f"f{i}", f"fil{i}a fil{i}b", f"alb{i}", f"c{i}") for i in range(9)]
        ds = Dataset(("title", "album", "composer"), (Table([x1, x2, x3] + filler),))
        theta = 0.95
        got = block(ds, model, theta, LshParams(seed=0))
        assert ("x1", "x2") in got.pairs
        assert ("x2", "x3") in got.pairs
        assert ("x1", "x3") not in got.pairs

    def test_provenance_reports_best_signature(self, trained):
        ds, _, model = trained
        got = block(ds, model, 0.8, LshParams(seed=3))
        assert got.provenance is not None
        for pair, (s, c) in list(got.provenance.items())[:10]:
            assert 0 <= s < model.num_signatures
            assert c >= 0.8

    def test_invalid_theta(self, trained):
        ds, _, model = trained
        with pytest.raises(ValueError):
            block(ds, model, 1.5)

    def test_schema_mismatch_lists_diffs(self, trained):
        _, _, model = trained
        other = Dataset(("unrelated",), (Table([record("a", "x")]),))
        with pytest.raises(ValueError, match="unrelated"):
            block(other, model, 0.8)


def query_loop_block(dataset, model, theta, params):
    """``block`` as one ``LshIndex.query`` call per record and signature:
    the reference the batched path must match."""
    if dataset.is_bipartite:
        big, small = dataset.tables
        if len(big) < len(small):
            big, small = small, big
        index_records, query_records = list(big), list(small)
    else:
        index_records = query_records = list(dataset.all_records())
    idx_sig, idx_ok = unit_signatures(model, index_records)
    q_sig, q_ok = unit_signatures(model, query_records)
    best = {}
    for s in range(model.num_signatures):
        items = [
            (rec.record_id, s, idx_sig[i, s])
            for i, rec in enumerate(index_records)
            if idx_ok[i, s]
        ]
        if not items:
            continue
        index = LshIndex.build(items, model.table.dim, params)
        for i, rec in enumerate(query_records):
            if not q_ok[i, s]:
                continue
            for rid, _, cos in index.query(q_sig[i, s], theta):
                if rid == rec.record_id:  # dropped after the cap
                    continue
                pair = canonical_pair(rec.record_id, rid)
                if pair not in best or cos > best[pair][1]:
                    best[pair] = (s, cos)
    return best


def verbatim_copies(bipartite):
    """Three verbatim copies per entity: equal vectors tie at the cap."""
    ds, _ = duplicated_dataset(40, attrs_informative=2, copies=3, seed=4)
    if not bipartite:
        return ds
    records = list(ds.all_records())
    left = [r for r in records if r.record_id.endswith("-0")]
    right = [r for r in records if not r.record_id.endswith("-0")]
    return make_bipartite(
        Dataset(ds.schema, (Table(left),)), Dataset(ds.schema, (Table(right),))
    )


class TestBatchedEquivalence:
    @pytest.mark.parametrize("bipartite", [False, True])
    @pytest.mark.parametrize("max_results", [None, 1, 2])
    def test_matches_query_loop(self, bipartite, max_results):
        ds = verbatim_copies(bipartite)
        model = song_model(ds.schema, [[1.0, 0.0], [0.6, 0.8]], seed=3)
        params = LshParams(seed=8, max_results=max_results)
        got = block(ds, model, 0.5, params)
        want = query_loop_block(ds, model, 0.5, params)
        assert got.pairs == frozenset(want)
        for pair, (s, cos) in want.items():
            assert got.provenance[pair][0] == s
            assert abs(got.provenance[pair][1] - cos) <= 1e-12

    def test_cap_counts_the_self_hit(self):
        # each record's best hits are its three tied copies, ordered by id;
        # with one result allowed, copy 0 keeps only itself and finds nothing
        ds = verbatim_copies(False)
        model = song_model(ds.schema, [[1.0, 0.0], [0.6, 0.8]], seed=3)
        got = block(ds, model, 0.5, LshParams(seed=8, max_results=1))
        want = {(f"e{e:05d}-0", f"e{e:05d}-{c}") for e in range(40) for c in (1, 2)}
        assert got.pairs == want


def per_hit_exact_block(dataset, model, theta, chunk=512):
    """The exact scan as it was before it shared ``block``'s engine: the
    first table is the index side, every hit goes through a Python loop
    and a dict keeps the first best cosine per pair. A matrix product with
    a loose margin finds the hits and ``pair_cosines``, the scorer both
    blockers share, gives their cosines. Both tables are encoded as the
    engine encodes them: in one batch, the larger first."""
    if dataset.is_bipartite:
        index_records = list(dataset.tables[0])
        query_records = list(dataset.tables[1])
        batch = [r for t in sorted(dataset.tables, key=len, reverse=True) for r in t]
        sig, ok = unit_signatures(model, batch)
        row = {r.record_id: k for k, r in enumerate(batch)}
        i_rows = [row[r.record_id] for r in index_records]
        q_rows = [row[r.record_id] for r in query_records]
        idx_sig, idx_ok, q_sig, q_ok = sig[i_rows], ok[i_rows], sig[q_rows], ok[q_rows]
    else:
        index_records = list(dataset.all_records())
        query_records = index_records
        idx_sig, idx_ok = unit_signatures(model, index_records)
        q_sig, q_ok = idx_sig, idx_ok
    best = {}
    ids_index = [r.record_id for r in index_records]
    ids_query = [r.record_id for r in query_records]
    for s in range(model.num_signatures):
        I = idx_sig[:, s]
        for lo in range(0, len(query_records), chunk):
            hi = min(lo + chunk, len(query_records))
            cos = q_sig[lo:hi, s] @ I.T
            cos *= q_ok[lo:hi, s][:, None]
            cos *= idx_ok[:, s][None, :]
            qi, ii = np.nonzero(cos >= theta - 1e-9)
            scored = pair_cosines(q_sig[lo + qi, s], I[ii])
            for a, b, c in zip(qi, ii, scored.tolist()):
                rid_q = ids_query[lo + a]
                rid_i = ids_index[b]
                if rid_q == rid_i or c < theta:
                    continue
                pair = canonical_pair(rid_q, rid_i)
                prev = best.get(pair)
                if prev is None or c > prev[1]:
                    best[pair] = (s, c)
    return best


@pytest.fixture(scope="module")
def dirty():
    """A dirty corpus of 600 records and an untrained model with the
    signatures album | the rest; a fifth of the records have no album."""
    spec = SynthSpec(200, 2, "dirty", 0.3, 0.0, 0.3, 0.2, 0.2)
    ds, _ = synthesize(spec, seed=5)
    w = 3**-0.5
    model = song_model(ds.schema, [[0.0, 1.0, 0.0, 0.0], [w, 0.0, w, w]], seed=4)
    records = list(ds.all_records())
    first = Dataset(ds.schema, (Table([r for r in records if r.record_id.endswith("-0")]),))
    rest = Dataset(ds.schema, (Table([r for r in records if not r.record_id.endswith("-0")]),))
    cases = {
        "dedup": ds,
        "bipartite, index side first": make_bipartite(rest, first),
        "bipartite, index side second": make_bipartite(first, rest),
    }
    return model, cases


class TestExactScan:
    @pytest.mark.parametrize(
        "case", ["dedup", "bipartite, index side first", "bipartite, index side second"]
    )
    def test_matches_per_hit_oracle_bitwise(self, dirty, case):
        model, cases = dirty
        ds = cases[case]
        got = block_brute_force(ds, model, 0.85)
        want = per_hit_exact_block(ds, model, 0.85)
        assert len(want) > 100
        assert got.pairs == frozenset(want)
        assert {p: (s, c.hex()) for p, (s, c) in got.provenance.items()} == {
            p: (s, c.hex()) for p, (s, c) in want.items()
        }

    def test_table_order_does_not_change_candidates(self, dirty):
        model, cases = dirty
        a = block_brute_force(cases["bipartite, index side first"], model, 0.85)
        b = block_brute_force(cases["bipartite, index side second"], model, 0.85)
        assert a.provenance == b.provenance

    @pytest.mark.parametrize(
        "case", ["dedup", "bipartite, index side first", "bipartite, index side second"]
    )
    def test_hashed_subset_of_exact(self, dirty, case):
        model, cases = dirty
        ds = cases[case]
        exact = block_brute_force(ds, model, 0.85)
        hashed = block(ds, model, 0.85, LshParams(seed=3))
        assert len(hashed) > 0.9 * len(exact)
        assert hashed.pairs <= exact.pairs
        same = 0
        for pair, (s, cos) in hashed.provenance.items():
            # one scorer: a pair's cosine under one signature is one float
            if exact.provenance[pair][0] == s:
                assert exact.provenance[pair][1].hex() == cos.hex()
                same += 1
            else:
                assert exact.provenance[pair][1] >= cos
        assert same > 0.9 * len(hashed)


    def test_filter_margin_keeps_a_pair_the_product_rounds_below_theta(self, rng):
        vecs = rng.standard_normal((200, 64))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        i, j = np.triu_indices(200, 1)
        scored = pair_cosines(vecs[i], vecs[j])
        low = np.flatnonzero((vecs @ vecs.T)[i, j] < scored)
        if not low.size:
            pytest.skip("this BLAS rounds no product below pair_cosines")
        # theta is the pair's own cosine, which the product misses by an ulp
        k = low[np.argmax(scored[low])]
        row, entry, cos = _exact_hits(0, [], vecs, None, scored[k])
        hit = (row == i[k]) & (entry == j[k])
        assert cos[hit].tolist() == [scored[k]]


class TestPeRatio:
    def test_values(self):
        ds = Dataset(("t",), (Table([record(f"r{i}", "x") for i in range(10)]),))
        fifty = frozenset((f"x{i:02d}", f"y{i:02d}") for i in range(50))
        assert pe_ratio(CandidateSet(fifty), ds) == 5.0
        assert pe_ratio(CandidateSet(frozenset()), ds) == 0.0

    def test_empty_dataset_errors(self):
        ds = Dataset(("t",), (Table([]),))
        with pytest.raises(ValueError):
            pe_ratio(CandidateSet(frozenset()), ds)


class TestCandidateIO:
    def test_round_trip_with_provenance(self, tmp_path):
        cs = CandidateSet(
            frozenset({("a", "b"), ("c", "d")}),
            {("a", "b"): (0, 0.91234), ("c", "d"): (1, 0.85)},
        )
        path = tmp_path / "cands.csv"
        write_candidates(cs, path)
        back = read_candidates(path)
        assert back.pairs == cs.pairs
        assert back.provenance == cs.provenance

    def test_round_trip_plain(self, tmp_path):
        cs = CandidateSet(frozenset({("a", "b")}))
        path = tmp_path / "cands.csv"
        write_candidates(cs, path)
        back = read_candidates(path)
        assert back.pairs == cs.pairs and back.provenance is None

    def test_sorted_output(self, tmp_path):
        cs = CandidateSet(frozenset({("z", "zz"), ("a", "b"), ("m", "n")}))
        path = tmp_path / "cands.csv"
        write_candidates(cs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id_a,id_b"
        assert lines[1:] == sorted(lines[1:])

    @pytest.mark.parametrize(
        "body, line",
        [
            ("a,b,0,0.9\nlonely\n", 3),
            # a pair without provenance would break write_candidates later
            ("a,b,0,0.9\nc,d\n", 3),
            ("a,b,0,0.9\n\nc,d,1,0.8\n", 3),
            ("a,b,zero,0.9\n", 2),
            ("a,b,0,0.9\nc,d,1,high\n", 3),
        ],
    )
    def test_malformed_row_names_path_and_line(self, tmp_path, body, line):
        path = tmp_path / "cands.csv"
        path.write_text("id_a,id_b,signature_id,cosine\n" + body, encoding="utf-8")
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))}: line {line}: "):
            read_candidates(path)

    @pytest.mark.parametrize("body", ["", "a,b\n"])
    def test_missing_header_names_path(self, tmp_path, body):
        path = tmp_path / "cands.csv"
        path.write_text(body, encoding="utf-8")
        want = rf"^{re.escape(str(path))}: line 1: expected header id_a,id_b, got "
        with pytest.raises(DatasetError, match=want):
            read_candidates(path)

    def test_tab_delimited_file_reads(self, tmp_path):
        path = tmp_path / "cands.tsv"
        path.write_text("id_a\tid_b\tsignature_id\tcosine\nb\ta\t1\t0.85\n", encoding="utf-8")
        back = read_candidates(path)
        assert back.pairs == {("a", "b")} and back.provenance == {("a", "b"): (1, 0.85)}

    def test_other_extra_columns_read_as_plain_pairs(self, tmp_path):
        # only columns named signature_id,cosine are provenance
        path = tmp_path / "cands.csv"
        path.write_text("id_a,id_b,note,score\na,b,seen,0.5\nc,d,x,y\n", encoding="utf-8")
        back = read_candidates(path)
        assert back.pairs == {("a", "b"), ("c", "d")} and back.provenance is None

    @pytest.mark.parametrize("provenance", [None, {("a", "b"): (0, 0.91234), ("c", "d"): (1, 0.85)}])
    def test_labels_and_candidates_share_one_writer(self, tmp_path, provenance):
        pairs = CandidateSet(frozenset({("c", "d"), ("a", "b")}), provenance)
        write_candidates(pairs, tmp_path / "c.csv")
        write_labels(pairs, tmp_path / "l.csv")
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "l.csv").read_bytes()
        assert CandidateSet is LabelSet

    def test_non_utf8_names_path_line_and_byte(self, tmp_path):
        path = tmp_path / "cands.csv"
        path.write_bytes(b"id_a,id_b\na,b\n\xffc,d\n")
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(path))}: line 3: byte 14: "):
            read_candidates(path)


def oracle_signature_matrix(model, records, dtype=np.float32):
    """signature_matrix computed value by value, every token occurrence
    embedded on its own: a pretrained vector added to zero, or its bucket
    rows summed from zero in id order. Every parameter is rounded to
    ``dtype`` and encoding computes in it, as inference does in float32;
    float64 is the encode path of a float64 model before inference
    moved to float32."""
    n, m, dim = len(records), len(model.schema), model.table.dim
    rows = model.table.rows.astype(dtype)
    attr_emb = np.zeros((n, m, dim))
    present = np.zeros((n, m), dtype=bool)
    for i, rec in enumerate(records):
        for j, (value, enc) in enumerate(zip(rec.attributes, model.encoders)):
            kept = value.tokens[: enc.max_tokens]
            if not kept:
                continue
            vectors = []
            for t in kept:
                vec = np.zeros(dim, dtype)
                if t in model.table.pretrained:
                    vec = vec + model.table.pretrained[t].astype(dtype)
                else:
                    for row in bucket_ids(model.table, t):
                        vec = vec + rows[row]
                vectors.append(vec)
            # one value whose vocabulary is its token occurrences
            alone = PreparedBatch(
                np.zeros(0, dtype=np.int64),
                np.zeros(len(kept) + 1, dtype=np.int64),
                None,
                np.arange(len(kept)),
                np.array([0, len(kept)]),
            )
            out = encode_sequences_tape(
                ad.Tensor(np.stack(vectors)),
                {name: ad.Tensor(getattr(enc, name).astype(dtype)) for name in FIELDS},
                enc.smoothing_rho,
                alone,
                np.zeros(1, dtype=np.int64),
            )
            attr_emb[i, j] = out.data[0]
            present[i, j] = True
    weights = model.weights.matrix.astype(dtype).astype(np.float64)
    sig = np.einsum("sj,njd->nsd", weights, attr_emb * present[:, :, None])
    sig_present = (present[:, None, :] & (weights > 0)[None, :, :]).any(axis=2)
    return sig, sig_present


class TestVocabularyFrontEnd:
    """One vocabulary across the attributes of a batch gives the values
    that encoding each value alone gives, bit for bit."""

    def mixed_model(self):
        rng = np.random.default_rng(5)
        dim = 6
        table = EmbeddingTable(
            dim=dim,
            bucket_count=64,
            seed=3,
            pretrained={"jones": rng.standard_normal(dim), "mrs.": rng.standard_normal(dim)},
        )
        encoders = [
            AttentionalEncoder.initialize(dim, 3, rho, rng, max_tokens=cap)
            for rho, cap in ((1.0, 2), (0.4, 5))
        ]
        weights = SignatureWeights(np.array([[1.0, 0.0], [0.6, 0.8]]))
        return SignatureModel(("title", "artist"), table, encoders, weights)

    def test_mixed_batch_matches_batches_of_one_and_oracle(self):
        model = self.mixed_model()
        records = [
            # pretrained and hashed tokens in one value, a repeat cut at 2
            record("r0", "me jones me mrs.", "jones dylan jones"),
            # "jones" again, in the attribute cut at 5 and past the cut
            record("r1", "", "me and mrs. jones remix jones"),
            record("r2", "dylan", ""),
            record("r3", "", ""),
            record("r4", "jones jones", "jones"),
        ]
        sig, ok = signature_matrix(model, records)
        ones = [signature_matrix(model, [r]) for r in records]
        assert sig.tobytes() == np.concatenate([s for s, _ in ones]).tobytes()
        assert ok.tobytes() == np.concatenate([o for _, o in ones]).tobytes()
        want_sig, want_ok = oracle_signature_matrix(model, records)
        assert sig.tobytes() == want_sig.tobytes()
        assert ok.tobytes() == want_ok.tobytes()
        assert ok.tolist() == [
            [True, True], [False, True], [True, True], [False, False], [True, True]
        ]

    def test_all_missing_batch(self):
        model = self.mixed_model()
        records = [record("a", "", ""), record("b", "", "")]
        sig, ok = signature_matrix(model, records)
        assert not ok.any() and not sig.any()
        want_sig, want_ok = oracle_signature_matrix(model, records)
        assert sig.tobytes() == want_sig.tobytes()
        assert ok.tobytes() == want_ok.tobytes()
        empty_sig, empty_ok = signature_matrix(model, [])
        assert empty_sig.shape == (0, 2, 6) and empty_ok.shape == (0, 2)

