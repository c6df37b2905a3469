"""Tokenizer rules, ingestion, round trips, and label handling."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigblock.data_model import (
    AttributeValue,
    Dataset,
    DatasetError,
    Record,
    Table,
    canonical_pair,
    export,
    ingest,
    load_labels,
    make_bipartite,
    make_labels,
    tokenize,
    write_labels,
)


def four_pass_tokens(raw: str) -> tuple[str, ...]:
    """The tokenizer rules as four unconditional ``re.sub`` passes."""
    s = raw.lower()
    s = re.sub(r'([\[\](){},;:!?"])', r" \1 ", s)
    s = re.sub(r"(\w)(n't)(?!\w)", r"\1 \2", s)
    s = re.sub(r"(\w)('(?:s|m|re|ve|ll|d))(?!\w)", r"\1 \2", s)
    s = re.sub(r"(?<=[^\s.])(\.+)\s*$", r" \1", s)
    return tuple(s.split())


class TestTokenize:
    def test_treebank_style_example(self):
        assert tokenize("Me and Mrs. Jones [remix]").tokens == (
            "me",
            "and",
            "mrs.",
            "jones",
            "[",
            "remix",
            "]",
        )

    def test_lowercases(self):
        assert tokenize("BOB DYLAN").tokens == ("bob", "dylan")

    def test_empty_is_missing(self):
        assert tokenize("").is_missing
        assert tokenize("   ").is_missing

    def test_contractions(self):
        assert tokenize("don't stop").tokens == ("do", "n't", "stop")
        assert tokenize("dylan's band").tokens == ("dylan", "'s", "band")

    def test_final_period_split(self):
        assert tokenize("call me mrs.").tokens == ("call", "me", "mrs", ".")
        assert tokenize("u.s.a. made").tokens == ("u.s.a.", "made")

    def test_punctuation_isolated(self):
        assert tokenize("(live) version!").tokens == ("(", "live", ")", "version", "!")

    def test_trailing_apostrophe_kept(self):
        assert tokenize("blowin' in the wind").tokens == ("blowin'", "in", "the", "wind")

    @given(st.text(max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_idempotent_and_whitespace_free(self, raw):
        tokens = tokenize(raw).tokens
        assert all(t and not any(c.isspace() for c in t) for t in tokens)
        assert tokenize(" ".join(tokens)).tokens == tokens

    @given(
        st.lists(
            st.sampled_from(list('[](){},;:!?"\'.') + ["n't", "'s", "'ll", "N'T", "'S"])
            | st.sampled_from([" ", "  ", "\t", "\n", "\u00a0"])
            | st.text(alphabet="abcXYZ\u00e9\u00c9\u00df\u0130\u03a3\u00e7", min_size=1,
                      max_size=4),
            max_size=20,
        ).map("".join)
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_four_pass_reference(self, raw):
        # tokenize skips a rule whose trigger character is absent; the
        # reference always runs all four
        assert tokenize(raw).tokens == four_pass_tokens(raw)


BAD_ID = "'id' must be a non-empty string or an integer, got"


class TestIngest:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return path

    def test_csv_with_missing_cell(self, tmp_path):
        f = self._write(
            tmp_path / "d.csv",
            'id,title,album\n3,"Blowin\' in the Wind",\n',
        )
        ds = ingest(f, "csv")
        rec = ds.tables[0].records[0]
        assert ds.schema == ("title", "album")
        assert rec.record_id == "3"
        assert rec.attributes[0].length > 0
        assert rec.attributes[1].is_missing

    def test_header_only_gives_empty_dataset(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "id,title\n")
        ds = ingest(f, "csv")
        assert ds.n == 0

    def test_round_trip(self, tmp_path):
        f = self._write(
            tmp_path / "d.csv",
            "id,title,album\n"
            "1,Me and Mrs. Jones,Call Me Irresponsible\n"
            "2,Me and Mrs. Jones [remix],\n"
            "3,Blowing in the Wind,\n",
        )
        ds = ingest(f, "csv")
        out = tmp_path / "out.csv"
        export(ds, out, "csv")
        again = ingest(out, "csv")
        assert again == ds

    def test_jsonl_set_valued_attribute_concatenated(self, tmp_path):
        f = self._write(
            tmp_path / "d.jsonl",
            '{"id": "a", "actors": ["Bob Dylan", "Joan Baez"], "title": "x"}\n',
        )
        ds = ingest(f, "jsonl", schema=["title", "actors"])
        rec = ds.tables[0].records[0]
        assert rec.attributes[1].tokens == ("bob", "dylan", "joan", "baez")

    def test_jsonl_integer_id_is_its_decimal_text(self, tmp_path):
        f = self._write(tmp_path / "d.jsonl", '{"id": 7, "title": "x"}\n{"id": "8"}\n')
        assert [r.record_id for r in ingest(f, "jsonl").all_records()] == ["7", "8"]

    def test_round_trip_jsonl(self, tmp_path):
        f = self._write(
            tmp_path / "d.jsonl",
            '{"id": "a", "title": "Hello World", "album": ""}\n'
            '{"id": "b", "title": "", "album": "Second One"}\n',
        )
        ds = ingest(f, "jsonl", schema=["title", "album"])
        out = tmp_path / "out.jsonl"
        export(ds, out, "jsonl")
        assert ingest(out, "jsonl", schema=["title", "album"]) == ds

    def test_malformed_row_reports_number(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "id,title\n1,ok\n2,too,many,fields\n")
        with pytest.raises(DatasetError, match="row 3"):
            ingest(f, "csv")

    def test_duplicate_id_reports_id(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "id,title\nx,one\nx,two\n")
        with pytest.raises(DatasetError, match="'x'"):
            ingest(f, "csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            ingest(tmp_path / "nope.csv")

    def test_tsv(self, tmp_path):
        f = self._write(tmp_path / "d.tsv", "id\ttitle\n1\thello there\n")
        ds = ingest(f, "tsv")
        assert ds.tables[0].records[0].attributes[0].tokens == ("hello", "there")

    def test_deterministic(self, tmp_path):
        f = self._write(tmp_path / "d.csv", "id,a\n1,x y z\n2,q\n")
        assert ingest(f, "csv") == ingest(f, "csv")

    @pytest.mark.parametrize(
        "body, message",
        [
            # the object without an id is the second object, on line 4
            ('{"id": "a", "t": "x"}\n\n\n{"t": "y"}\n', "line 4: missing 'id'"),
            ('{"id": "a", "t": "x"}\r\n\r\n\r\n{"t": "y"}\r\n', "line 4: missing 'id'"),
            ('\n{"id": "a"}\n\n{"id": "b", \n', "line 4: invalid JSON"),
            ('{"id": "a"}\n\n[1, 2]\n', "line 3: expected a JSON object"),
            # an id is a non-empty string or an integer
            ('{"id": "a"}\n{"id": null}\n', f"line 2: {BAD_ID} null"),
            ('{"id": ""}\n', f'line 1: {BAD_ID} ""'),
            ('{"id": {"x": 1}}\n', f'line 1: {BAD_ID} {{"x": 1}}'),
            ('{"id": [1, 2]}\n', f"line 1: {BAD_ID} [1, 2]"),
            ('{"id": true}\n', f"line 1: {BAD_ID} true"),
            ('{"id": 1.5}\n', f"line 1: {BAD_ID} 1.5"),
        ],
    )
    def test_jsonl_errors_name_path_and_file_line(self, tmp_path, body, message):
        f = tmp_path / "d.jsonl"
        f.write_bytes(body.encode("utf-8"))
        with pytest.raises(DatasetError, match=rf"^{re.escape(f'{f}: {message}')}"):
            ingest(f, "jsonl")

    @pytest.mark.parametrize(
        "name, format, body",
        [
            ("d.csv", "csv", b"id,title\n1,ok\n2,caf\xe9 \xff\n"),
            ("d.tsv", "tsv", b"id\ttitle\n1\tok\n2\tcaf\xe9 \xff\n"),
            ("d.jsonl", "jsonl", b'{"id": "1"}\n\n{"id": "2", "t": "caf\xe9 \xff"}\n'),
        ],
    )
    def test_non_utf8_names_path_line_and_byte(self, tmp_path, name, format, body):
        f = tmp_path / name
        f.write_bytes(body)
        offset = body.index(b"\xe9")
        with pytest.raises(DatasetError, match=rf"^{re.escape(f'{f}: line 3: byte {offset}: ')}"):
            ingest(f, format)

    @pytest.mark.parametrize(
        "name, format, body",
        [("d.csv", "csv", "id,title\n1,ok\n"), ("d.jsonl", "jsonl", '{"id": "1", "title": "ok"}\n')],
    )
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, name, format, body):
        f = tmp_path / name
        f.write_text(body, encoding="utf-8-sig")
        ds = ingest(f, format)
        assert ds.schema == ("title",)
        assert [r.record_id for r in ds.all_records()] == ["1"]


class TestLabels:
    def _dataset(self):
        recs = [
            Record(rid, (AttributeValue(("t",)),)) for rid in ("a", "b", "c", "d", "e")
        ]
        return Dataset(("title",), (Table(recs),))

    def test_dedup_and_canonical(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_text("id_a,id_b\na,b\nb,a\na,b\n", encoding="utf-8")
        labels = load_labels(f, self._dataset())
        assert labels.pairs == frozenset({("a", "b")})

    def test_self_pair_rejected(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_text("id_a,id_b\na,a\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="self-pair"):
            load_labels(f, self._dataset())

    def test_unknown_id_rejected(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_text("id_a,id_b\na,zz\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="'zz'"):
            load_labels(f, self._dataset())

    def test_size_bounded_by_rows(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_text("id_a,id_b\na,b\nb,c\nc,a\nd,e\nb,a\n", encoding="utf-8")
        labels = load_labels(f, self._dataset())
        assert len(labels) <= 5

    def test_canonical_order_invariant(self):
        labels = make_labels([("z", "a"), ("m", "b")])
        for a, b in labels.pairs:
            assert a < b

    def test_write_and_reload(self, tmp_path):
        labels = make_labels([("a", "b"), ("c", "d")])
        f = tmp_path / "l.csv"
        write_labels(labels, f)
        assert load_labels(f, self._dataset()).pairs == labels.pairs

    def test_reads_a_candidate_file_with_provenance(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("id_a,id_b,signature_id,cosine\na,b,0,0.9\nc,d,1,0.85\n", encoding="utf-8")
        labels = load_labels(f, self._dataset())
        assert labels.pairs == frozenset({("a", "b"), ("c", "d")})
        # one reader: the provenance columns are checked as for candidates
        f.write_text("id_a,id_b,signature_id,cosine\na,b,0,0.9\nc,d,1\n", encoding="utf-8")
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(f))}: line 3: expected "):
            load_labels(f, self._dataset())

    def test_non_utf8_names_path_line_and_byte(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_bytes(b"id_a,id_b\na,b\nc,\xff\n")
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(f))}: line 3: byte 16: "):
            load_labels(f, self._dataset())

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_text("id_a,id_b\na,b\n", encoding="utf-8-sig")
        assert load_labels(f, self._dataset()).pairs == frozenset({("a", "b")})
        # a later mark is data, and byte offsets stay those of the file
        f.write_bytes(b"\xef\xbb\xbfid_a,id_b\na,b\nc,\xff\n")
        with pytest.raises(DatasetError, match=rf"^{re.escape(str(f))}: line 3: byte 19: "):
            load_labels(f, self._dataset())


class TestDataset:
    def test_schema_width_enforced(self):
        rec = Record("a", (AttributeValue(("x",)),))
        with pytest.raises(DatasetError, match="schema"):
            Dataset(("one", "two"), (Table([rec]),))

    def test_bipartite_requires_distinct_ids(self):
        left = Dataset(("t",), (Table([Record("a", (AttributeValue(("x",)),))]),))
        right = Dataset(("t",), (Table([Record("a", (AttributeValue(("y",)),))]),))
        with pytest.raises(DatasetError, match="shared across tables"):
            make_bipartite(left, right)

    def test_bipartite_schema_mismatch(self):
        left = Dataset(("t",), (Table([]),))
        right = Dataset(("u",), (Table([]),))
        with pytest.raises(DatasetError, match="schema mismatch"):
            make_bipartite(left, right)

    def test_subset_preserves_order(self):
        recs = [Record(f"r{i}", (AttributeValue(("x",)),)) for i in range(5)]
        ds = Dataset(("t",), (Table(recs),))
        sub = ds.subset(["r3", "r1"])
        assert [r.record_id for r in sub.all_records()] == ["r1", "r3"]

    def test_canonical_pair(self):
        assert canonical_pair("b", "a") == ("a", "b")
        assert canonical_pair("a", "b") == ("a", "b")
