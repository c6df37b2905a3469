"""Records, datasets, pair sets (labels and candidates), and delimited files.

Tokenization rules
------------------
Attribute values are lowercased and split by a small, fixed set of
treebank-style rules so that outputs are reproducible without any
external tokenizer package:

1. lowercase the raw string;
2. isolate grouping and clause punctuation into their own tokens:
   ``[ ] ( ) { } , ; : ! ? "``;
3. split contractions from their host word: ``n't`` and the
   apostrophe forms ``'s 'm 're 've 'll 'd``;
4. split a sentence-final run of periods off the last word; periods
   inside or at the end of abbreviations elsewhere in the string stay
   attached (``mrs.`` mid-string keeps its period);
5. split on whitespace.

The rules are idempotent on their own space-joined output, which is
what makes export/re-ingest round trips exact. Rules 2-4 each run only
when the string holds their trigger character (one of rule 2's
characters, an apostrophe, a period); a pattern that cannot match
would leave the string unchanged, so skipping it changes no token.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence


class DatasetError(ValueError):
    """Raised for malformed input files or inconsistent identifiers."""


@dataclass(frozen=True)
class AttributeValue:
    """One attribute of a record as an ordered token sequence.

    A zero-length sequence is the canonical missing value; there is no
    sentinel token.
    """

    tokens: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.tokens)

    @property
    def is_missing(self) -> bool:
        return not self.tokens

    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class Record:
    """A tuple of the data source: an id plus one value per schema attribute."""

    record_id: str
    attributes: tuple[AttributeValue, ...]


_ISOLATE_CHARS = frozenset('[](){},;:!?"')
_ISOLATE = re.compile(r'([\[\](){},;:!?"])')
_NT = re.compile(r"(\w)(n't)(?!\w)")
_APOS = re.compile(r"(\w)('(?:s|m|re|ve|ll|d))(?!\w)")
_FINAL_PERIOD = re.compile(r"(?<=[^\s.])(\.+)\s*$")


def tokenize(raw: str) -> AttributeValue:
    """Lowercase and split a raw cell; empty input becomes the missing value.

    Rules 2-4 run only on a string holding their trigger character.
    """
    s = raw.lower()
    if not _ISOLATE_CHARS.isdisjoint(s):
        s = _ISOLATE.sub(r" \1 ", s)
    if "'" in s:
        s = _NT.sub(r"\1 \2", s)
        s = _APOS.sub(r"\1 \2", s)
    if "." in s:
        s = _FINAL_PERIOD.sub(r" \1", s)
    return AttributeValue(tuple(s.split()))


class Table:
    """Immutable ordered record collection with unique record ids."""

    def __init__(self, records: Sequence[Record]):
        self.records: tuple[Record, ...] = tuple(records)
        by_id: dict[str, Record] = {}
        for rec in self.records:
            if rec.record_id in by_id:
                raise DatasetError(f"duplicate record_id {rec.record_id!r}")
            by_id[rec.record_id] = rec
        self._by_id = by_id

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._by_id

    def get(self, record_id: str) -> Record:
        return self._by_id[record_id]

    def __eq__(self, other) -> bool:
        return isinstance(other, Table) and self.records == other.records

    def __hash__(self):
        return hash(self.records)


class Dataset:
    """One or two tables over a shared schema.

    One table is the self-join setting (duplicates within a source);
    two tables is the bipartite setting where candidate pairs must
    cross tables. Record ids must be globally unique across tables so
    that label and candidate pairs are unambiguous.
    """

    def __init__(self, schema: Sequence[str], tables: Sequence[Table]):
        if not 1 <= len(tables) <= 2:
            raise DatasetError("a dataset holds one or two tables")
        self.schema: tuple[str, ...] = tuple(schema)
        self.tables: tuple[Table, ...] = tuple(tables)
        for table in self.tables:
            for rec in table:
                if len(rec.attributes) != len(self.schema):
                    raise DatasetError(
                        f"record {rec.record_id!r} has {len(rec.attributes)} "
                        f"attributes, schema has {len(self.schema)}"
                    )
        if len(self.tables) == 2:
            overlap = set(r.record_id for r in self.tables[0]) & set(
                r.record_id for r in self.tables[1]
            )
            if overlap:
                raise DatasetError(
                    f"record ids shared across tables: {sorted(overlap)[:5]}"
                )

    @property
    def n(self) -> int:
        return sum(len(t) for t in self.tables)

    @property
    def is_bipartite(self) -> bool:
        return len(self.tables) == 2

    def all_records(self) -> Iterator[Record]:
        for table in self.tables:
            yield from table

    def attribute_index(self, name: str) -> int:
        try:
            return self.schema.index(name)
        except ValueError:
            raise DatasetError(f"unknown attribute {name!r}") from None

    def get(self, record_id: str) -> Record:
        for table in self.tables:
            if record_id in table:
                return table.get(record_id)
        raise KeyError(record_id)

    def __contains__(self, record_id: str) -> bool:
        return any(record_id in t for t in self.tables)

    def table_of(self, record_id: str) -> int:
        for k, table in enumerate(self.tables):
            if record_id in table:
                return k
        raise KeyError(record_id)

    def subset(self, record_ids: Iterable[str]) -> "Dataset":
        """Restrict to the given ids, preserving table membership and order."""
        wanted = set(record_ids)
        tables = tuple(
            Table([r for r in t if r.record_id in wanted]) for t in self.tables
        )
        if len(tables) == 2 and (len(tables[0]) == 0 or len(tables[1]) == 0):
            tables = tuple(t for t in tables if len(t) > 0) or (Table([]),)
        return Dataset(self.schema, tables)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dataset)
            and self.schema == other.schema
            and self.tables == other.tables
        )


def make_bipartite(left: Dataset, right: Dataset) -> Dataset:
    """Join two single-table datasets into one bipartite dataset."""
    if left.schema != right.schema:
        raise DatasetError(
            f"schema mismatch: {left.schema} vs {right.schema}"
        )
    if left.is_bipartite or right.is_bipartite:
        raise DatasetError("inputs must be single-table datasets")
    return Dataset(left.schema, (left.tables[0], right.tables[0]))


def canonical_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class LabelSet:
    """Record pairs stored canonically (smaller id first): the known
    matches, or a blocker's candidates (``blocking.CandidateSet`` is this
    class). ``provenance`` holds each pair's best (signature, cosine)
    when a blocker scored its pairs, else None."""

    pairs: frozenset[tuple[str, str]]
    provenance: dict[tuple[str, str], tuple[int, float]] | None = None

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return canonical_pair(*pair) in self.pairs

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)

    def record_ids(self) -> set[str]:
        out: set[str] = set()
        for a, b in self.pairs:
            out.add(a)
            out.add(b)
        return out


def make_labels(pairs: Iterable[tuple[str, str]], dataset: Dataset | None = None) -> LabelSet:
    """Canonicalize and deduplicate pairs, validating ids when a dataset is given."""
    out: set[tuple[str, str]] = set()
    for a, b in pairs:
        if a == b:
            raise DatasetError(f"self-pair ({a!r}, {a!r}) in label set")
        if dataset is not None:
            for rid in (a, b):
                if rid not in dataset:
                    raise DatasetError(f"label references unknown record_id {rid!r}")
        out.add(canonical_pair(a, b))
    return LabelSet(frozenset(out))


def read_text(path: Path) -> str:
    """The whole file decoded as UTF-8, less one leading byte-order mark.
    Bytes that are not UTF-8 raise ``DatasetError`` naming the path, the
    line and the byte offset in the file."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(
            f"{path}: line {line}: byte {exc.start}: not UTF-8 ({exc.reason})"
        ) from None


def _rows_from_delimited(path: Path, delimiter: str) -> Iterator[list[str]]:
    return csv.reader(io.StringIO(read_text(path), newline=""), delimiter=delimiter)


def _cell_text(value) -> str:
    """Raw text of one cell; set-valued cells concatenate their elements."""
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return " ".join(_cell_text(v) for v in value)
    return str(value)


def _rows_from_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """Each object of a JSON-lines file with its line number; blank
    lines are skipped."""
    for lineno, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise DatasetError(f"{path}: line {lineno}: expected a JSON object")
        yield lineno, obj


def ingest(
    path: str | Path,
    format: str = "csv",
    schema: Sequence[str] | None = None,
    id_column: str = "id",
) -> Dataset:
    """Read a delimited or JSON-lines file into a single-table dataset.

    Blank cells (or absent JSON keys) become missing attribute values;
    every other cell is tokenized. Error messages name the path; row
    numbers in them count the header as row 1 for delimited files and
    are line numbers for JSON-lines files. Bytes that are not UTF-8
    raise with their line and byte offset.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    records: list[Record] = []
    if format in ("csv", "tsv"):
        delimiter = "," if format == "csv" else "\t"
        rows = _rows_from_delimited(path, delimiter)
        try:
            header = next(rows)
        except StopIteration:
            raise DatasetError(f"{path}: empty file (no header)") from None
        if id_column not in header:
            raise DatasetError(f"{path}: header lacks id column {id_column!r}")
        if schema is None:
            schema = [c for c in header if c != id_column]
        missing_cols = [c for c in schema if c not in header]
        if missing_cols:
            raise DatasetError(f"{path}: header lacks attributes {missing_cols}")
        col_of = {name: header.index(name) for name in list(schema) + [id_column]}
        for rownum, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: row {rownum}: expected {len(header)} fields, got {len(row)}"
                )
            rid = row[col_of[id_column]]
            if not rid:
                raise DatasetError(f"{path}: row {rownum}: empty record id")
            values = tuple(tokenize(row[col_of[name]]) for name in schema)
            records.append(Record(rid, values))
    elif format == "jsonl":
        objs = list(_rows_from_jsonl(path))
        if schema is None:
            keys: list[str] = []
            for _, obj in objs:
                for k in obj:
                    if k != id_column and k not in keys:
                        keys.append(k)
            schema = keys
        for lineno, obj in objs:
            if id_column not in obj:
                raise DatasetError(f"{path}: line {lineno}: missing {id_column!r}")
            rid = obj[id_column]
            if isinstance(rid, bool) or not isinstance(rid, (str, int)) or rid == "":
                raise DatasetError(
                    f"{path}: line {lineno}: {id_column!r} must be a non-empty string "
                    f"or an integer, got {json.dumps(rid)}"
                )
            rid = str(rid)
            values = tuple(
                tokenize(_cell_text(obj.get(name))) for name in schema
            )
            records.append(Record(rid, values))
    else:
        raise DatasetError(f"unknown format {format!r} (expected csv, tsv, or jsonl)")
    try:
        table = Table(records)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None
    return Dataset(schema, (table,))


def export(dataset: Dataset, path: str | Path, format: str = "csv", id_column: str = "id") -> None:
    """Write a single-table dataset back out; cells are space-joined tokens."""
    if dataset.is_bipartite:
        raise DatasetError("export writes one table at a time")
    path = Path(path)
    if format in ("csv", "tsv"):
        delimiter = "," if format == "csv" else "\t"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
            writer.writerow([id_column] + list(dataset.schema))
            for rec in dataset.all_records():
                writer.writerow([rec.record_id] + [v.text() for v in rec.attributes])
    elif format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in dataset.all_records():
                obj = {id_column: rec.record_id}
                obj.update(
                    {name: v.text() for name, v in zip(dataset.schema, rec.attributes)}
                )
                fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    else:
        raise DatasetError(f"unknown format {format!r}")


def read_pairs(path: str | Path) -> LabelSet:
    """Read a pair file, labels or candidates, into a canonical pair set
    (``blocking.read_candidates`` is this function).

    The header starts ``id_a,id_b`` (cells stripped). Provenance is read
    only when columns 3 and 4 are ``signature_id,cosine``; other columns
    are ignored. Cells split on tabs when the header line holds one,
    else on commas. ``DatasetError`` names the path for a missing file,
    and the line too for a missing header, a row with fewer fields than
    the columns read, a ``signature_id`` or ``cosine`` that is no number
    and bytes that are not UTF-8 (with their byte offset).
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such file: {path}")
    fh = io.StringIO(read_text(path), newline="")
    delimiter = "\t" if "\t" in fh.readline() else ","
    fh.seek(0)
    reader = csv.reader(fh, delimiter=delimiter)
    header = [c.strip() for c in next(reader, [])]
    if header[:2] != ["id_a", "id_b"]:
        raise DatasetError(f"{path}: line 1: expected header id_a,id_b, got {header[:2]}")
    has_prov = header[2:4] == ["signature_id", "cosine"]
    fields = 4 if has_prov else 2
    pairs: set[tuple[str, str]] = set()
    provenance: dict[tuple[str, str], tuple[int, float]] = {}
    for row in reader:
        if len(row) < fields:
            raise DatasetError(
                f"{path}: line {reader.line_num}: expected {','.join(header[:fields])},"
                f" got {len(row)} field(s)"
            )
        pair = canonical_pair(row[0], row[1])
        pairs.add(pair)
        if has_prov:
            try:
                provenance[pair] = (int(row[2]), float(row[3]))
            except ValueError:
                raise DatasetError(
                    f"{path}: line {reader.line_num}: signature_id and cosine must be"
                    f" numbers, got {row[2]!r} and {row[3]!r}"
                ) from None
    return LabelSet(frozenset(pairs), provenance if has_prov else None)


def load_labels(path: str | Path, dataset: Dataset) -> LabelSet:
    """The pairs of a pair file (:func:`read_pairs`) as labels of
    ``dataset``: a self-pair or an unknown id raises ``DatasetError``
    naming the path."""
    pairs = read_pairs(path)
    try:
        return make_labels(pairs.sorted_pairs(), dataset)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def write_labels(pairs: LabelSet, path: str | Path) -> None:
    """Write a pair file, labels or candidates, as :func:`read_pairs`
    reads it (``blocking.write_candidates`` is this function): the sorted
    pairs, with the ``signature_id,cosine`` columns exactly when the set
    carries provenance."""
    header, rows = ["id_a", "id_b"], pairs.sorted_pairs()
    if pairs.provenance is not None:
        header += ["signature_id", "cosine"]
        rows = [(a, b, *pairs.provenance[a, b]) for a, b in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
