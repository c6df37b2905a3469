"""Candidate-pair generation by signature-wise nearest-neighbor search.

For every signature, all records carrying that signature are indexed
(the larger table in bipartite mode) and every record of the query
side retrieves its neighbors above the cosine threshold; the union of
the per-signature pair sets, deduplicated and canonicalized, is the
candidate set. A brute-force variant computes the exact max-cosine
similarity for every pair and serves as the recall oracle for the
hashed path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data_model import Dataset, Record, canonical_pair
from .encoder import (  # noqa: F401  perfbench wraps prepare_sequence here by name
    embed_vocabulary,
    encode_sequences_tape,
    encoder_tensors,
    prepare_sequence,
    prepare_values,
)
from .lsh import LshIndex, LshParams
from .signatures import SignatureModel


@dataclass(frozen=True)
class CandidateSet:
    """Canonical record-id pairs, optionally annotated with the best
    (signature, cosine) that produced each pair."""

    pairs: frozenset[tuple[str, str]]
    provenance: dict[tuple[str, str], tuple[int, float]] | None = None

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return canonical_pair(*pair) in self.pairs

    def sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)


def signature_matrix(
    model: SignatureModel, records: list[Record]
) -> tuple[np.ndarray, np.ndarray]:
    """Signature vectors for many records at once.

    Returns ``(vectors, present)`` with shapes (n, S, d) and (n, S);
    rows of absent signatures are zero. All values of all attributes
    form one vocabulary-level batch whose token vectors are summed once;
    each attribute's present values then run through the batched
    encoder without gradient recording.
    """
    n = len(records)
    m = len(model.schema)
    weights = model.weights.matrix
    batch = prepare_values(
        model.table, [rec.attributes for rec in records], [e.max_tokens for e in model.encoders]
    )
    present = batch.lengths.reshape(n, m) > 0
    vectors = embed_vocabulary(ad.Tensor(model.table.rows), batch)
    attr_emb = np.zeros((n, m, model.table.dim))
    for j, enc in enumerate(model.encoders):
        rows = np.flatnonzero(present[:, j])
        if not rows.size:
            continue
        encoded, _ = encode_sequences_tape(
            vectors,
            encoder_tensors(enc, requires_grad=False),
            enc.smoothing_rho,
            enc.hidden,
            batch,
            rows * m + j,
        )
        attr_emb[rows, j] = encoded.data

    sig = np.einsum("sj,njd->nsd", weights, attr_emb * present[:, :, None])
    sig_present = (present[:, None, :] & (weights > 0)[None, :, :]).any(axis=2)
    return sig, sig_present


def _normalized(
    sig: np.ndarray, sig_present: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(sig, axis=2)
    ok = sig_present & (norms > 0)
    out = np.zeros_like(sig)
    np.divide(sig, norms[:, :, None], out=out, where=ok[:, :, None])
    return out, ok


def block(
    dataset: Dataset,
    model: SignatureModel,
    theta: float,
    lsh_params: LshParams | None = None,
    keep_provenance: bool = True,
) -> CandidateSet:
    """Hashed nearest-neighbor blocking over all signatures.

    Per signature, one index holds the index side and all query records
    are looked up in one batched ``LshIndex.search``; on a single table
    the queries are the indexed rows, so ``LshIndex.search_self`` probes
    from the hashes the build computed. A query's hits are capped at
    ``max_results`` before its own record is dropped from them. A pair
    found under several signatures keeps its best cosine, the lowest
    signature on ties.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    model.validate_schema(dataset)
    lsh_params = lsh_params or LshParams()

    if dataset.is_bipartite:
        big, small = dataset.tables
        if len(big) < len(small):
            big, small = small, big
        index_records = list(big)
        query_records = list(small)
    else:
        index_records = list(dataset.all_records())
        query_records = index_records

    idx_sig, idx_ok = _normalized(*signature_matrix(model, index_records))
    if dataset.is_bipartite:
        q_sig, q_ok = _normalized(*signature_matrix(model, query_records))
    else:
        q_sig, q_ok = idx_sig, idx_ok

    # records by position in the sorted ids, so the smaller position of a
    # pair is its canonical first id
    ids = sorted({r.record_id for r in index_records + query_records})
    position = {rid: i for i, rid in enumerate(ids)}
    idx_rank = np.array([position[r.record_id] for r in index_records], dtype=np.int64)
    q_rank = np.array([position[r.record_id] for r in query_records], dtype=np.int64)
    # (pair code, signature, cosine) of every hit, over all signatures
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    for s in range(model.num_signatures):
        idx_rows = np.flatnonzero(idx_ok[:, s])
        q_rows = np.flatnonzero(q_ok[:, s])
        if not idx_rows.size:
            continue
        index = LshIndex.build(
            ((index_records[i].record_id, s, idx_sig[i, s]) for i in idx_rows),
            model.table.dim,
            lsh_params,
        )
        if dataset.is_bipartite:
            row, entry, cos = index.search(q_sig[q_rows, s], theta)
        else:  # q_rows is idx_rows
            row, entry, cos = index.search_self(theta)
        a, b = q_rank[q_rows[row]], idx_rank[idx_rows[entry]]
        other = a != b
        pair = np.minimum(a, b) * len(ids) + np.maximum(a, b)
        found.append((pair[other], np.full(other.sum(), s), cos[other]))
    pair, sig, cos = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((sig, -cos, pair))
    first = order[np.unique(pair[order], return_index=True)[1]]
    best = {
        (ids[p // len(ids)], ids[p % len(ids)]): (s, c)
        for p, s, c in zip(pair[first].tolist(), sig[first].tolist(), cos[first].tolist())
    }
    provenance = best if keep_provenance else None
    return CandidateSet(frozenset(best), provenance)


def block_brute_force(
    dataset: Dataset, model: SignatureModel, theta: float, chunk: int = 512
) -> CandidateSet:
    """Exact max-cosine blocking; the oracle the hashed path is judged by."""
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    model.validate_schema(dataset)
    if dataset.is_bipartite:
        index_records = list(dataset.tables[0])
        query_records = list(dataset.tables[1])
        idx_sig, idx_ok = _normalized(*signature_matrix(model, index_records))
        q_sig, q_ok = _normalized(*signature_matrix(model, query_records))
    else:
        index_records = list(dataset.all_records())
        query_records = index_records
        idx_sig, idx_ok = _normalized(*signature_matrix(model, index_records))
        q_sig, q_ok = idx_sig, idx_ok

    S = model.num_signatures
    best: dict[tuple[str, str], tuple[int, float]] = {}
    ids_index = [r.record_id for r in index_records]
    ids_query = [r.record_id for r in query_records]
    for s in range(S):
        I = idx_sig[:, s]  # (n_i, d)
        for lo in range(0, len(query_records), chunk):
            hi = min(lo + chunk, len(query_records))
            cos = q_sig[lo:hi, s] @ I.T
            cos *= q_ok[lo:hi, s][:, None]
            cos *= idx_ok[:, s][None, :]
            qi, ii = np.nonzero(cos >= theta)
            for a, b in zip(qi, ii):
                rid_q = ids_query[lo + a]
                rid_i = ids_index[b]
                if rid_q == rid_i:
                    continue
                pair = canonical_pair(rid_q, rid_i)
                c = float(cos[a, b])
                prev = best.get(pair)
                if prev is None or c > prev[1]:
                    best[pair] = (s, c)
    return CandidateSet(frozenset(best), best)


def pe_ratio(candidates: CandidateSet, dataset: Dataset) -> float:
    """Candidate pairs per record."""
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    return len(candidates.pairs) / dataset.n


def write_candidates(
    candidates: CandidateSet, path: str | Path, with_provenance: bool | None = None
) -> None:
    """Sorted candidate CSV; provenance columns written when available."""
    if with_provenance is None:
        with_provenance = candidates.provenance is not None
    if with_provenance and candidates.provenance is None:
        raise ValueError("candidate set carries no provenance")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if with_provenance:
            writer.writerow(["id_a", "id_b", "signature_id", "cosine"])
            for a, b in candidates.sorted_pairs():
                s, cos = candidates.provenance[(a, b)]
                writer.writerow([a, b, s, repr(cos)])
        else:
            writer.writerow(["id_a", "id_b"])
            for a, b in candidates.sorted_pairs():
                writer.writerow([a, b])


def read_candidates(path: str | Path) -> CandidateSet:
    """Read a candidate CSV as :func:`write_candidates` writes it.

    A row with fewer fields than the header names (two, or four with
    provenance), or whose ``signature_id`` or ``cosine`` is no number,
    raises ``ValueError`` naming the path and the line.
    """
    pairs: set[tuple[str, str]] = set()
    provenance: dict[tuple[str, str], tuple[int, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["id_a", "id_b"]:
            raise ValueError(f"{path}: expected candidate CSV with id_a,id_b header")
        has_prov = len(header) >= 4
        fields = 4 if has_prov else 2
        for row in reader:
            if len(row) < fields:
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected {','.join(header[:fields])},"
                    f" got {len(row)} field(s)"
                )
            pair = canonical_pair(row[0], row[1])
            pairs.add(pair)
            if has_prov:
                try:
                    provenance[pair] = (int(row[2]), float(row[3]))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: signature_id and cosine must be"
                        f" numbers, got {row[2]!r} and {row[3]!r}"
                    ) from None
    return CandidateSet(frozenset(pairs), provenance if has_prov else None)
