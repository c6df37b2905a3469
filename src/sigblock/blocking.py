"""Candidate-pair generation by signature-wise nearest-neighbor search.

For every signature, all records carrying that signature are indexed
(the larger table in bipartite mode) and every record of the query
side retrieves its neighbors above the cosine threshold; the union of
the per-signature pair sets, deduplicated and canonicalized, is the
candidate set, each pair with the best (signature, cosine) that found
it. One engine does all of this for both blockers, which differ only
in where the hits come from: ``block`` asks a cross-polytope
``LshIndex`` per signature, and ``block_brute_force``, the recall
oracle of the hashed path, computes every cosine exactly. Both score a
pair with ``lsh.pair_cosines``, so a pair both find has one cosine.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import autodiff as ad
from .data_model import (  # noqa: F401  candidates are labels' pair set, reader and writer
    Dataset,
    LabelSet as CandidateSet,
    Record,
    read_pairs as read_candidates,
    write_labels as write_candidates,
)
from .encoder import (  # noqa: F401  perfbench wraps prepare_sequence here by name
    embed_vocabulary,
    encode_sequences_tape,
    encoder_tensors,
    prepare_sequence,
    prepare_values,
)
from .lsh import LshIndex, LshParams, pair_cosines
from .signatures import SignatureModel

_EXACT_CHUNK = 512  # query rows per matrix product of the exact scan


def signature_matrix(
    model: SignatureModel, records: list[Record]
) -> tuple[np.ndarray, np.ndarray]:
    """Signature vectors for many records at once.

    Returns ``(vectors, present)`` with shapes (n, S, d) and (n, S);
    rows of absent signatures are zero. All values of all attributes
    form one vocabulary-level batch whose token vectors are summed once;
    each attribute's present values then run through the batched
    encoder without gradient recording, which encodes each distinct
    value of the attribute once. Encoding runs in float32, the dtype of
    the model's parameters; the weighted sum of the widened attribute
    embeddings is float64.
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
        encoded = encode_sequences_tape(
            vectors,
            encoder_tensors(enc, requires_grad=False),
            enc.smoothing_rho,
            batch,
            rows * m + j,
        )
        attr_emb[rows, j] = encoded.data

    sig = np.einsum("sj,njd->nsd", weights, attr_emb * present[:, :, None])
    sig_present = (present[:, None, :] & (weights > 0)[None, :, :]).any(axis=2)
    return sig, sig_present


def unit_signatures(
    model: SignatureModel, records: list[Record]
) -> tuple[np.ndarray, np.ndarray]:
    """``signature_matrix`` scaled to unit rows: ``(vectors, ok)``, where
    ``ok`` marks the present signatures of nonzero norm (other rows zero)."""
    sig, sig_present = signature_matrix(model, records)
    norms = np.linalg.norm(sig, axis=2)
    ok = sig_present & (norms > 0)
    out = np.zeros_like(sig)
    np.divide(sig, norms[:, :, None], out=out, where=ok[:, :, None])
    return out, ok


def _lsh_hits(params: LshParams, s, ids, vectors, queries, theta):
    """Hit source of :func:`block`: an ``LshIndex`` of the present
    (nonzero) rows, searched by the present query rows."""
    rows = np.flatnonzero(vectors.any(axis=1))
    index = LshIndex.build(((ids[i], s, vectors[i]) for i in rows), vectors.shape[1], params)
    if queries is None:
        q_rows, (row, entry, cos) = rows, index.search_self(theta)
    else:
        q_rows = np.flatnonzero(queries.any(axis=1))
        row, entry, cos = index.search(queries[q_rows], theta)
    return q_rows[row], rows[entry], cos


def _exact_hits(s, ids, vectors, queries, theta):
    """Hit source of :func:`block_brute_force`: one matrix product per
    _EXACT_CHUNK query rows finds the hits, which ``pair_cosines`` scores
    as it scores ``block``'s, and cuts at ``theta``.

    The product filters at ``theta - 4*d*u`` (u = 2**-53): a d-term dot
    product of unit rows is within d*u / (1 - d*u) of its exact value in
    any summation order (Higham 2002, section 3.1), so the product and
    ``pair_cosines`` differ by at most about 2*d*u, half the margin.
    """
    queries = vectors if queries is None else queries
    margin = 4 * vectors.shape[1] * 2.0**-53
    found = []
    for lo in range(0, len(queries), _EXACT_CHUNK):
        row, entry = np.nonzero(queries[lo : lo + _EXACT_CHUNK] @ vectors.T >= theta - margin)
        cos = pair_cosines(queries[row + lo], vectors[entry])
        keep = cos >= theta
        found.append((row[keep] + lo, entry[keep], cos[keep]))
    return tuple(np.concatenate(part) for part in zip(*found))


def _candidates(dataset: Dataset, model: SignatureModel, theta: float, hits) -> CandidateSet:
    """The engine of both blockers, given the source of the hits.

    The index side is every record, or the larger table of two (the
    first on a tie). Per signature, ``hits(s, ids, vectors, queries,
    theta)`` gets the index side's ids and unit vectors and the query
    side's vectors (None when the queries are the indexed rows), one row
    per record and a zero row where the signature is absent, and returns
    the ``(row, entry, cosine)`` arrays of the hits at or above
    ``theta``. A pair keeps its best cosine over all signatures, the
    lowest signature on ties; a record never pairs with itself.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    model.validate_schema(dataset)
    if dataset.is_bipartite:
        index_records, query_records = map(list, sorted(dataset.tables, key=len, reverse=True))
        # one batch, so a value both tables hold is encoded once
        sig, ok = unit_signatures(model, index_records + query_records)
        k = len(index_records)
        idx_sig, idx_ok, q_sig, q_ok = sig[:k], ok[:k], sig[k:], ok[k:]
    else:
        index_records = query_records = list(dataset.all_records())
        idx_sig, idx_ok = q_sig, q_ok = unit_signatures(model, index_records)

    # records by position in the sorted ids, as ``id_pairs`` reads them
    ids = sorted({r.record_id for r in index_records + query_records})
    position = {rid: i for i, rid in enumerate(ids)}
    idx_rank = np.array([position[r.record_id] for r in index_records], dtype=np.int64)
    q_rank = np.array([position[r.record_id] for r in query_records], dtype=np.int64)
    idx_ids = [r.record_id for r in index_records]
    # (pair code, signature, cosine) of every hit, over all signatures
    found = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0))]
    for s in range(model.num_signatures):
        if not (idx_ok[:, s].any() and q_ok[:, s].any()):
            continue
        queries = q_sig[:, s] if dataset.is_bipartite else None
        row, entry, cos = hits(s, idx_ids, idx_sig[:, s], queries, theta)
        a, b = q_rank[row], idx_rank[entry]
        other = a != b
        pair = np.minimum(a, b) * len(ids) + np.maximum(a, b)
        found.append((pair[other], np.full(other.sum(), s), cos[other]))
    pair, sig, cos = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((sig, -cos, pair))
    first = order[np.unique(pair[order], return_index=True)[1]]
    best = dict(zip(id_pairs(pair[first], ids), zip(sig[first].tolist(), cos[first].tolist())))
    return CandidateSet(frozenset(best), best)


def id_pairs(codes: np.ndarray, ids: list[str]) -> list[tuple[str, str]]:
    """The pairs ``(ids[i], ids[j])`` of the codes ``i * len(ids) + j``
    with i < j: over the sorted ``ids``, the canonical id pairs."""
    first, second = np.divmod(codes, len(ids))
    return list(zip(map(ids.__getitem__, first.tolist()), map(ids.__getitem__, second.tolist())))


def block(
    dataset: Dataset, model: SignatureModel, theta: float, lsh_params: LshParams | None = None
) -> CandidateSet:
    """Hashed blocking: per signature, one ``LshIndex`` of the index side
    answers all queries in one batch (``search_self`` on a single table,
    probing from the build's hashes). A query's hits are capped at
    ``LshParams.max_results`` before its own record is dropped from them."""
    return _candidates(dataset, model, theta, partial(_lsh_hits, lsh_params or LshParams()))


def block_brute_force(dataset: Dataset, model: SignatureModel, theta: float) -> CandidateSet:
    """Exact max-cosine blocking; the oracle the hashed path is judged by."""
    return _candidates(dataset, model, theta, _exact_hits)


def pe_ratio(candidates: CandidateSet, dataset: Dataset) -> float:
    """Candidate pairs per record."""
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    return len(candidates.pairs) / dataset.n
