"""BM25 field-match retrieval over categorical records.

A candidate scores the sum, over fields whose ids match the query's (id 0
never matches), of ln((N - n_fv + 0.5) / (n_fv + 0.5)) where n_fv is the
pool frequency of the query's (field, value). Rare matches score high,
values in more than half the pool score negative, and negative scores are
kept: top-k is by score with recency tie-breaks, never by threshold.

The pool is a chronological log: its timestamps never decrease, and a
record's index is its position. So a later position means a more recent
record, the tie order (score desc, timestamp desc, record index desc) is
(score desc, position desc), and the records strictly earlier than a query
form a prefix of the pool: every record of an earlier timestamp, then those
of the query's own timestamp below the query's index. Queries are scored
exactly and densely, a small block at a time, over the longest eligible
prefix in the block: for each field in ascending order, S += (pool column ==
query id) * match weight. That adds the same weights in the same order as
the per-pair sum, so scores are bitwise equal to it. The cost is O(queries x
eligible pool x F). Top-k is one partition per block for the k-th score,
then one lexsort of the candidates at or above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import binio
from .errors import DataError

INDEX_MAGIC = b"RATI"
INDEX_VERSION = 3

ELIGIBILITY = ("earlier", "all")

# queries scored together. A block's score, product and match buffers take
# 17 bytes per query per pool row; with a 13,600-row pool, blocks of 6-8 were
# fastest on a Xeon with 2 MB of L2 per core (16 ran 10-20% slower, 32 ~50%).
QUERY_BLOCK = 8


@dataclass
class RetrievalResult:
    """Top-k neighbors for one query, padded to exactly k slots.

    neighbor_indices holds record indices (pool positions), -1 on padded
    slots; scores are 0.0 on padded slots; mask marks real neighbors, which
    always precede padding.
    """
    neighbor_indices: np.ndarray
    scores: np.ndarray
    mask: np.ndarray

    @property
    def n_real(self) -> int:
        return int(self.mask.sum())


class RetrievalIndex:
    """A fixed pool of encoded records in time order, record index = position,
    with per-field term and weight tables derived from its ids."""

    def __init__(self, pool_field_ids: np.ndarray, timestamps: np.ndarray):
        self.pool_size, self.num_fields = pool_field_ids.shape
        self.pool_field_ids = pool_field_ids
        self.timestamps = timestamps
        n = self.pool_size
        self.record_indices = np.arange(n)       # row p is record p
        self._cols = np.ascontiguousarray(pool_field_ids.T)
        # flat term tables, field-major then value-ascending; id 0 is never a term
        per_field = [np.unique(col[col != 0], return_counts=True) for col in self._cols]
        self._term_field = np.repeat(np.arange(self.num_fields), [v.size for v, _ in per_field])
        self._term_value = np.concatenate([np.empty(0, np.int64)] + [v for v, _ in per_field])
        df = np.concatenate([np.empty(0, np.int64)] + [d for _, d in per_field])
        self.num_terms = self._term_value.size
        self._unseen_weight = float(np.log((n + 0.5) / 0.5))
        # (field, id) -> one ascending key, so a single search finds a term in any
        # field: the id's slot in the vocabulary (which holds 0, never a term),
        # offset by field. Key and weight tables end with a sentinel (weight 0.0)
        # whose key is past every real one.
        self._term_weight = np.append(np.log((n - df + 0.5) / (df + 0.5)), 0.0)
        self._vocab = np.unique(np.append(self._term_value, 0))
        self._term_key = np.append(
            self._term_field * self._vocab.size + np.searchsorted(self._vocab, self._term_value),
            self.num_fields * self._vocab.size)

    def weight(self, f: int, vid: int) -> float:
        """IDF-style match weight for a (field, value) term; vid may be unseen."""
        return self._weight_of.get((f, int(vid)), self._unseen_weight)

    @cached_property
    def _weight_of(self) -> dict[tuple[int, int], float]:
        terms = zip(self._term_field.tolist(), self._term_value.tolist())
        return dict(zip(terms, self._term_weight.tolist()))

    def _query_weights(self, query_ids: np.ndarray) -> np.ndarray:
        """(queries, F) match weights; 0.0 where an id matches no pool record."""
        slot = np.minimum(np.searchsorted(self._vocab, query_ids), self._vocab.size - 1)
        key = np.arange(self.num_fields) * self._vocab.size + slot
        term = np.searchsorted(self._term_key, key)
        hit = (self._term_key[term] == key) & (self._vocab[slot] == query_ids)
        return np.where(hit, self._term_weight[term], 0.0)


def build_index(pool_field_ids: np.ndarray, timestamps: np.ndarray) -> RetrievalIndex:
    """Index a pool in time order; record i is row i. id 0 (missing/OOV) is
    never indexed and never matches."""
    pool_field_ids = np.asarray(pool_field_ids, dtype=np.int64)
    timestamps = np.asarray(timestamps, dtype=np.int64)
    if len(pool_field_ids) == 0:
        raise DataError("cannot build a retrieval index over an empty pool")
    if np.any(timestamps[1:] < timestamps[:-1]):
        raise DataError("pool timestamps are not sorted")
    return RetrievalIndex(pool_field_ids, timestamps)


def bm25_score(index: RetrievalIndex, query_ids: np.ndarray, cand_ids: np.ndarray) -> float:
    """Score one query/candidate pair directly from the formula.

    Fields contribute in ascending field order; a field contributes only when
    the ids are equal and both non-zero.
    """
    total = 0.0
    for f in range(index.num_fields):
        q = int(query_ids[f])
        if q != 0 and q == int(cand_ids[f]):
            total += index.weight(f, q)
    return total


def _eligible_prefix(index: RetrievalIndex, eligibility: str, n_queries: int,
                     query_ts, query_index) -> np.ndarray:
    if eligibility == "all":
        return np.full(n_queries, index.pool_size, dtype=np.int64)
    if eligibility != "earlier":
        raise ValueError(f"eligibility must be one of {ELIGIBILITY}, got {eligibility!r}")
    if query_ts is None or query_index is None:
        raise ValueError("strictly-earlier eligibility needs the query's timestamp and index")
    query_ts = np.asarray(query_ts, dtype=np.int64)
    query_index = np.asarray(query_index, dtype=np.int64)
    if query_ts.shape != (n_queries,) or query_index.shape != (n_queries,):
        raise ValueError(f"strictly-earlier eligibility needs one timestamp and one index per "
                         f"query: got {query_ts.shape} and {query_index.shape} for "
                         f"{n_queries} queries")
    # every earlier timestamp, then the query's own timestamp below its index
    ts = index.timestamps
    return np.clip(query_index, np.searchsorted(ts, query_ts, "left"),
                   np.searchsorted(ts, query_ts, "right"))


def _top_k(index: RetrievalIndex, query_ids: np.ndarray, k: int, prefix: np.ndarray,
           block: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k positions (-1 on padding) and scores per query over its eligible
    prefix, by score desc then position desc."""
    nq = len(query_ids)
    positions = np.full((nq, k), -1, dtype=np.int64)
    scores = np.zeros((nq, k))
    n_real = np.minimum(prefix, k)
    weights = index._query_weights(query_ids)
    order = np.argsort(prefix, kind="stable")     # similar prefixes share a block
    size = min(block, nq) * int(prefix.max(initial=0))
    s_buf, t_buf, eq_buf = np.empty(size), np.empty(size), np.empty(size, dtype=bool)
    for lo in range(0, nq, block):
        rows = order[lo:lo + block]
        p = prefix[rows]
        m = int(p[-1])
        if m == 0:
            continue
        q, w = query_ids[rows], weights[rows]
        s, t, eq = (buf[:rows.size * m].reshape(rows.size, m) for buf in (s_buf, t_buf, eq_buf))
        s.fill(0.0)
        # a field no query in the block can match would add only zeros
        for f in np.flatnonzero(w.any(axis=0)):
            np.equal(index._cols[f, :m], q[:, f, None], out=eq)
            np.multiply(eq, w[:, f, None], out=t)
            s += t
        for r in np.flatnonzero(p < m):
            s[r, p[r]:] = -np.inf
        kk = min(k, m)
        tau = np.partition(s, m - kk, axis=1)[:, m - kk]
        # every candidate at or above the k-th score, ties included, in exact order
        np.greater_equal(s, tau[:, None], out=eq)
        flat = np.flatnonzero(eq)
        r, c = np.divmod(flat, m)
        sc = s.ravel()[flat]
        o = np.lexsort((-c, -sc, r))
        r, c, sc = r[o], c[o], sc[o]
        slot = np.arange(r.size) - np.searchsorted(r, r)
        keep = slot < n_real[rows][r]
        dest = rows[r[keep]], slot[keep]
        positions[dest] = c[keep]
        scores[dest] = sc[keep]
    return positions, scores


def retrieve(index: RetrievalIndex, query_ids: np.ndarray, k: int,
             eligibility: str = "all", query_ts: int | None = None,
             query_index: int | None = None) -> RetrievalResult:
    """Top-k pool neighbors for one query: a one-row retrieve_batch.

    eligibility "earlier" keeps the records strictly earlier than the query
    by (timestamp, record index), a prefix of the pool; "all" keeps the whole
    pool. Ties go to the newer timestamp, then the higher record index.
    """
    query_ids = np.asarray(query_ids, dtype=np.int64)
    if query_ids.shape != (index.num_fields,):
        raise ValueError(f"query_ids must have shape ({index.num_fields},), got {query_ids.shape}")
    return retrieve_batch(index, query_ids[None, :], k, eligibility,
                          None if query_ts is None else [query_ts],
                          None if query_index is None else [query_index])[0]


def retrieve_batch(index: RetrievalIndex, query_ids: np.ndarray, k: int,
                   eligibility: str = "all", query_ts: np.ndarray | None = None,
                   query_index: np.ndarray | None = None,
                   chunk_size: int = QUERY_BLOCK) -> list[RetrievalResult]:
    """Top-k pool neighbors for each row of query_ids, (queries, F).

    Queries are ordered by eligible prefix length and scored chunk_size at a
    time over the block's longest prefix, at O(queries x eligible pool x F).
    Results are bit-identical to per-query retrieve in any chunking.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    query_ids = np.asarray(query_ids, dtype=np.int64)
    if query_ids.ndim != 2 or query_ids.shape[1] != index.num_fields:
        raise ValueError(f"query_ids must have shape (queries, {index.num_fields}), "
                         f"got {query_ids.shape}")
    prefix = _eligible_prefix(index, eligibility, len(query_ids), query_ts, query_index)
    neighbors, scores = _top_k(index, query_ids, k, prefix, chunk_size)
    mask = neighbors >= 0
    return [RetrievalResult(neighbors[i], scores[i], mask[i]) for i in range(len(query_ids))]


def brute_force_retrieve(index: RetrievalIndex, query_ids: np.ndarray, k: int,
                         eligibility: str = "all", query_ts: int | None = None,
                         query_index: int | None = None) -> RetrievalResult:
    """Reference oracle: score every eligible candidate pairwise and sort by
    (score, timestamp, record index) descending. Independent of the prefix
    scorer: it assumes nothing of the pool's order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if eligibility == "all":
        eligible = np.arange(index.pool_size)
    elif eligibility == "earlier":
        if query_ts is None or query_index is None:
            raise ValueError("strictly-earlier eligibility needs the query's timestamp and index")
        ts, ridx = index.timestamps, index.record_indices
        eligible = np.flatnonzero((ts < query_ts) | ((ts == query_ts) & (ridx < query_index)))
    else:
        raise ValueError(f"eligibility must be one of {ELIGIBILITY}, got {eligibility!r}")
    scored = []
    for pos in eligible:
        s = bm25_score(index, query_ids, index.pool_field_ids[pos])
        scored.append((s, int(index.timestamps[pos]), int(index.record_indices[pos]), int(pos)))
    scored.sort(key=lambda t: (t[0], t[1], t[2]), reverse=True)
    top = scored[:k]
    r = len(top)
    ni = np.full(k, -1, dtype=np.int64)
    sc = np.zeros(k, dtype=np.float64)
    ni[:r] = [t[3] for t in top]
    sc[:r] = [t[0] for t in top]
    return RetrievalResult(ni, sc, np.arange(k) < r)


def save_index(index: RetrievalIndex, path: str) -> None:
    """Serialize the pool to the RATI v3 container, little-endian; every table
    scoring reads derives from it on load."""
    with binio.atomic_open(path) as f:
        f.write(INDEX_MAGIC)
        binio.write_u16(f, INDEX_VERSION)
        binio.write_u32(f, index.num_fields)
        binio.write_u64(f, index.pool_size)
        binio.write_array(f, index.timestamps, "<i8")
        binio.write_array(f, index.pool_field_ids, "<u4")


def load_index(path: str) -> RetrievalIndex:
    """Read a RATI v3 file and index its pool exactly as build_index does."""
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        magic = binio.read_exact(fh, 4)
        if magic != INDEX_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {INDEX_MAGIC!r}")
        version = binio.read_u16(fh)
        if version != INDEX_VERSION:
            raise DataError(f"{path}: unsupported index version {version} (this build reads "
                            f"{INDEX_VERSION}); rebuild it with `ractr build-index`")
        nf = binio.read_u32(fh)
        n = binio.read_u64(fh)
        timestamps = binio.read_array(fh, n, "<i8")
        pool_field_ids = binio.read_array(fh, n * nf, "<u4").reshape(n, nf)
        if fh.read(1):
            raise DataError(f"{path}: trailing bytes after index payload")
    return build_index(pool_field_ids, timestamps)


def index_from_dataset(ds) -> RetrievalIndex:
    """Index the train slice: the only leakage-safe reference pool."""
    te = ds.train_end
    return build_index(ds.field_ids[:te], ds.timestamps[:te])


def check_train_index(index: RetrievalIndex, ds) -> None:
    """DataError unless index is ds's train slice as index_from_dataset builds
    it: the same ids and timestamps."""
    te = ds.train_end
    if index.pool_size != te:
        raise DataError(f"index covers {index.pool_size} records, train slice has {te}")
    if not (np.array_equal(index.pool_field_ids, ds.field_ids[:te])
            and np.array_equal(index.timestamps, ds.timestamps[:te])):
        raise DataError("index was built from a different train slice; "
                        "rebuild it with `ractr build-index`")
