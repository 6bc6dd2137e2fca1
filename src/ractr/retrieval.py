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
of the query's own timestamp below the query's index.

Queries are scored a small block at a time over the longest eligible prefix
in the block, in two passes. The first is approximate and cheap. Fields with
at most NARROW_IDS distinct pool ids are packed into groups, and each pool
row holds one uint8 code per group that spells its ids in the group's
fields. A block builds, per group, a (query, code) table of the query's
summed match weights, and a row's approximate score is one table lookup per
group plus a dense compare pass per wider field. This pass runs in float32,
which halves the bytes it moves: it adds the same weights as the formula,
each rounded to float32, in another order, so each approximate score is
within e_q = gamma_F(2**-24) * sum_f |w_qf| of the real sum (Higham 2002,
ch. 3-4), and _slack bounds its distance from the exact float64 sum. Every
row of the exact top-k therefore scores at least tau - 2 slack_q
approximately, where tau is the k-th largest approximate score. The second
pass rescores just those rows exactly in float64, adding each field's
weight in ascending field order from +0.0 as the per-pair sum does, and
sorts them by (score desc, position desc). Scores and neighbors are bitwise
equal to the per-pair sum and its order.

A query with no live weight (all its ids missing or unseen) scores +0.0
on every row, so its top-k is the last k rows of its prefix, newest first,
and it is given them without scoring.

Blocks are independent: parallel.deal spreads them over every usable core,
and each row's result is the same whichever share scores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import binio, parallel
from .errors import DataError

INDEX_MAGIC = b"RATI"
INDEX_VERSION = 3

ELIGIBILITY = ("earlier", "all")

# queries scored together. A block's float32 score and lookup buffers and
# its match buffer take 9 bytes per query per pool row, in each worker.
# Neighbor tables of the two benchmark pools (seed 1; 6,000 and 15,600
# queries) on 2 Xeon cores, median of 9 interleaved rounds: blocks of 16 took
# 0.25 and 0.93 s, 32 0.18 and 0.79 s, 64 0.15 and 0.73 s. Each doubling
# halves the per-block table and call overhead but doubles the buffers; 32
# keeps them at 3.9 MB a worker on the 13,600-row pool, as 16 float64
# queries (17 bytes a row) took before.
QUERY_BLOCK = 32

# a field with at most this many distinct pool ids is narrow: its ids and 0
# fit one uint8 code. Narrow fields share a code in groups of at most
# GROUP_CODES id combinations.
NARROW_IDS = 255
GROUP_CODES = 256

# candidate rows rescored together: at most 4,096 x F terms at a time
RESCORE_CHUNK = 4096

# pool column dtypes, narrowest first, with the largest id each holds
COLUMN_DTYPES = tuple((d, int(np.iinfo(d).max)) for d in (np.uint8, np.uint16, np.uint32))


@dataclass
class RetrievalResult:
    """Top-k neighbors padded to exactly k slots: (queries, k) arrays from
    retrieve_batch, one query's (k,) arrays from retrieve and
    brute_force_retrieve.

    neighbor_indices holds record indices (pool positions), -1 on padded
    slots; scores are 0.0 on padded slots; mask marks real neighbors, which
    always precede padding.
    """
    neighbor_indices: np.ndarray
    scores: np.ndarray
    mask: np.ndarray


class RetrievalIndex:
    """A fixed pool of encoded records in time order, record index = position,
    with the term and weight tables derived from its ids that scoring reads."""

    def __init__(self, pool_field_ids: np.ndarray, timestamps: np.ndarray):
        self.pool_size, self.num_fields = pool_field_ids.shape
        self.pool_field_ids = pool_field_ids
        self.timestamps = timestamps
        n = self.pool_size
        self.record_indices = np.arange(n)       # row p is record p
        cols = np.ascontiguousarray(pool_field_ids.T)
        # per field: its sorted distinct pool ids (0 too, when present) and counts
        per_field = [np.unique(col, return_counts=True) for col in cols]
        is_term = [v != 0 for v, _ in per_field]
        terms = [v[t] for (v, _), t in zip(per_field, is_term)]
        # flat term tables, field-major then value-ascending; id 0 is never a term
        term_field = np.repeat(np.arange(self.num_fields), [v.size for v in terms])
        term_value = np.concatenate([np.empty(0, np.int64)] + terms)
        df = np.concatenate([np.empty(0, np.int64)]
                            + [d[t] for (_, d), t in zip(per_field, is_term)])
        self.num_terms = term_value.size
        # (field, id) -> one ascending key, so a single search finds a term in any
        # field: the id's slot in the vocabulary (which holds 0, never a term),
        # offset by field. Key and weight tables end with a sentinel (weight 0.0)
        # whose key is past every real one.
        self._term_weight = np.append(np.log((n - df + 0.5) / (df + 0.5)), 0.0)
        self._vocab = np.unique(np.append(term_value, 0))
        self._term_key = np.append(
            term_field * self._vocab.size + np.searchsorted(self._vocab, term_value),
            self.num_fields * self._vocab.size)
        # each term's slot in its field's distinct ids; the sentinel's is 0
        self._term_slot = np.concatenate([np.empty(0, np.int64)]
                                         + [np.flatnonzero(t) for t in is_term] + [[0]])
        # Narrow fields (at most NARROW_IDS terms) are packed greedily, in field
        # order, into groups of at most GROUP_CODES id combinations. A row's
        # group code holds its ids' slots in the group's fields as mixed-radix
        # digits, and _digits holds each narrow field's digit of every code.
        radix = [v.size for v, _ in per_field]
        self._narrow = np.array([f for f, v in enumerate(terms) if v.size <= NARROW_IDS], np.int64)
        self._wide = np.setdiff1d(np.arange(self.num_fields), self._narrow)
        # each wide field's pool column in the narrowest dtype that holds its ids
        self._cols = {f: cols[f].astype(_column_dtype(terms[f])) for f in self._wide.tolist()}
        starts, width = [], GROUP_CODES + 1
        for j, f in enumerate(self._narrow):
            if width * radix[f] > GROUP_CODES:
                starts.append(j)
                width = 1
            width *= radix[f]
        # each group as a slice of the narrow fields, with one code per pool row
        self._groups = [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [self._narrow.size])]
        self._group_codes, digits = [], []
        for group in self._groups:
            fields = self._narrow[group]
            r = [radix[f] for f in fields]
            stride = np.cumprod([1] + r[:0:-1])[::-1]     # product of the radices after each
            self._group_codes.append(sum(np.searchsorted(per_field[f][0], cols[f]) * st
                                         for f, st in zip(fields, stride)).astype(np.uint8))
            digits += [np.arange(GROUP_CODES) // st % rf for rf, st in zip(r, stride)]
        self._digits = np.array(digits, np.uint8).reshape(len(digits), GROUP_CODES)

    def _query_terms(self, query_ids: np.ndarray) -> np.ndarray:
        """(queries, F) flat term of each id; the sentinel where it matches no
        pool record."""
        slot = np.minimum(np.searchsorted(self._vocab, query_ids), self._vocab.size - 1)
        key = np.arange(self.num_fields) * self._vocab.size + slot
        term = np.searchsorted(self._term_key, key)
        hit = (self._term_key[term] == key) & (self._vocab[slot] == query_ids)
        return np.where(hit, term, self.num_terms)


def _column_dtype(terms: np.ndarray) -> type:
    """The narrowest unsigned dtype that holds a field's ids, given its sorted
    non-zero ids; int64 when one is negative or past uint32."""
    lo, hi = (int(terms[0]), int(terms[-1])) if terms.size else (0, 0)
    return next((d for d, top in COLUMN_DTYPES if lo >= 0 and hi <= top), np.int64)


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


def _counted_weights(index: RetrievalIndex, query_ids: np.ndarray) -> list[float]:
    """Each query id's match weight, from its count in the pool's field."""
    df = np.count_nonzero(index.pool_field_ids == np.asarray(query_ids, dtype=np.int64), axis=0)
    return np.log((index.pool_size - df + 0.5) / (df + 0.5)).tolist()


def _pair_score(weights: list[float], query_ids: np.ndarray, cand_ids: np.ndarray) -> float:
    total = 0.0
    for f, w in enumerate(weights):
        q = int(query_ids[f])
        if q != 0 and q == int(cand_ids[f]):
            total += w
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


@dataclass
class _Queries:
    """A batch's queries as the block workers read them, one row a query."""
    ids: np.ndarray             # (queries, F) int64
    weights: np.ndarray         # (queries, F) match weights, 0.0 where nothing matches
    digits: np.ndarray          # (queries, narrow fields) each id's slot, uint8
    slack: np.ndarray           # (queries,) bound on |approximate - exact| score


def _slack(weights: np.ndarray) -> np.ndarray:
    """Per query, a bound on |approximate - exact| score over every pool row.

    Both add the same at most F of the query's match weights w; call their
    real sum x. The approximate pass rounds each weight to float32 (relative
    error at most u = 2**-24) and adds the rounded terms in float32, in some
    order (at most F - 1 more roundings), so it lands within gamma_F(2**-24)
    * sum |w| of x, where gamma_n(u) = n*u / (1 - n*u) (Higham 2002, ch. 3-4,
    lemma 3.3). The exact pass adds the float64 weights in float64, within
    gamma_F(2**-53) * sum |w| of x.

    A rounded weight keeps that relative error only if it is a normal
    float32, and it is: w = ln((N - n + 0.5) / (n + 0.5)) is exactly 0 when
    N = 2n, and otherwise |w| >= 1 / (N + 0.5), far above float32's smallest
    normal 2**-126 for any pool an int64 can count.

    The bound adds the two errors, taking gamma at F + 3 for float32: the
    extra 3 * 2**-24 * sum |w| covers the float64 rounding of this bound and
    of the threshold built from it. It then doubles the sum as a margin,
    which adds next to no rescored rows: rows that close are nearly all
    exact ties, rescored anyway.
    """
    f = weights.shape[1]
    total = np.abs(weights).sum(axis=1)
    return 2 * (_gamma(f + 3, 2.0 ** -24) + _gamma(f, 2.0 ** -53)) * total


def _gamma(n: int, u: float) -> float:
    return n * u / (1 - n * u)


def _approximate_scores(index: RetrievalIndex, queries: _Queries, rows: np.ndarray,
                        s: np.ndarray, t: np.ndarray, eq: np.ndarray, match: np.ndarray,
                        tables: np.ndarray) -> None:
    """Fill s (rows x prefix, float32) with the block's scores up to rounding.

    Each group gets a (query, code) table, the sum of the query's weights on
    the group's fields whose digit of the code is the query's slot, and is
    read with one lookup of its pool codes. Wide fields add a dense pass.
    Weights, tables and buffers are float32, within _slack of the exact sum.
    """
    m = s.shape[1]
    w = queries.weights[rows].astype(np.float32)
    w_narrow = w[:, index._narrow]
    np.equal(index._digits, queries.digits[rows, :, None], out=match)
    first = True
    for g, group in enumerate(index._groups):
        if not w_narrow[:, group].any():        # it would add only zeros
            continue
        np.einsum("qfc,qf->qc", match[:, group], w_narrow[:, group], out=tables[:, g])
        np.take(tables[:, g], index._group_codes[g][:m], axis=1, out=s if first else t,
                mode="clip")
        if not first:
            s += t
        first = False
    if first:
        s.fill(0.0)
    for f in index._wide[w[:, index._wide].any(axis=0)].tolist():
        # A query id the column's dtype cannot hold wrapped in the cast and
        # may "match" a pool id here. It is in no pool record, so its weight
        # is +0.0, and a match adds 1 * +0.0, exactly what a mismatch adds.
        col = index._cols[f]
        np.equal(col[:m], queries.ids[rows, f, None].astype(col.dtype), out=eq)
        np.multiply(eq, w[:, f, None], out=t)
        s += t


def _exact_scores(index: RetrievalIndex, queries: _Queries, live: np.ndarray,
                  q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Score query q[i] against pool row c[i] as the formula does: each live
    field's term in ascending field order, from +0.0. A field with no weight
    in any of these queries would add +0.0, which changes no sum that starts
    from +0.0. Rows are scored RESCORE_CHUNK at a time, which bounds memory
    when nearly every row ties."""
    score = np.zeros(c.size)
    for lo in range(0, c.size, RESCORE_CHUNK):
        part = slice(lo, lo + RESCORE_CHUNK)
        qq, cc = q[part, None], c[part, None]
        terms = np.where(index.pool_field_ids[cc, live] == queries.ids[qq, live],
                         queries.weights[qq, live], 0.0)
        for j in range(live.size):
            score[part] += terms[:, j]
    return score


def _score_blocks(index: RetrievalIndex, queries: _Queries, prefix: np.ndarray,
                  positions: np.ndarray, scores: np.ndarray, blocks: list[np.ndarray]) -> None:
    """Score each block of query rows (ascending prefix, longest last) with
    this worker's own buffers, writing only those rows of positions/scores."""
    size = max(rows.size * int(prefix[rows[-1]]) for rows in blocks)
    s_buf, t_buf = np.empty(size, np.float32), np.empty(size, np.float32)
    eq_buf = np.empty(size, dtype=bool)
    most = max(rows.size for rows in blocks)
    match = np.empty((most, *index._digits.shape), dtype=bool)
    tables = np.empty((most, len(index._groups), GROUP_CODES), np.float32)
    for rows in blocks:
        p = prefix[rows]
        m = int(p[-1])
        s, t, eq = (buf[:rows.size * m].reshape(rows.size, m) for buf in (s_buf, t_buf, eq_buf))
        _approximate_scores(index, queries, rows, s, t, eq, match[:rows.size], tables[:rows.size])
        for r in np.flatnonzero(p < m):
            s[r, p[r]:] = -np.inf
        kk = min(positions.shape[1], m)
        np.copyto(t, s)
        t.partition(m - kk, axis=1)
        # Every row of the exact top-k scores at least this in s: a row x of
        # it outranks some row y of the approximate top-k (or is one), so
        # s_x >= exact_x - slack >= exact_y - slack >= s_y - 2 slack. The
        # floor is float64, and so is the comparison. It keeps ineligible
        # rows out when fewer than kk are eligible.
        floor = np.maximum(t[:, m - kk] - 2 * queries.slack[rows], -np.finfo(np.float64).max)
        np.greater_equal(s, floor[:, None], out=eq)
        r, c = np.divmod(np.flatnonzero(eq), m)
        live = np.flatnonzero(queries.weights[rows].any(axis=0))
        sc = _exact_scores(index, queries, live, rows[r], c)
        # the candidates in exact order: score desc, then position desc
        o = np.lexsort((-c, -sc, r))
        r, c, sc = r[o], c[o], sc[o]
        slot = np.arange(r.size) - np.searchsorted(r, r)
        keep = slot < np.minimum(p, kk)[r]
        dest = rows[r[keep]], slot[keep]
        positions[dest] = c[keep]
        scores[dest] = sc[keep]


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
    res = retrieve_batch(index, query_ids[None, :], k, eligibility,
                         None if query_ts is None else [query_ts],
                         None if query_index is None else [query_index])
    return RetrievalResult(res.neighbor_indices[0], res.scores[0], res.mask[0])


def retrieve_batch(index: RetrievalIndex, query_ids: np.ndarray, k: int,
                   eligibility: str = "all", query_ts: np.ndarray | None = None,
                   query_index: np.ndarray | None = None) -> RetrievalResult:
    """Top-k pool neighbors for each row of query_ids, (queries, F), as one
    result of (queries, k) arrays, by score desc then position desc.

    A query with no live weight gets the last k rows of its prefix, newest
    first, at +0.0. The others are ordered by eligible prefix length, so
    similar prefixes share a block of QUERY_BLOCK, scored over the block's
    longest prefix: a lookup per field group and a compare per wide field for
    each eligible row, then an exact rescoring of the rows near the k-th
    score. parallel.deal spreads the blocks round-robin over the usable
    cores, which gives each share some short and some long prefixes. Results
    are bit-identical to per-query retrieve for any block size and on any
    number of cores.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query_ids = np.asarray(query_ids, dtype=np.int64)
    if query_ids.ndim != 2 or query_ids.shape[1] != index.num_fields:
        raise ValueError(f"query_ids must have shape (queries, {index.num_fields}), "
                         f"got {query_ids.shape}")
    nq = len(query_ids)
    prefix = _eligible_prefix(index, eligibility, nq, query_ts, query_index)
    positions = np.full((nq, k), -1, dtype=np.int64)
    scores = np.zeros((nq, k))
    terms = index._query_terms(query_ids)
    weights = index._term_weight[terms]
    order = np.argsort(prefix, kind="stable")
    live = weights.any(axis=1)
    if not live.all():
        # a weightless query ties at +0.0 on every row, so the newest rows of
        # its prefix win (scores are +0.0 already); it joins no block
        newest = prefix[:, None] - 1 - np.arange(k)
        fill = ~live[:, None] & (newest >= 0)
        positions[fill] = newest[fill]
        order = order[live[order]]
    # a block with nothing eligible is all padding already
    blocks = [rows for rows in (order[lo:lo + QUERY_BLOCK]
                                for lo in range(0, order.size, QUERY_BLOCK))
              if prefix[rows[-1]] > 0]
    if blocks:
        queries = _Queries(query_ids, weights,
                           index._term_slot[terms[:, index._narrow]].astype(np.uint8),
                           _slack(weights))
        parallel.deal(partial(_score_blocks, index, queries, prefix, positions, scores), blocks)
    return RetrievalResult(positions, scores, positions >= 0)


def brute_force_retrieve(index: RetrievalIndex, query_ids: np.ndarray, k: int,
                         eligibility: str = "all", query_ts: int | None = None,
                         query_index: int | None = None) -> RetrievalResult:
    """Reference oracle: score every eligible candidate pairwise and sort by
    (score, timestamp, record index) descending. Independent of the prefix
    scorer: it assumes nothing of the pool's order, and it weighs each query
    id by counting it in the pool rather than by the index's tables."""
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
    weights = _counted_weights(index, query_ids)
    scored = []
    for pos in eligible:
        s = _pair_score(weights, query_ids, index.pool_field_ids[pos])
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
    with binio.writing(path, INDEX_MAGIC, INDEX_VERSION) as f:
        binio.write_u32(f, index.num_fields)
        binio.write_u64(f, index.pool_size)
        binio.write_array(f, index.timestamps, "<i8")
        binio.write_array(f, index.pool_field_ids, "<u4")


def load_index(path: str) -> RetrievalIndex:
    """Read a RATI v3 file and index its pool exactly as build_index does."""
    hint = f" (this build reads {INDEX_VERSION}); rebuild it with `ractr.retrieval.save_index`"
    with binio.reading(path, INDEX_MAGIC, INDEX_VERSION, "index", hint) as fh:
        nf = binio.read_u32(fh)
        n = binio.read_u64(fh)
        timestamps = binio.read_array(fh, n, "<i8")
        pool_field_ids = binio.read_array(fh, n * nf, "<u4").reshape(n, nf)
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
                        "rebuild it with `ractr.retrieval.index_from_dataset`")
