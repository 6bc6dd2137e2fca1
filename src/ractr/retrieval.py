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
in the block, in two passes. The first is approximate and cheap, and its
buffers are (pool row, query): each pool row's scores for the block's
queries are one contiguous row. Fields with at most NARROW_IDS distinct pool
ids are packed into groups, and each pool row holds one code per group that
spells its ids in the group's fields. A block builds, per group, a (code,
query) table of the query's summed match weights, and each pool row adds the
table's row of its code. A wider field holds each pool row's slot in the
field's distinct ids, and its (slot, query) table holds each query's weight
at its id's slot; each pool row adds the row of its slot. A row makes at
most L = groups + wide fields such lookups.

This pass runs in int16 fixed point. Query q's weights are scaled by
sigma_q = (2**15 - 2L) / sum_f |w_qf| in float64, and each table entry is
rounded to an integer, within 1/2 + eps of sigma_q times its real sum, eps
far below 1/(2L). The adds are exact integer arithmetic, no partial sum
passes 2**15 - 3L/2 in size, and a row's score s lands within L/2 + L eps
of sigma_q times its exact float64 score e. For any tau at most the k-th
largest s, every row x of the exact top-k then has s_x >= tau - L: x
outranks some row y of the approximate top-k (or is one), so s_x >= sigma_q
e_x - L/2 - L eps >= sigma_q e_y - L/2 - L eps >= s_y - L - 2L eps, with
s_y >= tau, and s_x is an integer. The block takes tau from FLOOR_GROUPS
interleaved groups of pool rows, row i in group i mod FLOOR_GROUPS: the k
largest group maxima are scores of k distinct rows, so the k-th largest of
them is such a tau. Only the groups whose maximum reaches the floor are
searched for candidates. The second pass rescores those candidates exactly
in float64, adding each field's weight in ascending field order from +0.0
as the per-pair sum does, and sorts them by (score desc, position desc). A
lower floor only adds candidates, so scores and neighbors are bitwise equal
to the per-pair sum and its order.

A query with no live weight (all its ids missing or unseen) scores +0.0
on every row, so its top-k is the last k rows of its prefix, newest first,
and it is given them without scoring.

Blocks are independent: parallel.deal spreads them over every usable core,
and each row's result is the same whichever share scores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import binio, parallel
from .errors import DataError

INDEX_MAGIC = b"RATI"
INDEX_VERSION = 3

ELIGIBILITY = ("earlier", "all")

# queries scored together. A block's int16 score and lookup buffers take 4
# bytes per query per pool row, in each worker, and its wide-field table 2
# bytes per query per distinct id of the widest field: 7.0 MB a worker on the
# 13,600-row pool. Neighbor tables of the two benchmark pools (seed 1; 6,000
# and 15,600 queries), medians of 8 alternating in-process rounds on 2 Xeon
# cores: blocks of 64 took 76.0 and 288.6 ms, 128 60.5 and 239.3 ms, faster
# in every round; on one core the big pool's took 290.6 and 290.1 ms.
QUERY_BLOCK = 128

# a field with at most this many distinct pool ids is narrow: its ids and 0
# fit one of GROUP_CODES codes. Narrow fields share a code in groups of at most
# GROUP_CODES id combinations.
NARROW_IDS = 255
GROUP_CODES = 256

# a block's top-k floor comes from the maxima of this many interleaved groups
# of pool rows, row i in group i mod FLOOR_GROUPS: one pass of whole-row
# maxima, 160 us for 13,568 rows of 64 queries, where contiguous 64-row
# segments took 431 us. Fewer groups search more rows in each group that
# reaches the floor. Tables of the two pools with float32 blocks of 64 took
# 0.103 and 0.394 s with 64 groups, 0.100 and 0.392 s with 128, 0.103 and
# 0.374 s with 256, and 0.120 and 0.403 s with 512. Taking tau from a
# contiguous (query, group) copy of the maxima was no faster in the rounds
# above: 62.9 and 246.9 ms at 128 on 2 cores, 285.4 ms on one.
FLOOR_GROUPS = 256

# candidate rows rescored together: at most 4,096 x F terms at a time
RESCORE_CHUNK = 4096

# the approximate pass's int16 fill of ineligible and padding rows, below
# every real score: |score| <= 2**15 - 3L/2 with L >= 1 lookups
FILL = -2**15
# a row makes at most this many lookups, so that 2L < 2**15 and sigma_q > 0
MAX_LOOKUPS = 2**14 - 1


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
        # digits, the first field's the most significant. Codes and wide
        # columns are intp, so a lookup by them converts no indices.
        radix = [v.size for v, _ in per_field]
        self._narrow = np.array([f for f, v in enumerate(terms) if v.size <= NARROW_IDS], np.int64)
        self._wide = np.setdiff1d(np.arange(self.num_fields), self._narrow)
        # each wide field's pool column as its ids' slots in the field's
        # distinct ids, and the most distinct ids of any wide field
        self._cols = {f: np.searchsorted(per_field[f][0], cols[f]) for f in self._wide.tolist()}
        self._wide_slots = max((radix[f] for f in self._cols), default=0)
        starts, width = [], GROUP_CODES + 1
        for j, f in enumerate(self._narrow):
            if width * radix[f] > GROUP_CODES:
                starts.append(j)
                width = 1
            width *= radix[f]
        # each group as a slice of the narrow fields, with one code per pool row
        self._groups = [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [self._narrow.size])]
        self._group_codes = []
        for group in self._groups:
            fields = self._narrow[group]
            r = [radix[f] for f in fields]
            stride = np.cumprod([1] + r[:0:-1])[::-1]     # product of the radices after each
            self._group_codes.append(sum(np.searchsorted(per_field[f][0], cols[f]) * st
                                         for f, st in zip(fields, stride)))
        # narrow field j's slots are rows _offsets[j] .. _offsets[j + 1] - 1 of
        # a block's one-hot table. A group's leading and trailing halves of
        # fields each get a (digit combination, field) grid of one-hot rows,
        # combinations in code order, so a code is lead * (trail count) + trail.
        sizes = np.array(radix, np.int64)[self._narrow]
        self._offsets = np.cumsum(np.append(0, sizes))
        halves = [np.array_split(np.arange(g.start, g.stop), 2) for g in self._groups]
        self._grids = [[np.indices(sizes[js], np.intp).reshape(js.size, math.prod(sizes[js])).T
                        + self._offsets[js] for js in pair] for pair in halves]
        # lookups a pool row makes in the approximate pass: L
        self._lookups = len(self._groups) + self._wide.size
        if self._lookups > MAX_LOOKUPS:
            raise DataError(f"a retrieval index makes at most {MAX_LOOKUPS:,} lookups a row (one "
                            f"a group of narrow fields, one a field of over {NARROW_IDS} ids); "
                            f"this pool needs {self._lookups:,}")

    def _query_terms(self, query_ids: np.ndarray) -> np.ndarray:
        """(queries, F) flat term of each id; the sentinel where it matches no
        pool record."""
        slot = np.minimum(np.searchsorted(self._vocab, query_ids), self._vocab.size - 1)
        key = np.arange(self.num_fields) * self._vocab.size + slot
        term = np.searchsorted(self._term_key, key)
        hit = (self._term_key[term] == key) & (self._vocab[slot] == query_ids)
        return np.where(hit, term, self.num_terms)


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
    one_hot_rows: np.ndarray    # (queries, narrow fields) each id's row of the one-hot table
    slots: np.ndarray           # (queries, F) each id's slot, 0 where nothing matches


def _scales(index: RetrievalIndex, weights: np.ndarray) -> np.ndarray:
    """Per query with a live weight, sigma_q = (2**15 - 2L) / sum_f |w_qf|:
    it scales the query's scores into int16 with room for L roundings."""
    return (2**15 - 2 * index._lookups) / np.abs(weights).sum(axis=1)


def _approximate_scores(index: RetrievalIndex, queries: _Queries, rows: np.ndarray,
                        s: np.ndarray, t: np.ndarray, by_code: np.ndarray,
                        by_slot: np.ndarray) -> None:
    """Fill s (prefix x rows, int16) with the block's scores in fixed point.

    Each query's weights are scaled by sigma_q (_scales) in float64, and a
    one-hot table holds each narrow field's scaled weight at its id's slot
    and zeros elsewhere. A group's (code, query) table is the outer sum of
    its two halves' tables, each the sum of its fields' one-hot rows over
    its grid, rounded to int16, and each pool row copies its code's row. A
    wide field's (slot, query) table holds each query's rounded scaled
    weight at its id's slot and zeros elsewhere, and each pool row copies
    the row of its slot. Each score is within L/2 + L eps of sigma_q times
    the exact one.
    """
    m, nq = s.shape
    w = queries.weights[rows]
    w *= _scales(index, w)[:, None]
    w_narrow = w[:, index._narrow]
    each = np.arange(nq)
    one_hot = np.zeros((index._offsets[-1], nq))
    one_hot[queries.one_hot_rows[rows], each[:, None]] = w_narrow
    first = True
    for g, (lead, trail) in enumerate(index._grids):
        if not w_narrow[:, index._groups[g]].any():     # it would add only zeros
            continue
        table = (one_hot[lead].sum(axis=1)[:, None] + one_hot[trail].sum(axis=1)).reshape(-1, nq)
        codes = by_code[:table.size].reshape(table.shape)
        np.rint(table, out=codes, casting="unsafe")
        np.take(codes, index._group_codes[g][:m], axis=0, out=s if first else t, mode="clip")
        if not first:
            s += t
        first = False
    if first:
        s.fill(0)
    # by_slot is all zeros between fields: each query sets, then resets, only
    # its own column, so queries that share an id share its row; a
    # weightless query writes 0 at slot 0
    table = by_slot[:index._wide_slots * nq].reshape(index._wide_slots, nq)
    for f in index._wide[w[:, index._wide].any(axis=0)].tolist():
        slot = queries.slots[rows, f]
        table[slot, each] = np.rint(w[:, f])
        np.take(table, index._cols[f][:m], axis=0, out=t, mode="clip")
        table[slot, each] = 0
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
        score[part] = np.cumsum(terms, axis=1)[:, -1]
    return score


def _floor_groups(k: int, m: int) -> tuple[int, int]:
    """(groups, rows per group) for a block of m eligible rows: at least k
    groups, as the floor needs, and never more than m."""
    groups = min(max(FLOOR_GROUPS, k), m)
    return groups, -(-m // groups)


def _score_blocks(index: RetrievalIndex, queries: _Queries, prefix: np.ndarray,
                  positions: np.ndarray, scores: np.ndarray, blocks: list[np.ndarray]) -> None:
    """Score each block of query rows (ascending prefix, longest last) with
    this worker's own buffers, writing only those rows of positions/scores."""
    k = positions.shape[1]
    size = max(rows.size * groups * h for rows in blocks
               for groups, h in [_floor_groups(k, int(prefix[rows[-1]]))])
    s_buf, t_buf = np.empty(size, np.int16), np.empty(size, np.int16)
    most = max(rows.size for rows in blocks)
    by_code = np.empty(most * GROUP_CODES, np.int16)
    by_slot = np.zeros(index._wide_slots * most, np.int16)
    for rows in blocks:
        nq = rows.size
        p = prefix[rows]
        m = int(p[-1])
        groups, h = _floor_groups(k, m)
        # rows m and past pad s to h x groups rows and are never eligible
        s = s_buf[:h * groups * nq].reshape(h * groups, nq)
        t = t_buf[:m * nq].reshape(m, nq)
        _approximate_scores(index, queries, rows, s[:m], t, by_code, by_slot)
        s[m:] = FILL
        lo = int(p[0])  # rows past a query's own prefix are not eligible for it
        if lo < m:
            np.copyto(s[lo:m], FILL, where=np.arange(lo, m)[:, None] >= p)
        kk = min(k, m)
        # The kk largest group maxima are the scores of kk distinct rows, so
        # the kk-th largest of them, tau, is at most the kk-th largest score.
        by_group = s.reshape(h, groups, nq)
        top = by_group.max(axis=0)
        tau = np.partition(top, groups - kk, axis=0)[groups - kk]
        # Every row of the exact top-k scores at least tau - L in s (see the
        # module docstring). The floor stays above FILL, which keeps
        # ineligible rows out when fewer than kk are eligible.
        lookups = index._lookups
        floor = np.maximum(tau, FILL + 1 + lookups) - lookups
        # only the groups whose maximum reaches the floor hold candidates
        g, r = np.nonzero(top >= floor)
        i, j = np.nonzero(by_group[:, g, r] >= floor[r])
        c, r = i * groups + g[j], r[j]
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
    longest prefix: a lookup per field group and per wide field for each
    eligible row, then an exact rescoring of the rows that reach a floor
    below the k-th score. parallel.deal spreads the blocks round-robin over
    the usable cores, which gives each share some short and some long
    prefixes. Results are bit-identical to per-query retrieve for any block
    size and on any number of cores.
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
        slots = index._term_slot[terms]
        queries = _Queries(query_ids, weights, slots[:, index._narrow] + index._offsets[:-1],
                           slots)
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
