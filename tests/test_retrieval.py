"""Match-weight values, index invariants, top-k correctness, leakage."""

import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from helpers import bm25_score, random_dataset
from ractr import parallel, retrieval
from ractr.errors import DataError
from ractr.retrieval import (
    ELIGIBILITY,
    _score_blocks,
    brute_force_retrieve,
    build_index,
    index_from_dataset,
    load_index,
    retrieve,
    retrieve_batch,
    save_index,
)
from ractr.synthetic import majority_task


def small_index():
    # pool of 4, one field: value 1 appears once, value 2 three times
    ids = np.array([[1], [2], [2], [2]])
    return build_index(ids, np.arange(4))


def table_weight(idx, f, v):
    """The scorer's match weight for id v in field f; 0.0 when it matches no
    pool record."""
    q = np.zeros((1, idx.num_fields), dtype=np.int64)
    q[0, f] = v
    return float(idx._term_weight[idx._query_terms(q)[0, f]])


def random_index(rng, n, nf, vocab):
    ids = rng.integers(0, vocab + 1, size=(n, nf))
    ts = rng.integers(0, max(2, n // 2), size=n)
    order = np.argsort(ts, kind="stable")
    return build_index(ids[order], ts[order])


# ---------------------------------------------------------------- weights

def test_weight_matches_hand_computation():
    idx = small_index()
    # N=4, df=1: ln(3.5/1.5); df=3: ln(1.5/3.5)
    assert table_weight(idx, 0, 1) == pytest.approx(0.8472978603872034, abs=1e-12)
    assert table_weight(idx, 0, 2) == pytest.approx(-0.8472978603872034, abs=1e-12)
    assert table_weight(idx, 0, 1) == pytest.approx(math.log(3.5 / 1.5), abs=1e-15)


def test_weight_for_unseen_value_uses_zero_df():
    # the oracle counts each query id in the pool: an unseen id has df 0
    idx = small_index()
    assert retrieval._counted_weights(idx, np.array([99])) == [math.log(4.5 / 0.5)]
    assert table_weight(idx, 0, 99) == 0.0      # the scorer's table: it can match nothing


def test_negative_scores_are_kept_not_filtered():
    idx = small_index()
    res = retrieve(idx, np.array([2]), k=4)
    # the non-match (record 0, score 0) outranks the negative matches, but
    # all four slots still fill: nothing is dropped by a score threshold
    assert res.mask.sum() == 4
    assert res.neighbor_indices.tolist() == [0, 3, 2, 1]
    assert res.scores[0] == 0.0
    assert (res.scores[1:] < 0).all()


def test_doc_freq_matches_posting_lengths():
    # df is the length of a (field, value)'s posting list, built here by scanning
    rng = np.random.default_rng(0)
    idx = random_index(rng, 200, 4, 8)
    n = idx.pool_size
    postings = {(f, v): [p for p in range(n) if idx.pool_field_ids[p, f] == v]
                for f in range(4) for v in range(1, 9)}
    for (f, v), positions in postings.items():
        want = math.log((n - len(positions) + 0.5) / (len(positions) + 0.5))
        assert table_weight(idx, f, v) == pytest.approx(want, abs=1e-15)
    assert idx.num_terms == sum(1 for positions in postings.values() if positions)


def test_id_zero_never_indexed():
    ids = np.array([[0, 1], [0, 0], [2, 0]])
    idx = build_index(ids, np.arange(3))
    assert idx.num_terms == 2
    # a query of all zeros matches nothing: scores stay zero, order is recency
    res = retrieve(idx, np.array([0, 0]), k=3)
    assert res.scores.tolist() == [0.0, 0.0, 0.0]
    assert res.neighbor_indices.tolist() == [2, 1, 0]


def test_pool_without_terms_scores_zero():
    idx = build_index(np.zeros((3, 2), dtype=np.int64), np.arange(3))
    assert idx.num_terms == 0
    for q in ([0, 0], [1, 2]):
        res = retrieve(idx, np.array(q), k=4)
        assert res.neighbor_indices.tolist() == [2, 1, 0, -1]
        assert res.scores.tolist() == [0.0] * 4


def test_score_only_on_equal_nonzero_ids():
    ids = np.array([[1, 3], [1, 4], [2, 3]])
    idx = build_index(ids, np.arange(3))
    q = np.array([1, 3])
    assert bm25_score(idx, q, ids[0]) == pytest.approx(
        table_weight(idx, 0, 1) + table_weight(idx, 1, 3))
    assert bm25_score(idx, q, ids[1]) == pytest.approx(table_weight(idx, 0, 1))
    assert bm25_score(idx, q, ids[2]) == pytest.approx(table_weight(idx, 1, 3))
    assert bm25_score(idx, np.array([0, 0]), ids[0]) == 0.0


def test_empty_pool_rejected():
    with pytest.raises(DataError, match="empty pool"):
        build_index(np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64))


def test_build_index_rejects_unsorted_timestamps():
    # a pool is a chronological log: record i is row i, timestamps never decrease
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 7, size=(120, 4))
    with pytest.raises(DataError, match="timestamps are not sorted"):
        build_index(ids, rng.integers(0, 40, size=120))
    with pytest.raises(DataError, match="timestamps are not sorted"):
        build_index(ids[:3], np.array([4, 4, 3]))
    assert build_index(ids[:3], np.array([3, 4, 4])).pool_size == 3


# ---------------------------------------------------------------- top-k

def test_tie_breaks_prefer_recent_then_higher_index():
    # all four records identical, so scores tie; ts ties split by record index
    ids = np.ones((4, 1), dtype=np.int64)
    idx = build_index(ids, np.array([3, 5, 7, 7]))
    res = retrieve(idx, np.array([1]), k=4)
    assert res.neighbor_indices.tolist() == [3, 2, 1, 0]
    # inside the ts-7 run, only the lower record index is strictly earlier
    res = retrieve(idx, np.array([1]), k=4, eligibility="earlier", query_ts=7, query_index=3)
    assert res.neighbor_indices.tolist() == [2, 1, 0, -1]


def test_padding_when_pool_smaller_than_k():
    idx = small_index()
    res = retrieve(idx, np.array([1]), k=10)
    assert res.mask.sum() == 4
    assert res.neighbor_indices[4:].tolist() == [-1] * 6
    assert res.scores[4:].tolist() == [0.0] * 6
    assert not res.mask[4:].any()
    assert res.mask[:4].all()


def test_k_must_be_positive():
    idx = small_index()
    with pytest.raises(ValueError, match="k must be >= 1"):
        retrieve(idx, np.array([1]), k=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        retrieve_batch(idx, np.array([[1]]), k=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        brute_force_retrieve(idx, np.array([1]), k=-1)


def test_matches_brute_force_on_seeded_pools():
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(5, 300))
        nf = int(rng.integers(1, 6))
        vocab = int(rng.integers(2, 15))
        idx = random_index(rng, n, nf, vocab)
        k = int(rng.choice([1, 5, 10]))
        for _ in range(4):
            q = rng.integers(0, vocab + 1, size=nf)
            fast = retrieve(idx, q, k)
            slow = brute_force_retrieve(idx, q, k)
            assert fast.neighbor_indices.tolist() == slow.neighbor_indices.tolist()
            np.testing.assert_allclose(fast.scores, slow.scores, atol=1e-12, rtol=0)
            assert fast.mask.tolist() == slow.mask.tolist()


def test_batch_is_bitwise_identical_to_single(monkeypatch):
    monkeypatch.setattr(retrieval, "QUERY_BLOCK", 17)
    rng = np.random.default_rng(7)
    idx = random_index(rng, 400, 5, 10)
    queries = rng.integers(0, 11, size=(100, 5))
    ts = idx.timestamps[rng.integers(0, 400, size=100)]
    ridx = rng.integers(0, 400, size=100)
    for elig, qts, qri in (("all", None, None), ("earlier", ts, ridx)):
        batched = retrieve_batch(idx, queries, k=5, eligibility=elig,
                                 query_ts=qts, query_index=qri)
        # one result of (queries, k) arrays
        assert batched.neighbor_indices.shape == batched.scores.shape == (100, 5)
        assert batched.mask.shape == (100, 5)
        for i in range(len(queries)):
            one = retrieve(idx, queries[i], k=5, eligibility=elig,
                           query_ts=None if qts is None else int(qts[i]),
                           query_index=None if qri is None else int(qri[i]))
            assert one.neighbor_indices.shape == (5,)
            assert batched.neighbor_indices[i].tolist() == one.neighbor_indices.tolist()
            assert batched.mask[i].tolist() == one.mask.tolist()
            assert batched.scores[i].tolist() == one.scores.tolist()  # bitwise


def test_partition_narrowing_agrees_with_full_sort():
    # big pool with many score ties so the argpartition boundary is crowded
    rng = np.random.default_rng(3)
    ids = rng.integers(1, 4, size=(1000, 2))
    idx = build_index(ids, np.sort(rng.integers(0, 50, size=1000)))
    for _ in range(10):
        q = rng.integers(1, 4, size=2)
        fast = retrieve(idx, q, k=10)
        slow = brute_force_retrieve(idx, q, k=10)
        assert fast.neighbor_indices.tolist() == slow.neighbor_indices.tolist()


# ---------------------------------------------------------------- leakage

def test_earlier_eligibility_never_sees_future_or_self():
    rng = np.random.default_rng(11)
    ids = rng.integers(1, 5, size=(300, 3))
    ts = np.sort(rng.integers(0, 60, size=300))
    idx = build_index(ids, ts)
    for _ in range(50):
        qi = int(rng.integers(0, 300))
        res = retrieve(idx, ids[qi], k=8, eligibility="earlier",
                       query_ts=int(ts[qi]), query_index=qi)
        for slot, p in enumerate(res.neighbor_indices):
            if not res.mask[slot]:
                continue
            key = (int(ts[p]), int(idx.record_indices[p]))
            assert key < (int(ts[qi]), qi)


def test_first_record_has_no_eligible_neighbors():
    idx = small_index()
    res = retrieve(idx, np.array([2]), k=3, eligibility="earlier",
                   query_ts=0, query_index=0)
    assert not res.mask.any()
    assert res.neighbor_indices.tolist() == [-1, -1, -1]


def test_earlier_eligibility_needs_query_position():
    idx = small_index()
    with pytest.raises(ValueError, match="strictly-earlier"):
        retrieve(idx, np.array([1]), k=2, eligibility="earlier")
    with pytest.raises(ValueError, match="strictly-earlier"):
        retrieve(idx, np.array([1]), k=2, eligibility="earlier", query_ts=3)


def test_unknown_eligibility_rejected():
    idx = small_index()
    with pytest.raises(ValueError, match="eligibility must be one of"):
        retrieve(idx, np.array([1]), k=2, eligibility="future")


def test_index_from_dataset_covers_train_slice_only():
    ds = random_dataset(seed=2, n=80, n_fields=3, vocab=6)
    idx = index_from_dataset(ds)
    assert idx.pool_size == ds.train_end
    np.testing.assert_array_equal(idx.timestamps, ds.timestamps[:ds.train_end])
    np.testing.assert_array_equal(idx.record_indices, np.arange(ds.train_end))


# ---------------------------------------------------------------- RATI

def test_index_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    idx = random_index(rng, 150, 4, 9)
    p = str(tmp_path / "i.rati")
    save_index(idx, p)
    got = load_index(p)
    assert got.num_fields == idx.num_fields
    assert got.pool_size == idx.pool_size
    np.testing.assert_array_equal(got.timestamps, idx.timestamps)
    np.testing.assert_array_equal(got.pool_field_ids, idx.pool_field_ids)
    assert got.num_terms == idx.num_terms
    # v3 holds the pool and nothing else: header, then 8 + 4F bytes a record
    assert os.path.getsize(p) == 18 + idx.pool_size * (8 + 4 * idx.num_fields)
    # loaded index retrieves identically, bit for bit
    q = rng.integers(0, 10, size=(20, 4))
    for elig, ts, ri in (("all", None, None), ("earlier", rng.integers(0, 80, 20), np.arange(20))):
        assert_same_as_oracle(retrieve_batch(got, q, 5, elig, ts, ri),
                              retrieve_batch(idx, q, 5, elig, ts, ri))


def test_index_file_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(6)
    idx = random_index(rng, 60, 3, 5)
    p1, p2 = str(tmp_path / "a.rati"), str(tmp_path / "b.rati")
    save_index(idx, p1)
    save_index(idx, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_index_file_errors(tmp_path):
    rng = np.random.default_rng(8)
    idx = random_index(rng, 30, 2, 4)
    p = str(tmp_path / "i.rati")
    save_index(idx, p)
    with open(p, "rb") as f:
        blob = f.read()

    bad = str(tmp_path / "magic.rati")
    with open(bad, "wb") as f:
        f.write(b"NOPE" + blob[4:])
    with pytest.raises(DataError, match="bad magic"):
        load_index(bad)

    ver = str(tmp_path / "ver.rati")
    with open(ver, "wb") as f:
        f.write(blob[:4] + (9).to_bytes(2, "little") + blob[6:])
    with pytest.raises(DataError, match="unsupported index version 9"):
        load_index(ver)

    # v1 files carried postings and v2 files record indices; they are rebuilt, not read
    for version in (1, 2):
        old = str(tmp_path / f"v{version}.rati")
        with open(old, "wb") as f:
            f.write(blob[:4] + version.to_bytes(2, "little") + blob[6:])
        with pytest.raises(DataError,
                           match=f"version {version} .*rebuild it with `ractr.retrieval.save_index`"):
            load_index(old)

    # a file whose timestamps run backwards is no chronological pool
    n = idx.pool_size
    ts = np.frombuffer(blob[18:18 + 8 * n], dtype="<i8")
    unsorted = str(tmp_path / "unsorted.rati")
    with open(unsorted, "wb") as f:
        f.write(blob[:18] + ts[::-1].tobytes() + blob[18 + 8 * n:])
    with pytest.raises(DataError, match="timestamps are not sorted"):
        load_index(unsorted)

    # an empty pool from a file is rejected exactly as at build time
    empty = str(tmp_path / "empty.rati")
    with open(empty, "wb") as f:
        f.write(blob[:10] + (0).to_bytes(8, "little"))
    with pytest.raises(DataError, match="empty pool"):
        load_index(empty)

    trunc = str(tmp_path / "trunc.rati")
    with open(trunc, "wb") as f:
        f.write(blob[:-3])
    with pytest.raises(DataError, match="truncated"):
        load_index(trunc)

    tail = str(tmp_path / "tail.rati")
    with open(tail, "wb") as f:
        f.write(blob + b"z")
    with pytest.raises(DataError, match="trailing bytes"):
        load_index(tail)

    with pytest.raises(DataError, match="cannot open"):
        load_index(str(tmp_path / "absent.rati"))


# ---------------------------------------------------------------- input validation

def test_query_wider_than_num_fields_rejected():
    idx = build_index(np.array([[1, 2], [2, 1]]), np.arange(2))
    with pytest.raises(ValueError, match=r"shape \(queries, 2\)"):
        retrieve_batch(idx, [[1, 2, 9]], 2)
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        retrieve(idx, [1, 2, 9], 2)


def test_query_narrower_than_num_fields_rejected():
    idx = build_index(np.array([[1, 2], [2, 1]]), np.arange(2))
    with pytest.raises(ValueError, match=r"shape \(queries, 2\)"):
        retrieve_batch(idx, [[1]], 2)
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        retrieve(idx, [1], 2)


def test_bad_eligibility_rejected_on_empty_batch():
    idx = small_index()
    with pytest.raises(ValueError, match="eligibility must be one of"):
        retrieve_batch(idx, np.empty((0, 1), dtype=np.int64), 2, eligibility="future")


def test_batch_earlier_needs_one_position_per_query():
    idx = small_index()
    queries = np.array([[1], [2], [1]])
    with pytest.raises(ValueError, match="strictly-earlier"):
        retrieve_batch(idx, queries, 2, eligibility="earlier", query_index=np.arange(3))
    with pytest.raises(ValueError, match="strictly-earlier"):
        retrieve_batch(idx, queries, 2, eligibility="earlier", query_ts=np.arange(3))
    with pytest.raises(ValueError, match="one timestamp and one index per query"):
        retrieve_batch(idx, queries, 2, eligibility="earlier",
                       query_ts=np.arange(2), query_index=np.arange(3))
    with pytest.raises(ValueError, match="one timestamp and one index per query"):
        retrieve_batch(idx, queries, 2, eligibility="earlier",
                       query_ts=np.arange(3), query_index=np.arange(4))


# ---------------------------------------------------------------- exactness

def assert_same_as_oracle(got, ref):
    assert got.neighbor_indices.tolist() == ref.neighbor_indices.tolist()
    assert got.mask.tolist() == ref.mask.tolist()
    # tolist() would treat -0.0 as 0.0; compare the bits
    assert got.scores.view(np.int64).tolist() == ref.scores.view(np.int64).tolist()


def row(res, i):
    """Query i's (k,) slots of a batch result."""
    return retrieval.RetrievalResult(res.neighbor_indices[i], res.scores[i], res.mask[i])


def check_against_oracle(idx, queries, k, query_ts, query_index, monkeypatch):
    default = retrieval.QUERY_BLOCK
    for elig in ("all", "earlier"):
        for block in (1, 7, default):
            monkeypatch.setattr(retrieval, "QUERY_BLOCK", block)
            kw = {} if elig == "all" else {"query_ts": query_ts, "query_index": query_index}
            batched = retrieve_batch(idx, queries, k, elig, **kw)
            assert batched.neighbor_indices.shape == (len(queries), k)
            for i in range(len(queries)):
                pos = {} if elig == "all" else {"query_ts": int(query_ts[i]),
                                                "query_index": int(query_index[i])}
                ref = brute_force_retrieve(idx, queries[i], k, elig, **pos)
                assert_same_as_oracle(row(batched, i), ref)
                if block == default:
                    assert_same_as_oracle(retrieve(idx, queries[i], k, elig, **pos), ref)


ORACLE_CASES = ("ts_ties", "heavy_ts_ties", "all_tied", "big_k", "negative_weights",
                "all_unseen", "code_cap", "no_narrow")


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_scores_bitwise_equal_to_oracle(case, monkeypatch):
    rng = np.random.default_rng(ORACLE_CASES.index(case))
    n, nf, vocab = 120, 4, 6
    if case in ("code_cap", "no_narrow"):
        n = 600
    if case == "no_narrow":
        vocab = 2000                            # every field > 255 distinct ids: all wide
    ids = rng.integers(0, vocab + 1, size=(n, nf))
    ts = np.sort(rng.integers(0, 40, size=n))  # with ties
    k = 5
    if case == "heavy_ts_ties":
        ts = np.sort(rng.integers(0, 5, size=n))   # ~24 records a timestamp
    elif case == "all_tied":
        ids = np.ones((n, nf), dtype=np.int64)
    elif case == "big_k":
        n, k = 9, 12                            # k > pool
        ids, ts = ids[:n], ts[:n]
    elif case == "negative_weights":
        ids[rng.random(n) < 0.8, 0] = 1         # in more than half the pool: weight < 0
    elif case == "code_cap":
        # field 0 holds 255 distinct ids and 0, all 256 codes of one group;
        # field 1 holds 256 ids, one too many for a code: a wide field
        ids[:, 0] = rng.permutation(np.arange(n) % 256)
        ids[:, 1] = rng.permutation(np.arange(n) % 256 + 1)
    idx = build_index(ids, ts)
    # the other cases have only narrow fields
    assert idx._wide.tolist() == {"code_cap": [1], "no_narrow": [0, 1, 2, 3]}.get(case, [])
    nq = 30
    queries = rng.integers(0, vocab + 1, size=(nq, nf))
    queries[:3] = 0                             # all-missing queries match nothing
    queries[3:6, 1] = vocab + 50                # unseen ids
    queries[6:10] = ids[rng.integers(0, n, size=4)]
    if case == "all_unseen":
        queries[12:] = vocab + 50 + np.arange(nf)  # every eligible row ties at 0.0
    elif case == "negative_weights":
        queries[12:, 0] = 1
    elif case == "code_cap":
        queries[12:14, :2] = [[255, 256], [0, 1]]
    q_ts = rng.integers(ts.min() - 2, ts.max() + 3, size=nq)
    q_ts[10] = ts.min() - 1                     # nothing eligible
    q_idx = rng.integers(0, n + 2, size=nq)
    q_idx[11] = 0
    q_ts[11] = ts.min()
    check_against_oracle(idx, queries, k, q_ts, q_idx, monkeypatch)


def test_weightless_queries_take_the_newest_rows_unscored(monkeypatch):
    # all ids missing or unseen: every eligible row ties at +0.0, so the
    # newest k rows of the prefix win, and none of them is scored
    rng = np.random.default_rng(20)
    n, nf, vocab, k = 200, 4, 5, 5
    ids = rng.integers(0, vocab + 1, size=(n, nf))
    ts = np.sort(rng.integers(0, 60, size=n))
    idx = build_index(ids, ts)
    queries = rng.integers(0, vocab + 1, size=(24, nf))
    queries[:4] = 0                                      # all missing
    queries[4:8] = vocab + 1 + np.arange(nf)             # all unseen
    queries[8:12] = [0, vocab + 7, 0, vocab + 9]         # both
    weightless = {tuple(q) for q in queries[:12].tolist()}
    # strictly-earlier prefixes of 0, 1 and 3 rows (below k), and longer ones
    q_idx = np.tile([0, 1, 3, 150], 6)
    q_ts = ts[np.minimum(q_idx, n - 1)]
    exact = retrieval._exact_scores

    def spy(index, qs, live, q, c):
        assert not weightless & {tuple(r) for r in qs.ids[q].tolist()}
        return exact(index, qs, live, q, c)

    monkeypatch.setattr(retrieval, "_exact_scores", spy)
    check_against_oracle(idx, queries, k, q_ts, q_idx, monkeypatch)
    res = retrieve_batch(idx, queries[:12], k, "earlier", query_ts=q_ts[:12],
                         query_index=q_idx[:12])
    for i in range(12):
        p = int(q_idx[i])
        want = list(range(p - 1, max(p - 1 - k, -1), -1))
        assert res.neighbor_indices[i].tolist() == want + [-1] * (k - len(want))
    assert res.scores.view(np.int64).tolist() == [[0] * k] * 12    # +0.0 on every slot


def test_zero_eligible_rows_are_all_padding(monkeypatch):
    monkeypatch.setattr(retrieval, "QUERY_BLOCK", 2)
    rng = np.random.default_rng(9)
    ids = rng.integers(1, 4, size=(50, 3))
    idx = build_index(ids, np.sort(rng.integers(10, 20, size=50)))
    res = retrieve_batch(idx, ids[:4], 3, "earlier", query_ts=np.full(4, 10),
                         query_index=np.zeros(4, dtype=np.int64))
    assert res.neighbor_indices.tolist() == [[-1, -1, -1]] * 4
    assert res.scores.view(np.int64).tolist() == [[0, 0, 0]] * 4
    assert not res.mask.any()


def test_weight_table_is_bitwise_the_formula():
    rng = np.random.default_rng(12)
    ids = rng.integers(0, 30, size=(700, 3))
    ids[:, 2] = rng.integers(0, 3, size=700)
    idx = build_index(ids, np.arange(700))
    n = idx.pool_size
    doc_freq = {}
    for f in range(3):
        values, counts = np.unique(ids[:, f][ids[:, f] != 0], return_counts=True)
        doc_freq.update({(f, int(v)): int(df) for v, df in zip(values, counts)})
    assert idx.num_terms == len(doc_freq)
    # the scorer's per-query weights: the formula's bits, 0.0 where nothing can match
    queries = np.array([[v, v, v] for v in range(-1, 35)])
    got = idx._term_weight[idx._query_terms(queries)]
    for qi, q in enumerate(queries):
        for f in range(3):
            df = doc_freq.get((f, int(q[f])))
            want = 0.0 if df is None else float(np.log((n - df + 0.5) / (df + 0.5)))
            assert got[qi, f].view(np.int64) == np.float64(want).view(np.int64)
    assert {(f, int(q[f])) for q in queries for f in range(3)} >= set(doc_freq)


def test_oracle_reads_no_scorer_table():
    # a weight changed in the scorer's table moves the scorer alone: the
    # oracle weighs each query id by counting it in the pool
    rng = np.random.default_rng(18)
    ids = rng.integers(0, 6, size=(200, 3))
    idx, bumped = build_index(ids, np.arange(200)), build_index(ids, np.arange(200))
    q = ids[np.flatnonzero(ids[:, 0])[-1]]
    bumped._term_weight[bumped._query_terms(q[None, :])[0, 0]] += 1.0
    oracle = brute_force_retrieve(bumped, q, 5)
    assert_same_as_oracle(oracle, brute_force_retrieve(idx, q, 5))
    assert_same_as_oracle(retrieve(idx, q, 5), oracle)
    assert (retrieve(bumped, q, 5).scores != oracle.scores).any()


def test_index_file_rejects_ids_past_u32(tmp_path):
    for bad_id in (2**32, -1):
        idx = build_index(np.array([[1], [bad_id]]), np.arange(2))
        with pytest.raises(DataError, match="do not fit uint32"):
            save_index(idx, str(tmp_path / "i.rati"))


def test_failed_index_save_leaves_old_file(tmp_path):
    path = tmp_path / "i.rati"
    save_index(build_index(np.array([[1], [2]]), np.arange(2)), str(path))
    before = path.read_bytes()
    # pool ids are written last, so the save fails part way
    with pytest.raises(DataError, match="do not fit uint32"):
        save_index(build_index(np.array([[1], [2**32]]), np.arange(2)), str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["i.rati"]


# ---------------------------------------------------------------- workers and columns

def worker_datasets():
    # ties and missing ids in both random sets; the second has > 255 ids in a
    # field, so its columns are not all uint8
    return (random_dataset(seed=21, n=240, n_fields=4, vocab=5),
            random_dataset(seed=22, n=600, n_fields=3, vocab=1000, missing_rate=0.2),
            majority_task(12, 24, eval_train_records=3, seed=3))


def all_bits(res):
    return res.neighbor_indices, res.mask, res.scores.view(np.int64)


@pytest.mark.parametrize("ds", worker_datasets(), ids=("random-small", "random-wide", "majority"))
def test_any_worker_count_gives_the_same_result(ds, monkeypatch):
    idx = index_from_dataset(ds)
    rows = np.arange(len(ds))
    queries = ds.field_ids
    calls = []

    def score_blocks(*args):
        calls.append(threading.current_thread() is threading.main_thread())
        return _score_blocks(*args)

    monkeypatch.setattr(retrieval, "_score_blocks", score_blocks)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                 # interleave the workers finely
    try:
        for elig in ELIGIBILITY:
            pos = {} if elig == "all" else {"query_ts": ds.timestamps, "query_index": rows}
            want = None
            for cores in (1, 2, 3):             # 3 is more workers than this machine may have
                monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
                for block in (1, 8, 17):
                    monkeypatch.setattr(retrieval, "QUERY_BLOCK", block)
                    calls.clear()
                    got = all_bits(retrieve_batch(idx, queries, 5, elig, **pos))
                    if want is None:
                        want = got
                    for a, b in zip(got, want):
                        np.testing.assert_array_equal(a, b)
                    # one call a share, one of them on the calling thread
                    assert sorted(calls) == [False] * (cores - 1) + [True]
            for i in rows[::7]:
                one = {} if elig == "all" else {"query_ts": int(ds.timestamps[i]),
                                                "query_index": int(i)}
                ref = brute_force_retrieve(idx, queries[i], 5, elig, **one)
                assert want[0][i].tolist() == ref.neighbor_indices.tolist()
                assert want[1][i].tolist() == ref.mask.tolist()
                assert want[2][i].tolist() == ref.scores.view(np.int64).tolist()
    finally:
        sys.setswitchinterval(switch)


def test_wide_columns_hold_each_rows_id_slot(monkeypatch):
    # only wide fields keep a pool column, of each row's slot in the field's
    # sorted distinct ids; a field of 2 ids is wide here
    monkeypatch.setattr(retrieval, "NARROW_IDS", 1)
    for top in (255, 256, 65_535, 65_536, 2**32 - 1, 2**32):
        ids = np.array([[1, top], [0, 3], [7, top]])
        idx = build_index(ids, np.arange(3))
        assert idx._cols.keys() == {0, 1}
        for f, col in idx._cols.items():
            assert col.dtype == np.intp and col.flags.c_contiguous
            np.testing.assert_array_equal(np.unique(ids[:, f])[col], ids[:, f])
    # a negative id has a slot like any other
    assert build_index(np.array([[-1], [2]]), np.arange(2))._cols[0].tolist() == [0, 1]
    # a field of one id is narrow, and has no column
    assert build_index(np.array([[5, 1], [5, 2]]), np.arange(2))._cols.keys() == {1}


def test_query_ids_past_a_narrow_column_add_no_weight(monkeypatch):
    rng = np.random.default_rng(13)
    ids = rng.integers(1, 6, size=(90, 3))
    ids[:, 2] = rng.integers(1, 300, size=90)
    idx = build_index(ids, np.sort(rng.integers(0, 30, size=90)))
    assert idx._cols == {}                      # every field is narrow: group codes only
    monkeypatch.setattr(retrieval, "NARROW_IDS", 1)
    idx = build_index(ids, np.sort(rng.integers(0, 30, size=90)))
    assert idx._cols.keys() == {0, 1, 2}
    v = int(ids[0, 0])
    # 256 + v and v - 256 would wrap to v in uint8 (65,536 + w to w in
    # uint16), and so "match" v's rows in a column that narrow; queries with
    # real weights there share their block
    queries = np.array([[256 + v, v, ids[0, 2]], [v - 256, 2, 65_536 + ids[1, 2]],
                        [v, ids[1, 1], ids[1, 2]], [v, 3, ids[2, 2]]])
    for block in (1, 4):
        monkeypatch.setattr(retrieval, "QUERY_BLOCK", block)
        got = retrieve_batch(idx, queries, 6)
        for i, q in enumerate(queries):
            assert_same_as_oracle(row(got, i), brute_force_retrieve(idx, q, 6))
    # the field past the narrow dtype contributes nothing, as for any unseen id
    unseen = queries[:2].copy()
    unseen[0, 0], unseen[1, 0], unseen[1, 2] = 0, 0, 0
    a = retrieve_batch(idx, queries, 6)
    b = retrieve_batch(idx, np.vstack([unseen, queries[2:]]), 6)
    for i in range(2):
        assert_same_as_oracle(row(a, i), row(b, i))


def test_single_query_runs_inline(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single query started the worker pool")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 4)
    rng = np.random.default_rng(14)
    idx = random_index(rng, 500, 4, 9)
    threads = threading.active_count()
    res = retrieve(idx, rng.integers(0, 10, size=4), 5)
    assert res.mask.all()
    assert threading.active_count() == threads


def test_workers_live_for_one_call(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    workers = []

    def score_blocks(*args):
        workers.append(threading.current_thread())
        return _score_blocks(*args)

    monkeypatch.setattr(retrieval, "_score_blocks", score_blocks)
    rng = np.random.default_rng(19)
    idx = random_index(rng, 300, 3, 6)
    threads = threading.active_count()
    retrieve_batch(idx, rng.integers(0, 7, size=(retrieval.QUERY_BLOCK + 8, 3)), 5)  # two blocks
    # two shares of the blocks, one scored on the calling thread
    assert len(workers) == 2 and workers.count(threading.main_thread()) == 1
    assert threading.active_count() == threads
    assert not any(t.is_alive() for t in workers if t is not threading.main_thread())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_workers(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    rng = np.random.default_rng(15)
    idx = random_index(rng, 300, 3, 6)
    queries = rng.integers(0, 7, size=(retrieval.QUERY_BLOCK + 8, 3))     # two blocks
    want = all_bits(retrieve_batch(idx, queries, 5))     # the parent has used workers
    pid = os.fork()
    if pid == 0:                                        # the child never returns to pytest
        code = 1
        try:
            got = all_bits(retrieve_batch(idx, queries, 5))
            code = 0 if all(np.array_equal(a, b) for a, b in zip(got, want)) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:                                    # hung on a worker it inherited
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


# ---------------------------------------------------------------- group codes and rescoring

def test_group_codes_spell_each_rows_narrow_ids():
    rng = np.random.default_rng(16)
    n = 500
    ids = np.column_stack([rng.integers(0, 3, n), np.arange(n) % 299 + 1, rng.integers(0, 5, n),
                           np.full(n, 7), rng.integers(0, 200, n), rng.integers(1, 3, n)])
    idx = build_index(ids, np.arange(n))
    assert idx._wide.tolist() == [1]
    # greedy in field order: 3 x 5 x 1 ids fill the first group; ~200 do not
    # fit beside them, and 2 do not fit beside those
    assert [idx._narrow[group].tolist() for group in idx._groups] == [[0, 2, 3], [4], [5]]
    for group, codes in zip(idx._groups, idx._group_codes):
        assert codes.dtype == np.intp
        # mixed-radix digits, the last field's the least significant
        for j in reversed(range(group.start, group.stop)):
            f = idx._narrow[j]
            radix = idx._offsets[j + 1] - idx._offsets[j]
            np.testing.assert_array_equal(np.unique(ids[:, f])[codes % radix], ids[:, f])
            codes = codes // radix
        assert not codes.any()


def exact_dense_scores(index, query_ids, weights, m):
    """(m, queries) scores as the formula sums them: field order, from +0.0."""
    s = np.zeros((m, len(query_ids)))
    for f in range(index.num_fields):
        s += np.where(index.pool_field_ids[:m, f, None] == query_ids[:, f], weights[:, f], 0.0)
    return s


def lookup_sums(index, query_ids, weights, m):
    """(m, queries) scores summed lookup by lookup, each group's fields and
    then each wide field, as the approximate pass adds them."""
    lookups = [index._narrow[group] for group in index._groups] + [[f] for f in index._wide]
    s = np.zeros((m, len(query_ids)))
    for fields in lookups:
        s += sum(np.where(index.pool_field_ids[:m, f, None] == query_ids[:, f], weights[:, f], 0.0)
                 for f in fields)
    return s


@pytest.mark.parametrize("around", ("lookup", "exact"))
@pytest.mark.parametrize("ds", worker_datasets(), ids=("random-small", "random-wide", "majority"))
def test_scores_inside_the_rounding_bound_change_nothing(ds, around, monkeypatch):
    # Each of a row's L lookups lands within 1/2 (and far less than 1 more)
    # of sigma_q times its real sum, so the row's int16 score lands within
    # L/2 of sigma_q times a score E: the sum of the lookups' float64 sums
    # ("lookup") or the exact float64 score ("exact"). Approximate scores
    # anywhere in ceil(sigma_q E - L/2) .. floor(sigma_q E + L/2) must give
    # the same bits: drawn at random, and adversarially, with every row of
    # the exact top-k at the bottom of its interval and every other row at
    # the top.
    idx = index_from_dataset(ds)
    rows = np.arange(len(ds))
    half = idx._lookups / 2
    rng = np.random.default_rng(17)
    approximate = retrieval._approximate_scores
    center = lookup_sums if around == "lookup" else exact_dense_scores
    default = retrieval.QUERY_BLOCK
    adversarial, top = False, None

    def injected(index, queries, block, s, *buffers):
        approximate(index, queries, block, s, *buffers)
        w = queries.weights[block]
        c = retrieval._scales(index, w) * center(index, queries.ids[block], w, s.shape[0])
        assert np.abs(s - c).max() <= half + 1e-6      # the pass keeps its own bound
        lo, hi = np.ceil(c - half).astype(np.int64), np.floor(c + half).astype(np.int64)
        if adversarial:
            in_top = np.zeros(s.shape, dtype=bool)
            q, slot = np.nonzero((top[block] >= 0) & (top[block] < s.shape[0]))
            in_top[top[block][q, slot], q] = True
            s[...] = np.where(in_top, lo, hi)
        else:
            s[...] = rng.integers(lo, hi + 1)

    for elig in ELIGIBILITY:
        pos = {} if elig == "all" else {"query_ts": ds.timestamps, "query_index": rows}
        want = all_bits(retrieve_batch(idx, ds.field_ids, 5, elig, **pos))
        top = want[0]
        with monkeypatch.context() as m:
            m.setattr(retrieval, "_approximate_scores", injected)
            for adversarial in (False, True):
                for block in (1, default):
                    m.setattr(retrieval, "QUERY_BLOCK", block)
                    got = all_bits(retrieve_batch(idx, ds.field_ids, 5, elig, **pos))
                    for a, b in zip(got, want):
                        np.testing.assert_array_equal(a, b)
        for i in rows[::11]:
            one = {} if elig == "all" else {"query_ts": int(ds.timestamps[i]), "query_index": int(i)}
            ref = brute_force_retrieve(idx, ds.field_ids[i], 5, elig, **one)
            assert want[0][i].tolist() == ref.neighbor_indices.tolist()
            assert want[2][i].tolist() == ref.scores.view(np.int64).tolist()


def test_near_ties_below_float32_resolution_go_by_the_exact_scores(monkeypatch):
    # Fields 0-2 and 3-5 hold id 1 in 3, 3 and 7 rows, and 7, 3 and 3 rows,
    # so they weigh x, y, z and z, x, y. Row a matches the query's ids in
    # fields 0-2 and scores (x + y) + z; row b, in fields 3-5, scores
    # (z + x) + y. The two differ in float64 by less than float32 resolution:
    # only the exact rescoring orders them. Row t matches all six and leads.
    n, counts = 400, [3, 3, 7, 7, 3, 3]
    ids = np.full((n, 6), 2)
    t, a, b = n - 3, n - 2, n - 1
    ids[t] = 1
    ids[a, :3] = 1
    ids[b, 3:] = 1
    filler = 0
    for f, c in enumerate(counts):
        ids[filler:filler + c - 2, f] = 1           # c rows with id 1, t and a or b among them
        filler += c - 2
    idx = build_index(ids, np.arange(n))
    ones = np.ones(6, dtype=np.int64)
    ref = brute_force_retrieve(idx, ones, 3)
    assert sorted(ref.neighbor_indices[1:].tolist()) == [a, b]
    hi, lo = ref.scores[1:]
    assert 0 < hi - lo < np.spacing(np.float32(hi))
    if ref.neighbor_indices[1] == b:                # the older of the two must score higher,
        ids[[a, b]] = ids[[b, a]]                   # so that a tie would rank it wrong
        idx = build_index(ids, np.arange(n))
    assert brute_force_retrieve(idx, ones, 3).neighbor_indices.tolist() == [t, a, b]
    # the query at several prefixes: a and b eligible, only a, neither
    q_idx = np.array([n, n + 5, b, a, t, 2, n, n - 10])
    queries = np.tile(ones, (len(q_idx), 1))
    queries[-2:, 1] = 0                             # without field 1, b outranks a plainly
    for k in (1, 2, 3):
        check_against_oracle(idx, queries, k, q_idx, q_idx, monkeypatch)


def test_chunked_rescoring_when_every_row_ties(monkeypatch):
    # identical pool rows tie on every query, so every eligible row is a
    # candidate; they are rescored a chunk at a time
    monkeypatch.setattr(retrieval, "RESCORE_CHUNK", 7)
    ids = np.ones((300, 3), dtype=np.int64)
    idx = build_index(ids, np.arange(300))
    monkeypatch.setattr(retrieval, "QUERY_BLOCK", 3)
    queries = np.array([[1, 1, 1], [1, 0, 9], [0, 0, 0]])
    got = retrieve_batch(idx, queries, 4)
    assert got.neighbor_indices.tolist() == [[299, 298, 297, 296]] * 3
    for i, q in enumerate(queries):
        assert_same_as_oracle(row(got, i), brute_force_retrieve(idx, q, 4))


def test_group_floor_keeps_every_exact_neighbor(monkeypatch):
    # The top-k floor comes from the k-th largest maximum of FLOOR_GROUPS
    # interleaved row groups (row i in group i mod FLOOR_GROUPS), at most the
    # k-th largest score. Field 0 is wide (~400 ids), fields 1-3 narrow.
    rng = np.random.default_rng(23)
    groups, k = retrieval.FLOOR_GROUPS, 5
    n = 5 * groups + 37                         # 37 rows past the last whole round
    ids = np.column_stack([np.arange(n) % 400 + 1, rng.integers(1, 4, size=(n, 3))])
    # the five rows of id 9001 share a residue class, and outscore the rest
    same_class = 7 + groups * np.arange(5)
    ids[same_class, 0] = 9001
    ts = np.sort(rng.integers(0, n // 3, size=n))
    idx = build_index(ids, ts)
    assert idx._wide.tolist() == [0]
    tail_key = ids[n - 2, 0]                    # also in rows n - 402, n - 802, n - 1202
    queries = np.array([
        [9001, 1, 2, 3],
        [tail_key, 1, 1, 1],
        [tail_key, 2, 2, 2],                    # the same wide id in one block
        [tail_key, 0, 0, 0],
        [65_536 + tail_key, 1, 2, 3],           # past uint16: in no pool row
        [2**32 + 9001, 3, 3, 3],
        [9001, 0, 0, 0],
        *ids[rng.integers(0, n, size=9)],
    ])
    # strictly-earlier prefixes of every length in one block: below k, below
    # FLOOR_GROUPS, past a whole round, the whole pool
    q_idx = np.array([n, n, n - 3, 1300, 3, 2, 1000, 260, 255, 256, 4, 0, 600, 1, n - 1, 40])
    q_ts = ts[np.minimum(q_idx, n - 1)]
    q_ts[q_idx == n] = ts[-1] + 1

    def position(elig, i):
        return {} if elig == "all" else {"query_ts": int(q_ts[i]), "query_index": int(q_idx[i])}

    ref = {elig: [brute_force_retrieve(idx, q, k, elig, **position(elig, i))
                  for i, q in enumerate(queries)] for elig in ELIGIBILITY}
    # the exact top-k of the first query lie in one group: a strictly looser floor
    assert sorted(ref["all"][0].neighbor_indices.tolist()) == same_class.tolist()
    # and the second query's best rows reach past the last whole round
    assert n - 2 in ref["all"][1].neighbor_indices.tolist()
    all_cores = parallel._usable_cores()
    for cores in sorted({1, all_cores}):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
        for block in (1, 2, retrieval.QUERY_BLOCK):
            monkeypatch.setattr(retrieval, "QUERY_BLOCK", block)
            for elig in ELIGIBILITY:
                pos = {} if elig == "all" else {"query_ts": q_ts, "query_index": q_idx}
                got = retrieve_batch(idx, queries, k, elig, **pos)
                for i in range(len(queries)):
                    assert_same_as_oracle(row(got, i), ref[elig][i])


def test_int16_extremes_match_the_oracle(monkeypatch):
    # Several wide fields and one group per narrow field make L = 9 lookups.
    # Rows 0-419 (more than half the pool) hold id 1 in every field, so a
    # query of ones weighs every field negatively and scores those rows
    # near -sigma_q sum|w| = -(2**15 - 2L), just above the fill. Row 2
    # holds ids found nowhere else, so its query weighs every field at the
    # maximum. Strictly-earlier prefixes of 0 to k + 1 rows meet the fill.
    rng = np.random.default_rng(25)
    n, k, wide, narrow = 800, 5, 4, 5
    ids = np.ones((n, wide + narrow), dtype=np.int64)
    ids[420:, :wide] = rng.permuted(np.tile(np.arange(2, n - 418), (wide, 1)), axis=1).T
    ids[420:, wide:] = rng.integers(2, 21, size=(n - 420, narrow))
    ids[2] = 9000 + np.arange(wide + narrow)
    ts = np.arange(n) // 3
    idx = build_index(ids, ts)
    lookups = idx._lookups
    assert idx._wide.tolist() == list(range(wide)) and len(idx._groups) == narrow
    assert lookups == 9
    negative, maximal = np.ones(wide + narrow, dtype=np.int64), ids[2]
    mixed = np.where(np.arange(wide + narrow) % 2, negative, maximal)
    kinds = np.array([negative, maximal, mixed, *ids[rng.integers(0, n, size=4)]])
    weights = idx._term_weight[idx._query_terms(kinds)]
    assert (weights[0] < 0).all()
    assert (weights[1] == np.log((n - 0.5) / 1.5)).all()
    # every partial sum fits int16: sigma_q sum|w| + 3L/2 <= 2**15 - 1
    total = retrieval._scales(idx, weights) * np.abs(weights).sum(axis=1)
    assert (total + 1.5 * lookups <= 2**15 - 1).all()
    prefixes = np.concatenate([np.arange(k + 2), [300, 420, 421, n]])
    queries = np.repeat(kinds, len(prefixes), axis=0)
    q_idx = np.tile(prefixes, len(kinds))
    q_ts = np.append(ts, ts[-1] + 1)[q_idx]

    def position(elig, i):
        return {} if elig == "all" else {"query_ts": int(q_ts[i]), "query_index": int(q_idx[i])}

    ref = {elig: [brute_force_retrieve(idx, q, k, elig, **position(elig, i))
                  for i, q in enumerate(queries)] for elig in ELIGIBILITY}
    lowest = []
    approximate = retrieval._approximate_scores

    def spy(index, qs, rows, s, *buffers):
        approximate(index, qs, rows, s, *buffers)
        lowest.append(int(s.min()))

    monkeypatch.setattr(retrieval, "_approximate_scores", spy)
    all_cores = parallel._usable_cores()
    for cores in sorted({1, all_cores}):
        monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
        for block in (1, 2, retrieval.QUERY_BLOCK):
            monkeypatch.setattr(retrieval, "QUERY_BLOCK", block)
            for elig in ELIGIBILITY:
                pos = {} if elig == "all" else {"query_ts": q_ts, "query_index": q_idx}
                got = retrieve_batch(idx, queries, k, elig, **pos)
                for i in range(len(queries)):
                    assert_same_as_oracle(row(got, i), ref[elig][i])
    # the negative rows came within L of -(2**15 - 2L), the fill's neighbors
    assert retrieval.FILL < min(lowest) <= -(2**15 - 2 * lookups) + lookups


def test_index_makes_at_most_max_lookups_a_row(monkeypatch):
    # once NARROW_IDS is 1, every field of ids 1, 2, 2 is wide: one lookup a
    # field. At 2L >= 2**15 sigma_q would not be positive, so such a pool is
    # a DataError; one lookup fewer scores exactly.
    monkeypatch.setattr(retrieval, "NARROW_IDS", 1)
    limit = retrieval.MAX_LOOKUPS
    assert 2 * limit < 2**15 <= 2 * (limit + 1)
    ids = np.array([[1], [2], [2]]) * np.ones(limit + 1, dtype=np.int64)
    with pytest.raises(DataError, match="at most 16,383 lookups a row.*needs 16,384"):
        build_index(ids, np.arange(3))
    idx = build_index(ids[:, :limit], np.arange(3))
    assert idx._lookups == limit
    for q in (ids[0, :limit], ids[1, :limit], np.where(np.arange(limit) % 2, 1, 2)):
        assert_same_as_oracle(retrieve(idx, q, 3), brute_force_retrieve(idx, q, 3))


def test_exact_scores_add_each_field_left_to_right():
    # np.cumsum adds strictly left to right from the first term, as the
    # per-field loop does from +0.0 (no term is -0.0); the pairwise adds of
    # np.sum over one row of 9 or more terms differ
    rng = np.random.default_rng(26)
    n, nf, nq = 300, 12, 40
    ids = rng.choice(6, size=(n, nf), p=[0.05, 0.5, 0.2, 0.15, 0.07, 0.03])
    idx = build_index(ids, np.arange(n))
    queries = ids[rng.integers(0, n, size=nq)]
    weights = idx._term_weight[idx._query_terms(queries)]
    live = np.flatnonzero(weights.any(axis=0))
    assert live.size >= 9
    q, c = np.repeat(np.arange(nq), n), np.tile(np.arange(n), nq)
    got = retrieval._exact_scores(idx, retrieval._Queries(queries, weights, None, None), live, q, c)
    terms = np.where(ids[c][:, live] == queries[q][:, live], weights[q][:, live], 0.0)
    assert not np.signbit(terms[terms == 0]).any()
    want = np.zeros(c.size)
    for j in range(live.size):
        want += terms[:, j]
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert (np.array([t.sum() for t in terms]) != want).any()
