"""Match-weight values, index invariants, top-k correctness, leakage."""

import math
import os

import numpy as np
import pytest

from ractr.errors import DataError
from ractr.retrieval import (
    bm25_score,
    brute_force_retrieve,
    build_index,
    index_from_dataset,
    load_index,
    retrieve,
    retrieve_batch,
    save_index,
)
from ractr.synthetic import random_dataset


def small_index():
    # pool of 4, one field: value 1 appears once, value 2 three times
    ids = np.array([[1], [2], [2], [2]])
    return build_index(ids, np.arange(4))


def random_index(rng, n, nf, vocab):
    ids = rng.integers(0, vocab + 1, size=(n, nf))
    ts = rng.integers(0, max(2, n // 2), size=n)
    order = np.argsort(ts, kind="stable")
    return build_index(ids[order], ts[order])


# ---------------------------------------------------------------- weights

def test_weight_matches_hand_computation():
    idx = small_index()
    # N=4, df=1: ln(3.5/1.5); df=3: ln(1.5/3.5)
    assert idx.weight(0, 1) == pytest.approx(0.8472978603872034, abs=1e-12)
    assert idx.weight(0, 2) == pytest.approx(-0.8472978603872034, abs=1e-12)
    assert idx.weight(0, 1) == pytest.approx(math.log(3.5 / 1.5), abs=1e-15)


def test_weight_for_unseen_value_uses_zero_df():
    idx = small_index()
    assert idx.weight(0, 99) == pytest.approx(math.log(4.5 / 0.5), abs=1e-15)


def test_negative_scores_are_kept_not_filtered():
    idx = small_index()
    res = retrieve(idx, np.array([2]), k=4)
    # the non-match (record 0, score 0) outranks the negative matches, but
    # all four slots still fill: nothing is dropped by a score threshold
    assert res.n_real == 4
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
        assert idx.weight(f, v) == pytest.approx(want, abs=1e-15)
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
        idx.weight(0, 1) + idx.weight(1, 3))
    assert bm25_score(idx, q, ids[1]) == pytest.approx(idx.weight(0, 1))
    assert bm25_score(idx, q, ids[2]) == pytest.approx(idx.weight(1, 3))
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
    assert res.n_real == 4
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


def test_batch_is_bitwise_identical_to_single():
    rng = np.random.default_rng(7)
    idx = random_index(rng, 400, 5, 10)
    queries = rng.integers(0, 11, size=(100, 5))
    ts = idx.timestamps[rng.integers(0, 400, size=100)]
    ridx = rng.integers(0, 400, size=100)
    for elig, qts, qri in (("all", None, None), ("earlier", ts, ridx)):
        batched = retrieve_batch(idx, queries, k=5, eligibility=elig,
                                 query_ts=qts, query_index=qri, chunk_size=17)
        for i, got in enumerate(batched):
            one = retrieve(idx, queries[i], k=5, eligibility=elig,
                           query_ts=None if qts is None else int(qts[i]),
                           query_index=None if qri is None else int(qri[i]))
            assert got.neighbor_indices.tolist() == one.neighbor_indices.tolist()
            assert got.scores.tolist() == one.scores.tolist()  # bitwise


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
    assert res.n_real == 0
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
        for a, b in zip(retrieve_batch(idx, q, 5, elig, ts, ri),
                        retrieve_batch(got, q, 5, elig, ts, ri)):
            assert a.neighbor_indices.tolist() == b.neighbor_indices.tolist()
            assert a.mask.tolist() == b.mask.tolist()
            assert a.scores.view(np.int64).tolist() == b.scores.view(np.int64).tolist()


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
                           match=f"version {version} .*rebuild it with `ractr build-index`"):
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


def check_against_oracle(idx, queries, k, query_ts, query_index):
    for elig in ("all", "earlier"):
        for chunk in (1, 7, None):
            kw = {} if chunk is None else {"chunk_size": chunk}
            if elig == "earlier":
                kw.update(query_ts=query_ts, query_index=query_index)
            batched = retrieve_batch(idx, queries, k, elig, **kw)
            assert len(batched) == len(queries)
            for i, got in enumerate(batched):
                pos = {} if elig == "all" else {"query_ts": int(query_ts[i]),
                                                "query_index": int(query_index[i])}
                ref = brute_force_retrieve(idx, queries[i], k, elig, **pos)
                assert_same_as_oracle(got, ref)
                if chunk is None:
                    assert_same_as_oracle(retrieve(idx, queries[i], k, elig, **pos), ref)


ORACLE_CASES = ("ts_ties", "heavy_ts_ties", "all_tied", "big_k")


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_scores_bitwise_equal_to_oracle(case):
    rng = np.random.default_rng(ORACLE_CASES.index(case))
    n, nf, vocab = 120, 4, 6
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
    idx = build_index(ids, ts)
    nq = 30
    queries = rng.integers(0, vocab + 1, size=(nq, nf))
    queries[:3] = 0                             # all-missing queries match nothing
    queries[3:6, 1] = vocab + 50                # unseen ids
    queries[6:10] = ids[rng.integers(0, n, size=4)]
    q_ts = rng.integers(ts.min() - 2, ts.max() + 3, size=nq)
    q_ts[10] = ts.min() - 1                     # nothing eligible
    q_idx = rng.integers(0, n + 2, size=nq)
    q_idx[11] = 0
    q_ts[11] = ts.min()
    check_against_oracle(idx, queries, k, q_ts, q_idx)


def test_zero_eligible_rows_are_all_padding():
    rng = np.random.default_rng(9)
    ids = rng.integers(1, 4, size=(50, 3))
    idx = build_index(ids, np.sort(rng.integers(10, 20, size=50)))
    res = retrieve_batch(idx, ids[:4], 3, "earlier", query_ts=np.full(4, 10),
                         query_index=np.zeros(4, dtype=np.int64), chunk_size=2)
    for r in res:
        assert r.neighbor_indices.tolist() == [-1, -1, -1]
        assert r.scores.view(np.int64).tolist() == [0, 0, 0]
        assert not r.mask.any()


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
    for (f, v), df in doc_freq.items():
        want = float(np.log((n - df + 0.5) / (df + 0.5)))
        assert np.float64(idx.weight(f, v)).view(np.int64) == np.float64(want).view(np.int64)
    # the scorer's per-query weights are the same table; 0.0 where nothing can match
    queries = np.array([[v, v, v] for v in range(-1, 35)])
    got = idx._query_weights(queries)
    for qi, q in enumerate(queries):
        for f in range(3):
            want = idx.weight(f, q[f]) if (f, int(q[f])) in doc_freq else 0.0
            assert got[qi, f].view(np.int64) == np.float64(want).view(np.int64)


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
