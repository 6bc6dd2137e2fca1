"""Metrics, the optimizer, the train loop, evaluation segments, ablation."""

import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import adam_steps, random_dataset
from ractr import parallel, training
from ractr import tensor as T
from ractr.data import Dataset, FieldSchema
from ractr.errors import DataError, UsageError
from ractr.model import CtrModel, build_input_batch, save_checkpoint
from ractr.retrieval import brute_force_retrieve, build_index, index_from_dataset
from ractr.synthetic import majority_task
from ractr.training import (
    ABLATION_ORDER,
    Adam,
    TrainConfig,
    ablate,
    auc,
    evaluate,
    logloss,
    precompute_neighbors,
    predict_rows,
    tail_user_ids,
    time_forward_per_example,
    train,
    write_ablation_csv,
)


def tiny_task(seed=1):
    return majority_task(n_history_groups=20, n_eval_groups=40,
                         eval_train_records=3, n_noise_fields=3, seed=seed)


def tiny_cfg(**kw):
    base = dict(k=5, embed_dim=8, num_blocks=1, num_heads=2, mlp_ratio=2,
                learning_rate=3e-3, batch_size=64, max_epochs=3,
                early_stop_patience=3, seed=42)
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------- metrics

def test_logloss_known_values():
    assert logloss([1], [0.5]) == pytest.approx(math.log(2), abs=1e-12)
    assert logloss([1, 0], [0.9, 0.1]) == pytest.approx(0.10536051565782628, abs=1e-12)
    # clipping keeps certainty-zero predictions finite
    assert logloss([1], [0.0]) == pytest.approx(-math.log(1e-7), rel=1e-9)
    assert logloss([0], [1.0]) == pytest.approx(-math.log(1e-7), rel=1e-9)


def test_logloss_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        logloss([1, 0], [0.5])
    with pytest.raises(ValueError, match="empty"):
        logloss([], [])


def test_auc_known_values():
    assert auc([1, 0], [0.9, 0.1]) == 1.0
    assert auc([1, 0], [0.1, 0.9]) == 0.0
    assert auc([1, 0, 1], [0.8, 0.6, 0.4]) == pytest.approx(0.5, abs=1e-12)
    assert auc([1, 0], [0.5, 0.5]) == 0.5  # ties count half


def test_auc_errors():
    with pytest.raises(ValueError, match="single class"):
        auc([1, 1], [0.2, 0.3])
    with pytest.raises(ValueError, match="single class"):
        auc([0, 0], [0.2, 0.3])
    with pytest.raises(ValueError, match="length mismatch"):
        auc([1, 0, 1], [0.5, 0.5])


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(4, 60))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = np.round(rng.random(n), 2)  # coarse grid to force ties
        wins = 0.0
        pairs = 0
        for i in np.flatnonzero(y == 1):
            for j in np.flatnonzero(y == 0):
                pairs += 1
                if s[i] > s[j]:
                    wins += 1.0
                elif s[i] == s[j]:
                    wins += 0.5
        assert auc(y, s) == pytest.approx(wins / pairs, abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(9)
    y = rng.integers(0, 2, size=50)
    y[0], y[1] = 0, 1
    s = rng.random(50)
    assert auc(y, 3.0 * s + 2.0) == auc(y, s)
    assert auc(y, np.tanh(s)) == auc(y, s)


# ---------------------------------------------------------------- optimizer

def test_adam_leaves_gradless_params_alone():
    a = T.Tensor(np.ones(3), requires_grad=True)
    b = T.Tensor(np.ones(3), requires_grad=True)
    opt = Adam([a, b], lr=0.1)
    opt.step([np.full(3, 2.0), np.zeros(3)])
    assert not np.array_equal(a.data, np.ones(3))
    assert np.array_equal(b.data, np.ones(3))  # no grad, no movement


def test_adam_first_step_is_signed_lr():
    p = T.Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = Adam([p], lr=0.01)
    opt.step([np.array([2.0, -0.5])])
    # bias-corrected first step: -lr * g / (|g| + eps) = -lr * sign(g)
    np.testing.assert_allclose(p.data, [1.0 - 0.01, 1.0 + 0.01], atol=1e-9)


def test_in_place_adam_is_the_formula_bit_for_bit():
    # five steps of the out-of-place formula: zero, tiny, huge and repeated
    # gradients, parameters of three shapes and a zero-size table
    rng = np.random.default_rng(21)
    shapes = [(7, 3), (3,), (0, 3), (1,)]
    start = [rng.normal(size=s) for s in shapes]
    steps = [[rng.normal(scale=scale, size=s) for s in shapes]
             for scale in (1.0, 1e-9, 1e6, 0.0, 1.0)]
    steps[4] = steps[0]
    params = [T.Tensor(v.copy(), requires_grad=True) for v in start]
    opt = Adam(params, lr=3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
    for grads in steps:
        opt.step(grads)
    want = adam_steps(start, steps, lr=3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
    for p, w in zip(params, want):
        assert p.data.view(np.int64).tolist() == w.view(np.int64).tolist()


def test_adam_momentum_continues_after_grads_stop():
    p = T.Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam([p], lr=0.1)
    opt.step([np.array([1.0])])
    after_one = p.data.copy()
    opt.step([np.zeros(1)])
    assert p.data[0] != after_one[0]


# ---------------------------------------------------------------- config

def test_train_config_round_trip():
    cfg = tiny_cfg(variant="intra", activation="relu")
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_train_config_rejects_unknown_keys():
    with pytest.raises(UsageError, match="unknown train config keys.*dropout"):
        TrainConfig.from_dict({"k": 3, "dropout": 0.1})


# ---------------------------------------------------------------- neighbors

# what each non-integer setting must be, as its error message says
MUST_BE = {"learning_rate": "a finite number >= 0",
           "adam_beta1": "a finite number in [0, 1)", "adam_beta2": "a finite number in [0, 1)",
           "adam_eps": "a finite number > 0", "logloss_clip_eps": "a finite number in (0, 0.5)"}


@pytest.mark.parametrize("key,value", [
    ("embed_dim", 0), ("num_heads", 0), ("mlp_ratio", 0), ("batch_size", 0),
    ("max_epochs", 0), ("k", -1), ("num_blocks", -1), ("embed_dim", 8.0),
    ("batch_size", True), ("k", "5"),
    ("seed", "x"), ("seed", -1), ("seed", 1.0), ("early_stop_patience", "2"),
    ("early_stop_patience", -1), ("intra_only", "no"), ("intra_only", 1),
    ("learning_rate", "0.01"), ("learning_rate", math.nan), ("learning_rate", -1e-3),
    ("learning_rate", True), ("adam_beta1", 2), ("adam_beta1", 1.0), ("adam_beta2", -0.1),
    ("adam_beta2", math.inf), ("adam_eps", 0.0), ("adam_eps", None),
    ("logloss_clip_eps", 0.5), ("logloss_clip_eps", 0),
])
def test_train_config_rejects_bad_sizes(key, value):
    want = f"'{key}' must be " + re.escape(MUST_BE.get(key, "an integer >= "))
    if key == "intra_only":  # the switch is gone: variant "intra" is that model
        want = re.escape("unknown train config keys: ['intra_only']")
    with pytest.raises(UsageError, match=want):
        TrainConfig.from_dict({key: value})


def test_train_config_accepts_the_edges():
    edges = {"seed": 0, "early_stop_patience": 0, "learning_rate": 0, "adam_beta1": 0,
             "adam_beta2": 0.0, "adam_eps": 1e-300, "logloss_clip_eps": 0.4999, "num_blocks": 0}
    assert TrainConfig.from_dict(edges).to_dict() == {**TrainConfig().to_dict(), **edges}


def test_precomputed_neighbors_respect_time():
    ds = tiny_task()
    index = index_from_dataset(ds)
    neigh, mask = precompute_neighbors(ds, index, k=5)
    assert neigh.shape == (len(ds), 5)
    for i in range(ds.train_end):
        for j in neigh[i][mask[i]]:
            assert (ds.timestamps[j], j) < (ds.timestamps[i], i)
    # later splits may use the whole train pool but never beyond it
    held = np.arange(ds.train_end, len(ds))
    assert neigh[held][mask[held]].max() < ds.train_end
    assert (neigh[~mask] == -1).all()


@pytest.mark.parametrize("seed", [0, 1])
def test_precomputed_neighbors_equal_the_oracle(seed):
    """Every row's neighbors and mask match brute_force_retrieve: "earlier"
    for train rows, "all" for the rest, over a pool with many timestamp ties."""
    ds = random_dataset(seed=seed, n=160, n_fields=3, vocab=4)
    assert len(np.unique(ds.timestamps)) < len(ds)
    index = index_from_dataset(ds)
    neigh, mask = precompute_neighbors(ds, index, k=6)
    for i in range(len(ds)):
        if i < ds.train_end:
            ref = brute_force_retrieve(index, ds.field_ids[i], 6, "earlier",
                                       query_ts=int(ds.timestamps[i]), query_index=i)
        else:
            ref = brute_force_retrieve(index, ds.field_ids[i], 6, "all")
        assert neigh[i].tolist() == ref.neighbor_indices.tolist(), i
        assert mask[i].tolist() == ref.mask.tolist(), i


def test_precompute_covers_the_rows_asked_for():
    """Each row keeps its split's eligibility, whatever rows come with it."""
    ds = tiny_task()
    index = index_from_dataset(ds)
    full = precompute_neighbors(ds, index, k=5)
    rows = np.array([len(ds) - 1, 0, ds.train_end - 1, ds.train_end, 3])
    neigh, mask = precompute_neighbors(ds, index, 5, rows)
    assert np.array_equal(neigh, full[0][rows]) and np.array_equal(mask, full[1][rows])
    neigh, mask = precompute_neighbors(ds, index, 5, rows[:0])
    assert neigh.shape == mask.shape == (0, 5)


def test_precompute_k_zero():
    ds = tiny_task()
    neigh, mask = precompute_neighbors(ds, index_from_dataset(ds), k=0)
    assert neigh.shape == (len(ds), 0)
    assert mask.shape == (len(ds), 0)


# ---------------------------------------------------------------- training

def test_train_input_validation():
    ds = tiny_task()
    index = index_from_dataset(ds)

    all_train = Dataset(ds.schema, ds.field_ids, ds.labels, ds.timestamps,
                        train_end=len(ds), valid_end=len(ds))
    with pytest.raises(DataError, match="non-empty validation"):
        train(all_train, build_index(ds.field_ids, ds.timestamps), tiny_cfg())

    with pytest.raises(DataError, match="index covers"):
        train(ds, build_index(ds.field_ids, ds.timestamps), tiny_cfg())
    te = ds.train_end  # as many records, one row later
    with pytest.raises(DataError, match="different train slice; rebuild it with "
                                        "`ractr.retrieval.index_from_dataset`"):
        train(ds, build_index(ds.field_ids[1:te + 1], ds.timestamps[1:te + 1]), tiny_cfg())

    flat = Dataset(ds.schema, ds.field_ids, np.zeros(len(ds), dtype=np.int64),
                   ds.timestamps, ds.train_end, ds.valid_end)
    with pytest.raises(DataError, match="single class"):
        train(flat, index_from_dataset(flat), tiny_cfg())


def test_train_learns_and_keeps_best_weights():
    ds = tiny_task()
    index = index_from_dataset(ds)
    res = train(ds, index, tiny_cfg())

    assert len(res.log) >= 1
    for rec in res.log:
        assert set(rec) == {"step", "train_logloss", "valid_auc",
                            "valid_logloss", "wall_ms"}
    assert res.log[-1]["train_logloss"] < res.log[0]["train_logloss"]
    assert res.best_valid_auc == max(r["valid_auc"] for r in res.log)
    assert res.log[res.best_epoch]["valid_auc"] == res.best_valid_auc
    assert res.best_valid_auc >= 0.6

    # restored weights reproduce the best epoch's validation AUC exactly
    neigh, mask = res.neighbors
    vp = predict_rows(res.model, ds, ds.slice_indices("valid"), neigh, mask)
    assert auc(ds.labels[ds.slice_indices("valid")], vp) == res.best_valid_auc


def test_train_is_deterministic():
    ds = tiny_task()
    index = index_from_dataset(ds)
    r1 = train(ds, index, tiny_cfg(max_epochs=2))
    r2 = train(ds, index, tiny_cfg(max_epochs=2))
    for a, b in zip(r1.log, r2.log):
        for key in ("step", "train_logloss", "valid_auc", "valid_logloss"):
            assert a[key] == b[key]
    for (na, pa), (nb, pb) in zip(r1.model.named_parameters(),
                                  r2.model.named_parameters()):
        assert na == nb and np.array_equal(pa.data, pb.data)


def test_zero_lr_stops_early_on_flat_auc():
    ds = tiny_task()
    index = index_from_dataset(ds)
    res = train(ds, index, tiny_cfg(learning_rate=0.0, max_epochs=10,
                                    early_stop_patience=1))
    assert res.stopped_early
    assert len(res.log) == 2  # epoch 1 never beats epoch 0
    assert res.best_epoch == 0


def test_tied_valid_auc_keeps_the_lower_valid_logloss(monkeypatch):
    """A saturated validation AUC ties in every epoch. The epoch kept is the
    one with the lowest valid logloss, not the first, and the restored
    weights score that logloss exactly."""
    ds = tiny_task()
    index = index_from_dataset(ds)
    monkeypatch.setattr(training, "auc", lambda y, s: 1.0)
    res = train(ds, index, tiny_cfg(max_epochs=3, early_stop_patience=3))
    lls = [rec["valid_logloss"] for rec in res.log]
    assert len(lls) == 3 and lls[-1] < lls[0]
    assert res.best_epoch == int(np.argmin(lls)) > 0

    neigh, mask = res.neighbors
    valid = ds.slice_indices("valid")
    vp = predict_rows(res.model, ds, valid, neigh, mask)
    assert logloss(ds.labels[valid], vp) == lls[res.best_epoch]


def test_precomputed_neighbors_reused_identically():
    ds = tiny_task()
    index = index_from_dataset(ds)
    pre = precompute_neighbors(ds, index, k=5)
    r1 = train(ds, index, tiny_cfg(max_epochs=1), neighbors=pre)
    r2 = train(ds, index, tiny_cfg(max_epochs=1))
    for (_, pa), (_, pb) in zip(r1.model.named_parameters(),
                                r2.model.named_parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_predict_rows_chunking_invariant():
    ds = tiny_task()
    index = index_from_dataset(ds)
    neigh, mask = precompute_neighbors(ds, index, k=5)
    model = CtrModel([fs.num_ids for fs in ds.schema], embed_dim=8,
                     num_blocks=1, num_heads=2, seed=0)
    rows = ds.slice_indices("test")
    a = predict_rows(model, ds, rows, neigh, mask, batch_size=7)
    b = predict_rows(model, ds, rows, neigh, mask, batch_size=512)
    assert np.array_equal(a, b)


def redrawn_model(ds, variant, **kw):
    """A model whose every parameter is drawn from N(0, 0.1), so scores vary."""
    model = CtrModel([fs.num_ids for fs in ds.schema], variant=variant, seed=0, **kw)
    rng = np.random.default_rng(0)
    for _, t in model.named_parameters():
        t.data = rng.normal(0.0, 0.1, size=t.data.shape)
    return model


@pytest.mark.parametrize("variant", ("cascade", "jm"))
def test_predict_rows_same_bits_on_any_core_count(variant, monkeypatch):
    ds = tiny_task()
    neigh, mask = precompute_neighbors(ds, index_from_dataset(ds), k=5)
    mask[::3, 2:] = False                       # padded slots beside the early rows' own
    rows = np.arange(150)                       # ragged last chunk at 7 and at 64
    assert not mask[rows].all() and rows.size % 7 and rows.size % 64
    model = redrawn_model(ds, variant, embed_dim=8, num_heads=2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                 # interleave the workers finely
    try:
        for chunk in (1, 7, 64):
            want = None
            for cores in (1, 2, 3):             # 3 is more workers than this machine may have
                monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
                got = predict_rows(model, ds, rows, neigh, mask, batch_size=chunk)
                if want is None:
                    want = got
                assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    finally:
        sys.setswitchinterval(switch)


def test_default_chunk_gives_the_bits_of_chunks_of_512():
    # the score-bigpool benchmark's data; another chunk size may round a
    # product differently (97 rows does, on cascade)
    ds = majority_task(n_history_groups=1200, n_eval_groups=400, seed=7)
    neigh, mask = precompute_neighbors(ds, index_from_dataset(ds), k=5)
    rows = np.arange(ds.train_end, len(ds))
    assert training.CHUNK_ROWS == 64
    for variant in ABLATION_ORDER:
        model = redrawn_model(ds, variant)
        a = predict_rows(model, ds, rows, neigh, mask)
        b = predict_rows(model, ds, rows, neigh, mask, batch_size=512)
        assert a.view(np.int64).tolist() == b.view(np.int64).tolist(), variant


@pytest.mark.parametrize("bad_chunk", (0, 1), ids=("caller", "worker"))
def test_scoring_error_reraises_in_the_caller(bad_chunk, monkeypatch):
    # chunks are dealt round-robin: chunk 0 to the calling thread, 1 to a worker
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    ds = tiny_task()
    neigh, mask = precompute_neighbors(ds, index_from_dataset(ds), k=5)
    model = redrawn_model(ds, "cascade", embed_dim=8, num_heads=2)
    inputs, raised = training._inputs, []

    def masked_target(model, ds, rows, neigh, neigh_mask):
        x, m = inputs(model, ds, rows, neigh, neigh_mask)
        if rows[0] == bad_chunk * 8:
            m[0, 0] = False
            raised.append(threading.current_thread() is threading.main_thread())
        return x, m

    monkeypatch.setattr(training, "_inputs", masked_target)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="target sample"):
        predict_rows(model, ds, np.arange(40), neigh, mask, batch_size=8)
    assert raised == [bad_chunk == 0]
    assert threading.active_count() == threads


def test_multi_chunk_scoring_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    ds = tiny_task()
    neigh, mask = precompute_neighbors(ds, index_from_dataset(ds), k=5)
    model = redrawn_model(ds, "cascade", embed_dim=8, num_heads=2)
    scorers = set()
    inputs = training._inputs

    def recorded(*args):
        scorers.add(threading.current_thread())
        return inputs(*args)

    monkeypatch.setattr(training, "_inputs", recorded)
    threads = threading.active_count()
    predict_rows(model, ds, np.arange(100), neigh, mask, batch_size=10)
    assert threading.main_thread() in scorers and len(scorers) == 2
    assert threading.active_count() == threads


def test_one_chunk_scores_inline(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single chunk started a worker")

    ds = tiny_task()
    neigh, mask = precompute_neighbors(ds, index_from_dataset(ds), k=5)
    model = redrawn_model(ds, "cascade", embed_dim=8, num_heads=2)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 4)
    threads = threading.active_count()
    p = predict_rows(model, ds, np.arange(training.CHUNK_ROWS), neigh, mask)
    assert np.isfinite(p).all()
    assert threading.active_count() == threads


def test_predict_rows_holds_no_graph():
    """Scoring builds no autodiff graph, so a chunk's intermediates are freed
    as the forward goes: predict_rows peaks at under half the memory of a
    graph-building predict on the same cascade batch of 128."""
    ds = majority_task(n_history_groups=60, n_eval_groups=40, seed=3)
    index = index_from_dataset(ds)
    neigh, mask = precompute_neighbors(ds, index, k=5)
    model = CtrModel([fs.num_ids for fs in ds.schema], variant="cascade", seed=0)
    rows = np.arange(128)
    assert ds.train_end >= 128

    def peak(run):
        tracemalloc.start()
        try:
            out = run()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    def graph():
        x, m = build_input_batch(model, ds.field_ids[rows], neigh[rows], mask[rows],
                                 ds.field_ids[:ds.train_end], ds.labels[:ds.train_end])
        return model.predict(x, m)

    graph_peak, p = peak(graph)
    free_peak, q = peak(lambda: predict_rows(model, ds, rows, neigh, mask, batch_size=128))
    assert p._backward_fn is not None and np.array_equal(p.data, q)
    assert free_peak < 0.5 * graph_peak, (free_peak, graph_peak)


def test_training_step_after_no_grad_fills_every_grad():
    ds = tiny_task()
    neigh, mask = precompute_neighbors(ds, index_from_dataset(ds), k=5)
    model = CtrModel([fs.num_ids for fs in ds.schema], embed_dim=8, num_blocks=2,
                     num_heads=2, seed=0)
    rows = np.arange(16)

    def grads():
        x, m = training._inputs(model, ds, rows, neigh, mask)
        return T.tmean(model.predict(x, m)).backward(model.parameters())

    before = grads()
    predict_rows(model, ds, ds.slice_indices("valid"), neigh, mask)
    after = grads()
    assert all(g is not None for g in after)
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_a_graph_built_while_scoring_gets_its_gradients(monkeypatch):
    # scoring builds no graph because its parameters are constants, not by a
    # switch: a graph of the model built while the threads score backpropagates
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    ds = tiny_task()
    neigh, mask = precompute_neighbors(ds, index_from_dataset(ds), k=5)
    model = redrawn_model(ds, "cascade", embed_dim=8, num_heads=2)
    params, rows, inputs = model.parameters(), np.arange(16), training._inputs
    lock, during = threading.Lock(), []

    def grads():
        x, m = inputs(model, ds, rows, neigh, mask)
        return T.tmean(model.predict(x, m)).backward(params)

    def first_chunk_backprops(*args):
        with lock:
            if not during:
                during.append(grads())
        return inputs(*args)

    monkeypatch.setattr(training, "_inputs", first_chunk_backprops)
    predict_rows(model, ds, ds.slice_indices("valid"), neigh, mask, batch_size=8)
    (got,) = during
    assert sum(np.abs(g).sum() for g in got) > 0
    for a, b in zip(got, grads()):
        assert a.view(np.int64).tolist() == b.view(np.int64).tolist()


# ---------------------------------------------------------------- training on every core

def test_training_same_bits_on_any_core_count(tmp_path, monkeypatch):
    # batches of 150 rows train as parts of 64, 64 and 22 rows on 1 to 3 threads
    ds = tiny_task()
    index = index_from_dataset(ds)
    neighbors = precompute_neighbors(ds, index, k=5)
    cfg = tiny_cfg(batch_size=150, max_epochs=2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)                 # interleave the threads finely
    try:
        runs = []
        for cores in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
            res = train(ds, index, cfg, neighbors=neighbors)
            path = tmp_path / f"{cores}.ratm"
            save_checkpoint(res.model, str(path))
            runs.append((path.read_bytes(), [r["train_logloss"].hex() for r in res.log]))
    finally:
        sys.setswitchinterval(switch)
    assert len(runs[0][1]) == 2
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("intra", (False, True), ids=("full", "intra_only"))
@pytest.mark.parametrize("variant", ABLATION_ORDER)
def test_part_gradients_sum_to_the_batch_gradient(variant, intra):
    """The losses of a batch's 64-row parts sum to the batch's mean loss, and
    their summed gradients are one whole-batch graph's within 1e-12."""
    ds = tiny_task()
    neigh, mask = precompute_neighbors(ds, index_from_dataset(ds), k=5)
    mask[::4, 3:] = False                       # padded slots too
    model = redrawn_model(ds, "intra" if intra else variant, embed_dim=8, num_heads=2,
                          num_blocks=2)
    params = model.parameters()
    batch = np.random.default_rng(4).permutation(ds.train_end)[:150]
    eps = 1e-7

    x, m = training._inputs(model, ds, batch, neigh, mask)
    pc = T.clamp(model.predict(x, m), eps, 1.0 - eps)
    y = ds.labels[batch].astype(np.float64)
    nll = T.add(T.mul(y, T.tlog(pc)), T.mul(1.0 - y, T.tlog(T.sub(1.0, pc))))
    whole = T.mul(T.tmean(nll), -1.0)
    want = whole.backward(params)

    loss, got = 0.0, None
    for lo in range(0, len(batch), training.CHUNK_ROWS):
        part = training._loss(model, ds, batch[lo:lo + training.CHUNK_ROWS], neigh, mask,
                              len(batch), eps)
        grads = part.backward(params)
        loss += float(part.data)
        got = grads if got is None else [a + b for a, b in zip(got, grads)]
    assert abs(loss - float(whole.data)) <= 1e-12
    assert max(np.abs(w).max() for w in want if w.size) > 1e-3   # not vacuous
    for (name, _), a, b in zip(model.named_parameters(), got, want):
        assert np.abs(a - b).max(initial=0.0) <= 1e-12, name


def test_a_batch_of_one_part_keeps_the_whole_batch_bits():
    # up to 64 rows, the summed loss over the batch's rows is the mean loss
    # of one graph bit for bit, and so are its gradients
    ds = tiny_task()
    neigh, mask = precompute_neighbors(ds, index_from_dataset(ds), k=5)
    model = redrawn_model(ds, "cascade", embed_dim=8, num_heads=2)
    params = model.parameters()
    batch = np.arange(training.CHUNK_ROWS)
    x, m = training._inputs(model, ds, batch, neigh, mask)
    pc = T.clamp(model.predict(x, m), 1e-7, 1.0 - 1e-7)
    y = ds.labels[batch].astype(np.float64)
    nll = T.add(T.mul(y, T.tlog(pc)), T.mul(1.0 - y, T.tlog(T.sub(1.0, pc))))
    whole = T.mul(T.tmean(nll), -1.0)
    want = whole.backward(params)
    loss, got = training._batch_grads(model, params, ds, batch, neigh, mask, 1e-7)
    assert loss == float(whole.data)
    for a, b in zip(got, want):
        assert a.view(np.int64).tolist() == b.view(np.int64).tolist()


@pytest.mark.parametrize("cores", (1, 2))
def test_diverged_part_is_a_data_error_on_the_caller(cores, monkeypatch):
    # lr 1e3 saturates p at exactly 1.0 after one step; a clip eps below the
    # float spacing at 1.0 then leaves log(1 - p) = -inf in a part's loss
    monkeypatch.setattr(parallel, "_usable_cores", lambda: cores)
    ds = tiny_task()
    threads = threading.active_count()
    with pytest.raises(DataError, match=r"^training loss is nan in epoch 1 of 3, step 2: "):
        train(ds, index_from_dataset(ds),
              tiny_cfg(learning_rate=1e3, logloss_clip_eps=1e-300, batch_size=150))
    assert threading.active_count() == threads


# ---------------------------------------------------------------- evaluation

def segment_dataset():
    """12 records, 3 users with train counts u2:2 < u1:3 = u3:3."""
    schema = [FieldSchema("user", ["u1", "u2", "u3"]),
              FieldSchema("item", ["a", "b"])]
    users = np.array([1, 1, 1, 2, 2, 3, 3, 3, 1, 2, 2, 3])
    items = np.array([1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2])
    ids = np.stack([users, items], axis=1)
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    return Dataset(schema, ids, labels, np.arange(12), train_end=8, valid_end=10)


def test_tail_user_ids_orders_by_count_then_id():
    ds = segment_dataset()
    tails = tail_user_ids(ds, 0, [10, 33, 34, 100])
    # ceil(0.3) = 1, ceil(0.99) = 1, ceil(1.02) = 2
    assert [t.tolist() for t in tails] == [[2], [2], [2, 1], [2, 1, 3]]
    assert tail_user_ids(ds, 1, [50])[0].tolist() == [1]  # items a:4 = b:4, id asc


def test_evaluate_reports_segments():
    ds = segment_dataset()
    index = index_from_dataset(ds)
    model = CtrModel([fs.num_ids for fs in ds.schema], embed_dim=8,
                     num_blocks=1, num_heads=2, seed=0)
    cfg = tiny_cfg(k=2)
    rep = evaluate(model, ds, index, cfg, split="test",
                   segments=["tail34", "tail100"], user_field="user")
    # untrained model: head is zero, every prediction is exactly 0.5
    assert rep.auc == 0.5
    assert rep.logloss == pytest.approx(math.log(2), abs=1e-12)
    assert rep.n == 2
    assert set(rep.segments) == {"tail34", "tail100"}
    seg = rep.segments["tail34"]  # test rows with user u2: just row 10
    assert seg["n"] == 1 and seg["auc"] is None
    full = rep.segments["tail100"]
    assert full["n"] == 2 and full["auc"] == 0.5
    d = rep.to_dict()
    assert set(d) == {"auc", "logloss", "n", "segments"}


def test_evaluate_retrieves_only_its_split(monkeypatch):
    """Without a neighbor table, evaluate retrieves for its split's rows alone,
    with that split's eligibility, and reports what the full table gives."""
    ds = tiny_task()
    index = index_from_dataset(ds)
    cfg = tiny_cfg(max_epochs=1)
    res = train(ds, index, cfg)
    queried = []
    real = training.retrieve_batch

    def counting(index, query_ids, k, eligibility, **kw):
        queried.append((eligibility, list(kw["query_index"])))
        return real(index, query_ids, k, eligibility, **kw)

    monkeypatch.setattr(training, "retrieve_batch", counting)
    for split, eligibility in (("test", "all"), ("valid", "all"), ("train", "earlier")):
        queried.clear()
        got = evaluate(res.model, ds, index, cfg, split=split)
        assert queried == [(eligibility, list(ds.slice_indices(split)))]
        assert got == evaluate(res.model, ds, index, cfg, split=split, neighbors=res.neighbors)


def test_an_intra_model_retrieves_nothing(monkeypatch):
    """A model whose attentions never mix samples reads the target alone:
    train and evaluate retrieve no neighbors for it, whatever cfg.k says."""
    ds = tiny_task()
    index = index_from_dataset(ds)
    calls = []
    real = training.retrieve_batch

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(training, "retrieve_batch", counting)
    for cfg in (tiny_cfg(variant="intra", max_epochs=1), tiny_cfg(num_blocks=0, max_epochs=1)):
        res = train(ds, index, cfg)
        assert not res.model.reads_neighbors and cfg.k == 5
        assert res.neighbors[0].shape == (len(ds), 0)
        got = evaluate(res.model, ds, index, cfg)
        assert got == evaluate(res.model, ds, index, cfg, neighbors=res.neighbors)
    assert calls == []
    assert all(CtrModel([3], variant=v).reads_neighbors for v in ABLATION_ORDER)


def test_evaluate_segment_validation():
    ds = segment_dataset()
    index = index_from_dataset(ds)
    model = CtrModel([fs.num_ids for fs in ds.schema], embed_dim=8,
                     num_blocks=1, num_heads=2, seed=0)
    cfg = tiny_cfg(k=2)
    with pytest.raises(UsageError, match="designated user-id field"):
        evaluate(model, ds, index, cfg, segments=["tail10"])
    with pytest.raises(UsageError, match="not in schema"):
        evaluate(model, ds, index, cfg, segments=["tail10"], user_field="who")
    for bad in ("tailx", "head10", "tail0", "tail150"):
        with pytest.raises(UsageError):
            evaluate(model, ds, index, cfg, segments=[bad], user_field="user")


def test_evaluate_slice_validation():
    ds = segment_dataset()
    index = index_from_dataset(ds)
    model = CtrModel([fs.num_ids for fs in ds.schema], embed_dim=8,
                     num_blocks=1, num_heads=2, seed=0)
    no_test = Dataset(ds.schema, ds.field_ids, ds.labels, ds.timestamps,
                      train_end=8, valid_end=12)
    with pytest.raises(DataError, match="test slice is empty"):
        evaluate(model, no_test, index, tiny_cfg(k=2))
    flat = Dataset(ds.schema, ds.field_ids, np.ones(12, dtype=np.int64),
                   ds.timestamps, train_end=8, valid_end=10)
    with pytest.raises(DataError, match="single class"):
        evaluate(model, flat, index_from_dataset(flat), tiny_cfg(k=2))


# ---------------------------------------------------------------- ablation

def test_ablate_covers_all_variants(tmp_path):
    ds = tiny_task()
    index = index_from_dataset(ds)
    rows = ablate(ds, index, tiny_cfg(max_epochs=1))
    assert [r.variant for r in rows] == list(ABLATION_ORDER)
    for r in rows:
        assert 0.0 <= r.auc <= 1.0
        assert r.logloss > 0.0
        assert r.params > 0
        assert r.runtime_us > 0.0

    path = str(tmp_path / "ablation.csv")
    write_ablation_csv(rows, path)
    with open(path) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "variant,auc,logloss,params,runtime_us"
    assert len(lines) == 5
    # repr round trip: the written floats parse back bit-identically
    for line, r in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[0] == r.variant
        assert float(cells[1]) == r.auc
        assert float(cells[2]) == r.logloss
        assert int(cells[3]) == r.params
        assert float(cells[4]) == r.runtime_us


def test_forward_timing_positive():
    ds = tiny_task()
    index = index_from_dataset(ds)
    neighbors = precompute_neighbors(ds, index, k=5)
    model = CtrModel([fs.num_ids for fs in ds.schema], embed_dim=8,
                     num_blocks=1, num_heads=2, seed=0)
    rows = ds.slice_indices("test")[:32]
    us = time_forward_per_example(model, ds, neighbors, rows)
    assert us > 0.0
