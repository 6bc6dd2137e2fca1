"""Acceptance suite: one test per shipped guarantee, each printing a
[criterion N] PASS line with the measured numbers.

The heavy fixtures (the neighbor-dependent synthetic task and its trained
variants) are shared module-wide, so this file runs measurably longer than
the unit suites.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from helpers import attention_entries, cascade_entries_per_layer, jm_entries_per_layer
from ractr import tensor as T
from ractr.cli import main
from ractr.model import VARIANTS, CtrModel, build_input_batch
from ractr.retrieval import (
    brute_force_retrieve,
    build_index,
    index_from_dataset,
    retrieve,
    retrieve_batch,
)
from ractr.synthetic import majority_task
from ractr.training import (
    TrainConfig,
    auc,
    evaluate,
    logloss,
    precompute_neighbors,
    time_forward_per_example,
    train,
)

# criterion 5 compares the four layouts that read neighbors
ORDERED = ("cascade", "jm", "ce", "pa")


# ------------------------------------------------------------- shared fixtures

@pytest.fixture(scope="module")
def ordering_runs():
    """Train all four variants on seeds 42/43/44 over the neighbor-majority
    task sized so top-5 retrieval yields 4 same-key records plus 1 stranger."""
    ds = majority_task(n_history_groups=240, n_eval_groups=400,
                       eval_train_records=4, seed=7)
    index = index_from_dataset(ds)
    neighbors = precompute_neighbors(ds, index, 5)
    timing_rows = ds.slice_indices("test")[:256]

    aucs = {v: [] for v in ORDERED}
    fwd_us = {"cascade": [], "jm": []}
    for seed in (42, 43, 44):
        for variant in ORDERED:
            cfg = TrainConfig(k=5, learning_rate=5e-4, batch_size=128,
                              max_epochs=2, early_stop_patience=2,
                              seed=seed, variant=variant)
            res = train(ds, index, cfg, neighbors=neighbors)
            rep = evaluate(res.model, ds, index, cfg, split="test",
                           neighbors=neighbors)
            aucs[variant].append(rep.auc)
            if variant in fwd_us:
                fwd_us[variant].append(
                    time_forward_per_example(res.model, ds, neighbors, timing_rows))
    return aucs, fwd_us


@pytest.fixture(scope="module")
def learnability_runs():
    """Matched one-epoch budgets: the full model reads neighbor labels through
    cross-sample attention; the intra-only arm sees only the target's own
    fields, whose values are independent of the label by construction."""
    ds = majority_task(n_history_groups=240, n_eval_groups=400,
                       eval_train_records=3, seed=7)
    index = index_from_dataset(ds)
    out = {}
    for variant in ("cascade", "intra"):
        cfg = TrainConfig(k=5, learning_rate=1e-3, batch_size=128,
                          max_epochs=1, early_stop_patience=1, seed=42,
                          variant=variant)
        res = train(ds, index, cfg)
        rep = evaluate(res.model, ds, index, cfg, split="test",
                       neighbors=res.neighbors)
        out[variant] = rep.auc
    return out


def random_input_batch(model, rng, b, k, pad_frac=0.4):
    """Random targets/pools with a mix of real and padded neighbor slots."""
    nf = len(model.field_num_ids)
    pool = np.stack([rng.integers(0, nid, size=64)
                     for nid in model.field_num_ids], axis=1)
    pool_labels = rng.integers(0, 2, size=64)
    tgt = np.stack([rng.integers(0, nid, size=b)
                    for nid in model.field_num_ids], axis=1)
    nidx = rng.integers(0, 64, size=(b, k))
    mask = rng.random(size=(b, k)) > pad_frac
    nidx[~mask] = -1
    x, m = build_input_batch(model, tgt, nidx, mask, pool, pool_labels)
    return x, m


# ------------------------------------------------------------- criterion 1

def test_criterion_01_retrieval_matches_brute_force():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        n = int(rng.integers(3, 501))
        nf = int(rng.integers(1, 7))
        vocab = int(rng.integers(2, 21))
        ids = rng.integers(0, vocab + 1, size=(n, nf))
        ts = np.sort(rng.integers(0, max(2, n // 3), size=n))
        index = build_index(ids, ts)

        queries = np.stack([ids[rng.integers(0, n)],
                            rng.integers(0, vocab + 3, size=nf)])
        for k in (1, 5, 10):
            batched = retrieve_batch(index, queries, k)
            for qi in range(2):
                fast = retrieve(index, queries[qi], k)
                slow = brute_force_retrieve(index, queries[qi], k)
                assert fast.neighbor_indices.tolist() == slow.neighbor_indices.tolist()
                assert fast.mask.tolist() == slow.mask.tolist()
                np.testing.assert_allclose(fast.scores, slow.scores,
                                           atol=1e-12, rtol=0)
                assert batched.neighbor_indices[qi].tolist() == \
                    fast.neighbor_indices.tolist()
                assert batched.scores[qi].tolist() == fast.scores.tolist()
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"retrieval equivalence took {elapsed:.1f}s"
    print(f"[criterion 1] PASS: {checked} query/k comparisons across 100 pools "
          f"matched the brute-force oracle exactly in {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 2

def test_criterion_02_no_leakage_over_10k_queries():
    rng = np.random.default_rng(202)
    total = 0
    for pool_i in range(10):
        n = 1000
        nf = int(rng.integers(2, 6))
        vocab = int(rng.integers(3, 12))
        ids = rng.integers(0, vocab + 1, size=(n, nf))
        ts = np.sort(rng.integers(0, 300, size=n))
        index = build_index(ids, ts)

        res = retrieve_batch(index, ids, k=5, eligibility="earlier",
                             query_ts=ts, query_index=np.arange(n))
        nb, mk = res.neighbor_indices, res.mask
        qi = np.broadcast_to(np.arange(n)[:, None], nb.shape)
        sel_nb, sel_qi = nb[mk], qi[mk]
        strictly_earlier = (ts[sel_nb] < ts[sel_qi]) | (
            (ts[sel_nb] == ts[sel_qi]) & (sel_nb < sel_qi))
        assert strictly_earlier.all()
        total += n
    assert total == 10000
    print(f"[criterion 2] PASS: 100% of unmasked neighbors over {total} "
          f"queries were strictly earlier than their query")


# ------------------------------------------------------------- criterion 3

def test_criterion_03_full_pipeline_gradients():
    rng = np.random.default_rng(303)
    pool = np.array([[1, 2], [2, 1], [3, 0], [0, 2], [1, 1], [2, 2]])
    pool_labels = np.array([0, 1, 1, 0, 1, 0])
    tgt = np.array([[1, 2], [3, 0]])
    nidx = np.array([[0, 3], [5, -1]])
    nmask = np.array([[True, True], [True, False]])
    y = np.array([1.0, 0.0])
    h = 1e-5

    t0 = time.perf_counter()
    worst = {}
    for variant in VARIANTS:
        model = CtrModel(field_num_ids=[4, 3], embed_dim=4, num_blocks=1,
                         num_heads=2, mlp_ratio=2, variant=variant, seed=9)
        for p in model.parameters():  # zero head at init would starve the chain
            p.data = p.data + rng.normal(0, 0.05, size=p.data.shape)

        def loss_value():
            x, mask = build_input_batch(model, tgt, nidx, nmask,
                                        pool, pool_labels)
            p = model.predict(x, mask)
            pc = T.clamp(p, 1e-7, 1.0 - 1e-7)
            nll = T.add(T.mul(y, T.tlog(pc)),
                        T.mul(1.0 - y, T.tlog(T.sub(1.0, pc))))
            return T.mul(T.tmean(nll), -1.0)

        named = model.named_parameters()
        grads = loss_value().backward([t for _, t in named])
        max_err = 0.0
        for (name, t), ga in zip(named, grads):
            flat = t.data.reshape(-1)
            gn = np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = float(loss_value().data)
                flat[i] = orig - h
                lm = float(loss_value().data)
                flat[i] = orig
                gn[i] = (lp - lm) / (2.0 * h)
            err = np.abs(ga.reshape(-1) - gn) / np.maximum(1.0, np.abs(gn))
            max_err = max(max_err, float(err.max()))
        worst[variant] = max_err
        assert max_err <= 1e-4, f"{variant}: max rel err {max_err:.2e}"

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    detail = ", ".join(f"{v} {e:.1e}" for v, e in worst.items())
    print(f"[criterion 3] PASS: finite differences within 1e-4 for every "
          f"parameter ({detail}) in {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 4

def test_criterion_04_attention_entry_counts():
    assert cascade_entries_per_layer(5, 3) == 240
    assert jm_entries_per_layer(5, 3) == 576

    rng = np.random.default_rng(404)
    measured = {}
    for variant, expect in (("cascade", 240), ("jm", 576)):
        model = CtrModel(field_num_ids=[6, 6, 6], embed_dim=8, num_blocks=1,
                         num_heads=2, variant=variant, seed=4)
        x, mask = random_input_batch(model, rng, b=1, k=5, pad_frac=0.0)
        measured[variant] = attention_entries(model, x, mask)
        assert measured[variant] == expect, variant
    print(f"[criterion 4] PASS: instrumented forward counted "
          f"{measured['cascade']} cascade / {measured['jm']} joint attention "
          f"entries per layer at K=5, F=3")


# ------------------------------------------------------------- criterion 5

def test_criterion_05_variant_ordering_and_speed(ordering_runs):
    aucs, fwd_us = ordering_runs
    med = {v: float(np.median(a)) for v, a in aucs.items()}
    for other in ("jm", "ce", "pa"):
        assert med["cascade"] >= med[other] - 0.01, (med, other)

    c_us = float(np.median(fwd_us["cascade"]))
    j_us = float(np.median(fwd_us["jm"]))
    assert c_us < 0.90 * j_us, f"cascade {c_us:.0f}us vs jm {j_us:.0f}us"

    detail = ", ".join(f"{v} {med[v]:.4f}" for v in ORDERED)
    print(f"[criterion 5] PASS: median test AUC over 3 seeds ({detail}); "
          f"cascade forward {c_us:.0f}us vs jm {j_us:.0f}us "
          f"({100 * (1 - c_us / j_us):.0f}% faster)")


# ------------------------------------------------------------- criterion 6

def test_criterion_06_neighbors_carry_the_signal(learnability_runs):
    full = learnability_runs["cascade"]
    intra = learnability_runs["intra"]
    assert full >= 0.90, f"cascade test AUC {full:.4f}"
    assert intra <= 0.60, f"intra-only test AUC {intra:.4f}"
    print(f"[criterion 6] PASS: cascade test AUC {full:.4f} >= 0.90 within "
          f"one epoch; intra-only {intra:.4f} <= 0.60 on the same budget")


# ------------------------------------------------------------- criterion 7

def test_criterion_07_padded_slots_are_bitwise_invisible():
    rng = np.random.default_rng(707)
    total = 0
    for variant in VARIANTS:
        model = CtrModel(field_num_ids=[9, 7, 8], embed_dim=16, num_blocks=2,
                         num_heads=2, variant=variant, seed=17)
        for p in model.parameters():
            p.data = p.data + rng.normal(0, 0.05, size=p.data.shape)
        x, mask = random_input_batch(model, rng, b=250, k=5)
        base = model.predict(x, mask).data.copy()

        noisy = x.data.copy()
        noisy[~mask] += rng.normal(0, 100.0, size=noisy[~mask].shape)
        got = model.predict(T.Tensor(noisy), mask).data
        assert np.array_equal(base, got), variant
        total += len(base)
    assert total == 1250
    print(f"[criterion 7] PASS: noise injected into padded neighbor slots "
          f"changed 0 of {total} predictions (bitwise)")


# ------------------------------------------------------------- criterion 8

def test_criterion_08_neighbor_order_is_irrelevant():
    rng = np.random.default_rng(808)
    worst = 0.0
    total = 0
    for variant in VARIANTS:
        model = CtrModel(field_num_ids=[9, 7, 8], embed_dim=16, num_blocks=2,
                         num_heads=2, variant=variant, seed=23)
        for p in model.parameters():
            p.data = p.data + rng.normal(0, 0.05, size=p.data.shape)
        x, mask = random_input_batch(model, rng, b=250, k=5)
        base = model.predict(x, mask).data

        perm = np.concatenate([[0], 1 + rng.permutation(5)])
        got = model.predict(T.Tensor(x.data[:, perm]), mask[:, perm]).data
        diff = float(np.abs(got - base).max())
        worst = max(worst, diff)
        assert diff <= 1e-9, (variant, diff)
        total += len(base)
    assert total == 1250
    print(f"[criterion 8] PASS: permuting neighbor rows moved predictions by "
          f"at most {worst:.1e} over {total} inputs (bound 1e-9)")


# ------------------------------------------------------------- criterion 9

def test_criterion_09_metric_oracles():
    assert logloss([1], [0.5]) == pytest.approx(math.log(2), abs=1e-12)
    assert logloss([1], [1.0]) == pytest.approx(1e-7, abs=1e-12)
    assert logloss([1, 0], [0.9, 0.1]) == pytest.approx(0.10536051565782628,
                                                        abs=1e-12)
    assert auc([1, 0], [0.9, 0.1]) == 1.0
    assert auc([1, 0], [0.5, 0.5]) == 0.5
    assert auc([1, 0, 1], [0.8, 0.6, 0.4]) == pytest.approx(0.5, abs=1e-12)

    rng = np.random.default_rng(909)
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(2, 120))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = rng.random(n)
        if case % 2:
            s = np.round(s, 1)  # heavy ties
        pos, neg = s[y == 1], s[y == 0]
        wins = (pos[:, None] > neg[None, :]).sum() \
            + 0.5 * (pos[:, None] == neg[None, :]).sum()
        oracle = wins / (len(pos) * len(neg))
        diff = abs(auc(y, s) - oracle)
        worst = max(worst, diff)
        assert diff <= 1e-12, case
    print(f"[criterion 9] PASS: hand-arithmetic examples exact; 1000 random "
          f"cases matched the pairwise oracle (worst diff {worst:.1e})")


# ------------------------------------------------------------- criterion 10

def test_criterion_10_training_is_bit_reproducible(tmp_path, capsys):
    base = str(tmp_path / "synth")
    assert main(["synth", "--out-dir", base, "--seed", "3",
                 "--history-groups", "12", "--eval-groups", "24",
                 "--eval-train-records", "3"]) == 0
    cfg_path = os.path.join(base, "config.json")
    with open(cfg_path) as f:
        cfg = json.load(f)
    cfg["train"].update({"k": 4, "embed_dim": 8, "num_blocks": 1,
                         "num_heads": 2, "mlp_ratio": 2, "batch_size": 64,
                         "max_epochs": 2, "learning_rate": 3e-3, "seed": 11})
    with open(cfg_path, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)

    runs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for out in runs:
        assert main(["train", "--config", cfg_path, "--out", out]) == 0
    capsys.readouterr()

    def read(run, name, mode="r"):
        with open(os.path.join(run, name), mode) as f:
            return f.read()

    ckpt_a = read(runs[0], "checkpoint.ratm", "rb")
    assert ckpt_a == read(runs[1], "checkpoint.ratm", "rb")
    assert read(runs[0], "summary.json") == read(runs[1], "summary.json")
    assert read(runs[0], "run_config.json") == read(runs[1], "run_config.json")

    # the log's wall_ms field is wall-clock by definition; every learned
    # quantity in the log must still match exactly
    def learned(run):
        return [{k: v for k, v in json.loads(line).items() if k != "wall_ms"}
                for line in read(run, "train_log.jsonl").splitlines()]

    assert learned(runs[0]) == learned(runs[1])
    print(f"[criterion 10] PASS: two identical train commands produced "
          f"bit-identical checkpoints ({len(ckpt_a)} bytes) and identical "
          f"logs apart from wall-clock timing")
