"""Input assembly, masking guarantees, equivariances, entry counts, checkpoints."""

import hashlib
import json
import os

import numpy as np
import pytest

from helpers import (
    attention_entries,
    cascade_entries_per_layer,
    jm_entries_per_layer,
    unfused_ops,
)
from ractr import model as model_mod
from ractr import tensor as T
from ractr.errors import DataError, UsageError
from ractr.model import (
    LABEL_UNKNOWN,
    MIXES,
    CtrModel,
    build_input_batch,
    load_checkpoint,
    save_checkpoint,
)
from ractr.training import TrainConfig

VARIANTS = ("cascade", "jm", "ce", "pa")


def tiny_model(variant="cascade", seed=42, d=8):
    return CtrModel(field_num_ids=[5, 7, 4], embed_dim=d, num_blocks=1,
                    num_heads=2, mlp_ratio=2, variant=variant, seed=seed)


def random_batch(model, rng, b=3, k=4, n_pad=0):
    nf = len(model.field_num_ids)
    pool = np.stack([rng.integers(0, nid, size=20)
                     for nid in model.field_num_ids], axis=1)
    pool_labels = rng.integers(0, 2, size=20)
    tgt = np.stack([rng.integers(0, nid, size=b)
                    for nid in model.field_num_ids], axis=1)
    nidx = rng.integers(0, 20, size=(b, k))
    mask = np.ones((b, k), dtype=bool)
    for row in range(min(n_pad, b)):
        mask[row, k - 1 - row:] = False
        nidx[row, k - 1 - row:] = -1
    x, m = build_input_batch(model, tgt, nidx, mask, pool, pool_labels)
    return x, m, (tgt, nidx, mask, pool, pool_labels)


# ---------------------------------------------------------------- inputs

def test_input_batch_slot_layout():
    m = tiny_model()
    rng = np.random.default_rng(0)
    pool = rng.integers(0, 4, size=(10, 3))
    pool_labels = np.array([0, 1] * 5)
    tgt = np.array([[1, 2, 3], [0, 1, 1]])
    nidx = np.array([[4, 7], [9, -1]])
    nmask = np.array([[True, True], [True, False]])
    x, mask = build_input_batch(m, tgt, nidx, nmask, pool, pool_labels)

    assert x.shape == (2, 3, 4, 8)
    assert mask.tolist() == [[True, True, True], [True, True, False]]

    lbl = m.params["emb.label"].data
    # target row: unknown-label token at position 0, then its field embeddings
    np.testing.assert_array_equal(x.data[0, 0, 0], lbl[LABEL_UNKNOWN])
    np.testing.assert_array_equal(x.data[1, 0, 0], lbl[LABEL_UNKNOWN])
    for f in range(3):
        np.testing.assert_array_equal(
            x.data[0, 0, 1 + f], m.params[f"emb.field.{f}"].data[tgt[0, f]])
    # neighbor rows carry their observed click labels
    np.testing.assert_array_equal(x.data[0, 1, 0], lbl[pool_labels[4]])
    np.testing.assert_array_equal(x.data[0, 2, 0], lbl[pool_labels[7]])
    np.testing.assert_array_equal(
        x.data[0, 1, 2], m.params["emb.field.1"].data[pool[4, 1]])
    # the padded slot is the learned pad row at every field position
    for t in range(4):
        np.testing.assert_array_equal(x.data[1, 2, t], m.params["emb.pad"].data)


def test_input_batch_k_zero():
    m = tiny_model()
    tgt = np.array([[1, 2, 3]])
    x, mask = build_input_batch(m, tgt, np.empty((1, 0), dtype=np.int64),
                                np.empty((1, 0), dtype=bool),
                                np.empty((0, 3), dtype=np.int64),
                                np.empty(0, dtype=np.int64))
    assert x.shape == (1, 1, 4, 8)
    assert mask.tolist() == [[True]]
    np.testing.assert_array_equal(x.data[0, 0, 0], m.params["emb.label"].data[2])


def test_input_batch_rejects_out_of_pool_neighbors():
    m = tiny_model()
    pool = np.ones((5, 3), dtype=np.int64)
    labels = np.ones(5, dtype=np.int64)
    tgt = np.array([[1, 1, 1]])
    with pytest.raises(IndexError, match="out of pool range"):
        build_input_batch(m, tgt, np.array([[5]]), np.array([[True]]),
                          pool, labels)
    with pytest.raises(IndexError, match="out of pool range"):
        build_input_batch(m, tgt, np.array([[-1]]), np.array([[True]]),
                          pool, labels)


# ---------------------------------------------------------------- masking

@pytest.mark.parametrize("variant", VARIANTS)
def test_padded_slot_content_cannot_change_prediction(variant):
    """Bitwise invariance: junk written into padded sample slots is invisible."""
    m = tiny_model(variant)
    rng = np.random.default_rng(2)
    x, mask, _ = random_batch(m, rng, b=4, k=3, n_pad=3)
    base = m.predict(x, mask).data.copy()

    noisy = x.data.copy()
    pad_rows = ~mask
    noisy[pad_rows] += rng.normal(0, 100.0, size=noisy[pad_rows].shape)
    got = m.predict(T.Tensor(noisy), mask).data
    assert np.array_equal(base, got)


def test_intra_only_ignores_padding_too():
    m = tiny_model("intra")
    rng = np.random.default_rng(3)
    x, mask, _ = random_batch(m, rng, b=3, k=3, n_pad=2)
    base = m.predict(x, mask).data.copy()
    noisy = x.data.copy()
    noisy[~mask] = 1e6
    got = m.predict(T.Tensor(noisy), mask).data
    assert np.array_equal(base, got)


def test_masked_target_row_rejected():
    m = tiny_model()
    rng = np.random.default_rng(4)
    x, mask, _ = random_batch(m, rng)
    mask = mask.copy()
    mask[1, 0] = False
    with pytest.raises(ValueError, match="row 0"):
        m.predict(x, mask)


# ---------------------------------------------------------------- equivariance

@pytest.mark.parametrize("variant", VARIANTS)
def test_neighbor_permutation_leaves_prediction_unchanged(variant):
    m = tiny_model(variant)
    rng = np.random.default_rng(5)
    x, mask, _ = random_batch(m, rng, b=4, k=5, n_pad=2)
    base = m.predict(x, mask).data

    perm = np.concatenate([[0], 1 + rng.permutation(5)])
    xp = T.Tensor(x.data[:, perm])
    got = m.predict(xp, mask[:, perm]).data
    np.testing.assert_allclose(got, base, atol=1e-9, rtol=0)


def test_intra_attention_is_sample_equivariant():
    # samples are batch entries for ISA: reordering them reorders the output
    m = tiny_model("intra")
    rng = np.random.default_rng(6)
    x, mask, _ = random_batch(m, rng, b=2, k=4)
    h = m._run_blocks(x, mask, x.shape[1:3]).data
    perm = rng.permutation(5)
    xp = T.Tensor(x.data[:, perm])
    hp = m._run_blocks(xp, mask[:, perm], xp.shape[1:3]).data
    np.testing.assert_allclose(hp, h[:, perm], atol=1e-12, rtol=0)


@pytest.mark.parametrize("name", tuple(MIXES))
def test_attention_respects_its_axes(name):
    """Each attention run alone along its MIXES axes. An axis it does not mix
    is batch, so reordering it reorders the output: ISA is sample-equivariant,
    CSA field-equivariant. Where samples mix (CSA, joint), padded samples'
    queries get exactly zero update."""
    m = tiny_model("jm" if name == "attn" else "cascade")
    rng = np.random.default_rng(7)
    x, mask, _ = random_batch(m, rng, b=3, k=3, n_pad=2)
    att, axes = f"block.0.{name}", MIXES[name]
    out = m._attend(x, x, att, mask, axes).data
    for axis in {1, 2} - set(axes):
        perm = rng.permutation(x.shape[axis])
        xp = T.Tensor(np.take(x.data, perm, axis=axis))
        mp = mask[:, perm] if axis == 1 else mask
        outp = m._attend(xp, xp, att, mp, axes).data
        np.testing.assert_allclose(outp, np.take(out, perm, axis=axis), atol=1e-12, rtol=0)
    if 1 in axes:
        assert not mask.all()
        assert (out[~mask] == 0.0).all()
        assert (out[mask] != 0.0).all()


# ---------------------------------------------------------------- pruning

@pytest.mark.parametrize("intra", (False, True), ids=("full", "intra_only"))
@pytest.mark.parametrize("num_blocks", (1, 2))
@pytest.mark.parametrize("variant", VARIANTS)
def test_pruned_predict_matches_full_grid(variant, num_blocks, intra):
    """predict computes only what token (0, 0) reads. The reference is the
    head applied to the whole-grid block output: predictions agree within
    1e-12 and every parameter gradient of a BCE loss within 1e-10 relative."""
    m = CtrModel(field_num_ids=[5, 7, 4], embed_dim=8, num_blocks=num_blocks,
                 num_heads=2, mlp_ratio=2, variant="intra" if intra else variant,
                 seed=3)
    rng = np.random.default_rng(31)
    for p in m.parameters():  # move off init: a zero head would hide any difference
        p.data = p.data + rng.normal(0, 0.3, size=p.data.shape)
    x, mask, _ = random_batch(m, rng, b=4, k=4, n_pad=3)
    y = np.array([1.0, 0.0, 0.0, 1.0])

    def grads(p):
        nll = T.add(T.mul(y, T.tlog(p)), T.mul(1.0 - y, T.tlog(T.sub(1.0, p))))
        names, params = zip(*m.named_parameters())
        return dict(zip(names, T.mul(T.tmean(nll), -1.0).backward(params)))

    pruned = m.predict(x, mask)
    tok = T.token_at(m._run_blocks(x, mask, x.shape[1:3]), 0, 0)
    head = T.add(T.matmul(tok, m.params["head.w"]), m.params["head.b"])
    full = T.reshape(T.sigmoid(head), (4,))
    assert np.abs(pruned.data - full.data).max() <= 1e-12
    assert np.ptp(full.data) > 1e-3  # the predictions are not trivially equal
    got, want = grads(pruned), grads(full)
    for name, g in want.items():
        # a key bias shifts a softmax row by a constant, so its true gradient
        # is 0 and both paths hold only rounding (~1e-17): the 1e-6 floor
        scale = max(np.abs(g).max(), 1e-6)
        assert np.abs(got[name] - g).max() <= 1e-10 * scale, name


@pytest.mark.parametrize("num_blocks", (1, 2))
@pytest.mark.parametrize("variant", model_mod.VARIANTS)
def test_fused_ops_match_the_unfused_model(variant, num_blocks):
    """The model on its fused linear, attention, layer_norm and gelu nodes
    against the same model on the separate nodes they replace, with padded
    neighbor rows. The fused forwards run the same numpy ops in the same
    order, so predictions are bitwise equal; the backwards sum in another
    order, so every parameter gradient of a BCE loss agrees within 1e-10
    relative."""
    m = CtrModel(field_num_ids=[5, 7, 4], embed_dim=8, num_blocks=num_blocks,
                 num_heads=2, mlp_ratio=2, variant=variant, seed=5)
    rng = np.random.default_rng(41)
    for p in m.parameters():  # move off init: a zero head would hide any difference
        p.data = p.data + rng.normal(0, 0.3, size=p.data.shape)
    x, mask, _ = random_batch(m, rng, b=4, k=4, n_pad=3)
    y = np.array([1.0, 0.0, 0.0, 1.0])
    names, params = zip(*m.named_parameters())

    def run():
        p = m.predict(x, mask)
        nll = T.add(T.mul(y, T.tlog(p)), T.mul(1.0 - y, T.tlog(T.sub(1.0, p))))
        return p.data, T.mul(T.tmean(nll), -1.0).backward(params)

    fused, fused_grads = run()
    with unfused_ops():
        unfused, unfused_grads = run()
    assert np.ptp(unfused) > 1e-3  # the predictions are not trivially equal
    assert fused.tobytes() == unfused.tobytes()
    for name, got, want in zip(names, fused_grads, unfused_grads):
        # a key bias's true gradient is 0, so both hold only rounding: the 1e-6 floor
        scale = max(np.abs(want).max(), 1e-6)
        assert np.abs(got - want).max() <= 1e-10 * scale, name


@pytest.mark.parametrize("intra", (False, True), ids=("full", "intra_only"))
@pytest.mark.parametrize("num_blocks", (1, 2))
@pytest.mark.parametrize("variant", VARIANTS)
def test_no_grad_forward_is_bitwise_and_graph_free(variant, num_blocks, intra):
    """The frozen view runs the same numpy ops in the same order over
    constant parameters, so inputs, predict and the whole-grid block output
    are byte-equal to the graph-building forward, and no output holds a parent
    or a backward function."""
    m = CtrModel(field_num_ids=[5, 7, 4], embed_dim=8, num_blocks=num_blocks,
                 num_heads=2, mlp_ratio=2, variant="intra" if intra else variant,
                 seed=3)
    rng = np.random.default_rng(37)
    for p in m.parameters():
        p.data = p.data + rng.normal(0, 0.3, size=p.data.shape)
    x, mask, raw = random_batch(m, rng, b=4, k=4, n_pad=3)
    graph = (x, m.predict(x, mask), m._run_blocks(x, mask, x.shape[1:3]))
    view = m.frozen()
    assert type(view) is CtrModel and all(p.requires_grad for p in m.parameters())
    for p, c in zip(m.parameters(), view.parameters()):
        assert c.data is p.data and not c.requires_grad
    x_free, _ = build_input_batch(view, *raw)
    free = (x_free, view.predict(x_free, mask), view._run_blocks(x_free, mask, x.shape[1:3]))
    assert np.ptp(graph[1].data) > 1e-3  # the predictions are not trivially equal
    for g, f in zip(graph, free):
        assert g._parents and g._backward_fn is not None
        assert f.data.tobytes() == g.data.tobytes()
        assert not f.requires_grad and f._parents == () and f._backward_fn is None


# ---------------------------------------------------------------- structure

def test_zeroed_output_projections_make_blocks_identity():
    for variant in VARIANTS:
        m = tiny_model(variant)
        for name, p in m.named_parameters():
            if ".o.w" in name or ".o.b" in name or "mlp.lin2" in name:
                p.data[...] = 0.0
        rng = np.random.default_rng(8)
        x, mask, _ = random_batch(m, rng, b=2, k=3, n_pad=1)
        h = m._run_blocks(x, mask, x.shape[1:3])
        assert np.array_equal(h.data, x.data), variant


def test_fresh_model_predicts_half():
    # the head starts at zero, so an untrained model outputs exactly 0.5
    for variant in VARIANTS:
        m = tiny_model(variant)
        rng = np.random.default_rng(9)
        x, mask, _ = random_batch(m, rng)
        assert (m.predict(x, mask).data == 0.5).all()


def test_attention_entry_formulas():
    assert cascade_entries_per_layer(5, 3) == 240
    assert jm_entries_per_layer(5, 3) == 576


def test_counter_matches_formula_during_forward():
    rng = np.random.default_rng(10)
    for variant, per_layer in (("cascade", 240), ("jm", 576),
                               ("ce", 240), ("pa", 240)):
        m = CtrModel(field_num_ids=[5, 5, 5], embed_dim=8, num_blocks=2,
                     num_heads=2, variant=variant, seed=1)
        x, mask, _ = random_batch(m, rng, b=2, k=5)
        # per example, L=2 layers
        assert attention_entries(m, x, mask) == 2 * per_layer, variant


def test_parameter_count_hand_example():
    m = CtrModel(field_num_ids=[3], embed_dim=4, num_blocks=1, num_heads=1,
                 mlp_ratio=2, variant="jm", seed=0)
    # embeddings 12+12+4, block 8+80+8+76, head 5
    assert m.parameter_count() == 205


def test_parameter_parity_when_embeddings_dominate():
    counts = {}
    for variant in VARIANTS:
        m = CtrModel(field_num_ids=[30000] * 4, embed_dim=16, num_blocks=2,
                     num_heads=2, variant=variant, seed=0)
        counts[variant] = m.parameter_count()
    lo, hi = min(counts.values()), max(counts.values())
    assert (hi - lo) / hi <= 0.05, counts


def test_ce_builds_two_half_blocks_per_layer():
    m = tiny_model("ce")
    assert list(m.kinds) == ["intra", "cross"]
    m2 = CtrModel(field_num_ids=[5], embed_dim=8, num_blocks=2, num_heads=2,
                  variant="ce", seed=0)
    assert list(m2.kinds) == ["intra", "cross", "intra", "cross"]


def _ln(pre, d):
    return [(f"{pre}.gamma", (d,)), (f"{pre}.beta", (d,))]


def _att(pre, d, w):
    out = []
    for part, fan_in in (("q", d), ("k", d), ("v", d), ("o", w)):
        out += [(f"{pre}.{part}.w", (fan_in, w)), (f"{pre}.{part}.b", (w,))]
    return out


def _mlp(pre, d, hidden):
    return [(f"{pre}.lin1.w", (d, hidden)), (f"{pre}.lin1.b", (hidden,)),
            (f"{pre}.lin2.w", (hidden, d)), (f"{pre}.lin2.b", (d,))]


# the (variant, intra) cases: each variant, then the intra layout
LAYOUT_CASES = [(v, False) for v in VARIANTS] + [("cascade", True)]


@pytest.mark.parametrize("variant,intra", LAYOUT_CASES)
def test_checkpoint_parameter_layout(variant, intra):
    """Pins the ordered (name, shape) list a .ratm stores at num_blocks=2."""
    d, hidden = 8, 16
    variant = "intra" if intra else variant
    m = CtrModel(field_num_ids=[5, 7], embed_dim=d, num_blocks=2, num_heads=2,
                 mlp_ratio=2, variant=variant, seed=0)
    per_block = {
        "cascade": lambda b: (_ln(f"{b}.ln1", d) + _att(f"{b}.isa", d, d)
                              + _ln(f"{b}.ln2", d) + _att(f"{b}.csa", d, d)),
        "jm": lambda b: _ln(f"{b}.ln1", d) + _att(f"{b}.attn", d, d),
        "intra": lambda b: _ln(f"{b}.ln1", d) + _att(f"{b}.isa", d, d),
        "cross": lambda b: _ln(f"{b}.ln1", d) + _att(f"{b}.csa", d, d),
        "pa": lambda b: (_ln(f"{b}.ln1", d) + _att(f"{b}.isa", d, d // 2)
                         + _att(f"{b}.csa", d, d // 2)),
    }
    kinds = {"cascade": ["cascade"] * 2, "jm": ["jm"] * 2,
             "ce": ["intra", "cross", "intra", "cross"], "pa": ["pa"] * 2,
             "intra": ["intra"] * 2}[variant]
    want = [("emb.field.0", (5, d)), ("emb.field.1", (7, d)),
            ("emb.label", (3, d)), ("emb.pad", (d,))]
    for i, kind in enumerate(kinds):  # for ce, i counts half-blocks
        want += (per_block[kind](f"block.{i}") + _ln(f"block.{i}.ln_mlp", d)
                 + _mlp(f"block.{i}.mlp", d, hidden))
    want += [("head.w", (d, 1)), ("head.b", (1,))]
    assert [(n, t.data.shape) for n, t in m.named_parameters()] == want


@pytest.mark.parametrize("variant,intra", LAYOUT_CASES)
def test_initial_weights_are_the_documented_draws(variant, intra):
    """An oracle apart from the model's layout code: one generator seeded as
    the model draws every parameter in checkpoint order (pinned above):
    embeddings from N(0, 0.01), every weight but the head's from
    U(-sqrt(1/fan_in), sqrt(1/fan_in)), LN gammas ones, all else zeros."""
    m = CtrModel(field_num_ids=[5, 7], embed_dim=8, num_blocks=2, num_heads=2,
                 mlp_ratio=2, variant="intra" if intra else variant, seed=17)
    rng = np.random.default_rng(17)
    for name, t in m.named_parameters():
        shape = t.data.shape
        if name.startswith("emb."):
            want = rng.normal(0.0, 0.01, size=shape)
        elif name.endswith(".w") and name != "head.w":
            a = np.sqrt(1.0 / shape[0])
            want = rng.uniform(-a, a, size=shape)
        else:
            want = np.ones(shape) if name.endswith(".gamma") else np.zeros(shape)
        assert t.data.tobytes() == want.tobytes(), name


def test_constructor_validation():
    with pytest.raises(ValueError, match="unknown variant"):
        CtrModel([5], variant="mlp")
    with pytest.raises(ValueError, match="unknown activation"):
        CtrModel([5], activation="tanh")
    with pytest.raises(ValueError, match="not divisible"):
        CtrModel([5], embed_dim=6, num_heads=4)
    with pytest.raises(ValueError, match="pa needs"):
        CtrModel([5], embed_dim=6, num_heads=2, variant="pa")


@pytest.mark.parametrize("size", ("embed_dim", "mlp_ratio", "num_heads"))
def test_zero_sizes_are_value_errors(size):
    with pytest.raises(ValueError, match=f"'{size}' must be an integer >= 1, got 0"):
        CtrModel([5], **{size: 0})


@pytest.mark.parametrize("key,value,msg", [
    ("embed_dim", 0, "'embed_dim' must be an integer >= 1, got 0"),
    ("embed_dim", "8", "'embed_dim' must be an integer >= 1, got '8'"),
    ("num_heads", 2.0, "'num_heads' must be an integer >= 1, got 2.0"),
    ("mlp_ratio", True, "'mlp_ratio' must be an integer >= 1, got True"),
    ("num_blocks", -1, "'num_blocks' must be an integer >= 0, got -1"),
    ("num_blocks", False, "'num_blocks' must be an integer >= 0, got False"),
    ("seed", -1, "'seed' must be an integer >= 0, got -1"),
    ("seed", None, "'seed' must be an integer >= 0, got None"),
    ("variant", "mlp", "unknown variant 'mlp'"),
    ("variant", ["pa"], "unknown variant ['pa']"),
    ("activation", "tanh", "unknown activation 'tanh'"),
    ("embed_dim", 7, "embed_dim 7 not divisible by 2 heads"),
])
def test_a_bad_setting_reads_the_same_everywhere(tmp_path, key, value, msg):
    """One check rejects a model setting wherever it comes from: CtrModel
    raises ValueError, a train config UsageError and a stored checkpoint
    config DataError, each with the one message naming the key and value."""
    with pytest.raises(ValueError) as model_err:
        CtrModel([5, 7, 4], **{key: value})
    with pytest.raises(UsageError) as config_err:
        TrainConfig.from_dict({key: value})
    path = str(tmp_path / "m.ratm")
    save_checkpoint(tiny_model(), path)
    with open(path, "rb") as f:
        blob = f.read()
    cfg = dict(tiny_model().config_dict(), **{key: value})
    with open(path, "wb") as f:
        f.write(_with_config(blob, json.dumps(cfg)))
    with pytest.raises(DataError) as file_err:
        load_checkpoint(path)
    assert str(model_err.value).startswith(msg)
    assert str(config_err.value).startswith(f"train config: {msg}")
    assert str(file_err.value).startswith(f"{path}: bad checkpoint config: {msg}")


def test_same_seed_same_model():
    a, b = tiny_model(seed=11), tiny_model(seed=11)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    rng = np.random.default_rng(12)
    x, mask, _ = random_batch(a, rng)
    assert np.array_equal(a.predict(x, mask).data, b.predict(x, mask).data)


# ---------------------------------------------------------------- RATM

def test_checkpoint_round_trip(tmp_path):
    m = tiny_model("pa", seed=3)
    rng = np.random.default_rng(13)
    for p in m.parameters():  # move off init so the test is not vacuous
        p.data += rng.normal(0, 0.1, size=p.data.shape)
    path = str(tmp_path / "m.ratm")
    save_checkpoint(m, path, extra_config={"train": {"k": 4}})
    got, cfg = load_checkpoint(path)
    assert cfg["variant"] == "pa"
    assert cfg["train"] == {"k": 4}
    for (na, pa), (nb, pb) in zip(m.named_parameters(), got.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    x, mask, _ = random_batch(m, np.random.default_rng(14))
    assert np.array_equal(m.predict(x, mask).data, got.predict(x, mask).data)


@pytest.mark.parametrize("variant", VARIANTS)
def test_loading_draws_nothing_and_keeps_the_bits(variant, tmp_path, monkeypatch):
    """load_checkpoint takes the payload as the parameters and draws none.
    The loaded model's predictions and gradients hash the same as those of a
    model drawn from the seed and then overwritten with the payload, which is
    how loading used to build it."""
    m = tiny_model(variant, seed=3)
    rng = np.random.default_rng(15)
    for p in m.parameters():  # move off init: a zero head would hide any difference
        p.data += rng.normal(0, 0.3, size=p.data.shape)
    path = str(tmp_path / "m.ratm")
    save_checkpoint(m, path)
    x_rng = np.random.default_rng(16)
    _, _, raw = random_batch(m, x_rng, b=4, n_pad=2)
    weights = x_rng.normal(size=4)

    def digest(model):
        x, mask = build_input_batch(model, *raw)
        p = model.predict(x, mask)
        h = hashlib.sha256(p.data.tobytes())
        for g in T.tsum(T.mul(p, weights)).backward(model.parameters()):
            h.update(g.tobytes())
        return h.hexdigest()

    drawn = CtrModel(**m.config_dict())
    for name, t in drawn.named_parameters():
        t.data = m.params[name].data.astype(np.float64)
    want = digest(drawn)

    def no_draw(*args):
        raise AssertionError("load_checkpoint drew a parameter")

    monkeypatch.setattr(model_mod, "_draw", no_draw)
    got, _ = load_checkpoint(path)
    assert digest(got) == want


def test_checkpoint_bytes_deterministic(tmp_path):
    m = tiny_model(seed=5)
    p1, p2 = str(tmp_path / "a.ratm"), str(tmp_path / "b.ratm")
    save_checkpoint(m, p1)
    save_checkpoint(m, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_failed_checkpoint_save_leaves_old_file(tmp_path):
    m = tiny_model(seed=5)
    path = tmp_path / "m.ratm"
    save_checkpoint(m, str(path))
    before = path.read_bytes()
    # the config is written after the header, so this fails part way
    with pytest.raises(TypeError):
        save_checkpoint(m, str(path), extra_config={"bad": object()})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.ratm"]


def test_checkpoint_errors(tmp_path):
    m = tiny_model()
    path = str(tmp_path / "m.ratm")
    save_checkpoint(m, path)
    with open(path, "rb") as f:
        blob = f.read()

    cases = [
        ("magic.ratm", b"JUNK" + blob[4:], "bad magic"),
        ("ver.ratm", blob[:4] + (7).to_bytes(2, "little") + blob[6:],
         "unsupported checkpoint version 7"),
        ("trunc.ratm", blob[:-9], "truncated"),
        ("tail.ratm", blob + b"\x01", "trailing bytes"),
    ]
    for name, data, msg in cases:
        p = str(tmp_path / name)
        with open(p, "wb") as f:
            f.write(data)
        with pytest.raises(DataError, match=msg):
            load_checkpoint(p)

    with pytest.raises(DataError, match="cannot open"):
        load_checkpoint(str(tmp_path / "absent.ratm"))


def test_a_version_1_checkpoint_asks_for_a_retrain(tmp_path):
    """Version 1 stored an intra_only switch beside the variant; its config
    does not name the model, so it is not read."""
    path = str(tmp_path / "m.ratm")
    save_checkpoint(tiny_model(), path)
    with open(path, "rb") as f:
        blob = f.read()
    assert blob[4:6] == (2).to_bytes(2, "little")
    with open(path, "wb") as f:
        f.write(blob[:4] + (1).to_bytes(2, "little") + blob[6:])
    with pytest.raises(DataError) as err:
        load_checkpoint(path)
    assert str(err.value) == (f"{path}: unsupported checkpoint version 1 (this build "
                              f"reads 2); retrain it with `ractr train`")


def _with_config(blob: bytes, text: str) -> bytes:
    """A .ratm blob with its JSON config string replaced by text."""
    n = int.from_bytes(blob[6:10], "little")
    raw = text.encode()
    return blob[:6] + len(raw).to_bytes(4, "little") + raw + blob[10 + n:]


@pytest.mark.parametrize("edit,msg", [
    (lambda c: "{not json", "not valid JSON"),
    (lambda c: "[1, 2]", "not a JSON object"),
    (lambda c: {k: v for k, v in c.items() if k != "embed_dim"}, "missing 'embed_dim'"),
    (lambda c: dict(c, embed_dim="8"), "'embed_dim' must be an integer >= 1, got '8'"),
    (lambda c: dict(c, embed_dim=8.0), "'embed_dim' must be an integer >= 1, got 8.0"),
    (lambda c: dict(c, num_blocks=True), "'num_blocks' must be an integer >= 0, got True"),
    (lambda c: dict(c, num_heads=0), "'num_heads' must be an integer >= 1, got 0"),
    (lambda c: dict(c, field_num_ids=[5, -7, 4]),
     r"'field_num_ids' must be a list of integers >= 0, got \[5, -7, 4\]"),
    (lambda c: dict(c, field_num_ids=5), "'field_num_ids' must be a list of integers >= 0, got 5"),
    (lambda c: dict(c, seed=None), "'seed' must be an integer >= 0, got None"),
    (lambda c: dict(c, variant=["pa"]), r"unknown variant \['pa'\]"),
    (lambda c: dict(c, variant="mlp"), "unknown variant 'mlp'"),
    (lambda c: dict(c, activation="tanh"), "unknown activation 'tanh'"),
    (lambda c: dict(c, embed_dim=7), "embed_dim 7 not divisible by 2 heads"),
    (lambda c: dict(c, mlp_ratio=0), "'mlp_ratio' must be an integer >= 1, got 0"),
    (lambda c: dict(c, field_num_ids=[5, 10**12, 4]), r"emb.field.1 \(1000000000000, 8\)"),
    (lambda c: dict(c, mlp_ratio=10**12), r"block.0.mlp.lin1.w \(8, 8000000000000\)"),
    (lambda c: dict(c, num_blocks=3), "config makes 3 blocks, payload holds 1"),
    (lambda c: dict(c, num_blocks=10**12), "config makes 1000000000000 blocks, payload holds 1"),
], ids=["bad-json", "not-object", "missing-key", "str-int", "float-int", "bool-int",
        "zero-heads", "negative-ids", "scalar-ids", "null-seed", "list-variant",
        "unknown-variant", "unknown-activation", "indivisible-width", "zero-mlp-ratio",
        "huge-vocab", "huge-mlp", "block-count", "huge-block-count"])
def test_checkpoint_config_errors(tmp_path, edit, msg):
    m = tiny_model()
    path = str(tmp_path / "m.ratm")
    save_checkpoint(m, path)
    with open(path, "rb") as f:
        blob = f.read()
    cfg = edit(m.config_dict())
    bad = str(tmp_path / "bad.ratm")
    with open(bad, "wb") as f:
        f.write(_with_config(blob, cfg if isinstance(cfg, str) else json.dumps(cfg)))
    with pytest.raises(DataError, match=msg):
        load_checkpoint(bad)


@pytest.mark.parametrize("edit,msg", [
    (lambda p: p.update({"block.0.ln1.gammas": p.pop("block.0.ln1.gamma")}),
     "do not match the model layout: block.0.ln1.gamma is missing"),
    (lambda p: p.update({"block.0.extra.w": T.Tensor(np.zeros((8, 8)))}),
     "do not match the model layout: block.0.extra.w is not in it"),
    (lambda p: p.update({"block.0.ln1.gamma": T.Tensor(np.ones(7))}),
     r"config makes block.0.ln1.gamma \(8,\), payload holds \(7,\)"),
], ids=["renamed", "extra", "gamma-shape"])
def test_checkpoint_payload_must_match_the_layout(tmp_path, edit, msg):
    """The loader checks every payload name and shape against the layout."""
    m = tiny_model()
    edit(m.params)
    path = str(tmp_path / "bad.ratm")
    save_checkpoint(m, path)
    with pytest.raises(DataError, match=msg):
        load_checkpoint(path)


def test_checkpoint_invalid_utf8_name_is_data_error(tmp_path):
    path = str(tmp_path / "m.ratm")
    save_checkpoint(tiny_model(), path)
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    blob[blob.index(b"emb.field.0")] = 0xFF  # never valid in UTF-8
    with open(path, "wb") as f:
        f.write(bytes(blob))
    with pytest.raises(DataError, match="invalid UTF-8"):
        load_checkpoint(path)
