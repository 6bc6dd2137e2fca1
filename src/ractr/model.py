"""Attention model over a (samples x fields) token grid.

The input stacks the target record with its K retrieved neighbors: sample axis
of size K+1 (target first), field axis of size F+1 (a label token at position
0, then one token per field). Every attention is axial: MIXES below names the
grid axes it attends along, and the other axes are batch. Intra-sample
attention (ISA) mixes fields within a sample, cross-sample attention (CSA)
mixes samples at a fixed field, and joint attention mixes both. Five block
layouts are supported, each described as data by LAYOUTS and BLOCK_KINDS:

  cascade  ISA then CSA then MLP, each with a pre-LN residual
  jm       one joint attention over all (K+1)(F+1) tokens, then MLP
  ce       alternating half-blocks: ISA+MLP, CSA+MLP (2L half-blocks for L)
  pa       ISA and CSA in parallel at width D/2, concatenated, then MLP
  intra    ISA then MLP: the no-neighbor ablation, which reads no neighbors

Padded neighbor samples are key-masked everywhere the sample axis is mixed,
so their content can never reach the target's prediction.

The head reads one token, the target's label token (sample 0, field 0), so
predict computes only what that token depends on. Walking back from the head,
each layer's needed outputs are a (samples prefix x fields prefix) rectangle:
LN, MLP and residuals keep it, ISA needs all fields of its samples, CSA all
samples of its fields, and joint attention the whole grid. For the layouts
that mix samples only the last layer shrinks; an intra model, whose samples
never mix, runs every layer on the target's sample alone.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

from . import binio
from . import tensor as T
from .errors import DataError

CHECKPOINT_MAGIC = b"RATM"
CHECKPOINT_VERSION = 2

# variant -> the block kinds of one layer (num_blocks layers in all)
LAYOUTS = {
    "cascade": ("cascade",),
    "jm": ("jm",),
    "ce": ("intra", "cross"),
    "pa": ("pa",),
    "intra": ("intra",),
}
VARIANTS = tuple(LAYOUTS)
# the CtrModel settings besides its fields, as _layer_kinds takes them
SETTINGS = ("embed_dim", "num_blocks", "num_heads", "mlp_ratio", "variant", "activation",
            "seed")

# block kind -> its pre-LN residual attention sub-layers as (LN name, attention
# names). Attentions sharing one LN each run at width D/n and their outputs are
# concatenated. Every kind ends with the (ln_mlp, mlp) sub-layer. These names
# are the block's parameter-name prefixes in a checkpoint.
BLOCK_KINDS = {
    "cascade": (("ln1", ("isa",)), ("ln2", ("csa",))),
    "jm": (("ln1", ("attn",)),),
    "intra": (("ln1", ("isa",)),),
    "cross": (("ln1", ("csa",)),),
    "pa": (("ln1", ("isa", "csa")),),
}

# attention name -> the axes of a (B, S, T, D) grid it attends along: axis 1 is
# samples, axis 2 fields; the axes it does not mix are batch. Each attention's
# key/value prefix is the whole grid on a mixed axis and its queries' prefix on
# the others, and it scores s*t * (size of each mixed axis) entries per example.
MIXES = {"isa": (2,), "csa": (1,), "attn": (1, 2)}


def _kv_prefix(axes: tuple[int, ...], queried: tuple[int, int],
               grid: tuple[int, int]) -> tuple[int, int]:
    return tuple(g if a in axes else q for a, q, g in zip((1, 2), queried, grid))


LABEL_UNCLICK = 0
LABEL_CLICK = 1
LABEL_UNKNOWN = 2  # the target's label slot


def _draw(rng, shape: tuple[int, ...], init: str) -> np.ndarray:
    """A parameter's initial value by its _layout init; fan_in is shape[0]."""
    if init == "normal":
        return rng.normal(0.0, 0.01, size=shape)
    if init == "uniform":
        a = np.sqrt(1.0 / shape[0])
        return rng.uniform(-a, a, size=shape)
    return np.zeros(shape) if init == "zeros" else np.ones(shape)


def _layout(field_num_ids: list[int], embed_dim: int, kinds: tuple[str, ...],
            mlp_ratio: int) -> list[tuple[str, tuple[int, ...], str]]:
    """Every parameter as (checkpoint name, shape, init), in checkpoint
    order, which is also the order of the seed's draws.

    Per-field embedding tables (row 0 = missing/OOV), a 3-row label table
    (unclick, click, unknown) and a pad row for padded neighbors are drawn
    from N(0, 0.01); then each block's parameters, named by BLOCK_KINDS, with
    every weight drawn from U(-sqrt(1/fan_in), sqrt(1/fan_in)); then a zero
    head. Biases and LN betas start at zero, LN gammas at one.
    """
    d = embed_dim
    out = [(f"emb.field.{i}", (n, d), "normal") for i, n in enumerate(field_num_ids)]
    out += [("emb.label", (3, d), "normal"), ("emb.pad", (d,), "normal")]

    def linear(pre, fan_in, fan_out, init="uniform"):
        out.extend([(f"{pre}.w", (fan_in, fan_out), init), (f"{pre}.b", (fan_out,), "zeros")])

    def norm(pre):
        out.extend([(f"{pre}.gamma", (d,), "ones"), (f"{pre}.beta", (d,), "zeros")])

    for i, kind in enumerate(kinds):
        for ln, names in BLOCK_KINDS[kind]:
            norm(f"block.{i}.{ln}")
            for name in names:
                w = d // len(names)
                for part, fan_in in (("q", d), ("k", d), ("v", d), ("o", w)):
                    linear(f"block.{i}.{name}.{part}", fan_in, w)
        norm(f"block.{i}.ln_mlp")
        linear(f"block.{i}.mlp.lin1", d, mlp_ratio * d)
        linear(f"block.{i}.mlp.lin2", mlp_ratio * d, d)
    linear("head", d, 1, init="zeros")
    return out


def _layer_kinds(embed_dim, num_blocks, num_heads, mlp_ratio, variant, activation,
                 seed) -> tuple[str, ...]:
    """The block kinds of one layer, or ValueError naming the first of the
    SETTINGS that cannot build the model. This is the one check of model
    settings: CtrModel, TrainConfig.from_dict and load_checkpoint call it."""
    for name, value, least in (("embed_dim", embed_dim, 1), ("num_blocks", num_blocks, 0),
                               ("num_heads", num_heads, 1), ("mlp_ratio", mlp_ratio, 1),
                               ("seed", seed, 0)):
        if type(value) is not int or value < least:  # a bool is not an integer here
            raise ValueError(f"{name!r} must be an integer >= {least}, got {value!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if activation not in ("gelu", "relu"):
        raise ValueError(f"unknown activation {activation!r}")
    if embed_dim % num_heads != 0:
        raise ValueError(f"embed_dim {embed_dim} not divisible by {num_heads} heads")
    kinds = LAYOUTS[variant]
    for kind in kinds:
        for _, names in BLOCK_KINDS[kind]:
            n = len(names)
            if embed_dim % n != 0 or (embed_dim // n) % num_heads != 0:
                raise ValueError(f"{kind} needs embed_dim/{n} divisible by num_heads")
    return kinds


class CtrModel:
    """Embeddings + L blocks of one variant + a sigmoid head reading the
    target's label token (sample 0, field 0). Its parameters are `params`,
    keyed by checkpoint name in _layout order; `kinds` are its blocks' kinds.
    The parameters are drawn from the seed, or taken from `values` (name ->
    array of the layout's shape, as load_checkpoint has checked) unchanged."""

    def __init__(self, field_num_ids: list[int], embed_dim: int = 16, num_blocks: int = 2,
                 num_heads: int = 2, mlp_ratio: int = 4, variant: str = "cascade",
                 activation: str = "gelu", seed: int = 42,
                 values: dict[str, np.ndarray] | None = None):
        self.kinds = _layer_kinds(embed_dim, num_blocks, num_heads, mlp_ratio, variant,
                                  activation, seed) * num_blocks
        self.field_num_ids = list(field_num_ids)
        self.embed_dim = embed_dim
        self.num_blocks = num_blocks
        self.num_heads = num_heads
        self.mlp_ratio = mlp_ratio
        self.variant = variant
        self.activation = activation
        self.seed = seed
        layout = _layout(self.field_num_ids, embed_dim, self.kinds, mlp_ratio)
        if values is None:
            rng = np.random.default_rng(seed)
            values = {name: _draw(rng, shape, init) for name, shape, init in layout}
        # checkpoint name -> parameter, in checkpoint order
        self.params = {name: T.Tensor(values[name], requires_grad=True)
                       for name, _, _ in layout}

    @property
    def reads_neighbors(self) -> bool:
        """Whether an attention mixes samples (axis 1). A model none of whose
        attentions does reads the target's sample alone, so it needs no
        neighbors."""
        return any(1 in MIXES[name] for kind in self.kinds
                   for _, names in BLOCK_KINDS[kind] for name in names)

    def named_parameters(self) -> list[tuple[str, T.Tensor]]:
        return list(self.params.items())

    def parameters(self) -> list[T.Tensor]:
        return list(self.params.values())

    def frozen(self) -> CtrModel:
        """This model with constant parameters over the same arrays: its
        forwards build no autodiff graph, on any thread."""
        view = copy.copy(self)
        view.params = {name: T.Tensor(t.data) for name, t in self.params.items()}
        return view

    def parameter_count(self) -> int:
        return sum(t.data.size for t in self.parameters())

    # forward pieces: each reads its parameters under a checkpoint-name prefix

    def _linear(self, pre: str, x: T.Tensor) -> T.Tensor:
        return T.linear(x, self.params[f"{pre}.w"], self.params[f"{pre}.b"])

    def _norm(self, pre: str, x: T.Tensor) -> T.Tensor:
        return T.layer_norm(x, self.params[f"{pre}.gamma"], self.params[f"{pre}.beta"])

    def _mlp(self, pre: str, x: T.Tensor) -> T.Tensor:
        h = self._linear(f"{pre}.lin1", x)
        h = T.gelu(h) if self.activation == "gelu" else T.relu(h)
        return self._linear(f"{pre}.lin2", h)

    def _mha(self, q3: T.Tensor, kv3: T.Tensor, pre: str,
             key_mask: np.ndarray | None, query_mask: np.ndarray | None) -> T.Tensor:
        """q3: (G, Tq, D_in) queries over kv3: (G, Tk, D_in) keys and values ->
        (G, Tq, D_attn), by the attention under prefix pre. key_mask: (G, Tk),
        query_mask: (G, Tq), bool."""
        g, tq, _ = q3.shape
        tk = kv3.shape[1]
        h = self.num_heads
        dh = self.params[f"{pre}.q.w"].shape[1] // h
        scale = 1.0 / np.sqrt(dh)

        def heads(part, x3, n):
            return T.reshape(self._linear(f"{pre}.{part}", x3), (g, n, h, dh))

        ctx = T.attention(heads("q", q3, tq), heads("k", kv3, tk), heads("v", kv3, tk),
                          scale, key_mask)
        ctx = T.reshape(ctx, (g, tq, h * dh))
        out = self._linear(f"{pre}.o", ctx)
        if query_mask is not None:
            out = T.mul(out, query_mask.reshape(g, tq, 1).astype(np.float64))
        return out

    def _attend(self, q: T.Tensor, kv: T.Tensor, pre: str,
                mask: np.ndarray, axes: tuple[int, ...]) -> T.Tensor:
        """Attention `pre` of queries q: (B, Sq, Tq, D) over keys/values kv: (B, Sk,
        Tk, D), both grid prefixes, along the grid `axes` (a MIXES value); the
        other axes are batch. Returns (B, Sq, Tq, D_attn) updates. When samples
        mix, padded samples (mask: (B, S) bool) are key-masked and, as queries,
        get a zero update (residual pass-through); otherwise a padded sample
        only ever attends to itself. Passing kv is q reuses the query reshape,
        so a full-grid layer builds the same graph as self-attention."""
        perm = (0, *(a for a in (1, 2) if a not in axes), *axes, 3)
        nb = 3 - len(axes)  # leading axes after perm: B and the unmixed grid axis, if any

        def grouped(x):  # (B, S, T, D) -> (groups, tokens, D)
            x = x if perm == (0, 1, 2, 3) else T.transpose(x, perm)
            return T.reshape(x, (math.prod(x.shape[:nb]), math.prod(x.shape[nb:3]), x.shape[3]))

        def grouped_mask(x):  # the sample mask over x's tokens -> (groups, tokens)
            m = np.broadcast_to(mask[:, :x.shape[1], None], x.shape[:3]).transpose(perm[:3])
            return m.reshape(math.prod(m.shape[:nb]), math.prod(m.shape[nb:]))

        q3 = grouped(q)
        kv3 = q3 if kv is q else grouped(kv)
        masks = (grouped_mask(kv), grouped_mask(q)) if 1 in axes else (None, None)
        out = self._mha(q3, kv3, pre, *masks)
        out = T.reshape(out, (*(q.shape[a] for a in perm[:3]), out.shape[-1]))
        return out if perm == (0, 1, 2, 3) else T.transpose(out, np.argsort(perm))

    def _plan(self, grid: tuple[int, int], need: tuple[int, int]
              ) -> tuple[tuple[int, int], list[list[tuple[int, int]]]]:
        """Walk back from `need`, the (samples, fields) prefix wanted from the
        last block, to what each layer must compute. Returns the prefix of the
        input that is read and, per block, the output prefix of each attention
        sub-layer. LN, MLP and residuals keep the prefix they are given; an
        attention needs its key/value prefixes as input."""
        plan = []
        for kind in reversed(self.kinds):
            outs = []
            for _, names in reversed(BLOCK_KINDS[kind]):
                outs.append(need)
                keys = [_kv_prefix(MIXES[name], need, grid) for name in names]
                need = tuple(max(dims) for dims in zip(*keys))
            plan.append(outs[::-1])
        return need, plan[::-1]

    def _run_blocks(self, x: T.Tensor, mask: np.ndarray, need: tuple[int, int]) -> T.Tensor:
        """Run all blocks on x: (B, S, T, D), computing only the tokens that
        the (samples, fields) prefix `need` of the output depends on. A layer
        whose prefix is the whole grid runs unsliced. mask: (B, S) bool,
        column 0 true."""
        if mask.dtype != bool:
            mask = mask.astype(bool)
        if not mask[:, 0].all():
            raise ValueError("target sample (row 0) must never be masked")
        b, grid = x.shape[0], x.shape[1:3]
        read, plan = self._plan(grid, need)
        x = T.prefix_slice(x, (b, *read))
        for i, (kind, outs) in enumerate(zip(self.kinds, plan)):
            for (ln, names), out in zip(BLOCK_KINDS[kind], outs):
                z = self._norm(f"block.{i}.{ln}", x)
                q = T.prefix_slice(z, (b, *out))
                ups = []
                for name in names:
                    axes = MIXES[name]
                    kv = T.prefix_slice(z, (b, *_kv_prefix(axes, out, grid)))
                    ups.append(self._attend(q, kv, f"block.{i}.{name}", mask, axes))
                up = ups[0] if len(ups) == 1 else T.concat_lastdim(ups)
                x = T.add(up, T.prefix_slice(x, (b, *out)))
            x = T.add(self._mlp(f"block.{i}.mlp", self._norm(f"block.{i}.ln_mlp", x)), x)
        return x

    def predict(self, x: T.Tensor, mask: np.ndarray) -> T.Tensor:
        """Click probability from the target's label token. Returns (B,). Only
        what token (0, 0) depends on is computed: in a cascade's last block,
        ISA queries field 0 only, CSA queries the target only, and its MLP
        runs on one token."""
        h = self._run_blocks(x, mask, (1, 1))
        tok = T.token_at(h, 0, 0)
        return T.reshape(T.sigmoid(self._linear("head", tok)), (x.shape[0],))

    def config_dict(self) -> dict:
        return {"field_num_ids": self.field_num_ids,
                **{name: getattr(self, name) for name in SETTINGS}}


def build_input_batch(model: CtrModel, target_ids: np.ndarray,
                      neighbor_indices: np.ndarray, neighbor_mask: np.ndarray,
                      pool_field_ids: np.ndarray, pool_labels: np.ndarray
                      ) -> tuple[T.Tensor, np.ndarray]:
    """Assemble model's (B, K+1, F+1, D) inputs plus the (B, K+1) sample mask
    from its embedding parameters (emb.label, emb.field.{f}, emb.pad).

    Row 0 is the target with the UNKNOWN label token at field position 0;
    rows 1..K are neighbors with their observed label tokens. Padded slots
    become the learned pad row across all F+1 positions.
    """
    target_ids = np.asarray(target_ids, dtype=np.int64)
    b, nf = target_ids.shape
    neighbor_indices = np.asarray(neighbor_indices, dtype=np.int64).reshape(b, -1)
    neighbor_mask = np.asarray(neighbor_mask, dtype=bool).reshape(b, -1)

    real = neighbor_mask
    if real.any():
        used = neighbor_indices[real]
        if used.min() < 0 or used.max() >= len(pool_field_ids):
            raise IndexError("neighbor index out of pool range")
    safe = np.where(real, neighbor_indices, 0)

    nb_fields = pool_field_ids[safe]                           # (B, K, F)
    nb_labels = pool_labels[safe].astype(np.int64)             # (B, K)
    all_fields = np.concatenate([target_ids[:, None, :], nb_fields], axis=1)
    label_ids = np.concatenate(
        [np.full((b, 1), LABEL_UNKNOWN, dtype=np.int64), nb_labels], axis=1)

    p = model.params
    cols = [T.gather_rows(p["emb.label"], label_ids)]
    for f in range(nf):
        cols.append(T.gather_rows(p[f"emb.field.{f}"], all_fields[:, :, f]))
    x = T.stack(cols, axis=2)                                  # (B, K+1, F+1, D)

    sample_mask = np.concatenate([np.ones((b, 1), dtype=bool), real], axis=1)
    x = T.where_mask(sample_mask[:, :, None, None], x, p["emb.pad"])
    return x, sample_mask


def save_checkpoint(model: CtrModel, path: str, extra_config: dict | None = None) -> None:
    """RATM container: config echo as JSON, then raw float64 parameter payloads."""
    cfg = model.config_dict()
    if extra_config:
        cfg = {**cfg, **extra_config}
    named = model.named_parameters()
    with binio.writing(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as f:
        binio.write_str(f, json.dumps(cfg, sort_keys=True))
        binio.write_u32(f, len(named))
        for name, t in named:
            binio.write_str(f, name)
            binio.write_u8(f, t.data.ndim)
            for dim in t.data.shape:
                binio.write_u32(f, dim)
            binio.write_array(f, t.data, "<f8")


def load_checkpoint(path: str) -> tuple[CtrModel, dict]:
    hint = f" (this build reads {CHECKPOINT_VERSION}); retrain it with `ractr train`"
    with binio.reading(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint", hint) as fh:
        try:
            cfg = json.loads(binio.read_str(fh))
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: checkpoint config is not valid JSON: {e}") from None
        n_params = binio.read_u32(fh)
        payload: dict[str, np.ndarray] = {}
        for _ in range(n_params):
            name = binio.read_str(fh)
            ndim = binio.read_u8(fh)
            if ndim > 2:  # no parameter has a higher rank
                raise DataError(f"{path}: parameter {name!r} has rank {ndim}")
            shape = tuple(binio.read_u32(fh) for _ in range(ndim))
            payload[name] = binio.read_array(fh, math.prod(shape), "<f8").reshape(shape)

    try:
        if not isinstance(cfg, dict):
            raise ValueError("config is not a JSON object")
        for key in ("field_num_ids", *SETTINGS):
            if key not in cfg:
                raise ValueError(f"missing {key!r}")
        ids = cfg["field_num_ids"]
        if type(ids) is not list or not all(type(n) is int and n >= 0 for n in ids):
            raise ValueError(f"'field_num_ids' must be a list of integers >= 0, got {ids!r}")
        settings = {key: cfg[key] for key in SETTINGS}
        kinds = _layer_kinds(**settings)
        # the block count first, so a corrupt one never sizes the layout
        blocks = {name.split(".")[1] for name in payload if name.startswith("block.")}
        n_blocks = settings["num_blocks"] * len(kinds)
        if len(blocks) != n_blocks:
            raise ValueError(f"config makes {n_blocks} blocks, payload holds {len(blocks)}")
        layout = _layout(ids, settings["embed_dim"], kinds * settings["num_blocks"],
                         settings["mlp_ratio"])
        # every name and shape, in layout order, before anything is allocated
        mismatch = f"{path}: checkpoint parameters do not match the model layout"
        for name, shape, _ in layout:
            if name not in payload:
                raise DataError(f"{mismatch}: {name} is missing")
            if payload[name].shape != shape:
                raise ValueError(f"config makes {name} {shape}, payload holds "
                                 f"{payload[name].shape}")
        extra = payload.keys() - {name for name, _, _ in layout}
        if extra:
            raise DataError(f"{mismatch}: {min(extra)} is not in it")
        model = CtrModel(ids, **settings, values=payload)
    except ValueError as e:
        raise DataError(f"{path}: bad checkpoint config: {e}") from None
    return model, cfg
