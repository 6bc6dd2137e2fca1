"""Training, evaluation, and the four-variant ablation sweep.

Leakage protocol: while training, each target retrieves only from records
strictly earlier than itself inside the train slice; validation and test
queries retrieve from the whole train slice. Neighbors are precomputed once
per record and reused across epochs; evaluate without a precomputed table
retrieves for its split's rows only. Scoring, evaluation and forward timing
run over the model's frozen view, whose constant parameters build no autodiff
graph; scoring runs its chunks on every usable core. Training splits each
batch into parts of CHUNK_ROWS rows, backpropagates each part's graph on its
own thread and sums the returned gradients in part order, so it too uses
every usable core and gives the same bits on any number of them.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.stats import rankdata

from . import parallel
from . import tensor as T
from .binio import atomic_open
from .data import Dataset
from .errors import DataError, UsageError
from .model import SETTINGS, CtrModel, _layer_kinds, build_input_batch
from .retrieval import RetrievalIndex, check_train_index, retrieve_batch

# rows forwarded together: a predict_rows chunk and a training micro-batch.
# A cascade chunk's (rows, K+1, F+1, 4D) MLP activations take 58 KB a row, so
# 64 rows (3.7 MB) stay near a core's 2 MB L2 where 512 (30 MB) do not. The
# 2,000 score-bigpool rows on 2 vCPUs with the fused ops, medians of 5 in two
# runs: one thread took 0.92-1.02 s at 512, 0.71-0.83 s at 128 and 0.64-0.78 s
# at 64; two took 0.54-0.62 s at 512 and 0.43-0.47 s at 64 (before the fused
# ops: 1.33 s and 0.95 s on one thread, 0.74 s and 0.50 s on two). Chunks of
# 64 and 32 gave the bits of 512 on all 20 models tried (each of five
# variants, 1 and 2 blocks, two datasets); chunks of 97 on 15 of them.
# Training runs each 64-row part of a batch on its own thread: train-majority
# on 2 vCPUs took 5.08 s a pass against 7.26 s for whole 128-row batches on
# one thread (medians of 10 pairs, before the fused ops).
CHUNK_ROWS = 64

ABLATION_ORDER = ("jm", "ce", "pa", "cascade")
ABLATION_HEADER = ("variant", "auc", "logloss", "params", "runtime_us")
# TrainConfig integer -> its least valid value; _layer_kinds checks the model's
_INT_FLOORS = {"k": 0, "batch_size": 1, "max_epochs": 1, "early_stop_patience": 0}
# TrainConfig float -> (its valid range as text, the test of a finite value)
_FLOAT_RANGES = {
    "learning_rate": (">= 0", lambda v: v >= 0),
    "adam_beta1": ("in [0, 1)", lambda v: 0 <= v < 1),
    "adam_beta2": ("in [0, 1)", lambda v: 0 <= v < 1),
    "adam_eps": ("> 0", lambda v: v > 0),
    "logloss_clip_eps": ("in (0, 0.5)", lambda v: 0 < v < 0.5),
}


@dataclass
class TrainConfig:
    k: int = 5
    embed_dim: int = 16
    num_blocks: int = 2
    num_heads: int = 2
    mlp_ratio: int = 4
    variant: str = "cascade"
    activation: str = "gelu"
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 128
    max_epochs: int = 10
    early_stop_patience: int = 2
    seed: int = 42
    logloss_clip_eps: float = 1e-7

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def model_settings(self) -> dict:
        """The CtrModel keyword arguments besides field_num_ids."""
        return {name: getattr(self, name) for name in SETTINGS}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise UsageError(f"unknown train config keys: {sorted(unknown)}")
        for key, least in _INT_FLOORS.items():
            if key in d and (type(d[key]) is not int or d[key] < least):
                raise UsageError(f"train config: {key!r} must be an integer >= {least}, "
                                 f"got {d[key]!r}")
        for key, (text, ok) in _FLOAT_RANGES.items():
            v = d.get(key)
            if key in d and (isinstance(v, bool) or not isinstance(v, (int, float))
                             or not math.isfinite(v) or not ok(v)):
                raise UsageError(f"train config: {key!r} must be a finite number {text}, "
                                 f"got {v!r}")
        cfg = cls(**d)
        try:
            _layer_kinds(**cfg.model_settings())
        except ValueError as e:
            raise UsageError(f"train config: {e}") from None
        return cfg


@dataclass
class EvalReport:
    auc: float
    logloss: float
    n: int
    segments: dict[str, dict] | None = None

    def to_dict(self) -> dict:
        out = {"auc": self.auc, "logloss": self.logloss, "n": self.n}
        if self.segments is not None:
            out["segments"] = self.segments
        return out


def logloss(y_true, p_pred, clip_eps: float = 1e-7) -> float:
    """Mean negative log-likelihood with predictions clipped away from 0/1."""
    y = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(p_pred, dtype=np.float64)
    if y.shape != p.shape:
        raise ValueError(f"length mismatch: labels {y.shape} vs predictions {p.shape}")
    if y.size == 0:
        raise ValueError("logloss of an empty slice")
    pc = np.clip(p, clip_eps, 1.0 - clip_eps)
    return float(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean())


def auc(y_true, scores) -> float:
    """Mann-Whitney AUC via average ranks; ties count half."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValueError(f"length mismatch: labels {y.shape} vs scores {s.shape}")
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: slice has a single class")
    ranks = rankdata(s)
    r_pos = ranks[pos].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class Adam:
    """Adam with bias correction; every parameter updates every step. The
    moments and the parameters are updated in place, through two scratch
    buffers the size of the largest parameter."""

    def __init__(self, params: list[T.Tensor], lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        largest = max((p.data.size for p in params), default=0)
        self._scratch = (np.empty(largest), np.empty(largest))

    def step(self, grads: list[np.ndarray]) -> None:
        """One update from grads, one gradient per parameter in order."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v, strict=True):
            a, b = (buf[:g.size].reshape(g.shape) for buf in self._scratch)
            m *= b1                                 # m = b1 * m + (1 - b1) * g
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2                                 # v = b2 * v + (1 - b2) * g * g
            np.multiply(g, g, out=a)
            a *= 1.0 - b2
            v += a
            np.divide(m, c1, out=a)                 # p -= lr * mhat / (sqrt(vhat) + eps)
            a *= self.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a


def precompute_neighbors(ds: Dataset, index: RetrievalIndex, k: int,
                         rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor table for `rows` (every record when None), row i for rows[i]:
    strictly-earlier eligibility inside the train slice, whole-train-pool for
    validation and test rows. A k past the pool would only add padding, to
    tables allocated whole: a usage error."""
    if k > index.pool_size:
        raise UsageError(f"k must be at most the train pool size, {index.pool_size}, got {k}")
    rows = np.arange(len(ds)) if rows is None else np.asarray(rows, dtype=np.int64)
    neigh = np.zeros((len(rows), k), dtype=np.int64)
    mask = np.zeros((len(rows), k), dtype=bool)
    if k == 0:
        return neigh, mask
    in_train = rows < ds.train_end
    for sel, eligibility in ((in_train, "earlier"), (~in_train, "all")):
        q = rows[sel]
        if len(q) == 0:
            continue
        res = retrieve_batch(index, ds.field_ids[q], k, eligibility,
                             query_ts=ds.timestamps[q], query_index=q)
        neigh[sel], mask[sel] = res.neighbor_indices, res.mask
    return neigh, mask


def _inputs(model: CtrModel, ds: Dataset, rows: np.ndarray, neigh: np.ndarray,
            neigh_mask: np.ndarray) -> tuple[T.Tensor, np.ndarray]:
    """Model inputs for `rows`, whose neighbors index the train slice."""
    return build_input_batch(model, ds.field_ids[rows], neigh[rows], neigh_mask[rows],
                             ds.field_ids[:ds.train_end], ds.labels[:ds.train_end])


def _loss(model: CtrModel, ds: Dataset, rows: np.ndarray, neigh: np.ndarray,
          neigh_mask: np.ndarray, batch_rows: int, clip_eps: float) -> T.Tensor:
    """The graph of rows' summed negative log-likelihood over batch_rows, the
    rows of the whole batch they are part of: the losses of a batch's parts
    sum to its mean loss."""
    x, mask = _inputs(model, ds, rows, neigh, neigh_mask)
    pc = T.clamp(model.predict(x, mask), clip_eps, 1.0 - clip_eps)
    y = np.asarray(ds.labels[rows], dtype=np.float64)
    # a diverged model's log(0) and 0 * inf are reported by train's check
    with np.errstate(divide="ignore", invalid="ignore"):
        nll = T.add(T.mul(y, T.tlog(pc)), T.mul(1.0 - y, T.tlog(T.sub(1.0, pc))))
        return T.mul(T.tsum(nll), -1.0 / batch_rows)


def _batch_grads(model: CtrModel, params: list[T.Tensor], ds: Dataset, batch: np.ndarray,
                 neigh: np.ndarray, neigh_mask: np.ndarray, clip_eps: float
                 ) -> tuple[float, list[np.ndarray] | None]:
    """The batch's mean loss and its gradients in params, None when the loss
    is not finite.

    The batch is split into parts of CHUNK_ROWS rows, and parallel.deal
    builds and backpropagates each part's graph on one thread; a part whose
    loss is not finite is not backpropagated. The parts' losses and
    gradients are summed in part order, so the results do not depend on the
    number of cores.
    """
    parts = [batch[lo:lo + CHUNK_ROWS] for lo in range(0, len(batch), CHUNK_ROWS)]
    losses = [0.0] * len(parts)
    part_grads = [None] * len(parts)

    def backprop(share):
        for j in share:
            loss = _loss(model, ds, parts[j], neigh, neigh_mask, len(batch), clip_eps)
            losses[j] = float(loss.data)
            if math.isfinite(losses[j]):
                part_grads[j] = loss.backward(params)

    parallel.deal(backprop, range(len(parts)))
    total = sum(losses)
    if not math.isfinite(total):
        return total, None
    grads = part_grads[0]
    for more in part_grads[1:]:
        grads = [a + b for a, b in zip(grads, more)]
    return total, grads


def predict_rows(model: CtrModel, ds: Dataset, rows: np.ndarray,
                 neigh: np.ndarray, neigh_mask: np.ndarray,
                 batch_size: int = CHUNK_ROWS) -> np.ndarray:
    """Forward the model's frozen view over rows in chunks of batch_size, so
    no autodiff graph is built; returns probabilities.

    The chunks are spread over the usable cores by parallel.deal, and each
    share writes only its own chunks' rows of the output. Chunk boundaries
    do not depend on the number of cores, so neither do the results.
    """
    out = np.empty(len(rows), dtype=np.float64)
    model = model.frozen()

    def score(starts):
        for lo in starts:
            chunk = rows[lo:lo + batch_size]
            x, mask = _inputs(model, ds, chunk, neigh, neigh_mask)
            out[lo:lo + len(chunk)] = model.predict(x, mask).data

    parallel.deal(score, range(0, len(rows), batch_size))
    return out


@dataclass
class TrainResult:
    model: CtrModel
    log: list[dict]
    best_epoch: int
    best_valid_auc: float
    stopped_early: bool
    neighbors: tuple[np.ndarray, np.ndarray] = field(repr=False, default=None)


def train(ds: Dataset, index: RetrievalIndex, cfg: TrainConfig,
          neighbors: tuple[np.ndarray, np.ndarray] | None = None) -> TrainResult:
    """Train one model; early stopping on validation AUC, best weights kept.
    The best epoch has the highest valid AUC and, among equal AUCs, the
    lowest valid logloss."""
    if ds.train_end >= ds.valid_end:
        raise DataError("training needs a non-empty validation slice")
    check_train_index(index, ds)
    valid_rows = ds.slice_indices("valid")
    vy = ds.labels[valid_rows]
    if vy.min() == vy.max():
        raise DataError("validation slice has a single class; AUC undefined")

    model = CtrModel([fs.num_ids for fs in ds.schema], **cfg.model_settings())
    if neighbors is None:
        neighbors = precompute_neighbors(ds, index, cfg.k if model.reads_neighbors else 0)
    neigh, neigh_mask = neighbors

    params = model.parameters()
    opt = Adam(params, lr=cfg.learning_rate, beta1=cfg.adam_beta1,
               beta2=cfg.adam_beta2, eps=cfg.adam_eps)
    shuffle_rng = np.random.default_rng(cfg.seed + 1)

    train_rows = np.arange(ds.train_end)

    best_auc, best_ll = -np.inf, np.inf
    best_epoch = -1
    best_state: dict[str, np.ndarray] | None = None
    since_best = 0
    stopped_early = False
    log: list[dict] = []
    step = 0

    for epoch in range(cfg.max_epochs):
        t0 = time.perf_counter()
        perm = shuffle_rng.permutation(train_rows)
        loss_sum = 0.0
        for lo in range(0, len(perm), cfg.batch_size):
            batch = perm[lo:lo + cfg.batch_size]
            batch_loss, grads = _batch_grads(model, params, ds, batch, neigh, neigh_mask,
                                             cfg.logloss_clip_eps)
            if not math.isfinite(batch_loss):
                raise DataError(f"training loss is {batch_loss} in epoch {epoch + 1} of "
                                f"{cfg.max_epochs}, step {step + 1}: the model diverged "
                                f"(learning_rate {cfg.learning_rate!r}, logloss_clip_eps "
                                f"{cfg.logloss_clip_eps!r})")
            opt.step(grads)
            step += 1
            loss_sum += batch_loss * len(batch)

        valid_p = predict_rows(model, ds, valid_rows, neigh, neigh_mask)
        v_auc = auc(vy, valid_p)
        v_ll = logloss(vy, valid_p, cfg.logloss_clip_eps)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        log.append({
            "step": step,
            "train_logloss": loss_sum / len(perm),
            "valid_auc": v_auc,
            "valid_logloss": v_ll,
            "wall_ms": wall_ms,
        })

        # a saturated AUC ties: the lower valid logloss breaks the tie
        if v_auc > best_auc or (v_auc == best_auc and v_ll < best_ll):
            best_auc, best_ll = v_auc, v_ll
            best_epoch = epoch
            best_state = {name: t.data.copy() for name, t in model.named_parameters()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.early_stop_patience:
                stopped_early = True
                break

    if best_state is not None:
        for name, t in model.named_parameters():
            t.data = best_state[name]
    return TrainResult(model, log, best_epoch, float(best_auc), stopped_early,
                       neighbors=neighbors)


def _parse_segment(name: str) -> int:
    if name.startswith("tail"):
        try:
            q = int(name[4:])
        except ValueError:
            raise UsageError(f"bad segment name {name!r}; expected tail<percent>") from None
        if not (0 < q <= 100):
            raise UsageError(f"segment percentile out of range in {name!r}")
        return q
    raise UsageError(f"unknown segment {name!r}; supported: tail<percent>")


def tail_user_ids(ds: Dataset, f: int, percents: list[int]) -> list[np.ndarray]:
    """For each q in percents, the field-f ids of the q% of users with the
    fewest train-slice records (count asc, id asc; at least one user)."""
    uniq, counts = np.unique(ds.field_ids[:ds.train_end, f], return_counts=True)
    users = uniq[np.lexsort((uniq, counts))]
    return [users[:max(1, int(np.ceil(q / 100.0 * len(users))))] for q in percents]


def evaluate(model: CtrModel, ds: Dataset, index: RetrievalIndex, cfg: TrainConfig,
             split: str = "test", segments: list[str] | None = None,
             user_field: str | None = None,
             neighbors: tuple[np.ndarray, np.ndarray] | None = None) -> EvalReport:
    """Metrics over one split, optionally broken out by user-frequency tail.
    Whether the split retrieves neighbors is the model's, not cfg's: cfg
    gives k and the logloss clip."""
    check_train_index(index, ds)
    rows = ds.slice_indices(split)
    if len(rows) == 0:
        raise DataError(f"{split} slice is empty")
    y = ds.labels[rows]
    if y.min() == y.max():
        raise DataError(f"{split} slice has a single class; AUC undefined")

    if neighbors is None:  # retrieve for this split's rows only
        k = cfg.k if model.reads_neighbors else 0
        split_neighbors = precompute_neighbors(ds, index, k, rows)  # checks k first
        neigh = np.zeros((len(ds), k), dtype=np.int64)
        neigh_mask = np.zeros((len(ds), k), dtype=bool)
        neigh[rows], neigh_mask[rows] = split_neighbors
    else:
        neigh, neigh_mask = neighbors
    p = predict_rows(model, ds, rows, neigh, neigh_mask)

    seg_out = None
    if segments:
        if not user_field:
            raise UsageError("segments need a designated user-id field")
        names = [fs.name for fs in ds.schema]
        if user_field not in names:
            raise UsageError(f"user field {user_field!r} not in schema")
        f = names.index(user_field)
        tails = tail_user_ids(ds, f, [_parse_segment(name) for name in segments])
        seg_out = {}
        row_users = ds.field_ids[rows, f]
        for name, tail in zip(segments, tails):
            sel = np.isin(row_users, tail)
            ys, ps = y[sel], p[sel]
            entry: dict = {"n": int(sel.sum())}
            if sel.any():
                entry["logloss"] = logloss(ys, ps, cfg.logloss_clip_eps)
                entry["auc"] = auc(ys, ps) if ys.min() != ys.max() else None
            seg_out[name] = entry

    return EvalReport(
        auc=auc(y, p),
        logloss=logloss(y, p, cfg.logloss_clip_eps),
        n=len(rows),
        segments=seg_out,
    )


def time_forward_per_example(model: CtrModel, ds: Dataset,
                             neighbors: tuple[np.ndarray, np.ndarray],
                             rows: np.ndarray, repeats: int = 5) -> float:
    """Median per-example graph-free forward wall time in microseconds over a
    fixed batch."""
    times = []
    model = model.frozen()
    x, mask = _inputs(model, ds, rows, *neighbors)
    for _ in range(repeats):
        t0 = time.perf_counter()
        model.predict(x, mask)
        times.append(time.perf_counter() - t0)
    return float(np.median(times) / len(rows) * 1e6)


@dataclass
class AblationRow:
    variant: str
    auc: float
    logloss: float
    params: int
    runtime_us: float


def ablate(ds: Dataset, index: RetrievalIndex, cfg: TrainConfig) -> list[AblationRow]:
    """Train every variant on identical data and seed; report test metrics,
    parameter counts, and per-example forward runtime."""
    neighbors = precompute_neighbors(ds, index, cfg.k)
    test_rows = ds.slice_indices("test")
    timing_rows = test_rows[:min(256, len(test_rows))]
    out = []
    for variant in ABLATION_ORDER:
        res = train(ds, index, replace(cfg, variant=variant), neighbors=neighbors)
        report = evaluate(res.model, ds, index, cfg, split="test", neighbors=neighbors)
        rt = time_forward_per_example(res.model, ds, neighbors, timing_rows)
        out.append(AblationRow(variant, report.auc, report.logloss,
                               res.model.parameter_count(), rt))
    return out


def write_ablation_csv(rows: list[AblationRow], path: str) -> None:
    with atomic_open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(ABLATION_HEADER)
        for r in rows:
            w.writerow([r.variant, repr(r.auc), repr(r.logloss), r.params, repr(r.runtime_us)])
