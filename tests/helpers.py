"""Test-only generators and formulas, kept out of the library."""

import contextlib
import math

import numpy as np
import pytest
from scipy.special import erf

from ractr import tensor as T
from ractr.model import CtrModel
from ractr.retrieval import _counted_weights, _pair_score
from ractr.synthetic import _generated


def random_dataset(seed: int, n: int, n_fields: int, vocab: int,
                   missing_rate: float = 0.05, max_ts: int | None = None,
                   ratios=(0.7, 0.2, 0.1)):
    """Unstructured random dataset for property tests; timestamps may tie."""
    rng = np.random.default_rng(seed)
    if max_ts is None:
        max_ts = max(2, n // 2)  # force timestamp ties
    ts = np.sort(rng.integers(0, max_ts, size=n)).astype(np.int64)
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    labels[0], labels[-1] = 0, 1  # both classes present
    rows = []
    for i in range(n):
        row = []
        for f in range(n_fields):
            if rng.random() < missing_rate:
                row.append("")
            else:
                row.append(f"f{f}v{rng.integers(0, vocab)}")
        rows.append(row)
    c1 = max(1, int(round(n * ratios[0])))
    c2 = max(c1 + 1, int(round(n * (ratios[0] + ratios[1]))))
    c2 = min(c2, n - 1) if n > 2 else c2
    return _generated([f"f{f}" for f in range(n_fields)], rows, labels, ts, c1, c2)


def bm25_score(index, query_ids: np.ndarray, cand_ids: np.ndarray) -> float:
    """Score one query/candidate pair directly from the formula, counting each
    query id's pool frequency afresh.

    Fields contribute in ascending field order; a field contributes only when
    the ids are equal and both non-zero.
    """
    return _pair_score(_counted_weights(index, query_ids), query_ids, cand_ids)


def cascade_entries_per_layer(k: int, num_fields: int) -> int:
    s, t = k + 1, num_fields + 1
    return s * t * t + t * s * s


def jm_entries_per_layer(k: int, num_fields: int) -> int:
    s, t = k + 1, num_fields + 1
    return (s * t) ** 2


def attention_entries(model, x, mask) -> int:
    """Attention score-matrix entries per example (heads excluded) of one
    predict, counted on the whole (K+1) x (F+1) grid: each _attend call adds
    the grid's size times the size of each axis it mixes."""
    grid = x.shape[1:3]
    calls = []
    attend = CtrModel._attend

    def recording(self, q, kv, pre, mask, axes):
        calls.append(axes)
        return attend(self, q, kv, pre, mask, axes)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CtrModel, "_attend", recording)
        model.predict(x, mask)
    return sum(math.prod(grid) * math.prod(grid[a - 1] for a in axes) for axes in calls)


def adam_steps(values, grad_steps, lr, beta1, beta2, eps):
    """Adam's out-of-place formula, step by step, from zero moments: the
    parameter values after each step's gradients, as new arrays."""
    m = [np.zeros_like(p) for p in values]
    v = [np.zeros_like(p) for p in values]
    values = list(values)
    for t, grads in enumerate(grad_steps, start=1):
        c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
            mhat = m[i] / c1
            vhat = v[i] / c2
            values[i] = values[i] - lr * mhat / (np.sqrt(vhat) + eps)
    return values


# ---------------------------------------------------------------- unfused ops
# The model's fused ops written as the separate nodes they replace, with the
# formulas of their first versions: a reference for forwards and gradients.

def unfused_linear(x, w, b):
    return T.add(T.matmul(x, w), b)


def unfused_attention(q, k, v, scale, key_mask=None):
    """q: (G, Tq, H, dh) and k, v: (G, Tk, H, dh) through transpose, matmul,
    mul and softmax_lastdim nodes."""
    g = q.shape[0]
    q, k, v = (T.transpose(t, (0, 2, 1, 3)) for t in (q, k, v))
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), scale)
    mask = None if key_mask is None else key_mask.reshape(g, 1, 1, -1)
    return T.transpose(T.matmul(T.softmax_lastdim(scores, mask), v), (0, 2, 1, 3))


def unfused_layer_norm(a, gamma, beta, eps=1e-5):
    x = a.data
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv

    def bw(g):
        dxhat = g * gamma.data
        t1 = dxhat.mean(axis=-1, keepdims=True)
        t2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return [(a, inv * (dxhat - t1 - xhat * t2)),
                (gamma, T._unbroadcast(g * xhat, gamma.data.shape)),
                (beta, T._unbroadcast(g, beta.data.shape))]

    return T._node(gamma.data * xhat + beta.data, (a, gamma, beta), bw)


def unfused_gelu(a):
    x = a.data
    phi = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))

    def bw(g):
        return [(a, g * (phi + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)))]

    return T._node(x * phi, (a,), bw)


@contextlib.contextmanager
def unfused_ops():
    """Within the block, ractr.tensor's linear, attention, layer_norm and
    gelu are the unfused references above, so the model runs on them."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("linear", "attention", "layer_norm", "gelu"):
            mp.setattr(T, name, globals()[f"unfused_{name}"])
        yield
