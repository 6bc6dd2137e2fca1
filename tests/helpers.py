"""Test-only generators and formulas, kept out of the library."""

import numpy as np

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
