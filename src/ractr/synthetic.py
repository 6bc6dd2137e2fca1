"""Synthetic datasets whose labels live in the neighbors, not the features.

The majority task: records belong to keyed groups; after a group's first
three free-label "seed" records, every record's label equals the majority
label of all strictly-earlier same-key records (the seed pattern makes ties
impossible). A retriever that finds same-key history and a model that reads
neighbor label tokens can solve it; the record's own fields say nothing
about its label beyond the key's group identity.

History groups sit entirely inside the train window and supply the training
signal. Eval groups leave 4 records in the train window (three 2:1 seeds
plus one determined record) and put their remaining determined records in
the validation and test windows, so test queries retrieve 4 same-key train
records and at most one stranger at k=5: an equal-weight majority over the
retrieved labels is already exact.

Noise fields are iid binary: their BM25 match weights are ~ln(1) ~ 0 so they
never perturb same-key ranking, and they widen the field axis to a realistic
token count.
"""

from __future__ import annotations

import numpy as np

from .binio import atomic_open
from .data import Dataset, _encode


def _generated(names, rows, labels, timestamps, train_end, valid_end) -> Dataset:
    """Encode generated rows and keep their raw cells, which write_csv emits."""
    ds = _encode(names, rows, labels, timestamps, train_end, valid_end, has_timestamp_column=True)
    ds.raw_values = rows
    return ds


def _interleave(rng, group_sizes: list[int]) -> list[tuple[int, int]]:
    """Random merge of per-group event streams preserving within-group order.
    Returns (group, seq) pairs."""
    events = []
    for g, m in enumerate(group_sizes):
        times = np.sort(rng.uniform(0.0, 1.0, size=m))
        for s in range(m):
            events.append((times[s], g, s))
    events.sort()
    return [(g, s) for _, g, s in events]


def majority_task(n_history_groups: int = 320, n_eval_groups: int = 320,
                  history_size: int = 10, eval_train_records: int = 4,
                  n_noise_fields: int = 17, noise_vocab: int = 2,
                  seed: int = 7) -> Dataset:
    """Build the majority task. Train window: all history-group records plus
    eval_train_records per eval group (three 2:1 seeds, then determined
    records); valid window: 2 per eval group; test window: 3 per eval group.
    Timestamps are the global arrival order."""
    if history_size < 8:
        raise ValueError("history groups need at least 8 records")
    if eval_train_records < 3:
        raise ValueError("eval groups need at least the 3 seed records in train")
    rng = np.random.default_rng(seed)
    n_groups = n_history_groups + n_eval_groups

    # per-group label sequences
    labels: list[list[int]] = []
    for g in range(n_history_groups):
        seq = list(rng.integers(0, 2, size=3))
        while len(seq) < history_size:
            seq.append(1 if sum(seq) * 2 > len(seq) else 0)
        labels.append(seq)
    eval_major = rng.integers(0, 2, size=n_eval_groups)
    for e in range(n_eval_groups):
        maj = int(eval_major[e])
        seeds = [maj, maj, 1 - maj]
        order = rng.permutation(3)
        seq = [seeds[i] for i in order]
        # determined records: the rest of train, then 2 valid + 3 test
        seq += [maj] * (eval_train_records - 3 + 5)
        labels.append(seq)

    # phase event streams: (group, seq) in chronological order
    hist_ids = list(range(n_history_groups))
    eval_ids = [n_history_groups + e for e in range(n_eval_groups)]
    phase1_sizes = {g: history_size for g in hist_ids}
    phase1_sizes.update({g: eval_train_records for g in eval_ids})
    order1 = _interleave(rng, [phase1_sizes[g] for g in hist_ids + eval_ids])
    groups1 = hist_ids + eval_ids
    phase1 = [(groups1[gi], s) for gi, s in order1]
    order2 = _interleave(rng, [2] * n_eval_groups)
    phase2 = [(eval_ids[gi], eval_train_records + s) for gi, s in order2]
    order3 = _interleave(rng, [3] * n_eval_groups)
    phase3 = [(eval_ids[gi], eval_train_records + 2 + s) for gi, s in order3]

    all_events = phase1 + phase2 + phase3
    n = len(all_events)
    noise_values = rng.integers(0, noise_vocab, size=(n, n_noise_fields))

    rows: list[list[str]] = []
    out_labels = np.empty(n, dtype=np.int64)
    for i, (g, s) in enumerate(all_events):
        rows.append([f"g{g}"] + [f"v{noise_values[i, j]}" for j in range(n_noise_fields)])
        out_labels[i] = labels[g][s]

    train_end = n_history_groups * history_size + eval_train_records * n_eval_groups
    valid_end = train_end + 2 * n_eval_groups
    return _generated(["key"] + [f"noise{j}" for j in range(n_noise_fields)], rows,
                      out_labels, np.arange(n, dtype=np.int64), train_end, valid_end)


def singleton_pool(n: int = 8000, n_noise_fields: int = 17, noise_vocab: int = 2,
                   ratios=(0.7, 0.15, 0.15), seed: int = 11) -> Dataset:
    """Every record its own key, labels random: an embedding-heavy dataset for
    parameter-parity and runtime comparisons, with nothing to learn."""
    rng = np.random.default_rng(seed)
    noise_values = rng.integers(0, noise_vocab, size=(n, n_noise_fields))
    labels = rng.integers(0, 2, size=n).astype(np.int64)
    rows = [[f"u{i}"] + [f"v{noise_values[i, j]}" for j in range(n_noise_fields)]
            for i in range(n)]
    c1 = int(round(n * ratios[0]))
    c2 = int(round(n * (ratios[0] + ratios[1])))
    return _generated(["key"] + [f"noise{j}" for j in range(n_noise_fields)], rows,
                      labels, np.arange(n, dtype=np.int64), c1, c2)


def write_csv(ds: Dataset, path: str) -> None:
    """Emit a dataset back to CSV (timestamp, features, label) for the CLI."""
    if ds.raw_values is None:
        raise ValueError("dataset has no raw values to write")
    cols = ["ts"] + [fs.name for fs in ds.schema] + ["label"]
    with atomic_open(path, "w", encoding="utf-8") as f:
        f.write(",".join(cols) + "\n")
        for i in range(len(ds)):
            f.write(",".join([str(int(ds.timestamps[i]))] + ds.raw_values[i]
                             + [str(int(ds.labels[i]))]) + "\n")
