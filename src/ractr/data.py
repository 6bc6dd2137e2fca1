"""Categorical tabular datasets: CSV loading, vocabularies, chronological splits.

Field values are mapped to dense integer ids starting at 1; id 0 is the shared
sentinel for both missing cells and values unseen in the train portion, so the
embedding consumer never needs a separate OOV path.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import DataError


class FieldSchema:
    """Bijection between one field's raw string values and dense ids (1-based)."""

    def __init__(self, name: str, values: list[str] | None = None):
        self.name = name
        self.values: list[str] = list(values) if values else []
        self._ids: dict[str, int] = {v: i + 1 for i, v in enumerate(self.values)}

    def id_for(self, value: str | None) -> int:
        """Encode a raw value; missing or unseen values map to 0."""
        if value is None or value == "":
            return 0
        return self._ids.get(value, 0)

    @property
    def num_ids(self) -> int:
        """Rows an embedding table needs: vocab plus the id-0 sentinel."""
        return len(self.values) + 1

    @property
    def digest(self) -> str:
        """SHA-256 of the vocabulary in id order: two fields share it only if
        each id stands for the same value in both."""
        return hashlib.sha256(json.dumps(self.values).encode("ascii")).hexdigest()


@dataclass
class Dataset:
    """Records sorted by (timestamp, arrival order) with split marks on that order.

    Storage is columnar. split_marks = (train_end, valid_end): train is
    [0, train_end), validation [train_end, valid_end), test [valid_end, n).
    raw_values (each record's cells) is set only by the synthetic generators,
    for write_csv; a Dataset loaded from CSV keeps no raw strings, so
    re-splitting means reloading the CSV with other ratios.
    """
    schema: list[FieldSchema]
    field_ids: np.ndarray      # (n, F) int64
    labels: np.ndarray         # (n,) int64, values in {0, 1}
    timestamps: np.ndarray     # (n,) int64
    train_end: int
    valid_end: int
    raw_values: list[list[str]] | None = field(default=None, repr=False)

    def __post_init__(self):
        n = len(self.labels)
        if not (0 < self.train_end <= self.valid_end <= n):
            raise DataError(f"bad split marks ({self.train_end}, {self.valid_end}) for {n} records")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_fields(self) -> int:
        return len(self.schema)

    @property
    def split_marks(self) -> tuple[int, int]:
        return (self.train_end, self.valid_end)

    def slice_indices(self, split: str) -> np.ndarray:
        if split == "train":
            return np.arange(0, self.train_end)
        if split == "valid":
            return np.arange(self.train_end, self.valid_end)
        if split == "test":
            return np.arange(self.valid_end, len(self))
        raise DataError(f"unknown split {split!r}")


@dataclass
class CsvSpec:
    """What to read from a CSV: column roles, delimiter, optional split ratios."""
    label_col: str
    feature_cols: list[str]
    timestamp_col: str | None = None
    delimiter: str = ","
    ratios: tuple[float, float, float] | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "CsvSpec":
        try:
            spec = cls(
                label_col=d["label_col"],
                feature_cols=d["feature_cols"],
                timestamp_col=d.get("timestamp_col"),
                delimiter=d.get("delimiter", ","),
                ratios=d.get("ratios"),
            )
        except KeyError as e:
            raise DataError(f"csv spec missing key {e}") from None
        checks = (
            ("label_col", isinstance(spec.label_col, str), "a string"),
            ("timestamp_col", spec.timestamp_col is None or isinstance(spec.timestamp_col, str),
             "a string"),
            ("feature_cols", isinstance(spec.feature_cols, (list, tuple))
             and all(isinstance(c, str) for c in spec.feature_cols), "a list of strings"),
            ("delimiter", isinstance(spec.delimiter, str) and len(spec.delimiter) == 1,
             "a one-character string"),
            ("ratios", spec.ratios is None or isinstance(spec.ratios, (list, tuple))
             and len(spec.ratios) == 3 and all(type(r) in (int, float) for r in spec.ratios),
             "a list of three numbers"),
        )
        for key, ok, must in checks:
            if not ok:
                raise DataError(f"csv spec {key!r} must be {must}, got {d[key]!r}")
        spec.feature_cols = list(spec.feature_cols)
        for i, c in enumerate(spec.feature_cols):
            if c == spec.label_col:
                raise DataError(f"csv spec feature column {c!r} is the label column")
            if c in spec.feature_cols[:i]:
                raise DataError(f"csv spec feature column {c!r} is listed twice")
        if spec.ratios is not None:
            spec.ratios = tuple(spec.ratios)
        return spec


def _split_bounds(n: int, ratios) -> tuple[int, int]:
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(r > 0 for r in ratios):
        raise DataError(f"need three positive split ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios sum to {sum(ratios)}, expected 1")
    # cumulative rounding keeps every split within one record of its exact share
    c1 = int(round(n * ratios[0]))
    c2 = int(round(n * (ratios[0] + ratios[1])))
    if not (0 < c1 < c2 < n):
        raise DataError(f"split of {n} records by {ratios} leaves an empty split")
    return c1, c2


def load_csv(path: str, spec: CsvSpec | dict) -> Dataset:
    """Read a UTF-8 CSV with a header row into an encoded Dataset.

    Vocabularies are built from the train portion only (everything, when the
    spec has no ratios). Without a timestamp column (timestamp_col None; any
    string, "" too, names a header column) the file's row order is taken as
    chronological order.
    """
    spec = CsvSpec.from_dict(spec if isinstance(spec, dict) else vars(spec))

    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None

    with fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file (no header)") from None

        col_idx = {name: i for i, name in enumerate(header)}
        has_ts = spec.timestamp_col is not None
        for col in [spec.label_col, *spec.feature_cols] + ([spec.timestamp_col] if has_ts else []):
            if col not in col_idx:
                raise DataError(f"{path}: column {col!r} not in header {header}")
        li = col_idx[spec.label_col]
        ti = col_idx[spec.timestamp_col] if has_ts else None
        fi = [col_idx[c] for c in spec.feature_cols]

        labels, stamps, rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            raw_label = row[li].strip()
            if raw_label not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {raw_label!r}")
            if ti is not None:
                try:
                    ts = int(row[ti].strip())
                except ValueError:
                    raise DataError(f"{path}:{lineno}: timestamp {row[ti]!r} is not an integer") from None
                if not -2**63 <= ts < 2**63:
                    raise DataError(f"{path}:{lineno}: timestamp {ts} does not fit in 64 bits")
                stamps.append(ts)
            labels.append(raw_label == "1")
            rows.append([row[j] for j in fi])

    if not rows:
        raise DataError(f"{path}: no data rows")

    n = len(rows)
    timestamps = np.asarray(stamps, dtype=np.int64) if ti is not None else np.arange(n, dtype=np.int64)
    order = np.argsort(timestamps, kind="stable")
    if spec.ratios is not None:
        train_end, valid_end = _split_bounds(n, spec.ratios)
    else:
        train_end, valid_end = n, n

    return _encode(
        schema_names=spec.feature_cols,
        rows=[rows[i] for i in order.tolist()],
        labels=np.asarray(labels, dtype=np.int64)[order],
        timestamps=timestamps[order],
        train_end=train_end,
        valid_end=valid_end,
    )


def _encode(schema_names, rows, labels, timestamps, train_end, valid_end) -> Dataset:
    """Encode each record's raw cells (in time order) one column at a time.

    A field's vocabulary is its non-empty train-slice values in first-appearance
    order; empty cells and values unseen in train get id 0.
    """
    schema = []
    ids = np.zeros((len(rows), len(schema_names)), dtype=np.int64)
    for f, (name, col) in enumerate(zip(schema_names, zip(*rows))):
        vocab = dict.fromkeys(col[:train_end])
        vocab.pop("", None)
        fs = FieldSchema(name, vocab)
        ids[:, f] = np.fromiter(map(fs._ids.get, col, repeat(0)), np.int64, len(col))
        schema.append(fs)

    return Dataset(
        schema=schema,
        field_ids=ids,
        labels=labels,
        timestamps=timestamps,
        train_end=train_end,
        valid_end=valid_end,
    )
