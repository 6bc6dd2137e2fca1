"""Categorical tabular datasets: CSV loading, vocabularies, chronological splits.

Field values are mapped to dense integer ids starting at 1; id 0 is the shared
sentinel for both missing cells and values unseen in the train portion, so the
embedding consumer never needs a separate OOV path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import binio
from .errors import DataError

DATASET_MAGIC = b"RATD"
DATASET_VERSION = 1


class FieldSchema:
    """Bijection between one field's raw string values and dense ids (1-based)."""

    def __init__(self, name: str, values: list[str] | None = None):
        self.name = name
        self.values: list[str] = list(values) if values else []
        self._ids: dict[str, int] = {v: i + 1 for i, v in enumerate(self.values)}

    def add(self, value: str) -> int:
        got = self._ids.get(value)
        if got is not None:
            return got
        self.values.append(value)
        vid = len(self.values)
        self._ids[value] = vid
        return vid

    def id_for(self, value: str | None) -> int:
        """Encode a raw value; missing or unseen values map to 0."""
        if value is None or value == "":
            return 0
        return self._ids.get(value, 0)

    def value_for(self, vid: int) -> str | None:
        """Decode an id; 0 has no value."""
        if vid == 0:
            return None
        return self.values[vid - 1]

    @property
    def vocab_size(self) -> int:
        return len(self.values)

    @property
    def num_ids(self) -> int:
        """Rows an embedding table needs: vocab plus the id-0 sentinel."""
        return len(self.values) + 1


@dataclass
class Dataset:
    """Records sorted by (timestamp, arrival order) with split marks on that order.

    Storage is columnar. split_marks = (train_end, valid_end): train is
    [0, train_end), validation [train_end, valid_end), test [valid_end, n).
    """
    schema: list[FieldSchema]
    field_ids: np.ndarray      # (n, F) int64
    labels: np.ndarray         # (n,) int64, values in {0, 1}
    timestamps: np.ndarray     # (n,) int64
    train_end: int
    valid_end: int
    missing_cells: int = 0
    oov_cells: int = 0
    has_timestamp_column: bool = True
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

    @property
    def missing_ratio(self) -> float:
        return self.missing_cells / max(1, len(self) * self.num_fields)

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
            return cls(
                label_col=d["label_col"],
                feature_cols=list(d["feature_cols"]),
                timestamp_col=d.get("timestamp_col"),
                delimiter=d.get("delimiter", ","),
                ratios=tuple(d["ratios"]) if d.get("ratios") else None,
            )
        except KeyError as e:
            raise DataError(f"csv spec missing key {e}") from None


def _split_bounds(n: int, ratios) -> tuple[int, int]:
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
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
    spec has no ratios). Without a timestamp column the file's row order is
    taken as chronological order.
    """
    if isinstance(spec, dict):
        spec = CsvSpec.from_dict(spec)

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
        for col in [spec.label_col, *spec.feature_cols] + ([spec.timestamp_col] if spec.timestamp_col else []):
            if col not in col_idx:
                raise DataError(f"{path}: column {col!r} not in header {header}")
        li = col_idx[spec.label_col]
        ti = col_idx[spec.timestamp_col] if spec.timestamp_col else None
        fi = [col_idx[c] for c in spec.feature_cols]

        rows: list[tuple[int, int, int, list[str]]] = []  # (ts, arrival, label, values)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            raw_label = row[li].strip()
            if raw_label == "1":
                label = 1
            elif raw_label == "0":
                label = 0
            else:
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {raw_label!r}")
            if ti is not None:
                try:
                    ts = int(row[ti].strip())
                except ValueError:
                    raise DataError(f"{path}:{lineno}: timestamp {row[ti]!r} is not an integer") from None
            else:
                ts = len(rows)
            rows.append((ts, len(rows), label, [row[j] for j in fi]))

    if not rows:
        raise DataError(f"{path}: no data rows")

    rows.sort(key=lambda r: (r[0], r[1]))
    n = len(rows)
    if spec.ratios is not None:
        train_end, valid_end = _split_bounds(n, spec.ratios)
    else:
        train_end, valid_end = n, n

    return _encode(
        schema_names=spec.feature_cols,
        sorted_values=[r[3] for r in rows],
        labels=np.asarray([r[2] for r in rows], dtype=np.int64),
        timestamps=np.asarray([r[0] for r in rows], dtype=np.int64),
        train_end=train_end,
        valid_end=valid_end,
        has_timestamp_column=spec.timestamp_col is not None,
    )


def _encode(schema_names, sorted_values, labels, timestamps, train_end, valid_end,
            has_timestamp_column) -> Dataset:
    n, nf = len(sorted_values), len(schema_names)
    schema = [FieldSchema(name) for name in schema_names]
    for vals in sorted_values[:train_end]:
        for f_i, v in enumerate(vals):
            if v != "":
                schema[f_i].add(v)

    ids = np.zeros((n, nf), dtype=np.int64)
    missing = 0
    oov = 0
    for i, vals in enumerate(sorted_values):
        for f_i, v in enumerate(vals):
            if v == "":
                missing += 1
            else:
                vid = schema[f_i].id_for(v)
                if vid == 0:
                    oov += 1
                ids[i, f_i] = vid

    return Dataset(
        schema=schema,
        field_ids=ids,
        labels=labels,
        timestamps=timestamps,
        train_end=train_end,
        valid_end=valid_end,
        missing_cells=missing,
        oov_cells=oov,
        has_timestamp_column=has_timestamp_column,
        raw_values=sorted_values,
    )


def chronological_split(ds: Dataset, ratios) -> Dataset:
    """Re-mark split boundaries on the sorted order and rebuild vocabularies
    from the new train portion.

    Re-encoding decodes through the existing vocabulary, so cells that were
    already collapsed to id 0 stay id 0 even if the train window widens; the
    normal path (ratios passed to load_csv) splits before encoding and never
    hits that edge.
    """
    n = len(ds)
    train_end, valid_end = _split_bounds(n, ratios)

    if ds.raw_values is not None:
        values = ds.raw_values
    else:
        values = [[ds.schema[f].value_for(int(ds.field_ids[i, f])) or ""
                   for f in range(ds.num_fields)]
                  for i in range(n)]

    return _encode(
        schema_names=[fs.name for fs in ds.schema],
        sorted_values=values,
        labels=ds.labels.copy(),
        timestamps=ds.timestamps.copy(),
        train_end=train_end,
        valid_end=valid_end,
        has_timestamp_column=ds.has_timestamp_column,
    )


def save_dataset(ds: Dataset, path: str) -> None:
    """Serialize to the RATD container (little-endian, layout in README)."""
    with binio.atomic_open(path) as f:
        f.write(DATASET_MAGIC)
        binio.write_u16(f, DATASET_VERSION)
        binio.write_u8(f, 1 if ds.has_timestamp_column else 0)
        binio.write_u32(f, ds.num_fields)
        binio.write_u64(f, len(ds))
        binio.write_u64(f, ds.train_end)
        binio.write_u64(f, ds.valid_end)
        binio.write_u64(f, ds.missing_cells)
        binio.write_u64(f, ds.oov_cells)
        for fs in ds.schema:
            binio.write_str(f, fs.name)
            binio.write_u32(f, fs.vocab_size)
            for v in fs.values:
                binio.write_str(f, v)
        binio.write_array(f, ds.labels, "<u1")
        binio.write_array(f, ds.timestamps, "<i8")
        binio.write_array(f, ds.field_ids, "<u4")


def load_dataset(path: str) -> Dataset:
    try:
        fh = open(path, "rb")
    except OSError as e:
        raise DataError(f"cannot open {path}: {e}") from None
    with fh:
        magic = binio.read_exact(fh, 4)
        if magic != DATASET_MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}, expected {DATASET_MAGIC!r}")
        version = binio.read_u16(fh)
        if version != DATASET_VERSION:
            raise DataError(f"{path}: unsupported dataset version {version}")
        has_ts = bool(binio.read_u8(fh))
        nf = binio.read_u32(fh)
        n = binio.read_u64(fh)
        train_end = binio.read_u64(fh)
        valid_end = binio.read_u64(fh)
        missing = binio.read_u64(fh)
        oov = binio.read_u64(fh)
        schema = []
        for _ in range(nf):
            name = binio.read_str(fh)
            vs = binio.read_u32(fh)
            schema.append(FieldSchema(name, [binio.read_str(fh) for _ in range(vs)]))
        labels = binio.read_array(fh, n, "<u1").astype(np.int64)
        timestamps = binio.read_array(fh, n, "<i8").astype(np.int64)
        field_ids = binio.read_array(fh, n * nf, "<u4").astype(np.int64).reshape(n, nf)
        extra = fh.read(1)
        if extra:
            raise DataError(f"{path}: trailing bytes after dataset payload")
    if np.any(labels > 1) or np.any(field_ids > [fs.vocab_size for fs in schema]):
        raise DataError(f"{path}: labels must be 0 or 1 and ids at most their field's vocab size")
    if np.any(timestamps[1:] < timestamps[:-1]):
        raise DataError(f"{path}: timestamps are not sorted")

    return Dataset(
        schema=schema,
        field_ids=field_ids,
        labels=labels,
        timestamps=timestamps,
        train_end=train_end,
        valid_end=valid_end,
        missing_cells=missing,
        oov_cells=oov,
        has_timestamp_column=has_ts,
    )
