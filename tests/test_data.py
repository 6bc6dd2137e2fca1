"""CSV loading, vocabularies, chronological splits, RATD round trips."""

import os

import numpy as np
import pytest

from helpers import random_dataset
from ractr.data import (
    CsvSpec,
    Dataset,
    FieldSchema,
    _split_bounds,
    load_csv,
    load_dataset,
    save_dataset,
)
from ractr.errors import DataError
from ractr.synthetic import write_csv


def write(path, text):
    with open(path, "w") as f:
        f.write(text)
    return str(path)


SPEC = CsvSpec(label_col="label", feature_cols=["city", "device"],
               timestamp_col="ts", ratios=None)


# ---------------------------------------------------------------- loading

def test_row_order_is_time_when_no_timestamp_column(tmp_path):
    p = write(tmp_path / "a.csv", "city,device,label\na,x,0\nb,y,1\na,x,0\nc,z,1\n")
    spec = CsvSpec(label_col="label", feature_cols=["city", "device"])
    ds = load_csv(p, spec)
    assert len(ds) == 4
    assert not ds.has_timestamp_column
    assert ds.timestamps.tolist() == [0, 1, 2, 3]
    assert ds.labels.tolist() == [0, 1, 0, 1]


def test_empty_timestamp_col_names_a_header_column(tmp_path):
    # only None means "no timestamp column"; "" is a column name like any other
    spec = CsvSpec(label_col="label", feature_cols=["city"], timestamp_col="")
    p = write(tmp_path / "a.csv", "city,,label\na,5,0\nb,3,1\n")
    ds = load_csv(p, spec)
    assert ds.has_timestamp_column
    assert ds.timestamps.tolist() == [3, 5]
    assert ds.labels.tolist() == [1, 0]


def test_empty_timestamp_col_absent_from_header(tmp_path):
    spec = CsvSpec(label_col="label", feature_cols=["city"], timestamp_col="")
    p = write(tmp_path / "a.csv", "ts,city,label\n5,a,0\n3,b,1\n")
    with pytest.raises(DataError, match="column '' not in header"):
        load_csv(p, spec)


def test_vocab_ids_start_at_one_and_round_trip(tmp_path):
    p = write(tmp_path / "a.csv", "ts,city,device,label\n0,a,x,0\n1,b,y,1\n2,a,z,0\n")
    ds = load_csv(p, SPEC)
    city = ds.schema[0]
    assert city.name == "city"
    assert city.vocab_size == 2 and city.num_ids == 3
    assert city.id_for("a") == 1 and city.id_for("b") == 2
    assert city.values == ["a", "b"]  # id i decodes to values[i - 1]; id 0 to nothing
    assert city.id_for("never-seen") == 0 and city.id_for("") == 0
    assert ds.field_ids.tolist() == [[1, 1], [2, 2], [1, 3]]


def test_sort_by_timestamp_then_arrival(tmp_path):
    # two ties at ts=5; arrival order must be preserved within the tie
    p = write(tmp_path / "a.csv",
              "ts,city,device,label\n5,b,y,1\n2,a,x,0\n5,c,z,0\n1,d,w,1\n")
    ds = load_csv(p, SPEC)
    assert ds.timestamps.tolist() == [1, 2, 5, 5]
    assert ds.labels.tolist() == [1, 0, 1, 0]
    assert ds.schema[0].values[int(ds.field_ids[2, 0]) - 1] == "b"
    assert ds.schema[0].values[int(ds.field_ids[3, 0]) - 1] == "c"


def test_split_marks_and_time_ordering(tmp_path):
    rows = "".join(f"{i},c{i},d,{i % 2}\n" for i in range(10))
    p = write(tmp_path / "a.csv", "ts,city,device,label\n" + rows)
    spec = CsvSpec(label_col="label", feature_cols=["city", "device"],
                   timestamp_col="ts", ratios=(0.7, 0.2, 0.1))
    ds = load_csv(p, spec)
    assert ds.split_marks == (7, 9)
    assert ds.slice_indices("train").tolist() == list(range(7))
    assert ds.slice_indices("valid").tolist() == [7, 8]
    assert ds.slice_indices("test").tolist() == [9]
    assert ds.timestamps[:7].max() <= ds.timestamps[7:9].min()
    assert ds.timestamps[7:9].max() <= ds.timestamps[9:].min()


def test_vocab_built_from_train_rows_only(tmp_path):
    # "late" first appears after the train mark, so it must encode to 0
    p = write(tmp_path / "a.csv",
              "ts,city,device,label\n"
              "0,a,x,0\n1,b,x,1\n2,a,x,0\n3,b,x,1\n4,a,x,0\n5,b,x,1\n6,a,x,0\n"
              "7,late,x,1\n8,a,x,0\n9,late,x,1\n")
    spec = CsvSpec(label_col="label", feature_cols=["city", "device"],
                   timestamp_col="ts", ratios=(0.7, 0.2, 0.1))
    ds = load_csv(p, spec)
    assert ds.schema[0].id_for("late") == 0
    assert ds.field_ids[7, 0] == 0 and ds.field_ids[9, 0] == 0
    assert ds.oov_cells == 2
    assert ds.missing_cells == 0


def test_missing_and_oov_counted_separately(tmp_path):
    p = write(tmp_path / "a.csv",
              "ts,city,device,label\n0,a,,0\n1,b,y,1\n2,,y,0\n3,zz,y,1\n")
    spec = CsvSpec(label_col="label", feature_cols=["city", "device"],
                   timestamp_col="ts", ratios=(0.5, 0.25, 0.25))
    ds = load_csv(p, spec)
    # row 0 device and row 2 city are empty; zz is unseen in train
    assert ds.missing_cells == 2
    assert ds.oov_cells == 1
    assert ds.missing_cells / (len(ds) * ds.num_fields) == pytest.approx(2 / 8)


def test_no_ratios_marks_everything_train(tmp_path):
    p = write(tmp_path / "a.csv", "ts,city,device,label\n0,a,x,0\n1,b,y,1\n")
    ds = load_csv(p, SPEC)
    assert ds.split_marks == (2, 2)
    assert ds.slice_indices("valid").size == 0
    assert ds.slice_indices("test").size == 0


# ---------------------------------------------------------------- errors

def test_cannot_open(tmp_path):
    with pytest.raises(DataError, match="cannot open"):
        load_csv(str(tmp_path / "nope.csv"), SPEC)


def test_empty_file(tmp_path):
    p = write(tmp_path / "a.csv", "")
    with pytest.raises(DataError, match="empty file"):
        load_csv(p, SPEC)


def test_header_only(tmp_path):
    p = write(tmp_path / "a.csv", "ts,city,device,label\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(p, SPEC)


def test_missing_column(tmp_path):
    p = write(tmp_path / "a.csv", "ts,city,label\n0,a,0\n")
    with pytest.raises(DataError, match="column 'device' not in header"):
        load_csv(p, SPEC)


def test_ragged_row_reports_lineno(tmp_path):
    p = write(tmp_path / "a.csv", "ts,city,device,label\n0,a,x,0\n1,b,1\n")
    with pytest.raises(DataError, match=r"a\.csv:3: expected 4 cells, got 3"):
        load_csv(p, SPEC)


def test_bad_label_reports_lineno(tmp_path):
    p = write(tmp_path / "a.csv", "ts,city,device,label\n0,a,x,2\n")
    with pytest.raises(DataError, match=r"a\.csv:2: label must be 0 or 1, got '2'"):
        load_csv(p, SPEC)


def test_bad_timestamp_reports_lineno(tmp_path):
    p = write(tmp_path / "a.csv", "ts,city,device,label\n0,a,x,0\nsoon,b,y,1\n")
    with pytest.raises(DataError, match=r"a\.csv:3: timestamp 'soon' is not an integer"):
        load_csv(p, SPEC)
    p = write(tmp_path / "a.csv", f"ts,city,device,label\n0,a,x,0\n{2**63},b,y,1\n")
    with pytest.raises(DataError, match=r"a\.csv:3: timestamp \d+ does not fit in 64 bits"):
        load_csv(p, SPEC)


def test_split_bounds_errors():
    with pytest.raises(DataError, match="need three positive split ratios"):
        _split_bounds(10, (0.5, 0.5))
    with pytest.raises(DataError, match="need three positive split ratios"):
        _split_bounds(10, (0.5, 0.5, 0.0))
    with pytest.raises(DataError, match="sum to"):
        _split_bounds(10, (0.5, 0.3, 0.3))
    with pytest.raises(DataError, match="need three positive split ratios"):
        _split_bounds(10, (0.5, float("nan"), 0.5))
    with pytest.raises(DataError, match="leaves an empty split"):
        _split_bounds(2, (0.4, 0.3, 0.3))


def test_csvspec_from_dict():
    spec = CsvSpec.from_dict({"label_col": "y", "feature_cols": ["a"],
                              "path": "ignored.csv", "ratios": [0.8, 0.1, 0.1]})
    assert spec.label_col == "y"
    assert spec.ratios == (0.8, 0.1, 0.1)
    assert spec.timestamp_col is None and spec.delimiter == ","
    assert CsvSpec.from_dict({"label_col": "y", "feature_cols": [], "ratios": None}).ratios is None
    with pytest.raises(DataError, match="csv spec missing key"):
        CsvSpec.from_dict({"feature_cols": ["a"]})
    for key, value, must in (
            ("label_col", 3, "a string"),
            ("timestamp_col", ["ts"], "a string"),
            ("feature_cols", "key", "a list of strings"),  # not split into characters
            ("feature_cols", ["a", 1], "a list of strings"),
            ("delimiter", 5, "a one-character string"),
            ("delimiter", ";;", "a one-character string"),
            ("delimiter", "", "a one-character string"),
            ("ratios", "abc", "a list of three numbers"),
            ("ratios", [0.5, 0.5], "a list of three numbers"),
            ("ratios", [0.5, "0.3", 0.2], "a list of three numbers"),
            ("ratios", [True, 0.3, 0.2], "a list of three numbers")):
        with pytest.raises(DataError, match=f"csv spec '{key}' must be {must}, got "):
            CsvSpec.from_dict({"label_col": "y", "feature_cols": ["a"], key: value})


def test_bad_split_marks_rejected():
    fs = [FieldSchema("f", ["a"])]
    ids = np.ones((3, 1), dtype=np.int64)
    lab = np.array([0, 1, 0])
    ts = np.arange(3)
    with pytest.raises(DataError, match="bad split marks"):
        Dataset(fs, ids, lab, ts, train_end=0, valid_end=2)
    with pytest.raises(DataError, match="bad split marks"):
        Dataset(fs, ids, lab, ts, train_end=2, valid_end=1)
    with pytest.raises(DataError, match="bad split marks"):
        Dataset(fs, ids, lab, ts, train_end=2, valid_end=4)


def test_unknown_split_name():
    ds = Dataset([FieldSchema("f", ["a"])], np.ones((2, 1), dtype=np.int64),
                 np.array([0, 1]), np.arange(2), train_end=1, valid_end=2)
    with pytest.raises(DataError, match="unknown split 'dev'"):
        ds.slice_indices("dev")


# ---------------------------------------------------------------- RATD

def test_dataset_file_round_trip(tmp_path):
    ds = random_dataset(seed=3, n=60, n_fields=4, vocab=9, missing_rate=0.1)
    p = str(tmp_path / "d.ratd")
    save_dataset(ds, p)
    got = load_dataset(p)
    assert len(got) == len(ds)
    assert got.split_marks == ds.split_marks
    assert got.has_timestamp_column == ds.has_timestamp_column
    assert got.missing_cells == ds.missing_cells
    assert got.oov_cells == ds.oov_cells
    assert [fs.name for fs in got.schema] == [fs.name for fs in ds.schema]
    assert [fs.values for fs in got.schema] == [fs.values for fs in ds.schema]
    np.testing.assert_array_equal(got.field_ids, ds.field_ids)
    np.testing.assert_array_equal(got.labels, ds.labels)
    np.testing.assert_array_equal(got.timestamps, ds.timestamps)


def test_dataset_file_bytes_deterministic(tmp_path):
    ds = random_dataset(seed=5, n=40, n_fields=3, vocab=6)
    p1, p2 = str(tmp_path / "a.ratd"), str(tmp_path / "b.ratd")
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_dataset_file_errors(tmp_path):
    ds = random_dataset(seed=1, n=20, n_fields=2, vocab=4)
    p = str(tmp_path / "d.ratd")
    save_dataset(ds, p)

    bad = str(tmp_path / "magic.ratd")
    with open(p, "rb") as f:
        blob = f.read()
    write_bytes = lambda path, b: open(path, "wb").write(b)
    write_bytes(bad, b"XXXX" + blob[4:])
    with pytest.raises(DataError, match="bad magic"):
        load_dataset(bad)

    trunc = str(tmp_path / "trunc.ratd")
    write_bytes(trunc, blob[:-5])
    with pytest.raises(DataError, match="truncated"):
        load_dataset(trunc)

    tail = str(tmp_path / "tail.ratd")
    write_bytes(tail, blob + b"\x00")
    with pytest.raises(DataError, match="trailing bytes"):
        load_dataset(tail)

    with pytest.raises(DataError, match="cannot open"):
        load_dataset(str(tmp_path / "missing.ratd"))

    # the payload ends with labels (n x u1), timestamps (n x i8), ids (n*F x u4)
    labels_at = len(blob) - len(ds) * (1 + 8 + 4 * ds.num_fields)
    label = str(tmp_path / "label.ratd")
    write_bytes(label, blob[:labels_at] + b"\x02" + blob[labels_at + 1:])
    with pytest.raises(DataError, match="labels must be 0 or 1"):
        load_dataset(label)

    past_vocab = ds.schema[-1].vocab_size + 1
    vid = str(tmp_path / "id.ratd")
    write_bytes(vid, blob[:-4] + past_vocab.to_bytes(4, "little"))
    with pytest.raises(DataError, match="ids at most their field's vocab size"):
        load_dataset(vid)

    # the first timestamp pushed past the second
    ts_at = labels_at + len(ds)
    later = int(ds.timestamps[1]) + 1
    unsorted = str(tmp_path / "unsorted.ratd")
    write_bytes(unsorted, blob[:ts_at] + later.to_bytes(8, "little", signed=True)
                + blob[ts_at + 8:])
    with pytest.raises(DataError, match="timestamps are not sorted"):
        load_dataset(unsorted)


def test_dataset_file_rejects_ids_past_u32(tmp_path):
    ds = random_dataset(seed=1, n=20, n_fields=2, vocab=4)
    ds.field_ids[3, 1] = 2**32
    with pytest.raises(DataError, match="do not fit uint32"):
        save_dataset(ds, str(tmp_path / "d.ratd"))


def test_failed_dataset_save_leaves_old_file(tmp_path):
    ds = random_dataset(seed=1, n=20, n_fields=2, vocab=4)
    path = tmp_path / "d.ratd"
    save_dataset(ds, str(path))
    before = path.read_bytes()
    ds.field_ids[3, 1] = 2**32  # ids come last, so the save fails part way
    with pytest.raises(DataError, match="do not fit uint32"):
        save_dataset(ds, str(path))
    with pytest.raises(DataError, match="do not fit uint32"):
        save_dataset(ds, str(tmp_path / "new.ratd"))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["d.ratd"]


def test_dataset_version_check(tmp_path):
    ds = random_dataset(seed=1, n=20, n_fields=2, vocab=4)
    p = str(tmp_path / "d.ratd")
    save_dataset(ds, p)
    with open(p, "rb") as f:
        blob = bytearray(f.read())
    blob[4:6] = (99).to_bytes(2, "little")
    bad = str(tmp_path / "v99.ratd")
    with open(bad, "wb") as f:
        f.write(bytes(blob))
    with pytest.raises(DataError, match="unsupported dataset version 99"):
        load_dataset(bad)


def test_dataset_invalid_utf8_name_is_data_error(tmp_path):
    ds = random_dataset(seed=1, n=20, n_fields=2, vocab=4)
    p = str(tmp_path / "d.ratd")
    save_dataset(ds, p)
    with open(p, "rb") as f:
        blob = bytearray(f.read())
    name = ds.schema[1].name.encode()
    at = blob.index(len(name).to_bytes(4, "little") + name) + 4
    blob[at] = 0xFF  # never valid in UTF-8
    bad = str(tmp_path / "utf8.ratd")
    with open(bad, "wb") as f:
        f.write(bytes(blob))
    with pytest.raises(DataError, match="invalid UTF-8"):
        load_dataset(bad)


# ---------------------------------------------------------------- property

def test_random_csv_round_trips_keep_time_order():
    rng = np.random.default_rng(20260816)
    for trial in range(8):
        seed = int(rng.integers(1, 2**31))
        n = int(rng.integers(12, 80))
        ds = random_dataset(seed=seed, n=n, n_fields=int(rng.integers(2, 5)),
                            vocab=int(rng.integers(3, 12)),
                            missing_rate=0.1, max_ts=n // 2)
        t = ds.timestamps
        assert (t[1:] >= t[:-1]).all()
        tr, va = ds.split_marks
        assert 0 < tr < va < len(ds)
        assert t[:tr].max() <= t[tr:va].min()
        assert t[tr:va].max() <= t[va:].min()
        # every in-vocab value really occurs in some train row of that field
        for f, fs in enumerate(ds.schema):
            train_ids = set(ds.field_ids[:tr, f].tolist())
            for vid in range(1, fs.num_ids):
                assert vid in train_ids


def test_write_csv_then_load_matches(tmp_path):
    ds = random_dataset(seed=11, n=50, n_fields=3, vocab=7, missing_rate=0.08,
                        max_ts=25)
    p = str(tmp_path / "round.csv")
    write_csv(ds, p)
    spec = CsvSpec(label_col="label",
                   feature_cols=[fs.name for fs in ds.schema],
                   timestamp_col="ts", ratios=(0.7, 0.2, 0.1))
    got = load_csv(p, spec)
    np.testing.assert_array_equal(got.labels, ds.labels)
    np.testing.assert_array_equal(got.timestamps, ds.timestamps)
    np.testing.assert_array_equal(got.field_ids, ds.field_ids)
    assert got.missing_cells == ds.missing_cells
    assert got.oov_cells == ds.oov_cells


def test_ids_follow_time_order_not_file_order(tmp_path):
    """A row-shuffled copy of a CSV encodes exactly like the time-sorted file.

    Rows that share a timestamp keep their relative order in the copy: within
    a tie, file order is the order (and it decides which tied rows fall on
    either side of a split mark).
    """
    ds = random_dataset(seed=21, n=300, n_fields=4, vocab=150, missing_rate=0.15, max_ts=40)
    sorted_csv = str(tmp_path / "sorted.csv")
    write_csv(ds, sorted_csv)
    with open(sorted_csv) as f:
        header, *lines = f.read().splitlines()
    perm = np.random.default_rng(5).permutation(len(lines))
    ts = ds.timestamps[perm]
    for t in np.unique(ts):
        perm[ts == t] = np.sort(perm[ts == t])
    assert not np.array_equal(perm, np.arange(len(lines)))
    shuffled_csv = write(tmp_path / "shuffled.csv",
                         "\n".join([header] + [lines[i] for i in perm]) + "\n")

    names = [fs.name for fs in ds.schema]
    for ratios in ((0.7, 0.2, 0.1), None):
        spec = CsvSpec(label_col="label", feature_cols=names, timestamp_col="ts", ratios=ratios)
        want, got = load_csv(sorted_csv, spec), load_csv(shuffled_csv, spec)
        assert want.raw_values is None and got.raw_values is None
        np.testing.assert_array_equal(got.field_ids, want.field_ids)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(got.timestamps, want.timestamps)
        assert [fs.values for fs in got.schema] == [fs.values for fs in want.schema]
        assert (got.missing_cells, got.oov_cells) == (want.missing_cells, want.oov_cells)
        assert got.missing_cells > 0 and (ratios is None or got.oov_cells > 0)
