"""End-to-end command-line flows: synth -> train -> evaluate -> ablate, plus
retrieve conventions, exit codes, and idempotence. Every command indexes the
dataset's train slice itself."""

import io
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

from ractr.cli import RETRIEVE_GROUP, _encode_query, _query_lines, _write_json, main
from ractr.data import CsvSpec, load_csv
from ractr.model import load_checkpoint
from ractr.retrieval import index_from_dataset, retrieve
from ractr.training import ABLATION_ORDER


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One small generated dataset shared by every CLI test in this module."""
    base = tmp_path_factory.mktemp("cli")
    rc = main(["synth", "--out-dir", str(base), "--kind", "majority",
               "--seed", "3", "--history-groups", "12", "--eval-groups", "24",
               "--eval-train-records", "3"])
    assert rc == 0
    cfg_path = str(base / "config.json")
    with open(cfg_path) as f:
        cfg = json.load(f)
    cfg["train"].update({"k": 4, "embed_dim": 8, "num_blocks": 1,
                         "num_heads": 2, "mlp_ratio": 2, "batch_size": 64,
                         "max_epochs": 2, "learning_rate": 3e-3})
    with open(cfg_path, "w") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)

    fast = dict(cfg)
    fast["train"] = dict(cfg["train"], max_epochs=1)
    fast_path = str(base / "config_fast.json")
    with open(fast_path, "w") as f:
        json.dump(fast, f, indent=2, sort_keys=True)
    return {"base": base, "cfg_path": cfg_path, "fast_path": fast_path,
            "cfg": cfg}


# ---------------------------------------------------------------- synth

def test_synth_output_shape(ws, capsys):
    rc = main(["synth", "--out-dir", str(ws["base"] / "again"), "--seed", "3",
               "--history-groups", "12", "--eval-groups", "24",
               "--eval-train-records", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "records: 312 (train 192, valid 48, test 72)" in out
    assert "csv written to" in out and "config written to" in out
    cfg = ws["cfg"]
    assert cfg["user_field"] == "key"
    assert sum(cfg["data"]["ratios"]) == pytest.approx(1.0, abs=1e-12)
    assert cfg["data"]["feature_cols"][0] == "key"


# ---------------------------------------------------------------- retrieve

def queries_file(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return str(path)


def test_build_index_and_index_flags_exit_1(ws, trained, tmp_path, capsys):
    """The index is the train slice's, so no command reads or writes one."""
    query = queries_file(tmp_path / "q.jsonl", [json.dumps({"fields": {"key": "g3"}})])
    ckpt = os.path.join(trained, "checkpoint.ratm")
    capsys.readouterr()
    x = str(tmp_path / "x")
    assert main(["build-index", "--config", ws["cfg_path"], "--out", x]) == 1
    assert "invalid choice: 'build-index'" in capsys.readouterr().err
    for argv in (["retrieve", "--queries", query], ["evaluate", "--checkpoint", ckpt]):
        assert main(argv + ["--config", ws["cfg_path"], "--index", x]) == 1
        assert f"unrecognized arguments: --index {x}" in capsys.readouterr().err
    assert not os.path.exists(x)


def test_retrieve_jsonl_conventions(ws, tmp_path, capsys):
    q = queries_file(tmp_path / "q.jsonl", [
        json.dumps({"fields": {"key": "g3"}}),
        "",  # blank lines are skipped
        json.dumps({"fields": {"key": "no-such-key"}}),
    ])
    out_path = str(tmp_path / "res.jsonl")
    rc = main(["retrieve", "--config", ws["cfg_path"], "--queries", q, "--k", "3",
               "--out", out_path])
    assert rc == 0
    with open(out_path) as f:
        recs = [json.loads(line) for line in f.read().splitlines()]
    assert len(recs) == 2
    for rec in recs:
        assert set(rec) == {"neighbors", "scores", "mask"}
        assert len(rec["neighbors"]) == 3 and len(rec["mask"]) == 3
        assert len(rec["scores"]) == sum(rec["mask"])
    # a known key scores positive on its matches; an unseen key matches nothing
    assert recs[0]["scores"][0] > 0.0
    assert all(s == 0.0 for s in recs[1]["scores"])
    capsys.readouterr()


def test_retrieve_null_is_a_missing_cell(tmp_path, capsys):
    """JSON null is a missing cell (id 0, matches nothing), as if the field
    were left out; it is not the string "None"."""
    csv_path = tmp_path / "d.csv"
    keys = ["None", "a", "b", "None", "a", "b", "a", "b", "a", "b"]
    csv_path.write_text("ts,key,label\n" + "".join(
        f"{i},{key},{i % 2}\n" for i, key in enumerate(keys)))
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"data": {"path": str(csv_path), "label_col": "label",
                            "timestamp_col": "ts", "feature_cols": ["key"]}}, f)
    q = queries_file(tmp_path / "q.jsonl", [json.dumps({"fields": {"key": None}}),
                                            json.dumps({"fields": {}}),
                                            json.dumps({"fields": {"key": "None"}})])
    assert main(["retrieve", "--config", cfg_path, "--queries", q, "--k", "3"]) == 0
    null, omitted, literal = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert null == omitted
    assert null["scores"] == [0.0, 0.0, 0.0]
    # the literal string still matches the two rows that hold it
    assert literal["neighbors"][:2] == [3, 0] and literal["scores"][0] > 0.0


def test_retrieve_k_defaults_to_config(ws, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        json.dumps({"fields": {"key": "g0"}}) + "\n"))
    rc = main(["retrieve", "--config", ws["cfg_path"]])
    out = capsys.readouterr().out
    assert rc == 0
    rec = json.loads(out.strip())
    assert len(rec["neighbors"]) == 4  # train.k from the config


def test_retrieve_error_reporting(ws, tmp_path, capsys):
    base = ["retrieve", "--config", ws["cfg_path"], "--queries"]

    bad_json = queries_file(tmp_path / "bad.jsonl", ["{nope"])
    assert main(base + [bad_json]) == 2
    assert "queries line 1: invalid JSON" in capsys.readouterr().err

    no_fields = queries_file(tmp_path / "nf.jsonl", ['{"query": {}}'])
    assert main(base + [no_fields]) == 2
    assert "expected an object with a 'fields' key" in capsys.readouterr().err

    unknown = queries_file(tmp_path / "uf.jsonl",
                           [json.dumps({"fields": {"color": "red"}})])
    assert main(base + [unknown]) == 2
    assert "query field 'color' not in dataset schema" in capsys.readouterr().err

    for fields in (["key"], "key", None, 3):
        not_object = queries_file(tmp_path / "no.jsonl", [json.dumps({"fields": fields})])
        assert main(base + [not_object]) == 2
        assert "queries line 1: 'fields' must be a JSON object" in capsys.readouterr().err

    # a value is one cell: a list or an object is not one
    for value in (["g3"], {"v": "g3"}):
        nested = queries_file(tmp_path / "nv.jsonl", [json.dumps({"fields": {"key": value}})])
        assert main(base + [nested]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "query field 'key': expected a string, number or null" in err

    assert main(["retrieve", "--queries", bad_json]) == 1
    assert "the following arguments are required: --config" in capsys.readouterr().err


def single_query_records(cfg, lines, k):
    """What `ractr retrieve` prints: one per-query retrieve per line."""
    ds = load_csv(cfg["data"]["path"], CsvSpec.from_dict(cfg["data"]))
    index = index_from_dataset(ds)
    out = []
    for line in lines:
        res = retrieve(index, _encode_query(ds, json.loads(line)["fields"]), k, "all")
        out.append(json.dumps({"neighbors": res.neighbor_indices.tolist(),
                               "scores": [float(s) for s in res.scores[:res.mask.sum()]],
                               "mask": [bool(m) for m in res.mask]}, sort_keys=True) + "\n")
    return "".join(out)


def test_retrieve_groups_equal_single_queries(ws, capsys, monkeypatch):
    rng = np.random.default_rng(4)
    keys = [f"g{i}" for i in range(30)] + ["no-such-key", None]
    lines = []
    for i in range(2 * RETRIEVE_GROUP + 9):     # two group boundaries, a part group
        fields = {"key": keys[int(rng.integers(len(keys)))]}
        if i % 3:
            fields["noise0"] = str(rng.choice(["v0", "v1", "v9"]))
        lines.append(json.dumps({"fields": fields}))
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines[:40]) + "\n\n"
                                                  + "\n".join(lines[40:]) + "\n"))
    assert main(["retrieve", "--config", ws["cfg_path"], "--k", "4"]) == 0
    assert capsys.readouterr().out == single_query_records(ws["cfg"], lines, 4)


def test_retrieve_writes_good_records_before_a_bad_line(ws, capsys, monkeypatch):
    good = [json.dumps({"fields": {"key": f"g{i}"}}) for i in range(5)]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(good + ["{nope"] + good) + "\n"))
    assert main(["retrieve", "--config", ws["cfg_path"], "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == single_query_records(ws["cfg"], good, 3)
    assert "queries line 6: invalid JSON" in captured.err


def test_query_lines_split_as_splitlines():
    text = 'a\r\nb\rc\n\nd e\x0cf\r\n\rg'
    assert list(_query_lines(io.StringIO(text, newline="\n"))) == text.splitlines()
    # a byte stream splits the same way
    assert list(_query_lines(io.BytesIO(text.encode()))) == text.splitlines()


@pytest.mark.parametrize("source", ("file", "stdin"))
def test_retrieve_undecodable_line_is_a_data_error(ws, tmp_path, capsys, monkeypatch, source):
    good = [json.dumps({"fields": {"key": f"g{i}"}}) for i in range(3)]
    # line 3 is blank and line 4 a "\r"-separated pair, so line numbers count
    # logical lines; line 7 holds a byte that is no UTF-8
    lines = [good[0], good[1], "", good[2] + "\r" + good[0]]
    blob = "\n".join(lines).encode() + b'\n\n{"fields": {"key": "g\xff"}}\n' + good[1].encode()
    cmd = ["retrieve", "--config", ws["cfg_path"], "--k", "3"]
    if source == "file":
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(blob)
        cmd += ["--queries", str(path)]
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8",
                                                            errors="surrogateescape"))
    assert main(cmd) == 2
    captured = capsys.readouterr()
    assert captured.out == single_query_records(ws["cfg"], good + [good[0]], 3)
    assert "data error: queries line 7: not UTF-8 text" in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------- train

@pytest.fixture(scope="module")
def trained(ws):
    out = str(ws["base"] / "run_a")
    rc = main(["train", "--config", ws["cfg_path"], "--out", out, "--seed", "5"])
    assert rc == 0
    return out


def test_train_artifacts(ws, trained, capsys):
    for name in ("run_config.json", "checkpoint.ratm", "train_log.jsonl",
                 "summary.json"):
        assert os.path.exists(os.path.join(trained, name)), name

    with open(os.path.join(trained, "run_config.json")) as f:
        rcfg = json.load(f)
    assert rcfg["command"] == "train"
    assert rcfg["seed"] == 5 and rcfg["train"]["seed"] == 5  # flag wins

    with open(os.path.join(trained, "summary.json")) as f:
        summary = json.load(f)
    assert summary["variant"] == "cascade"
    assert summary["epochs_run"] >= 1
    assert summary["test_n"] == 72
    assert summary["test_auc"] is not None

    with open(os.path.join(trained, "train_log.jsonl")) as f:
        log = [json.loads(line) for line in f.read().splitlines()]
    assert len(log) == summary["epochs_run"]
    assert all(set(r) == {"step", "train_logloss", "valid_auc",
                          "valid_logloss", "wall_ms"} for r in log)
    assert summary["best_valid_auc"] == max(r["valid_auc"] for r in log)

    _, ckpt_cfg = load_checkpoint(os.path.join(trained, "checkpoint.ratm"))
    assert ckpt_cfg["train"]["seed"] == 5
    assert ckpt_cfg["variant"] == "cascade"


def test_train_prints_match_summary(ws, capsys):
    out = str(ws["base"] / "run_print")
    rc = main(["train", "--config", ws["fast_path"], "--out", out, "--seed", "5"])
    printed = capsys.readouterr().out
    assert rc == 0
    with open(os.path.join(out, "summary.json")) as f:
        summary = json.load(f)
    assert f"test auc: {summary['test_auc']:.6f}" in printed
    assert f"valid auc: {summary['best_valid_auc']:.6f}" in printed
    assert f"artifacts written to {out}" in printed


def test_train_idempotent_given_seed(ws, trained, capsys):
    out_b = str(ws["base"] / "run_b")
    rc = main(["train", "--config", ws["cfg_path"], "--out", out_b, "--seed", "5"])
    capsys.readouterr()
    assert rc == 0

    def read(d, name, mode="r"):
        with open(os.path.join(d, name), mode) as f:
            return f.read()

    assert read(trained, "checkpoint.ratm", "rb") == read(out_b, "checkpoint.ratm", "rb")
    assert read(trained, "summary.json") == read(out_b, "summary.json")
    assert read(trained, "run_config.json") == read(out_b, "run_config.json")
    strip = lambda text: [
        {k: v for k, v in json.loads(line).items() if k != "wall_ms"}
        for line in text.splitlines()]
    assert strip(read(trained, "train_log.jsonl")) == strip(read(out_b, "train_log.jsonl"))


# ---------------------------------------------------------------- evaluate

def test_evaluate_matches_train_summary(ws, trained, capsys):
    ckpt = os.path.join(trained, "checkpoint.ratm")
    rc = main(["evaluate", "--config", ws["cfg_path"], "--checkpoint", ckpt])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    with open(os.path.join(trained, "summary.json")) as f:
        summary = json.load(f)
    assert report["auc"] == summary["test_auc"]
    assert report["logloss"] == summary["test_logloss"]
    assert report["n"] == summary["test_n"]


def test_evaluate_segments_and_out(ws, trained, tmp_path, capsys):
    ckpt = os.path.join(trained, "checkpoint.ratm")
    report_path = str(tmp_path / "report.json")
    rc = main(["evaluate", "--config", ws["cfg_path"], "--checkpoint", ckpt,
               "--segments", "tail10,tail20", "--out", report_path])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert set(report["segments"]) == {"tail10", "tail20"}
    for seg in report["segments"].values():
        assert seg["n"] >= 0
    with open(report_path) as f:
        assert json.loads(f.read()) == report


def test_evaluate_on_other_splits(ws, trained, capsys):
    ckpt = os.path.join(trained, "checkpoint.ratm")
    rc = main(["evaluate", "--config", ws["cfg_path"], "--checkpoint", ckpt,
               "--split", "valid"])
    out = capsys.readouterr().out
    assert rc == 0
    assert json.loads(out)["n"] == 48


def test_evaluate_corrupt_checkpoint_config_exits_2(ws, trained, tmp_path, capsys):
    with open(os.path.join(trained, "checkpoint.ratm"), "rb") as f:
        blob = f.read()
    n = int.from_bytes(blob[6:10], "little")
    cfg = json.loads(blob[10:10 + n])
    del cfg["embed_dim"]
    raw = json.dumps(cfg).encode()
    bad = str(tmp_path / "bad.ratm")
    with open(bad, "wb") as f:
        f.write(blob[:6] + len(raw).to_bytes(4, "little") + raw + blob[10 + n:])
    rc = main(["evaluate", "--config", ws["cfg_path"], "--checkpoint", bad])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error:") and "missing 'embed_dim'" in err

    # sizes far past the payload fail before anything of that size is allocated
    for key, value in (("field_num_ids", [5, 10**12]), ("mlp_ratio", 10**12)):
        raw = json.dumps(dict(json.loads(blob[10:10 + n]), **{key: value})).encode()
        with open(bad, "wb") as f:
            f.write(blob[:6] + len(raw).to_bytes(4, "little") + raw + blob[10 + n:])
        rc = main(["evaluate", "--config", ws["cfg_path"], "--checkpoint", bad])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and "bad checkpoint config: config makes" in err


@pytest.mark.parametrize("stored", ["abc", [1, 2], 7, {"k": "5"}, {"bogus": 1}],
                         ids=["string", "list", "number", "ill-typed-k", "unknown-key"])
def test_evaluate_malformed_stored_train_config_exits_2(ws, trained, tmp_path, capsys, stored):
    """A checkpoint's own train entry is file content: a bad one is a data
    error naming the checkpoint, never a traceback or a usage error."""
    with open(os.path.join(trained, "checkpoint.ratm"), "rb") as f:
        blob = f.read()
    n = int.from_bytes(blob[6:10], "little")
    raw = json.dumps(dict(json.loads(blob[10:10 + n]), train=stored)).encode()
    bad = str(tmp_path / "bad.ratm")
    with open(bad, "wb") as f:
        f.write(blob[:6] + len(raw).to_bytes(4, "little") + raw + blob[10 + n:])
    rc = main(["evaluate", "--config", ws["cfg_path"], "--checkpoint", bad])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("data error:") and f"{bad}: bad stored train config" in err


def test_evaluate_takes_intra_only_from_the_checkpoint(ws, trained, tmp_path, capsys):
    """The checkpoint's model decides whether evaluate retrieves: a cascade
    checkpoint's rows retrieve their neighbors under a config whose variant
    is "intra", and an intra checkpoint's rows retrieve none under a cascade
    config, so each reports the bytes it does under the other config, not a
    score over padded neighbor slots. The retired intra_only key is unknown."""
    intra_path = str(tmp_path / "intra.json")
    with open(intra_path, "w") as f:
        json.dump(dict(ws["cfg"], train=dict(ws["cfg"]["train"], variant="intra")), f)
    intra_run = str(tmp_path / "intra_run")
    assert main(["train", "--config", ws["cfg_path"], "--out", intra_run, "--seed", "5",
                 "--variant", "intra"]) == 0
    for run in (trained, intra_run):
        reports = []
        for cfg_path in (ws["cfg_path"], intra_path):
            out = str(tmp_path / "report.json")
            rc = main(["evaluate", "--config", cfg_path, "--checkpoint",
                       os.path.join(run, "checkpoint.ratm"), "--out", out])
            assert rc == 0, capsys.readouterr().err
            with open(out, "rb") as f:
                reports.append(f.read())
        assert reports[0] == reports[1]
    with open(os.path.join(intra_run, "summary.json")) as f:
        assert json.loads(reports[0])["auc"] == json.load(f)["test_auc"]

    old_path = str(tmp_path / "old.json")
    with open(old_path, "w") as f:
        json.dump(dict(ws["cfg"], train=dict(ws["cfg"]["train"], intra_only=True)), f)
    capsys.readouterr()
    rc = main(["evaluate", "--config", old_path, "--checkpoint",
               os.path.join(trained, "checkpoint.ratm")])
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown train config keys: ['intra_only']\n"


def test_evaluate_of_a_version_1_checkpoint_exits_2(ws, trained, tmp_path, capsys):
    with open(os.path.join(trained, "checkpoint.ratm"), "rb") as f:
        blob = f.read()
    old = str(tmp_path / "old.ratm")
    with open(old, "wb") as f:
        f.write(blob[:4] + (1).to_bytes(2, "little") + blob[6:])
    capsys.readouterr()
    assert main(["evaluate", "--config", ws["cfg_path"], "--checkpoint", old]) == 2
    assert capsys.readouterr().err == (f"data error: {old}: unsupported checkpoint version 1 "
                                       f"(this build reads 2); retrain it with `ractr train`\n")


@pytest.mark.parametrize("other", ["five-columns", "singleton"])
def test_evaluate_on_a_dataset_of_other_fields_exits_2(ws, trained, tmp_path, capsys, other):
    """The checkpoint's fields must be the dataset's, by count and by ids per
    field: five kept columns would score with 5 of its field tables, and the
    singleton set's larger vocabularies would index past them."""
    if other == "five-columns":
        data = dict(ws["cfg"]["data"], feature_cols=ws["cfg"]["data"]["feature_cols"][:5])
        cfg = dict(ws["cfg"], data=data)
        first = f"first differing field 5: {_num_ids(ws)[5]} ids in the checkpoint, no field"
    else:
        base = str(tmp_path / "single")
        assert main(["synth", "--out-dir", base, "--kind", "singleton"]) == 0
        with open(os.path.join(base, "config.json")) as f:
            cfg = dict(json.load(f), train=ws["cfg"]["train"])
        first = f"first differing field 0 'key': {_num_ids(ws)[0]} ids in the checkpoint, "
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    capsys.readouterr()
    ckpt = os.path.join(trained, "checkpoint.ratm")
    rc = main(["evaluate", "--config", cfg_path, "--checkpoint", ckpt])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert err.startswith(f"data error: {ckpt}: checkpoint does not fit the dataset: it has "
                          f"{len(_num_ids(ws))} fields, the dataset ")
    assert first in err and "Traceback" not in err


def _num_ids(ws):
    spec = CsvSpec.from_dict(ws["cfg"]["data"])
    return [fs.num_ids for fs in load_csv(ws["cfg"]["data"]["path"], spec).schema]


def test_evaluate_requires_checkpoint(ws, capsys):
    rc = main(["evaluate", "--config", ws["cfg_path"]])
    assert rc == 1
    assert "no checkpoint" in capsys.readouterr().err


# ---------------------------------------------------------------- ablate

def test_ablate_table_and_csv(ws, capsys):
    out = str(ws["base"] / "ablate_run")
    rc = main(["ablate", "--config", ws["fast_path"], "--out", out])
    printed = capsys.readouterr().out
    assert rc == 0

    csv_path = os.path.join(out, "ablation.csv")
    with open(csv_path) as f:
        lines = f.read().strip().splitlines()
    assert lines[0] == "variant,auc,logloss,params,runtime_us"
    assert len(lines) == 5
    assert [line.split(",")[0] for line in lines[1:]] == list(ABLATION_ORDER)

    table = [line for line in printed.splitlines() if line.strip()]
    assert table[0].split() == ["variant", "auc", "logloss", "params", "runtime_us"]
    for variant in ABLATION_ORDER:
        assert any(line.startswith(variant) for line in table[1:])
    assert f"table written to {csv_path}" in printed

    with open(os.path.join(out, "run_config.json")) as f:
        assert json.load(f)["command"] == "ablate"


# ---------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(ws, tmp_path, capsys):
    assert main(["train", "--config", ws["cfg_path"], "--bogus"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["train"]) == 1  # --config is required
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err

    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as f:
        f.write("{not json")
    assert main(["train", "--config", bad]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    unknown_key = str(tmp_path / "uk.json")
    with open(unknown_key, "w") as f:
        json.dump({"data": ws["cfg"]["data"], "out_dir": str(tmp_path / "o"),
                   "train": {"dropout": 0.5}}, f)
    assert main(["train", "--config", unknown_key]) == 1
    assert "unknown train config keys" in capsys.readouterr().err

    # the top level, `data` and `train` must be JSON objects
    for cfg, what in (([1], "must be a JSON object"),
                      (dict(ws["cfg"], train=[1, 2]), "'train' must be a JSON object"),
                      (dict(ws["cfg"], data="path"), "'data' must be a JSON object")):
        shape = str(tmp_path / "shape.json")
        with open(shape, "w") as f:
            json.dump(cfg, f)
        assert main(["train", "--config", shape, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and what in err
    assert not os.path.exists(tmp_path / "o")

    no_out = str(tmp_path / "no_out.json")
    with open(no_out, "w") as f:
        json.dump({"data": ws["cfg"]["data"]}, f)
    assert main(["train", "--config", no_out]) == 1
    assert "no output directory" in capsys.readouterr().err

    # retrieve reads k as train and evaluate do, and needs one neighbor at least
    query = queries_file(tmp_path / "q.jsonl", [json.dumps({"fields": {"key": "g1"}})])
    no_data = str(tmp_path / "no_data.json")
    with open(no_data, "w") as f:
        json.dump({"train": {}}, f)
    assert main(["retrieve", "--config", no_data, "--queries", query]) == 1
    assert capsys.readouterr().err == "error: config needs a 'data' entry\n"
    retrieve = ["retrieve", "--config", ws["cfg_path"], "--queries", query]
    assert main(retrieve + ["--k", "0"]) == 1
    assert capsys.readouterr().err == "error: k must be an integer >= 1, got 0\n"
    assert main(retrieve + ["--k", "-3"]) == 1
    assert "train config: 'k' must be an integer >= 0, got -3" in capsys.readouterr().err
    for k in (2.5, "5", True, None):
        cfg_k = str(tmp_path / "cfg_k.json")
        with open(cfg_k, "w") as f:
            json.dump(dict(ws["cfg"], train={"k": k}), f)
        assert main(["retrieve", "--config", cfg_k, "--queries", query]) == 1
        assert f"train config: 'k' must be an integer >= 0, got {k!r}" in capsys.readouterr().err


def test_data_errors_exit_2(ws, tmp_path, capsys):
    missing_csv = str(tmp_path / "gone.csv")
    cfg = {"data": dict(ws["cfg"]["data"], path=missing_csv),
           "out_dir": str(tmp_path / "o")}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    assert main(["train", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert missing_csv in err

    query = queries_file(tmp_path / "q.jsonl", [json.dumps({"fields": {"key": "g1"}})])
    res = tmp_path / "res.jsonl"
    for key, value, must in (("delimiter", 5, "a one-character string"),
                             ("delimiter", ";;", "a one-character string"),
                             ("ratios", "abc", "a list of three numbers"),
                             ("feature_cols", "key", "a list of strings")):
        with open(cfg_path, "w") as f:
            json.dump({"data": dict(ws["cfg"]["data"], **{key: value})}, f)
        assert main(["retrieve", "--config", cfg_path, "--queries", query,
                     "--out", str(res)]) == 2
        assert f"data error: csv spec '{key}' must be {must}" in capsys.readouterr().err
        assert not res.exists()


@pytest.mark.parametrize("cols,message", [
    (["label", "key"], "feature column 'label' is the label column"),
    (["key", "key"], "feature column 'key' is listed twice"),
], ids=("label-as-feature", "duplicate"))
def test_feature_columns_must_be_distinct_non_label_columns(ws, tmp_path, capsys, cols, message):
    """A label column among the features leaks the target into its own
    input, and a repeated column encodes a query's value into one field only."""
    cfg = dict(ws["cfg"], data=dict(ws["cfg"]["data"], feature_cols=cols),
               out_dir=str(tmp_path / "o"))
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    query = queries_file(tmp_path / "q.jsonl", [json.dumps({"fields": {"key": "g1"}})])
    for command in (["train"], ["retrieve", "--queries", query]):
        assert main(command[:1] + ["--config", cfg_path] + command[1:]) == 2
        assert f"data error: csv spec {message}" in capsys.readouterr().err


def test_evaluate_takes_no_seed(ws, capsys):
    # evaluate never reads a training seed, so it offers none
    assert main(["evaluate", "--config", ws["cfg_path"], "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,command", [
    ("data.path", 0, ["retrieve", "--queries", "q.jsonl"]),
    ("out_dir", 3, ["train"]),
    ("checkpoint", 7, ["evaluate"]),
], ids=("data.path", "out_dir", "checkpoint"))
def test_config_paths_must_be_strings(ws, tmp_path, capsys, monkeypatch, key, value, command):
    """A number would reach open() as a file descriptor (0 is stdin)."""
    monkeypatch.chdir(tmp_path)
    queries_file(tmp_path / "q.jsonl", [json.dumps({"fields": {"key": "g1"}})])
    cfg = dict(ws["cfg"])
    if key == "data.path":
        cfg["data"] = dict(cfg["data"], path=value)
    else:
        cfg[key] = value
    with open("cfg.json", "w") as f:
        json.dump(cfg, f)
    assert main(command[:1] + ["--config", "cfg.json"] + command[1:]) == 1
    name = key.split(".")[-1]
    assert f"error: config '{name}' must be a string path, got {value}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "q.jsonl"]


def test_a_dataset_key_or_flag_exits_1(ws, trained, tmp_path, capsys, monkeypatch):
    """A dataset enters only as its CSV under 'data'. A config that still
    names 'dataset' beside 'data' is refused, not ignored: ignoring it would
    score the CSV instead of the file it names, with no error."""
    monkeypatch.chdir(tmp_path)
    queries_file(tmp_path / "q.jsonl", [json.dumps({"fields": {"key": "g1"}})])
    with open("cfg.json", "w") as f:
        json.dump(dict(ws["cfg"], dataset="d.ratd", out_dir="o"), f)
    ckpt = os.path.join(trained, "checkpoint.ratm")
    for command in (["retrieve", "--queries", "q.jsonl"], ["train"],
                    ["evaluate", "--checkpoint", ckpt], ["ablate"]):
        assert main(command[:1] + ["--config", "cfg.json"] + command[1:]) == 1
        assert capsys.readouterr().err == ("error: config cfg.json: there is no 'dataset' key; "
                                           "the dataset's CSV goes under 'data'\n")
    assert main(["retrieve", "--config", ws["cfg_path"], "--queries", "q.jsonl",
                 "--dataset", "d.ratd"]) == 1
    assert "unrecognized arguments: --dataset d.ratd" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "q.jsonl"]


@pytest.mark.parametrize("key,value,must", [
    ("embed_dim", 0, None), ("mlp_ratio", 0, None), ("k", -1, None),
    ("intra_only", "no", "unknown train config keys: ['intra_only']"),
    ("learning_rate", "0.01", "'learning_rate' must be a finite number >= 0"),
    ("seed", "x", None), ("seed", -1, None), ("early_stop_patience", "2", None),
    ("adam_beta1", 2, "'adam_beta1' must be a finite number in [0, 1)"),
    ("learning_rate", math.nan, "'learning_rate' must be a finite number >= 0"),
], ids=("embed_dim-0", "mlp_ratio-0", "k--1", "intra_only-no", "learning_rate-str",
        "seed-x", "seed--1", "early_stop_patience-str", "adam_beta1-2", "learning_rate-nan"))
def test_bad_sizes_exit_1(ws, tmp_path, capsys, key, value, must):
    cfg = {"data": ws["cfg"]["data"], "out_dir": str(tmp_path / "o"),
           "train": {key: value, "max_epochs": 1}}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    assert main(["train", "--config", cfg_path]) == 1
    assert (must or f"'{key}' must be an integer >= ") in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_data_error_leaves_no_output_directory(ws, tmp_path, capsys, command):
    """The output directory is made when the first artifact is written, so a
    command that stops at its data makes none."""
    cfg = dict(ws["cfg"], data=dict(ws["cfg"]["data"], path=str(tmp_path / "absent.csv")))
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"data error: cannot open {tmp_path}/absent.csv")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]
    # an output path that is a file is refused before any work
    (tmp_path / "o").write_text("")
    assert main([command, "--config", ws["cfg_path"], "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: output directory {tmp_path}/o is not a directory\n"


def test_non_finite_training_loss_exits_2(ws, tmp_path, capsys):
    # an enormous step saturates p at exactly 1.0, and a clip eps below the
    # float spacing at 1.0 leaves log(1 - p) = -inf: the loss is not finite
    cfg = {"data": ws["cfg"]["data"], "out_dir": str(tmp_path / "o"),
           "train": dict(ws["cfg"]["train"], learning_rate=1e3, logloss_clip_eps=1e-300)}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    assert main(["train", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: training loss is nan in epoch 1 of 2, step ")
    assert "the model diverged (learning_rate 1000.0, logloss_clip_eps 1e-300)" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "o" / "checkpoint.ratm")


def test_diverged_loss_warns_nothing_before_its_data_error(tmp_path, capsys, monkeypatch):
    # on the quick-start data the divergence takes log(0) and 0 * inf in the
    # loss; numpy must not warn of them, even when warnings are errors
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out-dir", "demo", "--history-groups", "40",
                 "--eval-groups", "80"]) == 0
    with open("demo/config.json") as f:
        cfg = json.load(f)
    cfg["train"].update(learning_rate=1e3, logloss_clip_eps=1e-300, max_epochs=2)
    with open("demo/config.json", "w") as f:
        json.dump(cfg, f)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train", "--config", "demo/config.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: training loss is nan in epoch 1 of 2, step ")


@pytest.mark.parametrize("command", ["retrieve", "train", "evaluate", "ablate"])
def test_k_past_the_train_pool_exits_1(ws, trained, tmp_path, capsys, command):
    # a k this large would allocate (queries, k) tables of terabytes
    pool = load_csv(ws["cfg"]["data"]["path"], CsvSpec.from_dict(ws["cfg"]["data"])).train_end
    query = queries_file(tmp_path / "q.jsonl", [json.dumps({"fields": {"key": "g1"}})])
    args = {"retrieve": ["--queries", query],
            "train": ["--out", str(tmp_path / "o")],
            "evaluate": ["--checkpoint", os.path.join(trained, "checkpoint.ratm")],
            "ablate": ["--out", str(tmp_path / "o")]}[command]
    capsys.readouterr()
    for k in (pool + 1, 10**11):
        assert main([command, "--config", ws["cfg_path"], "--k", str(k)] + args) == 1
        err = capsys.readouterr().err
        assert err == f"error: k must be at most the train pool size, {pool}, got {k}\n"
    assert not os.path.exists(tmp_path / "o" / "checkpoint.ratm")
    if command == "retrieve":
        assert main(["retrieve", "--config", ws["cfg_path"], "--k", str(pool)] + args) == 0
        assert json.loads(capsys.readouterr().out)["mask"] == [True] * pool
    if command == "train":
        cfg = dict(ws["cfg"], train=dict(ws["cfg"]["train"], k=10**11))
        with open(tmp_path / "cfg.json", "w") as f:
            json.dump(cfg, f)
        assert main(["train", "--config", str(tmp_path / "cfg.json"), *args]) == 1
        assert f"train pool size, {pool}, got {10**11}" in capsys.readouterr().err


def test_an_intra_model_trains_on_a_pool_smaller_than_k(tmp_path, capsys):
    """An intra model retrieves no neighbors, so the default k of 5 may pass
    a train pool of 4 records; a model that retrieves may not."""
    csv_path = tmp_path / "d.csv"
    csv_path.write_text("ts,key,label\n" + "".join(
        f"{i},{'ab'[i % 3 == 0]},{i % 2}\n" for i in range(12)))
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"data": {"path": str(csv_path), "label_col": "label", "timestamp_col": "ts",
                            "feature_cols": ["key"], "ratios": [1 / 3, 1 / 3, 1 / 3]},
                   "train": {"embed_dim": 8, "num_blocks": 1, "max_epochs": 1}}, f)
    run = str(tmp_path / "intra")
    assert main(["train", "--config", cfg_path, "--out", run, "--variant", "intra"]) == 0
    assert main(["evaluate", "--config", cfg_path,
                 "--checkpoint", os.path.join(run, "checkpoint.ratm")]) == 0
    capsys.readouterr()
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: k must be at most the train pool size, 4, got 5\n"
    assert not os.path.exists(tmp_path / "o")


def test_failed_artifact_write_leaves_old_file(ws, tmp_path, capsys):
    """JSON artifacts and retrieve --out go through a temp file: a write that
    fails part way leaves the earlier file and no partial one."""
    path = tmp_path / "summary.json"
    _write_json({"a": 1}, str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        _write_json({"a": 1, "b": object()}, str(path))  # dumps "a" first
    assert path.read_bytes() == before

    out = tmp_path / "res.jsonl"
    out.write_text("earlier\n")
    q = queries_file(tmp_path / "q.jsonl", [json.dumps({"fields": {"key": "g3"}}), "{nope"])
    assert main(["retrieve", "--config", ws["cfg_path"], "--queries", q,
                 "--out", str(out)]) == 2
    assert out.read_text() == "earlier\n"
    assert sorted(os.listdir(tmp_path)) == ["q.jsonl", "res.jsonl", "summary.json"]
    capsys.readouterr()


@pytest.mark.parametrize("train,message", [
    ({"embed_dim": 7, "num_heads": 2}, "embed_dim 7 not divisible by 2 heads"),
    ({"variant": "pa", "embed_dim": 6, "num_heads": 2}, "pa needs embed_dim/2 divisible"),
    ({"variant": "mlp"}, "unknown variant 'mlp'"),
    ({"activation": "tanh"}, "unknown activation 'tanh'"),
], ids=("indivisible", "pa_indivisible", "variant", "activation"))
def test_bad_model_settings_exit_1(ws, tmp_path, capsys, train, message):
    cfg = {"data": ws["cfg"]["data"], "out_dir": str(tmp_path / "o"),
           "train": dict(train, max_epochs=1)}
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    assert main(["train", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: train config: ") and message in err


def test_internal_errors_exit_3(ws, tmp_path, capsys, monkeypatch):
    def fault(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr("ractr.cli.train", fault)
    assert main(["train", "--config", ws["fast_path"], "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: injected fault" in err


def test_help_everywhere(capsys):
    flags = {
        "retrieve": ["--config", "--queries", "--k", "--out"],
        "train": ["--config", "--out", "--seed", "--k", "--variant"],
        "evaluate": ["--config", "--checkpoint", "--split", "--segments", "--k", "--out"],
        "ablate": ["--config", "--out", "--seed", "--k"],
        "synth": ["--out-dir", "--kind", "--seed", "--history-groups",
                  "--eval-groups", "--eval-train-records"],
    }
    for cmd, names in flags.items():
        assert main([cmd, "--help"]) == 0
        text = capsys.readouterr().out
        for name in names:
            assert name in text, (cmd, name)

    assert main(["--help"]) == 0
    top = capsys.readouterr().out
    for cmd in flags:
        assert cmd in top

    assert main(["--version"]) == 0
    assert "ractr" in capsys.readouterr().out
