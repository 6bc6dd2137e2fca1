"""Command-line front end: ad-hoc retrieval, training, evaluation, and the
variant ablation, driven by a JSON config file.

Config keys (all optional unless a command needs them):
  data        {path, label_col, feature_cols, timestamp_col?, delimiter?, ratios?}
  checkpoint  path to a .ratm checkpoint (evaluate)
  out_dir     where a command writes its artifacts
  user_field  field name used for long-tail segment reports
  train       TrainConfig fields

Command-line flags override config values. Exit codes: 0 ok, 1 usage error,
2 data error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from contextlib import nullcontext

import numpy as np

from . import __version__
from .binio import atomic_open
from .data import CsvSpec, Dataset, load_csv
from .errors import DataError, UsageError
from .model import VARIANTS, load_checkpoint, save_checkpoint
from .retrieval import index_from_dataset, retrieve_batch
from .synthetic import majority_task, singleton_pool, write_csv
from .training import TrainConfig, ablate, evaluate, train, write_ablation_csv


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; route through UsageError for exit 1."""

    def error(self, message):
        raise UsageError(message)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a JSON object")
    for section in ("data", "train"):
        if not isinstance(cfg.get(section, {}), dict):
            raise UsageError(f"config {path}: '{section}' must be a JSON object")
    if "dataset" in cfg:  # an encoded-file path; ignored, it would swap in the CSV unnoticed
        raise UsageError(f"config {path}: there is no 'dataset' key; "
                         "the dataset's CSV goes under 'data'")
    return cfg


def _path(flag: str | None, section: dict, key: str) -> str | None:
    """A path from its flag, else from the config; a config path must be a string."""
    if flag:
        return flag
    value = section.get(key)
    if value is not None and not isinstance(value, str):
        raise UsageError(f"config '{key}' must be a string path, got {json.dumps(value)}")
    return value


def _load_data(cfg: dict) -> Dataset:
    if "data" not in cfg:
        raise UsageError("config needs a 'data' entry")
    d = cfg["data"]
    path = _path(None, d, "path")
    if path is None:
        raise UsageError("config data section needs a 'path'")
    return load_csv(path, CsvSpec.from_dict(d))


def _resolve_train_cfg(cfg: dict, args, base: dict | None = None) -> TrainConfig:
    d = dict(base or {})
    d.update(cfg.get("train", {}))
    if getattr(args, "seed", None) is not None:
        d["seed"] = args.seed
    if getattr(args, "k", None) is not None:
        d["k"] = args.k
    if getattr(args, "variant", None) is not None:
        d["variant"] = args.variant
    return TrainConfig.from_dict(d)


def _check_fields(ckpt_path: str, field_num_ids: list[int], ds: Dataset) -> None:
    """A checkpoint scores only the fields it was trained on: the dataset
    must have as many, each with as many ids."""
    ours = [fs.num_ids for fs in ds.schema]
    if ours == field_num_ids:
        return
    f = next(f for f in range(max(len(ours), len(field_num_ids)))
             if ours[f:f + 1] != field_num_ids[f:f + 1])
    name = f" {ds.schema[f].name!r}" if f < len(ours) else ""
    ids = [f"{nums[f]} ids" if f < len(nums) else "no field" for nums in (field_num_ids, ours)]
    raise DataError(f"{ckpt_path}: checkpoint does not fit the dataset: it has "
                    f"{len(field_num_ids)} fields, the dataset {len(ours)}; first differing "
                    f"field {f}{name}: {ids[0]} in the checkpoint, {ids[1]} in the dataset")


def _out_dir(cfg: dict, args) -> str:
    """The output directory's path; _echo_run_config creates the directory."""
    out = _path(getattr(args, "out", None), cfg, "out_dir")
    if not out:
        raise UsageError("no output directory: pass --out or set out_dir in the config")
    if os.path.exists(out) and not os.path.isdir(out):  # found now, not after training
        raise UsageError(f"output directory {out} is not a directory")
    return out


def _write_json(obj, path: str) -> None:
    with atomic_open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _segments_list(args) -> list[str] | None:
    raw = getattr(args, "segments", None)
    if not raw:
        return None
    out = [s.strip() for s in raw.split(",") if s.strip()]
    if not out:
        raise UsageError("--segments given but empty")
    return out


def _encode_query(ds: Dataset, fields: dict) -> np.ndarray:
    by_name = {fs.name: i for i, fs in enumerate(ds.schema)}
    ids = np.zeros(ds.num_fields, dtype=np.int64)
    for name, value in fields.items():
        if name not in by_name:
            raise DataError(f"query field {name!r} not in dataset schema")
        if isinstance(value, (list, dict)):
            raise DataError(f"query field {name!r}: expected a string, number or null, "
                            f"got {json.dumps(value)}")
        # null is a missing cell: id 0, which matches nothing
        f = by_name[name]
        ids[f] = ds.schema[f].id_for(None if value is None else str(value))
    return ids


# queries scored by one retrieve_batch call in `ractr retrieve`
RETRIEVE_GROUP = 256


def _query_lines(f):
    """The lines of a query stream as str.splitlines gives them for the whole
    text: each line the stream yields ends at a "\n", which splitlines also
    breaks at, and no break ("\r\n" included) spans two of them. A byte
    stream is read as UTF-8, one line at a time, so the lines before one
    that is not UTF-8 come out before its DataError."""
    lineno = 0
    for physical in f:
        if isinstance(physical, bytes):
            try:
                physical = physical.decode("utf-8")
            except UnicodeDecodeError as e:
                raise DataError(f"queries line {lineno + 1}: not UTF-8 text: {e.reason} "
                                f"at byte {e.start}") from None
        for line in physical.splitlines():
            lineno += 1
            yield line


def _parse_query(ds: Dataset, line: str, lineno: int) -> np.ndarray:
    try:
        q = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataError(f"queries line {lineno}: invalid JSON: {e}") from None
    if not isinstance(q, dict) or "fields" not in q:
        raise DataError(f"queries line {lineno}: expected an object with a 'fields' key")
    if not isinstance(q["fields"], dict):
        raise DataError(f"queries line {lineno}: 'fields' must be a JSON object")
    return _encode_query(ds, q["fields"])


def _write_neighbors(index, group: list[np.ndarray], k: int, out_f) -> None:
    """Score a group of encoded queries in one batch and write one JSON
    record each, in input order."""
    if not group:
        return
    # ad-hoc queries score against the whole pool
    res = retrieve_batch(index, np.stack(group), k, eligibility="all")
    for neighbors, scores, mask in zip(res.neighbor_indices, res.scores, res.mask):
        rec = {"neighbors": neighbors.tolist(), "scores": scores[mask].tolist(),
               "mask": mask.tolist()}
        out_f.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_retrieve(args) -> int:
    cfg = _load_config(args.config)
    k = _resolve_train_cfg(cfg, args).k
    if k < 1:
        raise UsageError(f"k must be an integer >= 1, got {k}")
    ds = _load_data(cfg)
    index = index_from_dataset(ds)
    if k > index.pool_size:
        raise UsageError(f"k must be at most the train pool size, {index.pool_size}, got {k}")

    if args.queries == "-":
        # the bytes under a text stdin, so that they decode as a file's do
        queries = nullcontext(getattr(sys.stdin, "buffer", sys.stdin))
    else:
        try:
            queries = open(args.queries, "rb")
        except OSError as e:
            raise UsageError(f"cannot read queries {args.queries}: {e}") from None

    out = atomic_open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with queries as q_f, out as out_f:
        group = []
        try:
            for lineno, line in enumerate(_query_lines(q_f), start=1):
                if not line.strip():
                    continue
                group.append(_parse_query(ds, line, lineno))
                if len(group) == RETRIEVE_GROUP:
                    _write_neighbors(index, group, k, out_f)
                    group = []
        except DataError:
            # the records of the good lines before a bad one come out first
            _write_neighbors(index, group, k, out_f)
            raise
        _write_neighbors(index, group, k, out_f)
    return 0


def _echo_run_config(out: str, command: str, cfg: dict, tcfg: TrainConfig) -> None:
    """Create out and write run_config.json, a command's first artifact, so
    a command that fails before it writes anything leaves no directory."""
    os.makedirs(out, exist_ok=True)
    _write_json({
        "command": command,
        "config": cfg,
        "train": tcfg.to_dict(),
        "seed": tcfg.seed,
    }, os.path.join(out, "run_config.json"))


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    tcfg = _resolve_train_cfg(cfg, args)
    out = _out_dir(cfg, args)
    ds = _load_data(cfg)
    index = index_from_dataset(ds)

    res = train(ds, index, tcfg)

    summary = {
        "seed": tcfg.seed,
        "variant": tcfg.variant,
        "epochs_run": len(res.log),
        "best_epoch": res.best_epoch,
        "best_valid_auc": res.best_valid_auc,
        "stopped_early": res.stopped_early,
        "test_auc": None,
        "test_logloss": None,
        "test_n": None,
    }
    try:
        report = evaluate(res.model, ds, index, tcfg, split="test", neighbors=res.neighbors)
        summary["test_auc"] = report.auc
        summary["test_logloss"] = report.logloss
        summary["test_n"] = report.n
    except DataError as e:
        print(f"test evaluation skipped: {e}", file=sys.stderr)

    _echo_run_config(out, "train", cfg, tcfg)
    save_checkpoint(res.model, os.path.join(out, "checkpoint.ratm"),
                    extra_config={"train": tcfg.to_dict()})
    with atomic_open(os.path.join(out, "train_log.jsonl"), "w", encoding="utf-8") as f:
        for rec in res.log:
            f.write(json.dumps(rec, sort_keys=True) + "\n")
    _write_json(summary, os.path.join(out, "summary.json"))

    print(f"epochs run: {len(res.log)} (early stop: {res.stopped_early})")
    print(f"best epoch: {res.best_epoch}  valid auc: {res.best_valid_auc:.6f}")
    if summary["test_auc"] is not None:
        print(f"test auc: {summary['test_auc']:.6f}  test logloss: {summary['test_logloss']:.6f}")
    print(f"artifacts written to {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    ckpt_path = _path(args.checkpoint, cfg, "checkpoint")
    if not ckpt_path:
        raise UsageError("no checkpoint: pass --checkpoint or set 'checkpoint' in the config")
    model, ckpt_cfg = load_checkpoint(ckpt_path)
    stored = ckpt_cfg.get("train", {})
    if not isinstance(stored, dict):
        raise DataError(f"{ckpt_path}: bad stored train config: not a JSON object")
    try:
        TrainConfig.from_dict(stored)
    except UsageError as e:  # the fault is in the file, not the command line
        raise DataError(f"{ckpt_path}: bad stored train config: {e}") from None
    tcfg = _resolve_train_cfg(cfg, args, base=stored)
    ds = _load_data(cfg)
    _check_fields(ckpt_path, model.field_num_ids, ds)
    index = index_from_dataset(ds)

    segments = _segments_list(args)
    report = evaluate(model, ds, index, tcfg, split=args.split,
                      segments=segments, user_field=cfg.get("user_field"))
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    print(text)
    if args.out:
        with atomic_open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config)
    tcfg = _resolve_train_cfg(cfg, args)
    out = _out_dir(cfg, args)
    ds = _load_data(cfg)
    index = index_from_dataset(ds)

    rows = ablate(ds, index, tcfg)
    _echo_run_config(out, "ablate", cfg, tcfg)
    csv_path = os.path.join(out, "ablation.csv")
    write_ablation_csv(rows, csv_path)

    print(f"{'variant':<10}{'auc':>10}{'logloss':>10}{'params':>10}{'runtime_us':>12}")
    for r in rows:
        print(f"{r.variant:<10}{r.auc:>10.4f}{r.logloss:>10.4f}{r.params:>10}{r.runtime_us:>12.1f}")
    print(f"table written to {csv_path}")
    return 0


def cmd_synth(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    if args.kind == "majority":
        ds = majority_task(n_history_groups=args.history_groups,
                           n_eval_groups=args.eval_groups,
                           eval_train_records=args.eval_train_records, seed=args.seed)
    else:
        ds = singleton_pool(seed=args.seed)
    csv_path = os.path.join(args.out_dir, "data.csv")
    write_csv(ds, csv_path)

    n = len(ds)
    config = {
        "data": {
            "path": csv_path,
            "label_col": "label",
            "timestamp_col": "ts",
            "feature_cols": [fs.name for fs in ds.schema],
            "ratios": [ds.train_end / n, (ds.valid_end - ds.train_end) / n,
                       (n - ds.valid_end) / n],
        },
        "out_dir": os.path.join(args.out_dir, "run"),
        "user_field": "key",
        "train": {"seed": args.seed},
    }
    cfg_path = os.path.join(args.out_dir, "config.json")
    _write_json(config, cfg_path)
    print(f"records: {n} (train {ds.train_end}, valid {ds.valid_end - ds.train_end}, "
          f"test {n - ds.valid_end})")
    print(f"csv written to {csv_path}")
    print(f"config written to {cfg_path}")
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="ractr", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"ractr {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    rt = sub.add_parser("retrieve", help="score ad-hoc queries against the train slice")
    rt.add_argument("--config", required=True, help="JSON config file")
    rt.add_argument("--queries", default="-",
                    help="JSONL file of {\"fields\": {...}} objects; - for stdin")
    rt.add_argument("--k", type=int, help="neighbors per query")
    rt.add_argument("--out", help="output JSONL path (default stdout)")
    rt.set_defaults(func=cmd_retrieve)

    tr = sub.add_parser("train", help="train a model and write checkpoint + log")
    tr.add_argument("--config", required=True, help="JSON config file")
    tr.add_argument("--out", help="output directory (overrides config out_dir)")
    tr.add_argument("--seed", type=int, help="training seed (overrides config)")
    tr.add_argument("--k", type=int, help="neighbors per target (overrides config)")
    tr.add_argument("--variant", choices=VARIANTS, help="block variant (overrides config)")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    ev.add_argument("--config", required=True, help="JSON config file")
    ev.add_argument("--checkpoint", help=".ratm checkpoint (overrides config)")
    ev.add_argument("--split", default="test", choices=("train", "valid", "test"))
    ev.add_argument("--segments", help="comma-separated tail<percent> segment names")
    ev.add_argument("--k", type=int, help="neighbors per target (overrides config)")
    ev.add_argument("--out", help="also write the report JSON here")
    ev.set_defaults(func=cmd_evaluate)

    ab = sub.add_parser("ablate", help="train all four variants and write the comparison CSV")
    ab.add_argument("--config", required=True, help="JSON config file")
    ab.add_argument("--out", help="output directory (overrides config out_dir)")
    ab.add_argument("--seed", type=int, help="training seed (overrides config)")
    ab.add_argument("--k", type=int, help="neighbors per target (overrides config)")
    ab.set_defaults(func=cmd_ablate)

    sy = sub.add_parser("synth", help="generate a synthetic dataset plus a ready config")
    sy.add_argument("--out-dir", required=True, help="directory for data.csv and config.json")
    sy.add_argument("--kind", default="majority", choices=("majority", "singleton"))
    sy.add_argument("--seed", type=int, default=42)
    sy.add_argument("--history-groups", type=int, default=240)
    sy.add_argument("--eval-groups", type=int, default=400)
    sy.add_argument("--eval-train-records", type=int, default=4)
    sy.set_defaults(func=cmd_synth)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # --help / --version
        return 0 if e.code in (0, None) else 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 3
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
