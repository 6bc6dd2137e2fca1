"""Tests of the benchmark's own arithmetic, plus a tiny run of each workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run as bench
import stats
import workloads
from tracer import Span, Target, Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {"n_history_groups": 24, "n_eval_groups": 40}


# ------------------------------------------------------------ percentiles

def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 99) == 99
    assert stats.percentile(xs, 100) == 100
    assert stats.percentile(xs, 0.5) == 1
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0   # sorts first
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([5, 1, 4, 2, 3] * 2, 90) == 5


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_median_and_samples_beyond():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    # p99 of 1,000 samples leaves exactly ten above it; of 999, only nine
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.samples_beyond(2000, 50) == 1000


# ------------------------------------------------------------ self time

def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 6.5, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1), Span("x", 1.0, 5.0, 0), Span("y", 3.0, 7.0, 0),
             Span("z", 9.0, 12.0, 0)]   # z runs past its parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_within_a_root():
    spans = [Span("setup", 0.0, 1.0, -1), Span("op", 0.2, 0.4, 0),
             Span("pipe", 2.0, 5.0, -1), Span("op", 2.5, 3.0, 2, items=7)]
    all_ = summarize(spans)
    piped = summarize(spans, within="pipe")
    assert all_["op"].calls == 2 and all_["op"].total_s == pytest.approx(0.7)
    assert piped["op"].calls == 1 and piped["op"].items == 7
    assert "setup" not in piped
    assert piped["pipe"].self_s == pytest.approx(2.5)


def test_tracer_wraps_by_name_and_restores():
    mod = types.SimpleNamespace()
    mod.leaf = lambda x: x + 1
    mod.outer = lambda x: mod.leaf(x) * 2    # looks leaf up on the module

    tr = Tracer()
    with tr.installed([Target(mod, "outer", "m.outer"),
                       Target(mod, "leaf", "m.leaf", lambda a, k: a[0])]):
        with tr.span("bench.pipeline"):
            assert mod.outer(3) == 8
    assert [s.name for s in tr.spans] == ["bench.pipeline", "m.outer", "m.leaf"]
    assert [s.parent for s in tr.spans] == [-1, 0, 1]
    assert tr.spans[2].items == 3
    assert all(s.end >= s.start for s in tr.spans)
    n = len(tr.spans)
    mod.outer(1)                               # unwrapped again
    assert len(tr.spans) == n


def test_tracer_closes_span_when_the_call_raises():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tr = Tracer()
    with tr.installed([Target(mod, "boom", "m.boom")]):
        with pytest.raises(ZeroDivisionError):
            mod.boom()
        with tr.span("after"):
            pass
    assert tr.spans[1].parent == -1 and tr.spans[0].end > 0


# ------------------------------------------------------------ failure counting

def test_tally_counts_failures_without_raising():
    t = stats.Tally()
    assert t.op(lambda: 5) == (True, 5)
    assert t.op(lambda: 1 / 0) == (False, None)
    assert t.check("passes", lambda: True)
    assert not t.check("returns false", lambda: False)
    assert not t.check("raises", lambda: [][1])
    assert (t.attempted, t.failed) == (5, 3)
    assert t.error_rate == pytest.approx(3 / 5)
    assert t.failures[1] == "returns false"
    assert t.failures[2].startswith("raises:")


def test_tally_error_rate_of_nothing_is_zero():
    assert stats.Tally().error_rate == 0.0


def test_failed_output_check_is_counted_not_raised(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "MIN_TEST_AUC", 1.5)   # unreachable
    res = bench.run(workloads.TrainMajority(**TINY), 3, 0, False, SPEC, tmp_path, {})
    assert res["correct"] is False
    assert res["failed"] == 1 and res["attempted"] > 1


# ------------------------------------------------------------ tiny workloads

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_and_checks(name, trace, tmp_path):
    wl = workloads.WORKLOADS[name](**TINY)
    if name == "train-majority":
        wl.epochs = 3      # one epoch over 400 rows does not reach the AUC gate
    res = bench.run(wl, 5, 0, trace, SPEC, tmp_path, {})
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    if trace:
        assert (tmp_path / f"trace-{name}-seed5.jsonl").is_file()
    assert not list(tmp_path.glob("work-*"))


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    wl = workloads.LookupAdhoc(**TINY)
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = (wl.prepare(seed, str(d)) for seed, d in zip((9, 9, 10), dirs))
    assert a.extra["queries"] == b.extra["queries"] != c.extra["queries"]
    csvs = [(d / "data.csv").read_bytes() for d in dirs]
    assert csvs[0] == csvs[1] != csvs[2]


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lookup-adhoc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_spec_names_are_well_formed():
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
