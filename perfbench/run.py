#!/usr/bin/env python3
"""ractr benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-majority --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload's inputs are generated from
--seed; set-up is timed at least MIN_SETUPS times; then the timed pipeline is run
in a closed loop (one client, each pass starts when the last one ends), once
and then again while another pass is expected to end within --seconds; then
every output check runs. The last
line of stdout is one JSON object: correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the run does one untraced and one traced set-up and pipeline and
reports the per-layer ones, and writes every span to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is short next to the machine's noise: repeat it, report the median
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 5, 40, 2.0


def _limit_blas_threads() -> int:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        n = min(nproc, int(cur)) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(n)
    return nproc


def _git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "ractr").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: int(os.environ[v]) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(ROOT),
        "src_sha256": _source_digest(ROOT),
    }


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def run(workload, seed: int, seconds: float, trace: bool, spec: dict, out_dir: Path,
        env: dict) -> dict:
    """Run one workload and return the result record; prints a readable report."""
    import layers
    import stats
    from tracer import Tracer

    tally = stats.Tally()
    work = out_dir / f"work-{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inp = workload.prepare(seed, str(work))
        setup_times, state = [], None
        t_setup = perf_counter()
        while True:
            t0 = perf_counter()
            ok, st = tally.op(workload.setup, inp)
            if ok:
                setup_times.append(perf_counter() - t0)
                state = st
            n = len(setup_times)
            if trace or n >= MAX_SETUPS or (n >= MIN_SETUPS
                                             and perf_counter() - t_setup >= SETUP_SECONDS):
                break
        if state is None:
            raise RuntimeError("every set-up failed:\n" + "\n".join(tally.failures))

        runs = []
        t_start = perf_counter()
        while True:
            t_pass = perf_counter()
            r = workload.run_once(inp, state, tally)
            if r is not None:
                runs.append(r)
            now = perf_counter()
            # whole passes only: stop before a pass as long as the last would overrun
            if trace or now - t_start + (now - t_pass) > seconds:
                break

        tracer = None
        if trace:
            tracer = Tracer()
            with tracer.installed(layers.targets()):
                with tracer.span("bench.setup"):
                    ok, traced_state = tally.op(workload.setup, inp)
                if ok:
                    with tracer.span("bench.pipeline"):
                        traced = workload.run_once(inp, traced_state, tally)
                    if traced is not None:
                        runs.append(traced)
        if not runs:
            raise RuntimeError("every pipeline pass failed:\n" + "\n".join(tally.failures))
        workload.check(inp, state, runs, tally)

        if trace:
            if len(runs) < 2:
                raise RuntimeError("the traced pass failed:\n" + "\n".join(tally.failures))
            metrics = layers.per_layer_metrics(
                tracer.spans, runs[-1].pipeline_s, runs[0].pipeline_s,
                *workload.neighbor_fractions(inp, state, runs[-1]))
            names = [m["name"] for m in spec["per_layer"]]
            table = layers.span_table(tracer.spans)
            print(f"# spans of {workload.name}: name calls total_s self_s items")
            for name, calls, total_s, self_s, items in table:
                print(f"span {name} {calls} {total_s:.6f} {self_s:.6f} {items}")
            tracer.write_jsonl(str(out_dir / f"trace-{workload.name}-seed{seed}.jsonl"))
        else:
            metrics = {
                "setup_s": (stats.median(setup_times), "s"),
                "pipeline_s": (stats.median([r.pipeline_s for r in runs]), "s"),
                "neighbor_queries_per_s": (
                    stats.median([r.queries / r.retrieval_s for r in runs]), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            names = [m["name"] for m in spec["end_to_end"]]
            metrics.update(workload.extra_metrics(inp, runs))
            metrics["error_rate"] = (tally.error_rate, "ratio")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# {workload.name} seed={seed} trace={int(trace)} passes={len(runs)} "
          f"setups={len(setup_times)}")
    for i, r in enumerate(runs):
        print(f"pass {i} pipeline_s={r.pipeline_s:.4f} retrieval_s={r.retrieval_s:.4f} "
              f"queries={r.queries}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {_fmt(value)} {unit}")
    for failure in tally.failures:
        print("FAILED " + failure)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "generator": {**workload.generator, "seed": seed}, "environment": env,
        "passes": len(runs), "setups": len(setup_times),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": tally.failures,
    }
    (out_dir / f"result-{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    print("record " + json.dumps({k: record[k] for k in ("generator", "environment")}))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ractr" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no ractr sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    nproc = _limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / "perfbench" / "_out"
    out_dir.mkdir(exist_ok=True)
    result = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                 bool(args.trace), spec, out_dir, environment(nproc))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
