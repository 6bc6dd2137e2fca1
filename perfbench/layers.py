"""What the traced run wraps, and how its spans become per-layer metrics.

Layers are the modules of src/ractr. synthetic (input generation), cli and
binio (glue) are not measured. Each function is wrapped at the name its
caller looks up: training.py calls retrieve_batch and build_input_batch
through its own namespace, model.py calls ops through `T.<op>`, and the
benchmark calls everything else through module attributes.
"""

from __future__ import annotations

from ractr import data, model, retrieval, tensor, training

import stats
import workloads
from tracer import Span, Target, span_cost_s, summarize

MODULES = ("data", "retrieval", "model", "tensor", "training")

# ops with a per-op forward metric; the remaining public ops are wrapped too,
# so that their time is not charged to the caller's self time
TENSOR_OPS = ("matmul", "add", "mul", "layer_norm", "softmax_lastdim", "gelu", "gather_rows",
              "stack", "where_mask", "reshape", "transpose", "token_at", "sigmoid", "clamp",
              "tlog")
OTHER_TENSOR_OPS = ("sub", "tsum", "tmean", "texp", "relu", "concat_lastdim", "zero_grads")


def _batch_span(args, kwargs) -> str:
    eligibility = kwargs.get("eligibility", args[3] if len(args) > 3 else "all")
    return f"retrieval.retrieve_batch.{eligibility}"


def targets() -> list[Target]:
    ts = [
        Target(data, "load_csv", "data.load_csv"),
        Target(workloads, "encode_query", "data.encode_query", lambda a, k: 1),
        Target(retrieval, "index_from_dataset", "retrieval.index_from_dataset"),
        Target(retrieval, "build_index", "retrieval.build_index"),
        Target(retrieval, "save_index", "retrieval.save_index"),
        Target(retrieval, "load_index", "retrieval.load_index"),
        Target(retrieval, "retrieve", "retrieval.retrieve", lambda a, k: 1),
        Target(training, "retrieve_batch", _batch_span, lambda a, k: len(a[1])),
        Target(training, "build_input_batch", "model.build_input_batch", lambda a, k: len(a[1])),
        Target(model.CtrModel, "predict", "model.predict", lambda a, k: a[1].shape[0]),
        Target(tensor.Tensor, "backward", "tensor.backward"),
        Target(training, "precompute_neighbors", "training.precompute_neighbors"),
        Target(training, "train", "training.train"),
        Target(training.Adam, "step", "training.adam_step"),
        Target(training, "predict_rows", "training.predict_rows"),
        Target(training, "evaluate", "training.evaluate"),
    ]
    ts += [Target(tensor, op, f"tensor.{op}") for op in TENSOR_OPS + OTHER_TENSOR_OPS]
    return ts


def per_layer_metrics(spans: list[Span], traced_pipeline_s: float, untraced_pipeline_s: float,
                      real_slot_frac: float, same_key_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced set-up plus one traced pipeline. A layer
    the workload does not use reads 0."""
    every = summarize(spans)
    piped = summarize(spans, within="bench.pipeline")

    def total(name):
        return every[name].total_s if name in every else 0.0

    def calls(name):
        return every[name].calls if name in every else 0

    out: dict[str, tuple[float, str]] = {
        "data.load_csv_s": (total("data.load_csv"), "s"),
        "data.encode_query_s": (total("data.encode_query"), "s"),
        "retrieval.build_index_s": (total("retrieval.build_index"), "s"),
        "retrieval.save_index_s": (total("retrieval.save_index"), "s"),
        "retrieval.load_index_s": (total("retrieval.load_index"), "s"),
    }
    for elig in ("earlier", "all"):
        name = f"retrieval.retrieve_batch.{elig}"
        queries = every[name].items if name in every else 0
        out[f"retrieval.retrieve_batch_s.{elig}"] = (total(name), "s")
        out[f"retrieval.queries.{elig}"] = (queries, "count")
        out[f"retrieval.us_per_query.{elig}"] = (total(name) / queries * 1e6 if queries else 0.0, "us")
    lookups = [s.duration for s in spans if s.name == "retrieval.retrieve"]
    out["retrieval.retrieve_ms.p50"] = (stats.percentile(lookups, 50) * 1e3 if lookups else 0.0, "ms")
    out["retrieval.retrieve_ms.p99"] = (stats.percentile(lookups, 99) * 1e3 if lookups else 0.0, "ms")
    out["retrieval.real_slot_frac"] = (real_slot_frac, "ratio")
    out["retrieval.same_key_frac"] = (same_key_frac, "ratio")

    examples = every["model.predict"].items if "model.predict" in every else 0
    out["model.build_input_batch_s"] = (total("model.build_input_batch"), "s")
    out["model.build_input_batch.calls"] = (calls("model.build_input_batch"), "count")
    out["model.predict_s"] = (total("model.predict"), "s")
    out["model.predict.calls"] = (calls("model.predict"), "count")
    out["model.forward_us_per_example"] = (
        total("model.predict") / examples * 1e6 if examples else 0.0, "us")

    out["tensor.backward_s"] = (total("tensor.backward"), "s")
    for op in TENSOR_OPS:
        name = f"tensor.{op}"
        out[f"{name}.fwd_s"] = (every[name].self_s if name in every else 0.0, "s")
        out[f"{name}.calls"] = (calls(name), "count")

    step_ends = [s.end for s in spans if s.name == "training.adam_step"]
    gaps = [b - a for a, b in zip(step_ends, step_ends[1:])]
    out["training.adam_step_s"] = (total("training.adam_step"), "s")
    out["training.steps"] = (len(step_ends), "count")
    out["training.step_s.p50"] = (stats.median(gaps) if gaps else 0.0, "s")
    out["training.train_self_s"] = (
        every["training.train"].self_s if "training.train" in every else 0.0, "s")
    out["training.precompute_neighbors_s"] = (total("training.precompute_neighbors"), "s")
    out["training.predict_rows_s"] = (total("training.predict_rows"), "s")
    out["training.evaluate_s"] = (total("training.evaluate"), "s")

    # traffic check: where the pipeline's time went, by module
    wall = piped["bench.pipeline"].total_s
    by_module = {m: 0.0 for m in MODULES}
    for name, st in piped.items():
        layer = name.split(".")[0]
        if layer in by_module:
            by_module[layer] += st.self_s
    for m in MODULES:
        out[f"self_s.{m}"] = (by_module[m], "s")
        out[f"share.{m}"] = (by_module[m] / wall, "ratio")
    out["share.bench"] = (piped["bench.pipeline"].self_s / wall, "ratio")

    out["trace.pipeline_s"] = (traced_pipeline_s, "s")
    out["trace.untraced_pipeline_s"] = (untraced_pipeline_s, "s")
    out["trace.overhead_s"] = (traced_pipeline_s - untraced_pipeline_s, "s")
    out["trace.spans"] = (len(spans), "count")
    # the difference above is mostly run-to-run noise; this is the cost itself
    cost = span_cost_s()
    out["trace.span_cost_us"] = (cost * 1e6, "us")
    out["trace.overhead_est_s"] = (cost * len(spans), "s")
    return out


def span_table(spans: list[Span]) -> list[tuple[str, int, float, float, int]]:
    """(name, calls, total_s, self_s, items) for every span name, by self time."""
    rows = [(name, st.calls, st.total_s, st.self_s, st.items)
            for name, st in summarize(spans).items()]
    return sorted(rows, key=lambda r: -r[3])
