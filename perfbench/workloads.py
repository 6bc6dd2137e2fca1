"""The three benchmark workloads: inputs from a seed, timed set-up, the timed
pipeline, and the checks on its outputs.

Every call into ractr goes through a module attribute (data.load_csv,
training.train, ...) so that the traced run can wrap it by name.

- train-majority: retrieval is ~20% of the work, the rest is the autodiff
  model, backward and Adam. Autodiff, layout and optimizer changes show here.
- score-bigpool: a 13,600-record pool, forward-only scoring. Neighbor
  retrieval is ~85% of the work; inference-path changes and their memory
  effect show here without backward or Adam.
- lookup-adhoc: the same pool, one retrieve() per query as `ractr retrieve`
  does. It catches a batch-scorer change that slows single lookups.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ractr import data, model, retrieval, synthetic, training
from ractr.retrieval import brute_force_retrieve

import stats

K = 5
KEY_FIELD = 0          # majority_task's "key" column: same-key neighbors carry the label
MODEL_SEED = 42
ORACLE_SAMPLE = 4      # brute-force queries per eligibility; each costs ~0.2 s on the big pool
MIN_TEST_AUC = 0.90
RECHUNK_RTOL = 1e-12


@dataclass
class Inputs:
    seed: int
    ds: data.Dataset           # as generated, before the CSV round trip
    csv_path: str
    spec: dict
    extra: dict = field(default_factory=dict)


@dataclass
class State:
    ds: data.Dataset
    index: retrieval.RetrievalIndex


@dataclass
class Run:
    """One pass of a workload's timed pipeline."""
    pipeline_s: float
    queries: int                # neighbor queries answered
    retrieval_s: float          # wall time spent answering them
    outputs: dict


def _csv_spec(ds: data.Dataset) -> dict:
    n = len(ds)
    return {
        "label_col": "label",
        "timestamp_col": "ts",
        "feature_cols": [fs.name for fs in ds.schema],
        "ratios": [ds.train_end / n, (ds.valid_end - ds.train_end) / n, (n - ds.valid_end) / n],
    }


def encode_query(schema: list[data.FieldSchema], cells: list[str]) -> np.ndarray:
    """Raw cell strings to ids, as `ractr retrieve` encodes a JSONL query."""
    return np.asarray([fs.id_for(v) for fs, v in zip(schema, cells)], dtype=np.int64)


def slot_fractions(query_ids: np.ndarray, neigh: np.ndarray, mask: np.ndarray,
                       pool_ids: np.ndarray) -> tuple[float, float]:
    """(real slots, same-key real slots) as shares of all k slots per query."""
    if mask.size == 0:
        return 0.0, 0.0
    safe = np.where(mask, neigh, 0)
    qkey = query_ids[:, KEY_FIELD][:, None]
    same = mask & (qkey != 0) & (pool_ids[safe, KEY_FIELD] == qkey)
    return float(mask.mean()), float(same.mean())


class Workload:
    name = ""
    defaults: dict = {}

    def __init__(self, **generator):
        self.generator = {**self.defaults, **generator}

    def prepare(self, seed: int, workdir: str) -> Inputs:
        """Generate the inputs (not timed): the dataset and its CSV."""
        ds = synthetic.majority_task(**self.generator, seed=seed)
        path = os.path.join(workdir, "data.csv")
        synthetic.write_csv(ds, path)
        return Inputs(seed, ds, path, _csv_spec(ds))

    def setup(self, inp: Inputs) -> State:
        ds = data.load_csv(inp.csv_path, inp.spec)
        return State(ds, retrieval.index_from_dataset(ds))

    def run_once(self, inp: Inputs, st: State, tally: stats.Tally) -> Run | None:
        raise NotImplementedError

    def check(self, inp: Inputs, st: State, runs: list[Run], tally: stats.Tally) -> None:
        tally.check("csv round trip reproduces the generated encoding", lambda: (
            st.ds.split_marks == inp.ds.split_marks
            and np.array_equal(st.ds.field_ids, inp.ds.field_ids)
            and np.array_equal(st.ds.labels, inp.ds.labels)))

    def extra_metrics(self, inp: Inputs, runs: list[Run]) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures, printed beside the gated ones."""
        return {}

    def neighbor_fractions(self, inp: Inputs, st: State, run: Run) -> tuple[float, float]:
        raise NotImplementedError


class _PrecomputeWorkload(Workload):
    """Workloads whose pipeline starts with training.precompute_neighbors."""

    def _check_neighbors(self, inp: Inputs, st: State, neigh: np.ndarray, mask: np.ndarray,
                         tally: stats.Tally) -> None:
        ds, index = st.ds, st.index
        rng = np.random.default_rng([inp.seed, 2])
        train_q = rng.choice(ds.train_end, size=min(ORACLE_SAMPLE, ds.train_end), replace=False)
        eval_q = ds.train_end + rng.choice(len(ds) - ds.train_end,
                                           size=min(ORACLE_SAMPLE, len(ds) - ds.train_end),
                                           replace=False)

        def oracle_agrees():
            for i in train_q:
                ref = brute_force_retrieve(index, ds.field_ids[i], K, "earlier",
                                           query_ts=int(ds.timestamps[i]), query_index=int(i))
                if not (np.array_equal(ref.neighbor_indices, neigh[i])
                        and np.array_equal(ref.mask, mask[i])):
                    return False
            for i in eval_q:
                ref = brute_force_retrieve(index, ds.field_ids[i], K, "all")
                if not (np.array_equal(ref.neighbor_indices, neigh[i])
                        and np.array_equal(ref.mask, mask[i])):
                    return False
            return True

        def train_neighbors_strictly_earlier():
            rows = np.arange(ds.train_end)
            nb, mk = neigh[rows], mask[rows]
            safe = np.where(mk, nb, 0)
            q_ts = ds.timestamps[rows][:, None]
            n_ts = index.timestamps[safe]
            earlier = (n_ts < q_ts) | ((n_ts == q_ts) & (index.record_indices[safe] < rows[:, None]))
            return bool(np.all(earlier | ~mk))

        tally.check("sampled neighbors equal brute_force_retrieve", oracle_agrees)
        tally.check("every train neighbor is strictly earlier", train_neighbors_strictly_earlier)

    def neighbor_fractions(self, inp, st, run):
        neigh, mask = run.outputs["neighbors"]
        return slot_fractions(st.ds.field_ids, neigh, mask, st.ds.field_ids[:st.ds.train_end])


class TrainMajority(_PrecomputeWorkload):
    """precompute_neighbors -> train (fixed epochs) -> evaluate(test)."""
    name = "train-majority"
    defaults = {"n_history_groups": 240, "n_eval_groups": 400, "eval_train_records": 4}
    epochs = 1

    def config(self) -> training.TrainConfig:
        # patience = epochs, so early stopping cannot cut the timed work short
        return training.TrainConfig(k=K, max_epochs=self.epochs,
                                    early_stop_patience=self.epochs, seed=MODEL_SEED)

    def run_once(self, inp, st, tally):
        def pipeline():
            cfg = self.config()
            t0 = perf_counter()
            neighbors = training.precompute_neighbors(st.ds, st.index, cfg.k)
            t1 = perf_counter()
            res = training.train(st.ds, st.index, cfg, neighbors=neighbors)
            t2 = perf_counter()
            rep = training.evaluate(res.model, st.ds, st.index, cfg, split="test",
                                    neighbors=neighbors)
            t3 = perf_counter()
            return Run(t3 - t0, len(st.ds), t1 - t0, {
                "neighbors": neighbors, "train_s": t2 - t1, "eval_s": t3 - t2,
                "epochs": len(res.log), "test_auc": rep.auc, "test_logloss": rep.logloss,
                "test_rows": rep.n})
        ok, run = tally.op(pipeline)
        return run if ok else None

    def check(self, inp, st, runs, tally):
        super().check(inp, st, runs, tally)
        first = runs[0].outputs
        self._check_neighbors(inp, st, *first["neighbors"], tally)
        tally.check(f"test AUC >= {MIN_TEST_AUC}",
                    lambda: all(r.outputs["test_auc"] >= MIN_TEST_AUC for r in runs))
        tally.check("ran the fixed number of epochs",
                    lambda: all(r.outputs["epochs"] == self.epochs for r in runs))
        tally.check("test_logloss bit-identical across repeats",
                    lambda: len({r.outputs["test_logloss"].hex() for r in runs}) == 1)

    def extra_metrics(self, inp, runs):
        n_train = inp.ds.train_end
        return {
            "train_examples_per_s": (stats.median(
                [n_train * r.outputs["epochs"] / r.outputs["train_s"] for r in runs]), "1/s"),
            "score_examples_per_s": (stats.median(
                [r.outputs["test_rows"] / r.outputs["eval_s"] for r in runs]), "1/s"),
            "test_logloss": (runs[0].outputs["test_logloss"], "nats"),
        }


class ScoreBigpool(_PrecomputeWorkload):
    """precompute_neighbors -> forward-only predict_rows over valid+test."""
    name = "score-bigpool"
    defaults = {"n_history_groups": 1200, "n_eval_groups": 400}
    rechunk_rows = 300
    rechunk_batch = 97

    def prepare(self, seed, workdir):
        inp = super().prepare(seed, workdir)
        m = model.CtrModel([fs.num_ids for fs in inp.ds.schema], variant="cascade",
                           seed=MODEL_SEED)
        # a fresh model has a zero head; redraw every parameter so scores vary
        rng = np.random.default_rng(MODEL_SEED)
        for _, t in m.named_parameters():
            t.data = rng.normal(0.0, 0.1, size=t.data.shape)
        inp.extra["model"] = m
        return inp

    def run_once(self, inp, st, tally):
        def pipeline():
            ds = st.ds
            rows = np.arange(ds.train_end, len(ds))
            t0 = perf_counter()
            neighbors = training.precompute_neighbors(ds, st.index, K)
            t1 = perf_counter()
            preds = training.predict_rows(inp.extra["model"], ds, rows, *neighbors)
            t2 = perf_counter()
            return Run(t2 - t0, len(ds), t1 - t0, {
                "neighbors": neighbors, "preds": preds, "rows": rows, "score_s": t2 - t1})
        ok, run = tally.op(pipeline)
        return run if ok else None

    def check(self, inp, st, runs, tally):
        super().check(inp, st, runs, tally)
        ds = st.ds
        first = runs[0].outputs
        neigh, mask = first["neighbors"]
        self._check_neighbors(inp, st, neigh, mask, tally)

        def test_majority_matches_label():
            rows = ds.slice_indices("test")
            mk = mask[rows]
            votes = np.where(mk, ds.labels[np.where(mk, neigh[rows], 0)], 0).sum(axis=1)
            real = mk.sum(axis=1)
            majority = np.where(2 * votes > real, 1, np.where(2 * votes < real, 0, -1))
            return np.array_equal(majority, ds.labels[rows])

        def rechunked_predictions_agree():
            # another batch size may reorder float sums (1 ulp seen at batch 97);
            # a row leaking into another moves a prediction by far more
            rows = first["rows"][:self.rechunk_rows]
            p = training.predict_rows(inp.extra["model"], ds, rows, neigh, mask,
                                      batch_size=self.rechunk_batch)
            return np.allclose(p, first["preds"][:len(rows)], rtol=RECHUNK_RTOL, atol=0.0)

        tally.check("test-row neighbor majority equals the label", test_majority_matches_label)
        tally.check("predictions finite and inside (0, 1)", lambda: all(
            np.all(np.isfinite(r.outputs["preds"]))
            and np.all((r.outputs["preds"] > 0) & (r.outputs["preds"] < 1)) for r in runs))
        tally.check("predictions unchanged by chunking", rechunked_predictions_agree)
        tally.check("repeats give identical neighbors and predictions", lambda: all(
            np.array_equal(r.outputs["preds"], first["preds"])
            and np.array_equal(r.outputs["neighbors"][0], neigh) for r in runs))

    def extra_metrics(self, inp, runs):
        return {"score_examples_per_s": (stats.median(
            [len(r.outputs["rows"]) / r.outputs["score_s"] for r in runs]), "1/s")}


class LookupAdhoc(Workload):
    """One retrieve(index, q, k, "all") per held-out query, one at a time."""
    name = "lookup-adhoc"
    defaults = {"n_history_groups": 1200, "n_eval_groups": 400}
    blank_rate = 0.10
    unseen_rate = 0.05

    def prepare(self, seed, workdir):
        inp = super().prepare(seed, workdir)
        with open(inp.csv_path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))[1:]
        held_out = [r[1:-1] for r in rows[inp.ds.train_end:]]   # drop ts and label
        rng = np.random.default_rng([seed, 1])
        queries = []
        for cells in held_out:
            u = rng.random(len(cells))
            tags = rng.integers(0, 1 << 30, size=len(cells))
            queries.append(["" if u[j] < self.blank_rate
                            else f"unseen{tags[j]}" if u[j] < self.blank_rate + self.unseen_rate
                            else cells[j] for j in range(len(cells))])
        inp.extra["queries"] = queries
        inp.extra["index_path"] = os.path.join(workdir, "pool.rati")
        return inp

    def setup(self, inp):
        ds = data.load_csv(inp.csv_path, inp.spec)
        retrieval.save_index(retrieval.index_from_dataset(ds), inp.extra["index_path"])
        return State(ds, retrieval.load_index(inp.extra["index_path"]))

    def run_once(self, inp, st, tally):
        latencies = []
        ids, neigh, scores, mask = [], [], [], []
        t0 = perf_counter()
        for cells in inp.extra["queries"]:
            tally.attempted += 1
            t = perf_counter()
            try:
                q = encode_query(st.ds.schema, cells)
                res = retrieval.retrieve(st.index, q, K, "all")
            except Exception:
                tally.failed += 1
                continue
            latencies.append(perf_counter() - t)
            ids.append(q)
            neigh.append(res.neighbor_indices)
            scores.append(res.scores)
            mask.append(res.mask)
        wall = perf_counter() - t0
        if not latencies:
            return None
        return Run(wall, len(latencies), sum(latencies), {
            "latencies": latencies, "ids": np.stack(ids), "neigh": np.stack(neigh),
            "scores": np.stack(scores), "mask": np.stack(mask)})

    def check(self, inp, st, runs, tally):
        super().check(inp, st, runs, tally)
        first = runs[0].outputs
        rng = np.random.default_rng([inp.seed, 2])
        sample = rng.choice(len(first["ids"]), size=min(2 * ORACLE_SAMPLE, len(first["ids"])),
                            replace=False)

        def oracle_agrees():
            for i in sample:
                ref = brute_force_retrieve(st.index, first["ids"][i], K, "all")
                if not (np.array_equal(ref.neighbor_indices, first["neigh"][i])
                        and np.array_equal(ref.scores, first["scores"][i])
                        and np.array_equal(ref.mask, first["mask"][i])):
                    return False
            return True

        tally.check("sampled lookups equal brute_force_retrieve", oracle_agrees)
        tally.check("repeats give identical lookups", lambda: all(
            np.array_equal(r.outputs["neigh"], first["neigh"])
            and np.array_equal(r.outputs["scores"], first["scores"]) for r in runs))

    def extra_metrics(self, inp, runs):
        lat = [x for r in runs for x in r.outputs["latencies"]]
        return {
            "lookup_p50_ms": (stats.percentile(lat, 50) * 1e3, "ms"),
            "lookup_p99_ms": (stats.percentile(lat, 99) * 1e3, "ms"),
            "lookups_per_s": (len(lat) / sum(r.pipeline_s for r in runs), "1/s"),
            "lookup_samples": (len(lat), "count"),
            "lookup_samples_beyond_p99": (stats.samples_beyond(len(lat), 99), "count"),
        }

    def neighbor_fractions(self, inp, st, run):
        o = run.outputs
        return slot_fractions(o["ids"], o["neigh"], o["mask"], st.index.pool_field_ids)


WORKLOADS = {w.name: w for w in (TrainMajority, ScoreBigpool, LookupAdhoc)}
