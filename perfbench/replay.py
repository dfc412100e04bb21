"""Traced run: one timed repetition, then a replay of it through each layer's public functions.

Spans are recorded here, around the calls into the package, never inside
it. They fall under three roots: `setup` (writing the inputs), `cli.<cmd>`
(the replay of the workload's commands, mirroring the CLI handlers) and
`probe` (per-call timings on the workload's documents). Counts come from the
replay alone, so they read 0 for a layer the workload does not call; that
layer's timings then come from a probe on the set-up inputs. README.md lists
every metric and what it is expected to move.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cmm.gradcheck
from cmm.encoder import (EncoderParams, TrainConfig, adamw_step, encode_batch,
                         init_adamw_state, init_encoder, load_checkpoint, save_checkpoint,
                         train)
from cmm.evaluation import decode, decode_counts, ign_f1, micro_f1
from cmm.gradcheck import check_gradients
from cmm.loss import (GAMMA_GRID, M_GRID, LossConfig, batch_rows, clamp_distance, cmm_loss,
                      cmm_loss_grad)
from cmm.schema import Dataset, LabelSet, load_dataset_jsonl, save_dataset_jsonl
from cmm.synthdata import distribution_report, generate, inject_false_negatives

from common import (CHECKPOINT_EPOCHS, CMM_LOSS, EPOCHS, FALSE_NEGATIVE_RATE,
                    GENERATE_DOCUMENTS, GRADCHECK_TRIALS, GRID_ARMS, HOST_FACTOR_SCOPE,
                    TRACE_ARMS, TRAIN_DOCUMENTS, Loop, gen_config, set_up, train_config)
from hostspeed import at_reference_speed, host_factor

PER_CALL_SAMPLES = 100      # p90 then has at least 10 samples beyond it
ROW_SAMPLES = 200
GRADCHECK_PROBE_TRIALS = 200
LOSS_KINDS = ("cmm", "plain_margin", "atl_reference")
COUNTS = ("evaluation.calls", "evaluation.dev_positives", "gradcheck.trials",
          "gradcheck.loss_evals", "gradcheck.excluded_coords", "schema.load_pairs",
          "schema.jsonl_bytes")


class Tracer:
    """In-memory spans: name, start, end, parent id and the trace (root) they belong to."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "parent": parent, "name": name,
               "trace": self.spans[parent]["trace"] if parent is not None else name}
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) as a leaf span; cheaper than span() for µs-scale calls."""
        rec = self._open(name)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        rec["start"], rec["end"] = t0, time.perf_counter()
        return out

    def durations(self, name: str, trace_prefix: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["trace"].startswith(trace_prefix)]

    def children_s(self, trace_prefix: str) -> float:
        """Time covered by the direct children of the root spans of these traces."""
        roots = {s["id"] for s in self.spans
                 if s["parent"] is None and s["trace"].startswith(trace_prefix)}
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] in roots)


@dataclass
class Arm:
    kind: str
    cfg: TrainConfig
    params: EncoderParams
    evals: int = 0
    dev_positives: int = 0


# --- replay of the CLI handlers ---------------------------------------------

def _replay_training(tr: Tracer, paths, arms_spec, eval_every: int, save_dir: Path | None):
    train_ds = tr.call("schema.load", load_dataset_jsonl, str(paths["train_data"]))
    dev_ds = tr.call("schema.load", load_dataset_jsonl, str(paths["dev_data"]))
    arms = []
    for kind, gamma, m in arms_spec:
        cfg = train_config(kind, gamma, m, eval_every)
        params, trace = tr.call("encoder.train", train, train_ds, dev_ds, cfg)
        arms.append(Arm(kind, cfg, params, len(trace), sum(r.dev_positives for r in trace)))
        if save_dir is not None:
            tr.call("encoder.checkpoint_save", save_checkpoint,
                    str(save_dir / f"{kind}.checkpoint.json"), params, None)
    return train_ds, dev_ds, arms


def _gold_and_seen(dataset: Dataset):
    gold = {ex.pair_id: frozenset(ex.labels.positives) for ex in dataset.examples}
    seen = {ex.pair_id: frozenset(ex.seen_in_train) for ex in dataset.examples}
    return gold, seen


def evaluate(params: EncoderParams, dataset: Dataset, features: np.ndarray, gold, seen) -> int:
    """What a dev evaluation does: forward, per-pair decode, micro and Ign F1."""
    logits = encode_batch(params, features)
    predictions = {ex.pair_id: decode(row) for ex, row in zip(dataset.examples, logits)}
    micro_f1(predictions, gold)
    ign_f1(predictions, gold, seen)
    return decode_counts(logits)


@contextmanager
def counting_loss_evals():
    """Counts the cmm_loss calls the gradient oracle makes, by wrapping its module name."""
    original = cmm.gradcheck.cmm_loss
    counter = [0]

    def counted(*args, **kwargs):
        counter[0] += 1
        return original(*args, **kwargs)

    cmm.gradcheck.cmm_loss = counted
    try:
        yield counter
    finally:
        cmm.gradcheck.cmm_loss = original


def replay(workload: str, tr: Tracer, paths, seed: int) -> dict:
    """Mirror the workload's CLI commands; returns what the probes and counts need."""
    state: dict = {"arms": [], "docs_dataset": None, "counts": {}}
    if workload in ("grid", "trace"):
        cmd = "compare" if workload == "grid" else "train"
        with tr.span(f"cli.{cmd}"):
            train_ds, dev_ds, state["arms"] = _replay_training(
                tr, paths, GRID_ARMS if workload == "grid" else TRACE_ARMS,
                EPOCHS if workload == "grid" else 1, paths["dir"] if workload == "trace" else None)
        state["docs_dataset"] = train_ds
        state["counts"].update({
            "evaluation.calls": sum(a.evals for a in state["arms"]),
            "evaluation.dev_positives": sum(a.dev_positives for a in state["arms"]),
            "schema.load_pairs": len(train_ds.examples) + len(dev_ds.examples),
            "schema.jsonl_bytes": sum(paths[k].stat().st_size
                                      for k in ("train_data", "dev_data")),
        })
    elif workload == "data":
        path = paths["dir"] / "replayed.jsonl"
        with tr.span("cli.generate"):
            ds = tr.call("synthdata.generate", generate,
                         gen_config(seed, FALSE_NEGATIVE_RATE, GENERATE_DOCUMENTS))
            ds = tr.call("synthdata.inject", inject_false_negatives, ds, FALSE_NEGATIVE_RATE,
                         seed=seed)
            tr.call("schema.save", save_dataset_jsonl, ds, str(path))
            tr.call("synthdata.report", distribution_report, ds)
        with tr.span("cli.eval"):
            ds = tr.call("schema.load", load_dataset_jsonl, str(path))
            params, _, _ = tr.call("encoder.checkpoint_load", load_checkpoint,
                                   str(paths["checkpoint"]))
            with tr.span("evaluation.eval"):
                features = np.stack([ex.features for ex in ds.examples])
                positives = evaluate(params, ds, features, *_gold_and_seen(ds))
        state["docs_dataset"] = ds
        state["counts"].update({
            "evaluation.calls": 1, "evaluation.dev_positives": positives,
            "schema.load_pairs": len(ds.examples),
            "schema.jsonl_bytes": 2 * path.stat().st_size,     # written, then read back
        })
    else:
        with tr.span("cli.gradcheck"), counting_loss_evals() as evals:
            report = tr.call("gradcheck.check", check_gradients, trials=GRADCHECK_TRIALS,
                             seed=seed)
        state["counts"].update({"gradcheck.trials": report.trials,
                                "gradcheck.loss_evals": evals[0],
                                "gradcheck.excluded_coords": report.excluded_coords})
    return state


# --- per-call probes ----------------------------------------------------------

def documents(dataset: Dataset) -> list[tuple[np.ndarray, np.ndarray, list]]:
    """(features, positive mask, examples) per document, built from public fields."""
    by_doc: dict[str, list] = {d: [] for d in dataset.document_ids}
    for ex in dataset.examples:
        by_doc[ex.doc_id].append(ex)
    r_count = dataset.schema.relation_count
    docs = []
    for examples in by_doc.values():
        if not examples:
            continue
        mask = np.zeros((len(examples), r_count), dtype=bool)
        for i, ex in enumerate(examples):
            mask[i, [r - 1 for r in ex.labels.positives]] = True
        docs.append((np.stack([ex.features for ex in examples]), mask, examples))
    return docs


def _clamped_counts(params: EncoderParams, docs, m: float) -> tuple[int, int]:
    """(negative terms exactly 0 under the clamp, all negative terms) over the documents."""
    zero = total = 0
    for x, mask, _ in docs:
        logits = encode_batch(params, x)
        d_neg = (logits[:, :1] - logits[:, 1:])[~mask]
        zero += int((d_neg >= clamp_distance(m)).sum())
        total += d_neg.size
    return zero, total


def _gradcheck_rows(seed: int, n: int):
    """Rows distributed as check_gradients draws them, from the benchmark's own RNG."""
    rng = np.random.default_rng((seed, 1))
    rows = []
    for _ in range(n):
        r_count = int(rng.choice((2, 3, 4, 6, 8, 10)))
        values = rng.uniform(-8.0, 8.0, size=r_count + 1)
        positives = (frozenset() if rng.random() < 0.2 else
                     frozenset(r for r in range(1, r_count + 1) if rng.random() < 0.35))
        cfg = LossConfig(kind="cmm", gamma=float(rng.choice(GAMMA_GRID)),
                         m=float(rng.choice(M_GRID)))
        rows.append((values, LabelSet(r_count, positives), cfg))
    return rows


def probes(workload: str, tr: Tracer, state: dict, paths, seed: int) -> dict:
    """Per-call spans on the workload's documents at each arm's trained parameters.

    Loss kinds the workload does not train are timed at the set-up
    checkpoint's parameters, as is everything on workloads that train nothing.
    """
    with tr.span("probe"):
        docs_dataset = state["docs_dataset"]
        if docs_dataset is None:
            docs_dataset = tr.call("schema.load", load_dataset_jsonl,
                                   str(paths["train_data"]))
        docs = documents(docs_dataset)
        dev_ds = load_dataset_jsonl(str(paths["dev_data"]))
        reference, _, _ = tr.call("encoder.checkpoint_load", load_checkpoint,
                                  str(paths["checkpoint"]))
        trained = list(state["arms"])
        arms = trained + [Arm(kind, train_config(kind, CMM_LOSS["gamma"], CMM_LOSS["m"], 1),
                              reference)
                          for kind in LOSS_KINDS if not any(a.kind == kind for a in trained)]
        for arm in arms:
            scratch = arm.params.copy()
            opt = init_adamw_state(scratch)
            for x, mask, _ in docs:
                logits = tr.call("encoder.forward", encode_batch, arm.params, x)
                _, g = tr.call(f"loss.batch.{arm.kind}", batch_rows, arm.kind, logits, mask,
                               arm.cfg.loss, need_grad=True)
                grads = {"W": g.T @ x, "b": g.sum(axis=0)}     # linear backward
                tr.call("encoder.adamw", adamw_step, scratch, grads, arm.cfg, opt)
        init = init_encoder("linear", docs_dataset.feature_dim,
                            docs_dataset.schema.relation_count, seed=0)
        init_loss = LossConfig(**CMM_LOSS)
        for x, mask, _ in docs:
            tr.call("loss.batch.cmm_init", batch_rows, "cmm", encode_batch(init, x), mask,
                    init_loss, need_grad=True)

        # `trained or arms`: workloads that train nothing use the checkpoint.
        cmm_arms = [a for a in (trained or arms) if a.kind == "cmm"]
        counts = [_clamped_counts(a.params, docs, a.cfg.loss.m) for a in cmm_arms]
        init_zero, init_total = _clamped_counts(init, docs, init_loss.m)

        dev_features = np.stack([ex.features for ex in dev_ds.examples])
        gold, seen = _gold_and_seen(dev_ds)
        eval_arms = trained or [arms[0]]
        for arm in eval_arms:
            for _ in range(math.ceil(PER_CALL_SAMPLES / len(eval_arms))):
                tr.call("evaluation.dev_eval", evaluate, arm.params, dev_ds, dev_features,
                        gold, seen)

        if workload == "gradcheck":
            rows = _gradcheck_rows(seed, ROW_SAMPLES)
        else:
            examples = [ex for _, _, exs in docs for ex in exs][:ROW_SAMPLES]
            logits = encode_batch(cmm_arms[0].params, np.stack([ex.features for ex in examples]))
            rows = [(row, ex.labels, cmm_arms[0].cfg.loss) for row, ex in zip(logits, examples)]
        for row, labels, cfg in rows:
            tr.call("loss.row", _row_value_and_grad, row, labels, cfg)

        if workload != "gradcheck":
            tr.call("gradcheck.check", check_gradients, trials=GRADCHECK_PROBE_TRIALS, seed=seed)
        if workload != "data":
            tr.call("synthdata.report", distribution_report, docs_dataset)
    return {"loss.clamped_neg_frac": sum(z for z, _ in counts) / sum(t for _, t in counts),
            "loss.clamped_neg_frac_init": init_zero / init_total}


def _row_value_and_grad(row, labels, cfg):
    cmm_loss(row, labels, cfg)
    return cmm_loss_grad(row, labels, cfg)


# --- per-layer metrics ----------------------------------------------------------

def _unit(name: str) -> str:
    if name == "schema.jsonl_bytes":
        return "B"
    if name.endswith(".n") or name in COUNTS:
        return "count"
    if "_us" in name:
        return "us"
    if "_ms" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "1"


def _per_call(values: dict, name: str, samples: list[float], scale: float) -> None:
    values[name] = statistics.median(samples) * scale
    values[f"{name}.p90"] = statistics.quantiles(samples, n=10)[-1] * scale
    values[f"{name}.n"] = len(samples)


def _busy(tr: Tracer, name: str) -> float:
    """Total time in a layer: from the replay, else from set-up, else from a probe."""
    for prefix in ("cli.", "setup", "probe"):
        d = tr.durations(name, prefix)
        if d:
            return sum(d)
    raise LookupError(f"no span named {name!r}")


def layer_metrics(tr: Tracer, state: dict, probe_values: dict, command_s: float,
                  replay_over_command: float) -> dict:
    v: dict = {}
    _per_call(v, "encoder.forward_us", tr.durations("encoder.forward", "probe"), 1e6)
    _per_call(v, "encoder.adamw_us", tr.durations("encoder.adamw", "probe"), 1e6)
    for kind in LOSS_KINDS + ("cmm_init",):
        _per_call(v, f"loss.batch_us.{kind}", tr.durations(f"loss.batch.{kind}", "probe"), 1e6)
    _per_call(v, "loss.row_us", tr.durations("loss.row", "probe"), 1e6)
    _per_call(v, "evaluation.dev_eval_ms", tr.durations("evaluation.dev_eval", "probe"), 1e3)

    # Training spans of the replay, else the set-up's checkpoint run; what the
    # per-call medians do not explain is backward, packing and loop overhead.
    if state["arms"]:
        trains = [(d, EPOCHS * TRAIN_DOCUMENTS, a.evals, a.kind)
                  for d, a in zip(tr.durations("encoder.train", "cli."), state["arms"])]
    else:
        trains = [(d, CHECKPOINT_EPOCHS * TRAIN_DOCUMENTS, 1, "cmm")
                  for d in tr.durations("encoder.train", "setup")]
    explained = sum(
        steps * (v["encoder.forward_us"] + v[f"loss.batch_us.{kind}"] + v["encoder.adamw_us"]) / 1e6
        + evals * v["evaluation.dev_eval_ms"] / 1e3
        for _, steps, evals, kind in trains)
    steps = sum(t[1] for t in trains)
    v["encoder.train_s"] = sum(t[0] for t in trains)
    v["encoder.step_other_us"] = (v["encoder.train_s"] - explained) / steps * 1e6
    v["encoder.checkpoint_s"] = (
        sum(tr.durations("encoder.checkpoint_save", "cli.")
            + tr.durations("encoder.checkpoint_load", "cli."))
        or _busy(tr, "encoder.checkpoint_save") + _busy(tr, "encoder.checkpoint_load"))
    v.update(probe_values)

    v["schema.load_s"] = _busy(tr, "schema.load")
    v["schema.save_s"] = _busy(tr, "schema.save")
    for name in ("generate", "inject", "report"):
        v[f"synthdata.{name}_s"] = _busy(tr, f"synthdata.{name}")

    replayed = tr.durations("gradcheck.check", "cli.")
    v["gradcheck.trial_us"] = (replayed[0] / GRADCHECK_TRIALS if replayed else
                               tr.durations("gradcheck.check", "probe")[0]
                               / GRADCHECK_PROBE_TRIALS) * 1e6
    for name in COUNTS:
        v[name] = state["counts"].get(name, 0)
    v["cli.self_s"] = command_s - tr.children_s("cli.")
    v["bench.trace_overhead_frac"] = replay_over_command - 1.0
    return {k: {"value": val, "unit": _unit(k)} for k, val in sorted(v.items())}


def traced_run(args, workdir: Path, usage) -> tuple[dict, Loop, dict]:
    tr = Tracer()
    with tr.span("setup"):
        paths = set_up(workdir, args.seed, tr)
    usage.sample()
    loop = Loop(args.workload, paths, usage)
    factors = [host_factor()]
    loop.repetition()
    command_s = loop.walls[0]
    factors.append(host_factor(command_s))
    gc.collect()
    t0 = time.perf_counter()
    state = replay(args.workload, tr, paths, args.seed)
    replay_s = time.perf_counter() - t0
    factors.append(host_factor(replay_s))
    # The overhead compares the two at reference speed where the host factor
    # tracks the workload, so host drift between them cancels.
    if args.workload in HOST_FACTOR_SCOPE:
        command_ref_s, replay_ref_s = at_reference_speed([command_s, replay_s], factors)
    else:
        command_ref_s, replay_ref_s = command_s, replay_s
    usage.sample()
    gc.collect()
    probe_values = probes(args.workload, tr, state, paths, args.seed)
    metrics = layer_metrics(tr, state, probe_values, command_s, replay_ref_s / command_ref_s)
    spans_path = workdir.parent / f"last-{args.workload}-spans.json"
    spans_path.write_text(json.dumps(tr.spans) + "\n", encoding="utf-8")
    detail = {"command_s": command_s, "replay_s": replay_s, "host_factors": factors,
              "spans": str(spans_path.name)}
    return metrics, loop, detail
