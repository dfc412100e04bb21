"""Trainable encoder: pair features -> (R+1)-logit rows, trained with AdamW.

The encoder is a deliberately small stand-in for a full relational encoding
stack: a linear map (default) or one tanh hidden layer, enough to make loss
comparisons runnable while producing a threshold logit at index 0 like any
adaptive-threshold classifier head.

Training follows a per-document loop: each epoch shuffles document groups,
sums the configured loss over a document's pairs, and takes one optimizer
step per document (optionally accumulating over k documents). Everything is
deterministic given the config seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Sequence

import numpy as np

from .errors import NumericError, SchemaError
from .evaluation import label_masks, mask_metrics
from .loss import LossConfig, batch_rows, get_loss
from .schema import Dataset, LabelSet, LogitRow

ARCHITECTURES = ("linear", "one_hidden")
CHECKPOINT_FORMAT = "cmm-checkpoint/1"


def _pack(tensors: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A new contiguous float64 vector holding the tensors in key order, and
    writable views of it shaped like them."""
    arrays = [np.asarray(t, dtype=np.float64) for t in tensors.values()]
    flat = np.concatenate([a.ravel() for a in arrays])
    views, start = {}, 0
    for name, a in zip(tensors, arrays):
        views[name] = flat[start:start + a.size].reshape(a.shape)
        start += a.size
    return flat, views


@dataclass
class EncoderParams:
    """Parameter tensors in a fixed declared order; output dim is always R+1.

    Construction copies the tensors into one contiguous vector, ``flat``, in
    declared order; ``tensors`` holds writable views of it, so in-place writes
    through either are seen by the other and the optimizer updates every
    parameter in one pass.
    """

    architecture: str
    feature_dim: int
    relation_count: int
    hidden_dim: int
    tensors: dict[str, np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if set(self.tensors) != set(self.parameter_names):
            raise SchemaError(f"{self.architecture} parameters are {self.parameter_names}, "
                              f"got {tuple(self.tensors)}")
        self.flat, self.tensors = _pack({n: self.tensors[n] for n in self.parameter_names})

    @property
    def output_dim(self) -> int:
        return self.relation_count + 1

    @property
    def parameter_names(self) -> tuple[str, ...]:
        if self.architecture == "linear":
            return ("W", "b")
        return ("W1", "b1", "W2", "b2")

    @property
    def decayed_names(self) -> tuple[str, ...]:
        """Weight matrices; biases are excluded from weight decay."""
        return tuple(n for n in self.parameter_names if not n.startswith("b"))

    def copy(self) -> "EncoderParams":
        """An independent copy: construction packs the tensors into a new vector."""
        return replace(self)


def _tensor_shapes(architecture: str, feature_dim: int, relation_count: int,
                   hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Parameter shapes in declared order; weight matrices are (fan_out, fan_in)."""
    out = relation_count + 1
    if architecture == "linear":
        return {"W": (out, feature_dim), "b": (out,)}
    return {"W1": (hidden_dim, feature_dim), "b1": (hidden_dim,),
            "W2": (out, hidden_dim), "b2": (out,)}


def init_encoder(architecture: str, feature_dim: int, relation_count: int,
                 hidden_dim: int = 64, seed: int = 0) -> EncoderParams:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights, zero biases."""
    if architecture not in ARCHITECTURES:
        raise ValueError(f"architecture must be one of {ARCHITECTURES}, got {architecture!r}")
    if architecture == "linear":
        hidden_dim = 0
    rng = np.random.default_rng((seed, 0))
    tensors = {}
    for name, shape in _tensor_shapes(architecture, feature_dim, relation_count,
                                      hidden_dim).items():
        if len(shape) == 2:
            bound = 1.0 / math.sqrt(shape[1])
            tensors[name] = rng.uniform(-bound, bound, size=shape)
        else:
            tensors[name] = np.zeros(shape)
    return EncoderParams(architecture=architecture, feature_dim=feature_dim,
                         relation_count=relation_count, hidden_dim=hidden_dim,
                         tensors=tensors)


def _forward(params: EncoderParams, x: np.ndarray) -> tuple[np.ndarray, tuple]:
    if params.architecture == "linear":
        return x @ params.tensors["W"].T + params.tensors["b"], (x,)
    z = x @ params.tensors["W1"].T + params.tensors["b1"]
    h = np.tanh(z)
    return h @ params.tensors["W2"].T + params.tensors["b2"], (x, h)


def _backward_from_logit_grads(params: EncoderParams, cache: tuple,
                               g_t: np.ndarray) -> dict[str, np.ndarray]:
    if params.architecture == "linear":
        (x,) = cache
        return {"W": g_t.T @ x, "b": g_t.sum(axis=0)}
    x, h = cache
    g_h = g_t @ params.tensors["W2"]
    g_z = g_h * (1.0 - h * h)
    return {"W1": g_z.T @ x, "b1": g_z.sum(axis=0),
            "W2": g_t.T @ h, "b2": g_t.sum(axis=0)}


def encode(params: EncoderParams, features) -> LogitRow:
    """Deterministic forward map for one pair; linear mode is W @ x + b."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1 or x.size != params.feature_dim:
        raise SchemaError(f"expected feature vector of dim {params.feature_dim}, "
                          f"got shape {x.shape}")
    logits, _ = _forward(params, x[None, :])
    return LogitRow(logits[0])


def encode_batch(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.feature_dim:
        raise SchemaError(f"expected (n, {params.feature_dim}) features, got shape {x.shape}")
    logits, _ = _forward(params, x)
    return logits


def backward(params: EncoderParams, features, labels: LabelSet,
             cfg: LossConfig) -> dict[str, np.ndarray]:
    """Exact gradients of the configured loss w.r.t. every parameter tensor."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1 or x.size != params.feature_dim:
        raise SchemaError(f"expected feature vector of dim {params.feature_dim}, "
                          f"got shape {x.shape}")
    logits, cache = _forward(params, x[None, :])
    g_row = get_loss(cfg).grad(LogitRow(logits[0]), labels, cfg)
    return _backward_from_logit_grads(params, cache, np.asarray(g_row)[None, :])


# --- AdamW ----------------------------------------------------------------

@dataclass
class AdamWState:
    """Step count and first/second moments, packed like ``EncoderParams``.

    ``m`` and ``v`` are views into ``m_flat`` and ``v_flat``; their key order
    must be the parameters' declared order, so each vector lines up with the
    parameters' ``flat``.
    """

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    m_flat: np.ndarray = field(init=False, repr=False, compare=False)
    v_flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.m_flat, self.m = _pack(self.m)
        self.v_flat, self.v = _pack(self.v)


def init_adamw_state(params: EncoderParams) -> AdamWState:
    return AdamWState(step=0,
                      m={k: np.zeros_like(t) for k, t in params.tensors.items()},
                      v={k: np.zeros_like(t) for k, t in params.tensors.items()})


def adamw_step(params: EncoderParams, grads: dict[str, np.ndarray], cfg: "TrainConfig",
               state: AdamWState) -> tuple[EncoderParams, AdamWState]:
    """One decoupled-weight-decay Adam update, in place on params and state.

    Decay is applied multiplicatively before the adaptive update and only to
    weight matrices; moments are bias-corrected by the incremented step count.
    The gradients are packed like the parameters, then checked and applied
    in one pass over the flat vectors.
    """
    g = np.concatenate([np.ravel(grads[name]) for name in params.parameter_names])
    if not np.isfinite(g).all():
        bad = next(n for n in params.parameter_names if not np.all(np.isfinite(grads[n])))
        raise NumericError(f"non-finite gradient for parameter {bad!r}")
    state.step += 1
    t = state.step
    c1 = 1.0 - cfg.beta1 ** t
    c2 = 1.0 - cfg.beta2 ** t
    if cfg.weight_decay != 0.0:
        for name in params.decayed_names:
            params.tensors[name] *= 1.0 - cfg.learning_rate * cfg.weight_decay
    p, m, v = params.flat, state.m_flat, state.v_flat
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    p -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + cfg.epsilon)
    return params, state


# --- training -------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    loss: LossConfig
    epochs: int
    seed: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01
    eval_every: int = 1
    architecture: str = "linear"
    hidden_dim: int = 64
    accumulate_documents: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie strictly in (0, 1)")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0.0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.accumulate_documents < 1:
            raise ValueError("accumulate_documents must be >= 1")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}")


@dataclass(frozen=True)
class TraceRecord:
    epoch: int
    train_loss: float
    dev_f1: float
    dev_ign_f1: float
    dev_positives: int


@dataclass(frozen=True)
class _PackedDoc:
    features: np.ndarray    # (n, F)
    pos_mask: np.ndarray    # (n, R) bool


def _pack_documents(dataset: Dataset) -> list[_PackedDoc]:
    r_count = dataset.schema.relation_count
    docs = []
    for _, examples in dataset.iter_documents():
        if not examples:
            continue
        x = np.stack([ex.features for ex in examples])
        mask = np.zeros((len(examples), r_count), dtype=bool)
        for i, ex in enumerate(examples):
            for r in ex.labels.positives:
                mask[i, r - 1] = True
        docs.append(_PackedDoc(features=x, pos_mask=mask))
    return docs


def _chunk(seq: list, size: int) -> Iterator[list]:
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def _batch_loss_and_grads(params: EncoderParams, docs: Sequence[_PackedDoc],
                          cfg: LossConfig) -> tuple[float, dict[str, np.ndarray], int]:
    x = docs[0].features if len(docs) == 1 else np.concatenate([d.features for d in docs])
    mask = docs[0].pos_mask if len(docs) == 1 else np.concatenate([d.pos_mask for d in docs])
    logits, cache = _forward(params, x)
    rows, g_t = batch_rows(cfg.kind, logits, mask, cfg, need_grad=True)
    n_pairs = logits.shape[0]
    total = float(rows.sum())
    if cfg.aggregation == "global_mean":
        g_t = g_t / n_pairs
    grads = _backward_from_logit_grads(params, cache, g_t)
    return total, grads, n_pairs


def train(dataset: Dataset, dev: Dataset, cfg: TrainConfig) -> tuple[EncoderParams,
                                                                     list[TraceRecord]]:
    """Train the encoder on shuffled document groups; see module docstring.

    Returns the final parameters and one trace record per evaluated epoch
    (every ``eval_every`` epochs, plus the final epoch).
    """
    if not dataset.examples:
        raise SchemaError("training dataset is empty")
    if dataset.schema != dev.schema:
        raise SchemaError("train and dev datasets must share one schema")
    docs = _pack_documents(dataset)
    dev_features = (np.stack([ex.features for ex in dev.examples])
                    if dev.examples else np.zeros((0, dataset.feature_dim)))
    dev_gold, dev_seen = label_masks(dev)
    n_pairs_total = sum(d.features.shape[0] for d in docs)

    params = init_encoder(cfg.architecture, dataset.feature_dim,
                          dataset.schema.relation_count, cfg.hidden_dim, cfg.seed)
    state = init_adamw_state(params)
    trace: list[TraceRecord] = []

    for epoch in range(1, cfg.epochs + 1):
        order = np.random.default_rng((cfg.seed, epoch)).permutation(len(docs))
        epoch_loss = 0.0
        for group_idx in _chunk(list(order), cfg.accumulate_documents):
            group = [docs[i] for i in group_idx]
            total, grads, _ = _batch_loss_and_grads(params, group, cfg.loss)
            epoch_loss += total
            params, state = adamw_step(params, grads, cfg, state)
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            scores = mask_metrics(encode_batch(params, dev_features), dev_gold, dev_seen)
            trace.append(TraceRecord(epoch=epoch, train_loss=epoch_loss / n_pairs_total,
                                     dev_f1=scores.f1, dev_ign_f1=scores.ign_f1,
                                     dev_positives=scores.tp + scores.fp))
    return params, trace


# --- checkpoints ----------------------------------------------------------

def save_checkpoint(path: str, params: EncoderParams, state: AdamWState | None,
                    config: dict[str, Any] | None = None) -> None:
    obj: dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "architecture": {
            "kind": params.architecture,
            "feature_dim": params.feature_dim,
            "relation_count": params.relation_count,
            "hidden_dim": params.hidden_dim,
        },
        "parameters": [
            {"name": name, "shape": list(params.tensors[name].shape),
             "data": params.tensors[name].ravel().tolist()}
            for name in params.parameter_names
        ],
    }
    if state is not None:
        obj["optimizer"] = {
            "step": state.step,
            "m": [{"name": n, "data": state.m[n].ravel().tolist()}
                  for n in params.parameter_names],
            "v": [{"name": n, "data": state.v[n].ravel().tolist()}
                  for n in params.parameter_names],
        }
    if config is not None:
        obj["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def _tensor(entry: dict[str, Any], shape) -> np.ndarray:
    return np.asarray(entry["data"], dtype=np.float64).reshape(shape)


def load_checkpoint(path: str) -> tuple[EncoderParams, AdamWState | None, dict[str, Any]]:
    """Read a checkpoint; SchemaError unless it matches its declared architecture."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:
        raise SchemaError(f"{path}: checkpoint is not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: checkpoint must be a JSON object")
    if obj.get("format") != CHECKPOINT_FORMAT:
        raise SchemaError(f"{path}: unsupported checkpoint format {obj.get('format')!r}")
    try:
        arch = obj["architecture"]
        kind = arch["kind"]
        dims = {"feature_dim": int(arch["feature_dim"]),
                "relation_count": int(arch["relation_count"]),
                "hidden_dim": int(arch["hidden_dim"])}
        if kind not in ARCHITECTURES:
            raise SchemaError(f"{path}: architecture kind must be one of {ARCHITECTURES}, "
                              f"got {kind!r}")
        shapes = _tensor_shapes(kind, **dims)
        tensors = {e["name"]: _tensor(e, e["shape"]) for e in obj["parameters"]}
        found = {name: t.shape for name, t in tensors.items()}
        if found != shapes:
            raise SchemaError(f"{path}: parameters {found} do not match the declared "
                              f"{kind} architecture {shapes}")
        state = None
        if "optimizer" in obj:
            opt = obj["optimizer"]
            m = {e["name"]: _tensor(e, shapes[e["name"]]) for e in opt["m"]}
            v = {e["name"]: _tensor(e, shapes[e["name"]]) for e in opt["v"]}
            state = AdamWState(step=int(opt["step"]), m={n: m[n] for n in shapes},
                               v={n: v[n] for n in shapes})
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    if not all(np.all(np.isfinite(t)) for t in tensors.values()):
        raise SchemaError(f"{path}: non-finite parameter values")
    params = EncoderParams(architecture=kind, tensors=tensors, **dims)
    return params, state, obj.get("config", {})
