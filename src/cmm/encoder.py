"""Trainable encoder: pair features -> (R+1)-logit rows, trained with AdamW.

The encoder is a deliberately small stand-in for a full relational encoding
stack: a linear map (default) or one tanh hidden layer, enough to make loss
comparisons runnable while producing a threshold logit at index 0 like any
adaptive-threshold classifier head.

Training follows a per-document loop: each epoch shuffles document groups,
sums the configured loss over a document's pairs, and takes one optimizer
step per document (optionally accumulating over k documents). Everything is
deterministic given the config seed. Arms whose configs differ only in the
loss train in lockstep, sharing each document step. AdamW has one calling
form, a (K, P) block of K arms' packed parameters; ``adamw_step`` updates
one encoder as a block of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterator, Sequence

import numpy as np

from .errors import NumericError, SchemaError
from .evaluation import mask_metrics
from .loss import LossConfig, _cmm_arms, _cmm_rows, _label_rows, _labels
from .schema import Dataset, require_finite, require_int, require_numbers, write_json

ARCHITECTURES = ("linear", "one_hidden")
# the dimensions that, with the architecture, set the tensor shapes; a checkpoint's order
ARCHITECTURE_DIMS = ("feature_dim", "relation_count", "hidden_dim")
CHECKPOINT_FORMAT = "cmm-checkpoint/1"


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views of consecutive slices of the last axis of ``flat``, shaped like ``shapes``.

    On a (K, P) block of K packed vectors each view has a leading K axis.
    """
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[..., start:start + size].reshape(flat.shape[:-1] + shape)
        start += size
    return views


@dataclass
class EncoderParams:
    """Parameter tensors in a fixed declared order; output dim is always R+1.

    Construction checks the dimensions as a checkpoint declares them
    (ValueError), then the architecture, the tensors' names and shapes
    against ``shapes`` and their finiteness (SchemaError), so every instance
    survives a checkpoint round trip. It copies the tensors into one
    contiguous vector, ``flat``, in declared order; ``tensors`` holds
    writable views of it, so in-place writes through either are seen by the
    other and the optimizer updates every parameter in one pass.
    """

    architecture: str
    feature_dim: int
    relation_count: int
    hidden_dim: int
    tensors: dict[str, np.ndarray]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ARCHITECTURE_DIMS:
            require_int(name, getattr(self, name), 1 if name == "relation_count" else 0)
        if self.architecture not in ARCHITECTURES:
            raise SchemaError(f"architecture kind must be one of {ARCHITECTURES}, "
                              f"got {self.architecture!r}")
        shapes = self.shapes
        arrays = {name: np.asarray(t, dtype=np.float64) for name, t in self.tensors.items()}
        found = {name: a.shape for name, a in arrays.items()}
        if found != shapes:
            raise SchemaError(f"parameters {found} do not match the declared "
                              f"{self.architecture} architecture {shapes}")
        self.flat = np.concatenate([arrays[name].ravel() for name in shapes])
        if not np.isfinite(self.flat).all():
            raise SchemaError("non-finite parameter values")
        self.tensors = _views(self.flat, shapes)

    @property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        return _tensor_shapes(self.architecture, self.feature_dim, self.relation_count,
                              self.hidden_dim)

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return tuple(self.shapes)

    @property
    def decayed_names(self) -> tuple[str, ...]:
        """Weight matrices; biases are excluded from weight decay."""
        return tuple(name for name, shape in self.shapes.items() if len(shape) == 2)

    def copy(self) -> "EncoderParams":
        """An independent copy: construction packs the tensors into a new vector."""
        return replace(self)


def _tensor_shapes(architecture: str, feature_dim: int, relation_count: int,
                   hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Parameter shapes in declared order: a (weight, bias) pair per layer, input
    layer first. A tensor is a weight if and only if it is 2-D, (fan_out, fan_in)."""
    out = relation_count + 1
    if architecture == "linear":
        return {"W": (out, feature_dim), "b": (out,)}
    return {"W1": (hidden_dim, feature_dim), "b1": (hidden_dim,),
            "W2": (out, hidden_dim), "b2": (out,)}


def init_encoder(architecture: str, feature_dim: int, relation_count: int,
                 hidden_dim: int = 64, seed: int = 0) -> EncoderParams:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weights, zero biases; ValueError
    for a layer with no inputs."""
    if architecture not in ARCHITECTURES:
        raise ValueError(f"architecture must be one of {ARCHITECTURES}, got {architecture!r}")
    if architecture == "linear":
        hidden_dim = 0
    rng = np.random.default_rng((seed, 0))
    tensors = {}
    for name, shape in _tensor_shapes(architecture, feature_dim, relation_count,
                                      hidden_dim).items():
        if len(shape) == 2:
            if shape[1] == 0:
                raise ValueError(f"weight {name!r} of shape {shape} has fan-in 0: "
                                 f"every layer needs at least one input")
            bound = 1.0 / math.sqrt(shape[1])
            tensors[name] = rng.uniform(-bound, bound, size=shape)
        else:
            tensors[name] = np.zeros(shape)
    return EncoderParams(architecture=architecture, feature_dim=feature_dim,
                         relation_count=relation_count, hidden_dim=hidden_dim,
                         tensors=tensors)


def _layers(tensors: dict[str, np.ndarray]) -> list[tuple[str, str]]:
    """The (weight, bias) names of each layer, in declared order."""
    names = list(tensors)
    return list(zip(names[::2], names[1::2]))


def _forward(tensors: dict[str, np.ndarray], x: np.ndarray) -> tuple[np.ndarray, list]:
    """(K, n, R+1) logits of the rows of x under K parameter sets, and the
    cache ``_backward`` needs: each layer's input.

    Every tensor carries a leading arm axis (``_stacked`` gives one encoder
    an axis of 1); tanh lies between layers. Each GEMM here and in
    ``_backward`` is one ``np.matmul`` over the arm axis, which makes the
    BLAS call of each arm alone; one GEMM over the arms' stacked weights
    would pick other kernels for the wider output and round differently.
    """
    inputs: list[np.ndarray] = []
    for w, b in _layers(tensors):
        if inputs:
            np.tanh(x, out=x)
        inputs.append(x)
        x = np.matmul(x, tensors[w].transpose(0, 2, 1))
        x += tensors[b][:, None, :]
    return x, inputs


def _backward(tensors: dict[str, np.ndarray], inputs: list, g_t: np.ndarray,
              out: dict[str, np.ndarray]) -> None:
    """Write the parameter gradients for (K, n, R+1) logit gradients g_t into
    ``out``, whose arrays carry the arm axis like ``tensors``, walking the
    layers whose ``inputs`` ``_forward`` cached in reverse."""
    for i, (w, b) in reversed(list(enumerate(_layers(tensors)))):
        np.matmul(g_t.transpose(0, 2, 1), inputs[i], out=out[w])
        np.sum(g_t, axis=1, out=out[b])
        if i:
            g_t = np.matmul(g_t, tensors[w])
            g_t *= 1.0 - inputs[i] * inputs[i]


def _stacked(params: "EncoderParams") -> dict[str, np.ndarray]:
    """The tensors of one encoder as a stack of one arm (views)."""
    return {name: t[None] for name, t in params.tensors.items()}


def encode_batch(params: EncoderParams, features: np.ndarray) -> np.ndarray:
    """(n, R+1) logits of an (n, F) feature batch; a linear encoder's are x @ w.T + b."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.feature_dim:
        raise SchemaError(f"expected (n, {params.feature_dim}) features, got shape {x.shape}")
    logits, _ = _forward(_stacked(params), x)
    return logits[0]


# --- AdamW ----------------------------------------------------------------

@dataclass
class AdamWState:
    """Step count and first/second moments of K arms as (K, P) blocks.

    Row k of ``m`` and ``v`` lines up with arm k's packed parameter vector
    (``EncoderParams.flat``); one encoder's state is a block of one row.
    """

    step: int
    m: np.ndarray
    v: np.ndarray


def init_adamw_state(params: EncoderParams) -> AdamWState:
    return AdamWState(step=0, m=np.zeros((1, params.flat.size)),
                      v=np.zeros((1, params.flat.size)))


def _adamw(p: np.ndarray, g: np.ndarray, grads: dict[str, np.ndarray], state: AdamWState,
           cfg: "TrainConfig", decayed: Sequence[np.ndarray],
           scratch: tuple[np.ndarray, np.ndarray], kinds: Sequence[str] = ()) -> None:
    """One AdamW step, in place and elementwise on the (K, P) blocks p, state.m
    and state.v, for the gradient block g.

    NumericError, before anything moves, if g is not finite; it names the
    tensor from ``grads`` (views of g) and, when there are several, the arm's
    loss kind from ``kinds``. Otherwise the step count is incremented, the
    weight matrices in ``decayed`` (views of p) decay multiplicatively, and
    the moments, bias-corrected by the new step count, move p. ``scratch`` is
    two arrays shaped like p that hold the temporaries, so the update
    allocates nothing. Every operation is elementwise, so each row gets
    exactly the update it would get alone.
    """
    finite = np.isfinite(g).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        bad = next(n for n, t in grads.items() if not np.isfinite(t[i]).all())
        raise NumericError(f"non-finite gradient for parameter {bad!r}"
                           + (f" in the {kinds[i]} arm" if len(kinds) > 1 else ""))
    state.step += 1
    m, v, (a, b) = state.m, state.v, scratch
    c1 = 1.0 - cfg.beta1 ** state.step
    c2 = 1.0 - cfg.beta2 ** state.step
    if cfg.weight_decay != 0.0:
        for w in decayed:
            w *= 1.0 - cfg.learning_rate * cfg.weight_decay
    m *= cfg.beta1
    m += np.multiply(1.0 - cfg.beta1, g, out=a)
    v *= cfg.beta2
    np.multiply(1.0 - cfg.beta2, g, out=a)
    v += np.multiply(a, g, out=a)
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps), one operation at a time
    np.multiply(cfg.learning_rate, np.divide(m, c1, out=a), out=a)
    np.sqrt(np.divide(v, c2, out=b), out=b)
    b += cfg.epsilon
    p -= np.divide(a, b, out=a)


def adamw_step(params: EncoderParams, grads: dict[str, np.ndarray], cfg: "TrainConfig",
               state: AdamWState) -> tuple[EncoderParams, AdamWState]:
    """One AdamW update of one encoder, in place on params and state: the
    trainer's update (``_adamw``) on a batch of one arm, with the gradients
    packed like the parameters as a (1, P) block."""
    g = np.concatenate([np.ravel(grads[name]) for name in params.parameter_names])[None]
    decayed = [params.tensors[name] for name in params.decayed_names]
    _adamw(params.flat[None], g, _views(g, params.shapes), state, cfg, decayed,
           (np.empty_like(g), np.empty_like(g)))
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
        for name in ("learning_rate", "beta1", "beta2", "epsilon", "weight_decay"):
            require_finite(name, getattr(self, name))
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie strictly in (0, 1)")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0.0 or self.epsilon < 0.0:
            raise ValueError(f"weight_decay and epsilon must be >= 0, got "
                             f"{self.weight_decay} and {self.epsilon}")
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}")
        for name, minimum in (("epochs", 1), ("seed", 0), ("eval_every", 1),
                              ("accumulate_documents", 1),
                              ("hidden_dim", 1 if self.architecture == "one_hidden" else 0)):
            require_int(name, getattr(self, name), minimum)


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
    stacked_pos: tuple      # np.nonzero of pos_mask repeated once per cmm arm
    labels: dict            # loss._labels of pos_mask for each non-cmm kind present


def _packed(x: np.ndarray, mask: np.ndarray, kinds: list[str]) -> _PackedDoc:
    """The batch (x, mask) with the label-only arrays of the arms' loss
    ``kinds``, which steps only read: they are built read-only."""
    doc = _PackedDoc(features=x, pos_mask=mask,
                     stacked_pos=np.nonzero(np.broadcast_to(
                         mask, (kinds.count("cmm"),) + mask.shape)),
                     labels={kind: _labels(kind, mask) for kind in set(kinds) - {"cmm"}})
    for a in (*doc.stacked_pos, *(a for arrays in doc.labels.values() for a in arrays)):
        a.flags.writeable = False
    return doc


def _pack_documents(dataset: Dataset, kinds: list[str]) -> list[_PackedDoc]:
    """One batch per non-empty document, in declared order: views of the
    dataset's read-only columns if its pairs are in document order (as in every
    saved or generated file), else of a stable sort by document."""
    x, mask = dataset.features, dataset.labels
    if (np.diff(dataset.doc_index) < 0).any():
        order = np.argsort(dataset.doc_index, kind="stable")
        x, mask = x[order], mask[order]
    x, mask = np.ascontiguousarray(x), np.ascontiguousarray(mask)
    x.flags.writeable = mask.flags.writeable = False
    counts = np.bincount(dataset.doc_index, minlength=len(dataset.document_ids))
    ends = np.cumsum(counts)
    starts = ends - counts
    return [_packed(x[s:e], mask[s:e], kinds)
            for s, e in zip(starts.tolist(), ends.tolist()) if e > s]


def _group(docs: Sequence[_PackedDoc], kinds: list[str]) -> _PackedDoc:
    """The documents of one optimizer step as one batch."""
    if len(docs) == 1:
        return docs[0]
    return _packed(np.concatenate([d.features for d in docs]),
                   np.concatenate([d.pos_mask for d in docs]), kinds)


def _chunk(seq: list, size: int) -> Iterator[list]:
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def _check_lockstep(cfgs: Sequence[TrainConfig]) -> None:
    if not cfgs:
        raise ValueError("train needs at least one TrainConfig")
    for cfg in cfgs[1:]:
        differ = [f.name for f in fields(cfg)
                  if f.name != "loss" and getattr(cfg, f.name) != getattr(cfgs[0], f.name)]
        if differ:
            raise ValueError(f"configs trained together may differ only in 'loss', "
                             f"not in {differ}")


class _Arms:
    """K arms' parameters, AdamW state, gradients and update scratch as (K, P) blocks.

    Row k holds arm k's packed vector in ``EncoderParams.flat`` layout;
    ``params`` and ``grads`` view the blocks as tensors with a leading arm
    axis. The cmm arms come first, so their stack is a leading slice.
    """

    def __init__(self, init: EncoderParams, losses: Sequence[LossConfig]):
        self.init, self.losses = init, list(losses)
        self.kinds = [loss.kind for loss in self.losses]
        self.p = np.tile(init.flat, (len(self.losses), 1))
        self.g = np.empty_like(self.p)
        self.opt = AdamWState(step=0, m=np.zeros_like(self.p), v=np.zeros_like(self.p))
        self.scratch = (np.empty_like(self.p), np.empty_like(self.p))
        self.params, self.grads = _views(self.p, init.shapes), _views(self.g, init.shapes)
        self.decayed = [self.params[name] for name in init.decayed_names]
        self.n_cmm = self.kinds.count("cmm")
        self.gammas, self.ms, self.clamps = _cmm_arms(self.losses[:self.n_cmm])

    def step_grads(self, doc: _PackedDoc, need_loss: bool = True) -> np.ndarray | None:
        """Write every arm's gradient for one batch into ``self.g``; return the
        arms' loss sums, or None without computing them when ``need_loss`` is
        False. The gradients are the same to the bit either way."""
        n, c = doc.features.shape[0], self.n_cmm
        logits, cache = _forward(self.params, doc.features)
        g_t = np.empty_like(logits)
        totals = np.empty(len(self.losses)) if need_loss else None
        if c:
            rows, _ = _cmm_rows(logits[:c], doc.stacked_pos, self.gammas, self.ms, self.clamps,
                                need_grad=True, grad_out=g_t[:c], need_value=need_loss)
            if need_loss:
                totals[:c] = rows.sum(axis=-1)
        for i in range(c, len(self.losses)):
            loss = self.losses[i]
            rows, g_t[i] = _label_rows(loss.kind, logits[i], doc.pos_mask, doc.labels[loss.kind],
                                       loss, need_grad=True, need_value=need_loss)
            if need_loss:
                totals[i] = rows.sum()
        for i, loss in enumerate(self.losses):
            if loss.aggregation == "global_mean":
                g_t[i] /= n
        _backward(self.params, cache, g_t, self.grads)
        return totals

    def apply(self, cfg: TrainConfig) -> None:
        """One AdamW step for every arm; NumericError if any gradient is not finite."""
        _adamw(self.p, self.g, self.grads, self.opt, cfg, self.decayed, self.scratch, self.kinds)

    def encoder(self, i: int) -> EncoderParams:
        return replace(self.init, tensors={name: t[i] for name, t in self.params.items()})


def train(dataset: Dataset, dev: Dataset, cfgs: TrainConfig | Sequence[TrainConfig]):
    """Train one encoder per config, all arms in lockstep; see module docstring.

    ``cfgs`` is one TrainConfig or a sequence of configs that differ only in
    ``loss`` (ValueError otherwise). The seed alone sets the initial
    parameters and the document order, so every arm shares each document
    step: each GEMM is one ``np.matmul`` over the arm axis, the cmm arms
    share one kernel call, an ATL arm runs its kernel on the document's
    label-only arrays (built once per run, or per step for groups of
    ``accumulate_documents`` > 1), a plain_margin arm copies its cached
    gradient, and one AdamW pass updates all arms' parameters. Each arm
    ends bit-identical to training it alone.

    Returns the final parameters and one trace record per recorded epoch
    (every ``eval_every`` epochs, plus the final epoch); for a sequence of
    configs, a list of those pairs in config order. Loss values are computed
    only in recorded epochs, the only ones whose ``train_loss`` is read; the
    other epochs take gradient-only steps, which move the parameters exactly
    as the steps of a recorded epoch do.
    """
    single = isinstance(cfgs, TrainConfig)
    cfgs = [cfgs] if single else list(cfgs)
    _check_lockstep(cfgs)
    if not len(dataset):
        raise SchemaError("training dataset is empty")
    if not dataset.feature_dim:
        raise SchemaError("training dataset's pairs have no features")
    if dataset.schema != dev.schema:
        raise SchemaError("train and dev datasets must share one schema")
    if len(dev) and dev.feature_dim != dataset.feature_dim:
        raise SchemaError(f"train and dev datasets must share one feature width, got "
                          f"{dataset.feature_dim} and {dev.feature_dim}")
    cfg = cfgs[0]
    order = sorted(range(len(cfgs)), key=lambda k: cfgs[k].loss.kind != "cmm")
    try:    # first, so that sizes numpy refuses fail before any work
        arms = _Arms(init_encoder(cfg.architecture, dataset.feature_dim,
                                  dataset.schema.relation_count, cfg.hidden_dim, cfg.seed),
                     [cfgs[k].loss for k in order])
    except (ValueError, MemoryError) as exc:
        raise SchemaError(f"cannot hold the {cfg.architecture} encoders of {len(cfgs)} arm(s) "
                          f"({type(exc).__name__}: {exc})") from None
    docs = _pack_documents(dataset, arms.kinds)
    dev_features = dev.features if len(dev) else np.zeros((0, dataset.feature_dim))
    n_pairs_total = sum(d.features.shape[0] for d in docs)
    traces: list[list[TraceRecord]] = [[] for _ in cfgs]

    for epoch in range(1, cfg.epochs + 1):
        perm = np.random.default_rng((cfg.seed, epoch)).permutation(len(docs))
        recorded = epoch % cfg.eval_every == 0 or epoch == cfg.epochs
        epoch_loss = np.zeros(len(cfgs))
        for group_idx in _chunk(list(perm), cfg.accumulate_documents):
            totals = arms.step_grads(_group([docs[i] for i in group_idx], arms.kinds),
                                     need_loss=recorded)
            if recorded:
                epoch_loss += totals
            arms.apply(cfg)
        if recorded:
            for i, logits in enumerate(_forward(arms.params, dev_features)[0]):
                scores = mask_metrics(logits, dev.labels, dev.seen)
                traces[i].append(TraceRecord(
                    epoch=epoch, train_loss=float(epoch_loss[i] / n_pairs_total),
                    dev_f1=scores.f1, dev_ign_f1=scores.ign_f1,
                    dev_positives=scores.tp + scores.fp))
    results = [None] * len(cfgs)
    for i, k in enumerate(order):
        results[k] = (arms.encoder(i), traces[i])
    return results[0] if single else results


# --- checkpoints ----------------------------------------------------------

def save_checkpoint(path: str, params: EncoderParams,
                    config: dict[str, Any] | None = None) -> None:
    obj: dict[str, Any] = {
        "format": CHECKPOINT_FORMAT,
        "architecture": {"kind": params.architecture,
                         **{name: getattr(params, name) for name in ARCHITECTURE_DIMS}},
        "parameters": [
            {"name": name, "shape": list(t.shape), "data": t.ravel().tolist()}
            for name, t in params.tensors.items()
        ],
    }
    if config is not None:
        obj["config"] = config
    write_json(path, obj)


def _tensor(entry: dict[str, Any], shape) -> np.ndarray:
    """An entry's flat ``data`` list of numbers as an array of the given shape."""
    require_numbers("data", entry["data"])
    return np.asarray(entry["data"], dtype=np.float64).reshape(shape)


def load_checkpoint(path: str) -> tuple[EncoderParams, None, dict[str, Any]]:
    """Read a checkpoint as (parameters, None, config); SchemaError unless it matches
    its declared architecture. Top-level keys other than the four that
    ``save_checkpoint`` writes, such as an older writer's ``optimizer``, are
    ignored; the middle value stays for callers that unpack three."""
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
        dims = {name: arch[name] for name in ARCHITECTURE_DIMS}
        tensors = {e["name"]: _tensor(e, e["shape"]) for e in obj["parameters"]}
        if len(tensors) != len(obj["parameters"]):
            raise SchemaError("a parameter name appears more than once")
        params = EncoderParams(architecture=arch["kind"], tensors=tensors, **dims)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from exc
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return params, None, obj.get("config", {})
