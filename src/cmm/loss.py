"""Margin losses against an adaptive threshold logit.

Every loss here works on the signed distances between relation logits and
the threshold logit t_TH (index 0):

    d_pos[r] = t_r - t_TH   for labeled-positive relations,
    d_neg[r] = t_TH - t_r   for labeled-negative relations,

so a correctly ordered relation always has a positive distance. Three
concrete losses are provided:

* ``plain_margin_loss`` -- the naive sum of negated distances. Unbounded
  below; kept verbatim as a comparison arm.
* ``cmm_loss`` -- the concentrated margin loss. Distances are rescaled to
  log-sigmoid space, positive terms are amplified by a focusing power
  (1 - q)**gamma, and negative terms are clamped to exactly zero (value
  and gradient) once sigma(d) + m >= 1, i.e. for d >= log((1 - m) / m).
* ``atl_reference_loss`` -- a two-part adaptive-threshold softmax baseline:
  each positive is scored against positives-plus-TH, and TH is scored
  against negatives-plus-TH.

Every relation that is not a positive is scored as a negative: a
``LabelSet`` derives its negatives as the complement of its positives, and
a mask marks positives only. Each kind has one composition, ``batch_rows``
over a boolean (n, R) positive mask; the single-row functions are batches
of one. The cmm kernel has one calling form, a (K, n, R+1) stack of K arms
with the arms' parameters from ``_cmm_arms``: ``batch_rows`` passes a stack
of one, the trainer the stack of all its cmm arms, and the gradcheck
oracle a stack of trials and the stack of their finite-difference probes.
The other kinds' label-only work (``_labels``: plain_margin's whole
gradient, ATL's masks) runs per call in ``batch_rows``, per document in
the trainer; ATL's first softmax runs only on rows that hold a positive.
Each kernel computes the loss values and the gradient as separate halves
(``need_value``, ``need_grad``), so a caller that reads only one pays only
for it; the gradient is the same to the bit either way. Analytic gradients
are exact and verified against central finite differences by the gradcheck
module. Additional (value, gradient) pairs can be registered under
``kind="plugin"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericError, SchemaError
from .schema import LabelSet, require_finite

GAMMA_GRID = (1.0, 1.2, 1.4, 1.6, 2.0)
M_GRID = (0.1, 0.2, 0.3, 0.4)
LOSS_KINDS = ("plain_margin", "cmm", "atl_reference", "plugin")
AGGREGATIONS = ("per_document_sum", "global_mean")
POSITIVE, NEGATIVE = "positive", "negative"


@dataclass(frozen=True)
class LossConfig:
    """Loss kind plus hyperparameters.

    ``gamma`` is the focusing exponent on positive terms, ``m`` the additive
    shift that sets the negative-side clamp; both are ignored by
    plain_margin and atl_reference. ``aggregation`` controls how the trainer
    reduces per-pair losses inside one optimizer step.
    """

    kind: str = "cmm"
    gamma: float = 1.0
    m: float = 0.2
    aggregation: str = "per_document_sum"
    plugin: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        require_finite("gamma", self.gamma)
        require_finite("m", self.m)
        if not self.gamma >= 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 < self.m < 1.0:
            raise ValueError(f"m must be strictly inside (0, 1), got {self.m}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}")
        if self.kind == "plugin" and not self.plugin:
            raise ValueError("kind='plugin' requires a registered plugin name")


def loss_grid(gammas: Any, ms: Any) -> tuple[tuple, tuple]:
    """gammas and ms as tuples of their entries, checked as a grid of cmm arms.

    Each must be a list (or tuple) of finite numbers, not bools, that a
    ``LossConfig`` takes: every gamma >= 0 and every m in (0, 1). TypeError
    or ValueError otherwise.
    """
    for name, grid, field in (("gammas", gammas, "gamma"), ("ms", ms, "m")):
        if not isinstance(grid, (list, tuple)):
            raise TypeError(f"{name} must be a list of numbers, got {grid!r}")
        for value in grid:
            require_finite(f"{name} entry", value)
            LossConfig(**{field: float(value)})
    return tuple(gammas), tuple(ms)


@dataclass(frozen=True)
class DistanceSet:
    """Signed logit-to-threshold distances, keyed by relation index."""

    d_pos: dict[int, float]
    d_neg: dict[int, float]


# --- numerically stable primitives ---------------------------------------

def log_sigmoid(d):
    """log(sigma(d)) computed as -softplus(-d); stable for any finite d."""
    return -np.logaddexp(0.0, -np.asarray(d, dtype=np.float64))


def sigmoid(d):
    d = np.asarray(d, dtype=np.float64)
    high = d >= 0.0
    e = np.exp(np.where(high, -d, d))   # e^-|d| <= 1, NaN passed on as it is
    return np.where(high, 1.0, e) / (1.0 + e)


def clamp_distance(m: float) -> float:
    """Distance beyond which a negative contributes zero loss and gradient."""
    return math.log((1.0 - m) / m)


def _positive_terms(d, gamma, need_grad: bool, need_value: bool = True):
    """Per-relation positive loss term -(1-q)**gamma * q with q = log(sigma(d)).

    Returns (term, dterm/dd), with None for the half not asked for. (1-q) >= 1
    always, so the power is taken as exp(gamma * log1p(-q)), which supports
    non-integer gamma. ``gamma`` is a float or one value per entry of d.
    """
    d = np.asarray(d, dtype=np.float64)
    q = log_sigmoid(d)
    log1mq = np.log1p(-q)
    term = np.exp(gamma * log1mq) * (-q) if need_value else None
    if not need_grad:
        return term, None
    powgm1 = np.exp((gamma - 1.0) * log1mq)
    dterm = powgm1 * (gamma * q - (1.0 - q)) * sigmoid(-d)
    return term, dterm


def _cmm_arms(losses: Sequence[LossConfig]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cmm kernel's parameters for K arms' loss configs: their gamma as a
    (K,) array, and their m and ``clamp_distance`` as (K, 1, 1) arrays."""
    gamma = np.array([loss.gamma for loss in losses], dtype=np.float64)
    m = np.array([loss.m for loss in losses], dtype=np.float64).reshape(-1, 1, 1)
    return gamma, m, np.array([clamp_distance(loss.m) for loss in losses]).reshape(-1, 1, 1)


def _negative_terms(d: np.ndarray, m: np.ndarray, clamp: np.ndarray,
                    grad_out: np.ndarray | None = None, need_value: bool = True):
    """Per-relation negative loss term -log(min(sigma(d) + m, 1)) on a (K, n, R)
    stack of K arms' distances d = t_TH - t_r.

    ``m`` and ``clamp`` are (K, 1, 1) arrays of the arms' m and
    ``clamp_distance`` values. Returns the (K, n, R) terms, or None without
    ``need_value``. Given a C-contiguous (K, n, R+1) ``grad_out``, writes
    the terms' derivatives by the logits t_r, -dterm/dd, into
    ``grad_out[..., 1:]``. Exactly zero, with exactly zero derivative
    (written as -0.0), for d >= log((1-m)/m). This sits on the training hot
    path, where most negatives are clamped once the data is separated, so
    the transcendentals run only on the live entries, indexed by flat
    position; NaN counts as live and propagates. One exponential, e^-|d|, is
    shared between the value and the sigmoid needed for the derivative, and
    the terms have the bits of taking e^d and e^-d on their own sides, NaN
    payloads included.
    """
    shape = d.shape
    d, live = d.reshape(-1), np.flatnonzero(~(d >= clamp))
    # arm-major: equal spans per arm; one arm's m is a scalar
    m = m.item() if m.size == 1 else m.ravel()[live // (d.size // m.size)]
    dl = d[live]
    low_side = dl <= 0.0
    e = np.exp(np.where(low_side, dl, -dl))     # e^-|d| <= 1; NaN is on the high side
    term = None
    if need_value:
        q = np.where(low_side, np.log(m + (1.0 + m) * e), np.log1p(m + m * e)) - np.log1p(e)
        term = np.zeros(shape)
        term.reshape(-1)[live] = -q
    if grad_out is not None:
        s = np.where(low_side, e, 1.0) / (1.0 + e)
        grad_out[..., 1:] = -0.0
        # flat index of entry (k, i, r) of d in grad_out: one TH column per row
        grad_out.reshape(-1)[live + live // shape[-1] + 1] = (s * (1.0 - s)) / (s + m)
    return term


# --- one composition per loss kind (column j of a mask <-> relation j+1) --

def _cmm_rows(t: np.ndarray, pos_idx: tuple, gamma: np.ndarray, m: np.ndarray,
              clamp: np.ndarray, need_grad: bool, grad_out: np.ndarray | None = None,
              need_value: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """cmm loss over the last axis of a (K, n, R+1) stack t of K arms' logit rows.

    ``pos_idx`` is the nonzero of the arms' (K, n, R) positive mask, which
    indexes the positive entries of ``t[..., 1:]``; every other relation is
    a negative. ``gamma``, ``m`` and ``clamp`` are the arms' parameters from
    ``_cmm_arms``. The gradient is written into ``grad_out`` (C-contiguous)
    when given, else into a new array; the TH entry takes minus the row sum
    of the others. Returns the (K, n) rows and the (K, n, R+1) gradient,
    with None for the half not asked for.
    """
    dist = t[..., 1:] - t[..., :1]
    if need_grad and grad_out is None:
        grad_out = np.empty(t.shape)
    # positives are sparse: evaluate the negative side everywhere, then
    # overwrite the gathered positive entries
    terms = _negative_terms(-dist, m, clamp, grad_out if need_grad else None, need_value)
    tp, gp = _positive_terms(dist[pos_idx], gamma[pos_idx[0]], need_grad, need_value)
    rows = None
    if need_value:
        terms[pos_idx] = tp
        rows = terms.sum(axis=-1)
    if not need_grad:
        return rows, None
    ddist = grad_out[..., 1:]
    ddist[pos_idx] = gp
    grad_out[..., 0] = -ddist.sum(axis=-1)
    return rows, grad_out


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    mx = a.max(axis=1)
    return mx + np.log(np.exp(a - mx[:, None]).sum(axis=1))


class _AtlLabels(NamedTuple):    # ATL's label-only arrays for an (n, R) positive mask
    pos_rows: np.ndarray    # (p,) indices of the rows that hold a positive
    n_pos: np.ndarray       # (p, 1) their positive counts
    mask1: np.ndarray       # (p, R+1) their TH and positive columns
    mask2: np.ndarray       # (n, R+1) every row's TH and negative columns


def _atl_rows(t: np.ndarray, labels: _AtlLabels, need_grad: bool,
              need_value: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """ATL over the rows of t. The first softmax runs on rows that hold a
    positive only: on a positive-free row its term is 0 * z1 (z1 = t_TH for
    finite t), so that row's value is z2 - t_TH and its gradient the second
    softmax's, exactly as when the term is added."""
    pos_rows, n_pos, mask1, mask2 = labels
    t1 = t[pos_rows]
    a1 = np.where(mask1, t1, -np.inf)
    a2 = np.where(mask2, t, -np.inf)
    z1 = _logsumexp_rows(a1)
    z2 = _logsumexp_rows(a2)
    rows = None
    if need_value:
        # on positive-free rows n_pos * z1 minus the empty positive sum is
        # +-0.0 and z2 - t_TH is never -0.0, so adding it changes no bit
        rows = z2 - t[:, 0]
        rows[pos_rows] = ((n_pos[:, 0] * z1 - np.where(mask1[:, 1:], t1[:, 1:], 0.0).sum(axis=1))
                          + rows[pos_rows])
    if not need_grad:
        return rows, None
    grad = np.exp(a2 - z2[:, None])
    grad1 = n_pos * np.exp(a1 - z1[:, None]) + grad[pos_rows]
    grad1[:, 1:] -= mask1[:, 1:]
    grad[pos_rows] = grad1
    grad[:, 0] -= 1.0
    return rows, grad


def _plugin_rows(t: np.ndarray, pos_mask: np.ndarray, cfg: LossConfig, need_grad: bool,
                 need_value: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
    fns = get_loss(cfg)
    rows = np.empty(t.shape[0]) if need_value else None
    grad = np.empty_like(t) if need_grad else None
    for i, row_mask in enumerate(pos_mask):
        labels = LabelSet(t.shape[1] - 1, frozenset(np.flatnonzero(row_mask) + 1))
        if need_value:
            rows[i] = fns.value(t[i], labels, cfg)
        if need_grad:
            grad[i] = fns.grad(t[i], labels, cfg)
    return rows, grad


def _labels(kind: str, pos_mask: np.ndarray) -> tuple:
    """The label-only arrays of a non-cmm kind's kernel for an (n, R) positive
    mask: ATL's ``_AtlLabels`` and plain_margin's whole logit gradient, a
    constant of the labels (-1 on positives, +1 on negatives, the TH entry
    minus their row sum); none for a plugin. The trainer builds them once
    per document, ``batch_rows`` once per call."""
    if kind == "plain_margin":
        grad = np.empty((pos_mask.shape[0], pos_mask.shape[1] + 1))
        grad[:, 1:] = np.where(pos_mask, -1.0, 1.0)
        grad[:, 0] = -grad[:, 1:].sum(axis=1)
        return (grad,)
    if kind != "atl_reference":
        return ()
    n_pos = pos_mask.sum(axis=1)
    pos_rows = np.flatnonzero(n_pos)
    th_col = np.ones((len(pos_mask), 1), dtype=bool)
    return _AtlLabels(pos_rows, n_pos[pos_rows, None],
                      np.concatenate([th_col, pos_mask], axis=1)[pos_rows],
                      np.concatenate([th_col, ~pos_mask], axis=1))


def _label_rows(kind: str, t: np.ndarray, pos_mask: np.ndarray, labels: tuple,
                cfg: LossConfig, need_grad: bool, need_value: bool
                ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``batch_rows`` of a non-cmm kind, given ``_labels(kind, pos_mask)``."""
    if kind == "atl_reference":
        return _atl_rows(t, labels, need_grad, need_value)
    if kind == "plugin":
        return _plugin_rows(t, pos_mask, cfg, need_grad, need_value)
    rows = None
    if need_value:
        dist = t[:, 1:] - t[:, :1]
        rows = np.where(pos_mask, -dist, dist).sum(axis=1)
    return rows, (labels[0] if need_grad else None)


def batch_rows(kind: str, logits2d: np.ndarray, pos_mask: np.ndarray, cfg: LossConfig,
               need_grad: bool, need_value: bool = True
               ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Per-row loss values and dL/dlogits for a batch of pairs: (rows, grad).

    ``pos_mask`` is boolean (n, R), column j for relation j+1; every relation
    not in it is a negative. This is the one composition of every built-in
    kind, and the single-row functions below are batches of one. cmm runs
    its kernel on a stack of one arm; the other kinds build their
    ``_labels`` and call ``_label_rows``, as the trainer does with each
    document's cached labels. ``kind="plugin"`` calls the registered
    (value, gradient) pair row by row on label sets rebuilt from the mask.

    ``need_grad`` and ``need_value`` select the halves to compute; the other
    comes back as None. With ``need_value=False`` a kernel skips the work
    only the value needs (a plugin's value function is not called), and the
    gradient is computed by the same operations as with it, so it is
    bit-identical.
    """
    t = np.asarray(logits2d, dtype=np.float64)
    if kind == "cmm":
        rows, grad = _cmm_rows(t[None], np.nonzero(pos_mask[None]), *_cmm_arms([cfg]),
                               need_grad=need_grad, need_value=need_value)
        return (None if rows is None else rows[0]), (None if grad is None else grad[0])
    if kind not in LOSS_KINDS:
        raise ValueError(f"no loss kind {kind!r}")
    return _label_rows(kind, t, pos_mask, _labels(kind, pos_mask), cfg, need_grad, need_value)


# --- single-row operations (public surface) -------------------------------

def _checked_row(logits, labels: LabelSet) -> np.ndarray:
    """The finite 1-D float64 logit row of ``logits``, one entry per relation plus TH."""
    values = np.asarray(getattr(logits, "values", logits), dtype=np.float64)
    if values.ndim != 1:
        raise SchemaError(f"expected a 1-D logit row, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise NumericError("logit row contains non-finite values")
    if values.size != labels.relation_count + 1:
        raise SchemaError(
            f"logit row length {values.size} does not match relation_count "
            f"{labels.relation_count} (+1 for TH)"
        )
    return values


def _one_row(kind: str, logits, labels: LabelSet, cfg: LossConfig | None,
             need_grad: bool) -> float | np.ndarray:
    """batch_rows on a batch of one row: its gradient if ``need_grad``, else its value."""
    values = _checked_row(logits, labels)
    mask = np.zeros((1, values.size - 1), dtype=bool)
    mask[0, np.array(sorted(labels.positives), dtype=np.intp) - 1] = True
    rows, grads = batch_rows(kind, values[None, :], mask, cfg, need_grad,
                             need_value=not need_grad)
    return grads[0] if need_grad else float(rows[0])


def margin_distances(logits, labels: LabelSet) -> DistanceSet:
    """Signed distances of every labeled relation logit to the TH logit."""
    values = _checked_row(logits, labels)
    th = values[0]
    d_pos = {int(r): float(values[r] - th) for r in sorted(labels.positives)}
    d_neg = {int(r): float(th - values[r]) for r in sorted(labels.negatives)}
    return DistanceSet(d_pos=d_pos, d_neg=d_neg)


def plain_margin_loss(logits, labels: LabelSet, cfg: LossConfig | None = None) -> float:
    """Sum of negated distances over positives and negatives; unbounded below."""
    return _one_row("plain_margin", logits, labels, cfg, need_grad=False)


def plain_margin_grad(logits, labels: LabelSet, cfg: LossConfig | None = None) -> np.ndarray:
    """Gradient of plain_margin_loss: -1 on positives, +1 on negatives, |P|-|N| on TH."""
    return _one_row("plain_margin", logits, labels, cfg, need_grad=True)


def cmm_rescale(d: float, side: str, m: float | None = None) -> float:
    """Rescale one margin distance to log-sigmoid space.

    Positive side returns log(sigma(d)) in (-inf, 0); negative side returns
    log(min(sigma(d) + m, 1)) in (log m, 0], exactly 0 once sigma(d) + m >= 1.
    """
    if side == POSITIVE:
        return float(log_sigmoid(d))
    if side == NEGATIVE:
        if m is None or not 0.0 < m < 1.0:
            raise ValueError(f"negative side requires m in (0, 1), got {m}")
        _, arm_m, clamp = _cmm_arms([LossConfig(m=m)])
        term = _negative_terms(np.full((1, 1, 1), d, dtype=np.float64), arm_m, clamp)
        return 0.0 - float(term[0, 0, 0])   # +0.0, not -0.0, where the clamp zeroes the term
    raise ValueError(f"side must be {POSITIVE!r} or {NEGATIVE!r}, got {side!r}")


def _require_kind(cfg: LossConfig, kind: str) -> None:
    if cfg.kind != kind:
        raise ValueError(f"expected cfg.kind={kind!r}, got {cfg.kind!r}")


def cmm_loss(logits, labels: LabelSet, cfg: LossConfig) -> float:
    """Concentrated margin loss for one logit row; always >= 0.

    Positive terms -(1-q)**gamma * q focus weight on small distances; negative
    terms -log(min(sigma(d)+m, 1)) vanish once a negative is confidently
    separated. An empty positive set contributes nothing to the first sum.
    """
    _require_kind(cfg, "cmm")
    return _one_row("cmm", logits, labels, cfg, need_grad=False)


def cmm_loss_grad(logits, labels: LabelSet, cfg: LossConfig) -> np.ndarray:
    """Analytic gradient of cmm_loss with respect to every logit, TH included.

    The TH entry accumulates contributions of opposite sign from the two
    sides; a clamped negative contributes exactly zero everywhere.
    """
    _require_kind(cfg, "cmm")
    return _one_row("cmm", logits, labels, cfg, need_grad=True)


def cmm_positive_term(d, gamma: float) -> np.ndarray:
    """Per-relation positive loss term -(1-q)**gamma * q at distance(s) d."""
    term, _ = _positive_terms(d, gamma, need_grad=False)
    return term


def atl_reference_loss(logits, labels: LabelSet, cfg: LossConfig | None = None) -> float:
    """Adaptive-threshold softmax baseline.

    Each positive logit is log-softmaxed against positives-plus-TH, and the
    TH logit against negatives-plus-TH; the loss is the sum of the negated
    log-probabilities. Nonnegative; zero in the fully separated limit.
    """
    return _one_row("atl_reference", logits, labels, cfg, need_grad=False)


def atl_reference_grad(logits, labels: LabelSet, cfg: LossConfig | None = None) -> np.ndarray:
    """Analytic gradient of atl_reference_loss (softmax derivatives)."""
    return _one_row("atl_reference", logits, labels, cfg, need_grad=True)


# --- pluggable loss interface ---------------------------------------------

class LossFunctions(NamedTuple):
    value: Callable[..., float]
    grad: Callable[..., np.ndarray]


_BUILTIN: dict[str, LossFunctions] = {
    "plain_margin": LossFunctions(plain_margin_loss, plain_margin_grad),
    "cmm": LossFunctions(cmm_loss, cmm_loss_grad),
    "atl_reference": LossFunctions(atl_reference_loss, atl_reference_grad),
}

_PLUGINS: dict[str, LossFunctions] = {}


def register_loss(name: str, value_fn: Callable[..., float],
                  grad_fn: Callable[..., np.ndarray]) -> None:
    """Register an external (value, gradient) pair usable via kind='plugin'.

    Each takes (logits, labels, cfg) for one row. ``batch_rows`` calls
    ``value_fn`` only when values are asked for: the trainer asks in the
    epochs that record a trace row, and calls ``grad_fn`` in every step.
    """
    if name in _BUILTIN:
        raise ValueError(f"{name!r} shadows a built-in loss")
    _PLUGINS[name] = LossFunctions(value_fn, grad_fn)


def get_loss(cfg: LossConfig) -> LossFunctions:
    """Resolve cfg to a (value, gradient) pair, each taking (logits, labels, cfg)."""
    if cfg.kind == "plugin":
        try:
            return _PLUGINS[cfg.plugin]  # type: ignore[index]
        except KeyError:
            raise ValueError(f"no registered plugin loss named {cfg.plugin!r}") from None
    return _BUILTIN[cfg.kind]
