"""Adaptive-threshold decoding, micro/Ign-F1, and analysis-table exports.

Decoding is strict: a relation is predicted iff its logit exceeds the TH
logit; ties go negative, and an empty prediction set means NA. Ign-F1
removes every (pair, relation) fact flagged seen-in-train from both the
predictions and the gold side before recounting. The exports build table
rows under the headers ``CURVE_HEADER`` and ``POSITIVES_HEADER``; the CLI
writes them with ``schema.write_csv``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import NumericError, SchemaError
from .loss import GAMMA_GRID, cmm_positive_term
from .schema import require_finite

CURVE_HEADER = ("d", "gamma", "loss_pos")
POSITIVES_HEADER = ("epoch", "arm", "positives")

# Per-pair predictions and gold labels, keyed by pair_id.
Predictions = Mapping[str, frozenset[int]]


@dataclass(frozen=True)
class MetricsRecord:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    ign_f1: float

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def decode(logits) -> frozenset[int]:
    """Relations whose logit strictly exceeds the TH logit; empty set = NA."""
    values = np.asarray(getattr(logits, "values", logits), dtype=np.float64)
    return frozenset(int(j) for j in np.nonzero(values[1:] > values[0])[0] + 1)


def decode_counts(logits2d: np.ndarray) -> int:
    """Total number of predicted positive (pair, relation) facts in a batch."""
    t = np.asarray(logits2d, dtype=np.float64)
    return int((t[:, 1:] > t[:, :1]).sum())


def mask_metrics(logits: np.ndarray, gold: np.ndarray, seen: np.ndarray) -> MetricsRecord:
    """Micro P/R/F1 of decoded (n, R+1) logits against (n, R) gold, plus Ign-F1.

    Equal to micro_f1 and ign_f1 over decode-built prediction dicts; ign_f1
    removes the facts flagged in ``seen`` from both sides. NumericError if a
    logit is not finite, which no decoded fact would account for.
    """
    t = np.asarray(logits, dtype=np.float64)
    if t.shape != (gold.shape[0], gold.shape[1] + 1):
        raise SchemaError(f"logits of shape {t.shape} do not match gold of shape {gold.shape}")
    if not np.isfinite(t).all():
        raise NumericError("logits to score are not all finite")
    pred = t[:, 1:] > t[:, :1]
    hit = pred & gold
    kept = ~seen
    tp, ign_tp = _count(hit), _count(hit & kept)
    micro = _record(tp, _count(pred) - tp, _count(gold) - tp)
    ign = _record(ign_tp, _count(pred & kept) - ign_tp, _count(gold & kept) - ign_tp)
    return replace(micro, ign_f1=ign.f1)


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))


def _check_pair_sets(predictions: Predictions, gold: Predictions) -> None:
    if set(predictions) != set(gold):
        missing = sorted(set(gold) - set(predictions))[:3]
        extra = sorted(set(predictions) - set(gold))[:3]
        raise SchemaError(f"prediction and gold pair sets differ "
                          f"(missing e.g. {missing}, extra e.g. {extra})")


def _counts(predictions: Predictions, gold: Predictions) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for pair_id, pred in predictions.items():
        g = gold[pair_id]
        tp += len(pred & g)
        fp += len(pred - g)
        fn += len(g - pred)
    return tp, fp, fn


def _record(tp: int, fp: int, fn: int) -> MetricsRecord:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsRecord(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall,
                         f1=f1, ign_f1=f1)


def micro_f1(predictions: Predictions, gold: Predictions) -> MetricsRecord:
    """Micro-averaged precision/recall/F1 over all (pair, relation) facts."""
    _check_pair_sets(predictions, gold)
    return _record(*_counts(predictions, gold))


def ign_f1(predictions: Predictions, gold: Predictions,
           seen_in_train: Mapping[str, frozenset[int]]) -> MetricsRecord:
    """micro_f1 after removing flagged facts from both predictions and gold.

    With no flags set this is bitwise-identical to micro_f1.
    """
    _check_pair_sets(predictions, gold)
    filtered_pred = {}
    filtered_gold = {}
    for pair_id, pred in predictions.items():
        flags = seen_in_train.get(pair_id, frozenset())
        filtered_pred[pair_id] = pred - flags
        filtered_gold[pair_id] = gold[pair_id] - flags
    return _record(*_counts(filtered_pred, filtered_gold))


# --- analysis-table exports ------------------------------------------------

def positive_count_trace(traces: Mapping[str, Sequence[Any]]) -> list[tuple[int, str, int]]:
    """(epoch, arm, positives) rows per training arm, ordered by arm then epoch."""
    rows = []
    for arm in sorted(traces):
        for rec in traces[arm]:
            rows.append((int(rec.epoch), arm, int(rec.dev_positives)))
    return rows


def default_d_grid(low: float = -5.0, high: float = 5.0, step: float = 0.05) -> np.ndarray:
    if not step > 0.0:
        raise ValueError(f"d step must be > 0, got {step}")
    try:
        for name, value in (("d_min", low), ("d_max", high), ("d_step", step)):
            require_finite(name, value)
        n_low, n_high = round(low / step), round(high / step)
        # re-round so grid points print as short decimals in the exported CSV
        return np.round(np.arange(n_low, n_high + 1) * step, 12)
    except (ValueError, OverflowError, MemoryError) as exc:
        # a bound or step that is no finite number, an infinite point count, or more
        # points than numpy will allocate
        raise ValueError(f"no d grid from {low} to {high} in steps of {step} "
                         f"({type(exc).__name__}: {exc})") from None


def curve_export(gammas: Sequence[float] = GAMMA_GRID, d_grid: Sequence[float] | None = None
                 ) -> list[tuple[float, float, float]]:
    """(d, gamma, positive-term value) rows over the distance grid; the positive
    term of the concentrated loss does not depend on m."""
    grid = default_d_grid() if d_grid is None else np.asarray(d_grid, dtype=np.float64)
    if not np.all(np.isfinite(grid)):
        raise ValueError("d grid must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("d grid must be strictly increasing")
    rows = []
    for gamma in gammas:
        terms = cmm_positive_term(grid, float(gamma))
        for d, term in zip(grid, terms):
            rows.append((float(d), float(gamma), float(term)))
    return rows
