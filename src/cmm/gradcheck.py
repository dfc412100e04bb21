"""Finite-difference oracle and randomized gradient verification.

The oracle is a central difference (L(t + h e_i) - L(t - h e_i)) / 2h over
every logit coordinate, TH included. It is kept deliberately independent of
the analytic gradient path: it only ever calls a loss *value* function.

Trials near the negative-side clamp boundary d = log((1-m)/m) are excluded
coordinate-wise: the min() there is non-differentiable, so a one-sided
disagreement between subgradient and difference quotient is expected, not a
bug. The number of excluded coordinates is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import NumericError
from .loss import GAMMA_GRID, M_GRID, LossConfig, clamp_distance, cmm_loss, cmm_loss_grad
from .schema import LabelSet, LogitRow, require_int


def relative_error(a: float, n: float) -> float:
    """|a - n| / max(1, |a|, |n|); bounded at near-zero gradients."""
    return abs(a - n) / max(1.0, abs(a), abs(n))


def finite_difference(loss_fn: Callable[..., float], logits, labels: LabelSet,
                      cfg: LossConfig, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate over every coordinate."""
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    values = np.asarray(getattr(logits, "values", logits), dtype=np.float64)
    grad = np.zeros_like(values)
    for i in range(values.size):
        probe = values.copy()
        probe[i] = values[i] + step
        up = loss_fn(probe, labels, cfg)
        probe[i] = values[i] - step
        down = loss_fn(probe, labels, cfg)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError(f"non-finite loss evaluation at coordinate {i}")
        grad[i] = (up - down) / (2.0 * step)
    return grad


@dataclass(frozen=True)
class GradCheckFailure:
    trial: int
    relation_count: int
    gamma: float
    m: float
    logits: tuple[float, ...]
    positives: tuple[int, ...]
    analytic: tuple[float, ...]
    numeric: tuple[float, ...]
    rel_error: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "trial": self.trial,
            "relation_count": self.relation_count,
            "gamma": self.gamma,
            "m": self.m,
            "logits": list(self.logits),
            "positives": list(self.positives),
            "analytic": list(self.analytic),
            "numeric": list(self.numeric),
            "rel_error": self.rel_error,
        }


@dataclass(frozen=True)
class GradCheckReport:
    trials: int
    tolerance: float
    seed: int
    step: float
    max_rel_error: float
    excluded_coords: int
    failures: tuple[GradCheckFailure, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "trials": self.trials,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "step": self.step,
            "max_rel_error": self.max_rel_error,
            "excluded_coords": self.excluded_coords,
            "n_failures": len(self.failures),
            "failures": [f.to_dict() for f in self.failures],
        }


def check_gradients(trials: int = 1000, tolerance: float = 1e-5, seed: int = 0,
                    gammas: Sequence[float] = GAMMA_GRID, ms: Sequence[float] = M_GRID,
                    logit_range: tuple[float, float] = (-8.0, 8.0),
                    relation_counts: Sequence[int] = (2, 3, 4, 6, 8, 10),
                    step: float = 1e-5, empty_positive_rate: float = 0.2,
                    positive_rate: float = 0.35) -> GradCheckReport:
    """Compare analytic and numeric cmm gradients over randomized trials.

    Each trial draws its own RNG stream from (seed, trial index), so reports
    are deterministic and trials could be evaluated in parallel and merged
    by index. Label sets include empty-positive cases.
    """
    require_int("trials", trials, 1)
    lo, hi = logit_range
    gammas = tuple(gammas)
    ms = tuple(ms)
    relation_counts = tuple(relation_counts)

    max_err = 0.0
    excluded = 0
    failures: list[GradCheckFailure] = []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        r_count = int(relation_counts[rng.integers(len(relation_counts))])
        values = rng.uniform(lo, hi, size=r_count + 1)
        if rng.random() < empty_positive_rate:
            positives: frozenset[int] = frozenset()
        else:
            positives = frozenset(
                int(r) for r in range(1, r_count + 1) if rng.random() < positive_rate
            )
        labels = LabelSet(r_count, positives)
        cfg = LossConfig(kind="cmm", gamma=float(gammas[rng.integers(len(gammas))]),
                         m=float(ms[rng.integers(len(ms))]))

        row = LogitRow(values)
        analytic = cmm_loss_grad(row, labels, cfg)
        numeric = finite_difference(cmm_loss, row, labels, cfg, step=step)

        # coordinates whose difference quotient straddles the clamp kink
        dc = clamp_distance(cfg.m)
        skip = np.zeros(r_count + 1, dtype=bool)
        for r in sorted(labels.negatives):
            if abs((values[0] - values[r]) - dc) <= 10.0 * step:
                skip[r] = True
                skip[0] = True  # perturbing TH shifts the same distance
        excluded += int(skip.sum())

        trial_err = 0.0
        for i in range(r_count + 1):
            if skip[i]:
                continue
            trial_err = max(trial_err, relative_error(float(analytic[i]), float(numeric[i])))
        max_err = max(max_err, trial_err)
        if trial_err > tolerance:
            failures.append(GradCheckFailure(
                trial=trial,
                relation_count=r_count,
                gamma=cfg.gamma,
                m=cfg.m,
                logits=tuple(float(v) for v in values),
                positives=tuple(sorted(positives)),
                analytic=tuple(float(v) for v in analytic),
                numeric=tuple(float(v) for v in numeric),
                rel_error=trial_err,
            ))

    return GradCheckReport(trials=trials, tolerance=tolerance, seed=seed, step=step,
                           max_rel_error=max_err, excluded_coords=excluded,
                           failures=tuple(failures))
