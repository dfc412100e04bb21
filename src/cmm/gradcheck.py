"""Finite-difference oracle and randomized gradient verification.

The oracle is a central difference (L(t + h e_i) - L(t - h e_i)) / 2h over
every logit coordinate, TH included. It is kept deliberately independent of
the analytic gradient path: it only ever calls a loss *value* function, once
per logit row, on the stacked 2n probes of all n coordinates.

Trials near the negative-side clamp boundary d = log((1-m)/m) are excluded
coordinate-wise: the min() there is non-differentiable, so a one-sided
disagreement between subgradient and difference quotient is expected, not a
bug. The number of excluded coordinates is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import NumericError
# cmm_loss is not called here; the benchmark's traced replay wraps this module's name
from .loss import (GAMMA_GRID, M_GRID, LossConfig, batch_rows, clamp_distance,  # noqa: F401
                   cmm_loss, cmm_loss_grad)
from .schema import LabelSet, require_finite, require_int

# one trial's probe matrix is (2R+2, R+1) float64: about 16 MiB at this R
MAX_RELATIONS = 1024


def relative_error(a, n):
    """|a - n| / max(1, |a|, |n|), elementwise; bounded at near-zero gradients."""
    a, n = np.asarray(a, dtype=np.float64), np.asarray(n, dtype=np.float64)
    return np.abs(a - n) / np.maximum(np.maximum(1.0, np.abs(a)), np.abs(n))


def _require_step(step) -> None:
    require_finite("step", step)
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")


def finite_difference(value_rows: Callable[[np.ndarray], np.ndarray], logits,
                      step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate over every coordinate of one logit row.

    ``value_rows`` maps a (k, n) matrix of logit rows to their k loss values.
    It is called once, on the n rows with coordinate i moved up by ``step``
    followed by the n rows with it moved down.
    """
    _require_step(step)
    values = np.asarray(getattr(logits, "values", logits), dtype=np.float64)
    n = values.size
    diag = np.arange(n)
    probes = np.tile(values, (2 * n, 1))
    probes[diag, diag] = values + step
    probes[n + diag, diag] = values - step
    scores = np.asarray(value_rows(probes), dtype=np.float64)
    up, down = scores[:n], scores[n:]
    bad = ~(np.isfinite(up) & np.isfinite(down))
    if bad.any():
        raise NumericError(f"non-finite loss evaluation at coordinate {int(np.argmax(bad))}")
    return (up - down) / (2.0 * step)


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
    by index. Label sets include empty-positive cases. Each trial makes one
    ``cmm_loss_grad`` call and one batched value call for its numeric side.
    """
    require_int("trials", trials, 1)
    require_finite("tolerance", tolerance)
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    _require_step(step)
    lo, hi = logit_range
    require_finite("logit_range[0]", lo)
    require_finite("logit_range[1]", hi)
    if not (lo < hi and math.isfinite(float(hi) - float(lo))):
        raise ValueError(f"logit_range must have lo < hi and a finite width, "
                         f"got {list(logit_range)}")
    relation_counts = tuple(relation_counts)
    if not relation_counts:
        raise ValueError("relation_counts must not be empty")
    for r_count in relation_counts:
        require_int("relation_counts entry", r_count, 1)
        if r_count > MAX_RELATIONS:
            raise ValueError(f"relation_counts entries must be <= {MAX_RELATIONS}, "
                             f"got {r_count}")
    gammas, ms = tuple(gammas), tuple(ms)
    if not (gammas and ms):
        raise ValueError("gammas and ms must not be empty")
    for name, grid in (("gammas", gammas), ("ms", ms)):
        for v in grid:
            require_finite(f"{name} entry", v)
    cfgs = [[LossConfig(kind="cmm", gamma=float(g), m=float(m)) for m in ms] for g in gammas]

    max_err = 0.0
    excluded = 0
    failures: list[GradCheckFailure] = []
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        r_count = int(relation_counts[rng.integers(len(relation_counts))])
        values = rng.uniform(lo, hi, size=r_count + 1)
        # column j is relation j+1; rng.random(R) reads the stream as R single draws do
        pos_mask = (np.zeros(r_count, dtype=bool) if rng.random() < empty_positive_rate
                    else rng.random(r_count) < positive_rate)
        cfg = cfgs[rng.integers(len(gammas))][rng.integers(len(ms))]
        positives = tuple((np.flatnonzero(pos_mask) + 1).tolist())

        analytic = cmm_loss_grad(values, LabelSet(r_count, frozenset(positives)), cfg)
        probe_mask = np.broadcast_to(pos_mask, (2 * r_count + 2, r_count))
        numeric = finite_difference(
            lambda probes: batch_rows("cmm", probes, probe_mask, cfg, need_grad=False)[0],
            values, step=step)

        # coordinates whose difference quotient straddles the clamp kink;
        # perturbing TH shifts the same distance
        near = ~pos_mask & (np.abs((values[0] - values[1:]) - clamp_distance(cfg.m))
                            <= 10.0 * step)
        kept = ~np.concatenate(([near.any()], near))
        excluded += r_count + 1 - int(kept.sum())

        trial_err = float(relative_error(analytic[kept], numeric[kept]).max(initial=0.0))
        max_err = max(max_err, trial_err)
        if trial_err > tolerance:
            failures.append(GradCheckFailure(
                trial=trial,
                relation_count=r_count,
                gamma=cfg.gamma,
                m=cfg.m,
                logits=tuple(values.tolist()),
                positives=positives,
                analytic=tuple(analytic.tolist()),
                numeric=tuple(numeric.tolist()),
                rel_error=trial_err,
            ))

    return GradCheckReport(trials=trials, tolerance=tolerance, seed=seed, step=step,
                           max_rel_error=max_err, excluded_coords=excluded,
                           failures=tuple(failures))
