"""Finite-difference oracle and randomized gradient verification.

The oracle is a central difference (L(t + h e_i) - L(t - h e_i)) / 2h over
every logit coordinate, TH included. It is kept deliberately independent of
the analytic gradient path: it only ever calls a loss *value* function, once
per stack of logit rows, on the 2n probes of all n coordinates of each row.
``check_gradients`` scores all trials of one relation count together (in
chunks of bounded size) with the stacked cmm kernel that training runs: each
trial is one arm, and its positives, and those of its probes, go in as flat
positions in the stack (``np.flatnonzero`` of the stacked positive mask).

Trials near the negative-side clamp boundary d = log((1-m)/m) are excluded
coordinate-wise: the min() there is non-differentiable, so a one-sided
disagreement between subgradient and difference quotient is expected, not a
bug. The number of excluded coordinates is reported.

Trials read one ``np.random.default_rng(seed)`` stream per run: trial t
draws row t of a (trials, 2 max(R) + 4) array of uniforms, so its draws
depend only on the seed, t and the config, not on how many trials run or
how they are drawn and scored together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .errors import NumericError
# cmm_loss is not called here; the benchmark's traced replay wraps this module's name
from .loss import (GAMMA_GRID, M_GRID, LossConfig, _cmm_arms, _cmm_rows,  # noqa: F401
                   cmm_loss, loss_grid)
from .schema import require_finite, require_int

# one trial's probe matrix is (2R+2, R+1) float64: about 16 MiB at this R
MAX_RELATIONS = 1024
# trials of one relation count are scored in chunks whose probe stacks hold at
# most this many floats (1 MiB; 16 MiB stacks ran up to 2x slower per trial at
# R = 64-256). A larger trial is scored alone, so no stack outgrows one trial
# at MAX_RELATIONS.
PROBE_STACK_FLOATS = 2 ** 17
# trials are drawn and scored a block at a time; a block draws at most this many
# uniforms (1 MiB), or is one trial if that trial needs more
WORD_BLOCK = 2 ** 17


def _index(u: np.ndarray, k: int) -> np.ndarray:
    """floor(u * k) for uniforms u in [0, 1): an index below k, since u * k rounds below k for k <= 2^53."""
    return (u * k).astype(np.intp)


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
    """Central-difference gradient estimate over every coordinate of each logit row.

    ``logits`` is one row of n values or a stack (..., n) of rows.
    ``value_rows`` maps the (..., 2n, n) stack of probe rows to their
    (..., 2n) loss values. It is called once; each row's probes are the n
    rows with coordinate i moved up by ``step`` followed by the n rows with
    it moved down. A non-finite value raises NumericError naming the
    coordinate of the first row, in stack order, that has one; the
    exception's ``row`` is that row's flat index in the stack.
    """
    _require_step(step)
    values = np.asarray(getattr(logits, "values", logits), dtype=np.float64)
    n = values.shape[-1]
    diag = np.arange(n)
    probes = np.repeat(values[..., None, :], 2 * n, axis=-2)
    probes[..., diag, diag] = values + step
    probes[..., n + diag, diag] = values - step
    scores = np.asarray(value_rows(probes), dtype=np.float64)
    up, down = scores[..., :n], scores[..., n:]
    bad = ~(np.isfinite(up) & np.isfinite(down)).reshape(-1, n)
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        exc = NumericError(f"non-finite loss evaluation at coordinate {int(np.argmax(bad[row]))}")
        exc.row = row
        raise exc
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
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in vars(self).items()}


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
        return {**{name: value for name, value in vars(self).items() if name != "failures"},
                "n_failures": len(self.failures), "failures": [f.to_dict() for f in self.failures]}


def check_gradients(trials: int = 1000, tolerance: float = 1e-5, seed: int = 0,
                    gammas: Sequence[float] = GAMMA_GRID, ms: Sequence[float] = M_GRID,
                    logit_range: tuple[float, float] = (-8.0, 8.0),
                    relation_counts: Sequence[int] = (2, 3, 4, 6, 8, 10),
                    step: float = 1e-5, empty_positive_rate: float = 0.2,
                    positive_rate: float = 0.35) -> GradCheckReport:
    """Compare analytic and numeric cmm gradients over randomized trials.

    One ``default_rng(seed)`` stream is read a row of 2 max(R) + 4 uniforms
    per trial, in trial order: the relation count, max(R) + 1 logits, the
    empty-positive draw, max(R) positive draws and the (gamma, m) arm. A
    trial reads the first R + 1 logits and R positive draws. Reports are
    deterministic, and a run of N trials is a prefix of a longer one. Label
    sets include empty-positive cases. Trials are drawn a block at a time,
    and a block's trials with one relation count are scored in chunks, each
    with one analytic call of the stacked cmm kernel the trainer runs for
    its arms (per-trial gamma, m and clamp) and one value call on the
    chunk's central-difference probes. The report lists failures in trial
    order; a non-finite probe raises NumericError for the first such trial.
    """
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)
    require_finite("tolerance", tolerance)
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    _require_step(step)
    if not (isinstance(logit_range, (list, tuple)) and len(logit_range) == 2):
        raise TypeError(f"logit_range must be a list of two numbers, got {logit_range!r}")
    lo, hi = logit_range
    require_finite("logit_range[0]", lo)
    require_finite("logit_range[1]", hi)
    if not (lo < hi and math.isfinite(float(hi) - float(lo))):
        raise ValueError(f"logit_range must have lo < hi and a finite width, "
                         f"got {list(logit_range)}")
    lo, hi = float(lo), float(hi)
    if not isinstance(relation_counts, (list, tuple)):
        raise TypeError(f"relation_counts must be a list of integers, got {relation_counts!r}")
    if not relation_counts:
        raise ValueError("relation_counts must not be empty")
    for r_count in relation_counts:
        require_int("relation_counts entry", r_count, 1)
        if r_count > MAX_RELATIONS:
            raise ValueError(f"relation_counts entries must be <= {MAX_RELATIONS}, "
                             f"got {r_count}")
    for name, rate in (("empty_positive_rate", empty_positive_rate),
                       ("positive_rate", positive_rate)):
        require_finite(name, rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {rate}")
    gammas, ms = loss_grid(gammas, ms)
    if not (gammas and ms):
        raise ValueError("gammas and ms must not be empty")
    arms = [LossConfig(kind="cmm", gamma=float(g), m=float(m)) for g in gammas for m in ms]
    arm_gamma, arm_m, arm_clamp = _cmm_arms(arms)

    # each block's trials are scored with one analytic and one value kernel call
    # per chunk of trials with one relation count
    counts = np.array(relation_counts, dtype=np.intp)
    r_max = int(counts.max())
    width = 2 * r_max + 4      # uniforms of one trial's row
    block = max(1, WORD_BLOCK // width)
    rng = np.random.default_rng(seed)
    max_error, excluded, failures = 0.0, 0, []
    for first in range(0, trials, block):
        u = rng.random((min(block, trials - first), width))
        r_counts = counts[_index(u[:, 0], len(counts))]
        logits = lo + (hi - lo) * u[:, 1:r_max + 2]
        empty = u[:, r_max + 2] < empty_positive_rate
        positives = (u[:, r_max + 3:-1] < positive_rate) & ~empty[:, None]
        arm = _index(u[:, -1], len(arms))
        first_bad = None
        for n in np.unique(r_counts + 1).tolist():
            members = np.flatnonzero(r_counts + 1 == n)
            size = max(1, PROBE_STACK_FLOATS // (2 * n * n))
            for chunk in (members[i:i + size] for i in range(0, len(members), size)):
                values, pos_mask = logits[chunk, :n], positives[chunk, :n - 1]
                gamma, m, clamp = arm_gamma[arm[chunk]], arm_m[arm[chunk]], arm_clamp[arm[chunk]]
                _, grads = _cmm_rows(values[:, None, :], np.flatnonzero(pos_mask), gamma, m,
                                     clamp, need_grad=True, need_value=False)
                probe_pos = np.flatnonzero(np.broadcast_to(pos_mask[:, None, :],
                                                           (len(chunk), 2 * n, n - 1)))
                try:
                    numeric = finite_difference(
                        lambda probes: _cmm_rows(probes, probe_pos, gamma, m, clamp,
                                                 need_grad=False)[0],
                        values, step=step)
                except NumericError as exc:     # raised below for the block's first such trial
                    if first_bad is None or chunk[exc.row] < first_bad[0]:
                        first_bad = (chunk[exc.row], exc)
                    continue
                # coordinates whose difference quotient straddles the clamp kink;
                # perturbing TH shifts the same distance
                near = ~pos_mask & (np.abs((values[:, :1] - values[:, 1:]) - clamp[:, 0])
                                    <= 10.0 * step)
                kept = ~np.concatenate((near.any(axis=1, keepdims=True), near), axis=1)
                excluded += int((~kept).sum())
                err = np.where(kept, relative_error(grads[:, 0], numeric), 0.0).max(axis=1)
                # NaN errors count as no failure and do not raise the maximum
                max_error = float(np.fmax.reduce(err, initial=max_error))
                for i in np.flatnonzero(err > tolerance).tolist():
                    cfg = arms[arm[chunk[i]]]
                    failures.append(GradCheckFailure(
                        trial=first + int(chunk[i]), relation_count=n - 1, gamma=cfg.gamma,
                        m=cfg.m, logits=tuple(values[i].tolist()),
                        positives=tuple((np.flatnonzero(pos_mask[i]) + 1).tolist()),
                        analytic=tuple(grads[i, 0].tolist()), numeric=tuple(numeric[i].tolist()),
                        rel_error=float(err[i])))
        if first_bad is not None:
            raise first_bad[1]

    failures.sort(key=lambda failure: failure.trial)
    return GradCheckReport(trials=trials, tolerance=tolerance, seed=seed, step=step,
                           max_rel_error=max_error,
                           excluded_coords=excluded, failures=tuple(failures))
