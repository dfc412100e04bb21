"""Finite-difference oracle and randomized gradient verification.

The oracle is a central difference (L(t + h e_i) - L(t - h e_i)) / 2h over
every logit coordinate, TH included. It is kept deliberately independent of
the analytic gradient path: it only ever calls a loss *value* function, once
per stack of logit rows, on the 2n probes of all n coordinates of each row.
``check_gradients`` scores all trials of one relation count together (in
chunks of bounded size) with the stacked cmm kernel that training runs.

Trials near the negative-side clamp boundary d = log((1-m)/m) are excluded
coordinate-wise: the min() there is non-differentiable, so a one-sided
disagreement between subgradient and difference quotient is expected, not a
bug. The number of excluded coordinates is reported.

Each trial draws from ``default_rng((seed, trial))``'s stream. ``trial_rngs``
builds those generators without a ``SeedSequence`` per trial: it derives the
PCG64 seed words of a block of trials at once, with SeedSequence's hash
mixing (NEP 19) run as uint32 array arithmetic, and lets PCG64 seed itself
from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
# trials whose generator seeds are derived together; bounds the derivation's arrays
SEED_BLOCK = 4096

# numpy's SeedSequence constants (pool of 4 uint32 words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _int_words(n: int) -> list[int]:
    """n's 32-bit words, least significant first, as SeedSequence splits an int (0 is [0])."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class _Hash:
    """SeedSequence's hashmix over uint32 arrays; one multiplier stream per instance."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg64_words(seed: int, trials: Sequence[int]) -> np.ndarray:
    """(len(trials), 4) uint64: SeedSequence((seed, t)).generate_state(4, np.uint64) per t.

    The entropy of (seed, t) is seed's words followed by t's words. Rows are
    padded with zero words to the widest: SeedSequence hashes the missing
    words of its 4-word pool as zeros, so padding up to four words changes
    nothing, and beyond four words each row mixes in only its own words.
    """
    head = _int_words(seed)
    width = len(_int_words(max(trials)))
    tail = np.frombuffer(b"".join(t.to_bytes(4 * width, "little") for t in trials),
                         dtype="<u4").reshape(len(trials), width).astype(np.uint32)
    # seed's words, then t's up to its highest nonzero word (t = 0 is one word)
    lengths = len(head) + 1 + np.where(tail != 0, np.arange(width), 0).max(axis=1)
    columns = [np.full(len(trials), word, dtype=np.uint32) for word in head] + list(tail.T)
    columns += [np.zeros(len(trials), dtype=np.uint32)] * (4 - len(columns))
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(columns[i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(columns)):
        for dst in range(4):
            pool[dst] = np.where(src < lengths, _mix(pool[dst], hashmix(columns[src])),
                                 pool[dst])
    hashmix = _Hash(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return np.stack([state[2 * k] | state[2 * k + 1] << np.uint64(32) for k in range(4)],
                    axis=1)


class _SeedWords(ISeedSequence):
    """The seed words SeedSequence would give PCG64, derived ahead of time."""
    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words hold 4 uint64 words, asked for {n_words} "
                             f"{np.dtype(dtype)}")
        return self.words


def trial_rngs(seed: int, trials: Sequence[int]) -> Iterator[np.random.Generator]:
    """A generator equal to ``np.random.default_rng((seed, t))`` for each t in trials.

    ``seed`` and the trial indices are integers >= 0. Seed words are derived
    ``SEED_BLOCK`` trials at a time.
    """
    for start in range(0, len(trials), SEED_BLOCK):
        for words in _pcg64_words(seed, trials[start:start + SEED_BLOCK]):
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


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
    are deterministic and do not depend on how trials are scored together.
    Label sets include empty-positive cases. Trials with one relation count
    are scored in chunks, each with one analytic call of the stacked cmm
    kernel the trainer runs for its arms (per-trial gamma, m and clamp) and
    one value call on the chunk's central-difference probes. The report
    lists failures in trial order; a non-finite probe raises NumericError
    for the first such trial.
    """
    require_int("trials", trials, 1)
    require_int("seed", seed, 0)
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
    gammas, ms = loss_grid(gammas, ms)
    if not (gammas and ms):
        raise ValueError("gammas and ms must not be empty")
    cfgs = [[LossConfig(kind="cmm", gamma=float(g), m=float(m)) for m in ms] for g in gammas]

    # draw: every trial from its own stream
    drawn = []
    for rng in trial_rngs(int(seed), range(trials)):
        r_count = int(relation_counts[rng.integers(len(relation_counts))])
        values = rng.uniform(lo, hi, size=r_count + 1)
        # column j is relation j+1; rng.random(R) reads the stream as R single draws do
        pos_mask = (np.zeros(r_count, dtype=bool) if rng.random() < empty_positive_rate
                    else rng.random(r_count) < positive_rate)
        drawn.append((values, pos_mask, cfgs[rng.integers(len(gammas))][rng.integers(len(ms))]))

    # score: one analytic and one value kernel call per chunk of trials with one
    # relation count
    scored, excluded, first_bad = [None] * trials, 0, None
    groups: dict[int, list[int]] = {}
    for trial, (values, _, _) in enumerate(drawn):
        groups.setdefault(values.size, []).append(trial)
    for n, members in groups.items():
        size = max(1, PROBE_STACK_FLOATS // (2 * n * n))
        for chunk in (members[i:i + size] for i in range(0, len(members), size)):
            values = np.stack([drawn[t][0] for t in chunk])
            pos_mask = np.stack([drawn[t][1] for t in chunk])
            gamma, m, clamp = _cmm_arms([drawn[t][2] for t in chunk])
            _, grads = _cmm_rows(values[:, None, :], np.nonzero(pos_mask[:, None, :]),
                                 gamma, m, clamp, need_grad=True, need_value=False)
            probe_pos = np.nonzero(np.broadcast_to(pos_mask[:, None, :],
                                                   (len(chunk), 2 * n, n - 1)))
            try:
                numeric = finite_difference(
                    lambda probes: _cmm_rows(probes, probe_pos, gamma, m, clamp,
                                             need_grad=False)[0],
                    values, step=step)
            except NumericError as exc:     # raised below for the first such trial
                if first_bad is None or chunk[exc.row] < first_bad[0]:
                    first_bad = (chunk[exc.row], exc)
                continue
            # coordinates whose difference quotient straddles the clamp kink;
            # perturbing TH shifts the same distance
            near = ~pos_mask & (np.abs((values[:, :1] - values[:, 1:]) - clamp[:, 0])
                                <= 10.0 * step)
            kept = ~np.concatenate((near.any(axis=1, keepdims=True), near), axis=1)
            excluded += int((~kept).sum())
            errors = np.where(kept, relative_error(grads[:, 0], numeric), 0.0).max(axis=1)
            for trial, *result in zip(chunk, grads[:, 0], numeric, errors.tolist()):
                scored[trial] = result
    if first_bad is not None:
        raise first_bad[1]

    # report, in trial order
    failures = tuple(
        GradCheckFailure(trial=trial, relation_count=values.size - 1, gamma=cfg.gamma, m=cfg.m,
                         logits=tuple(values.tolist()),
                         positives=tuple((np.flatnonzero(pos_mask) + 1).tolist()),
                         analytic=tuple(analytic.tolist()), numeric=tuple(numeric.tolist()),
                         rel_error=err)
        for trial, ((values, pos_mask, cfg), (analytic, numeric, err))
        in enumerate(zip(drawn, scored)) if err > tolerance)
    return GradCheckReport(trials=trials, tolerance=tolerance, seed=seed, step=step,
                           max_rel_error=max(0.0, *(err for *_, err in scored)),
                           excluded_coords=excluded, failures=failures)
