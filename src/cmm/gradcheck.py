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

Each trial draws from ``default_rng((seed, trial))``'s stream, to the bit,
without a generator per trial. Trials are drawn a block at a time:
``_pcg64_words`` derives their PCG64 seed words with SeedSequence's hash
mixing (NEP 19) run as uint32 array arithmetic, ``_raw_words`` runs PCG64
on them as 128-bit arithmetic on uint64 limbs, and ``_decode`` reads each
trial's draws from its words as numpy's Generator does. A trial whose
bounded draw could enter numpy's rejection loop is drawn again from its own
generator.
"""

from __future__ import annotations

import math
from collections import namedtuple
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
# trials are drawn and scored a block at a time; a block needs at most this many
# raw words (1 MiB), or is one trial if that trial needs more
WORD_BLOCK = 2 ** 17

# numpy's PCG64: a 128-bit LCG with this multiplier
_PCG_MULT, _MASK128, _MASK64 = 0x2360ED051FC65DA44385DF649FCCF645, 2 ** 128 - 1, 2 ** 64 - 1

# numpy's SeedSequence constants (pool of 4 uint32 words)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def _int_words(n: int) -> list[int]:
    """n's 32-bit words, least significant first, as SeedSequence splits an int (0 is [0])."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


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


def _mul128(a, b):
    """a * b mod 2**128 on (high, low) pairs of uint64 arrays; 32-bit limbs carry the low product."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1, b0, b1 = a_lo & _MASK32, a_lo >> 32, b_lo & _MASK32, b_lo >> 32
    cross_a, cross_b = a1 * b0, a0 * b1
    carry = ((a0 * b0 >> 32) + (cross_a & _MASK32) + (cross_b & _MASK32)) >> 32
    return (a1 * b1 + (cross_a >> 32) + (cross_b >> 32) + carry + a_hi * b_lo + a_lo * b_hi,
            a_lo * b_lo)


def _raw_words(seed: int, trials: Sequence[int], width: int) -> np.ndarray:
    """(len(trials), width) uint64: default_rng((seed, t)).bit_generator.random_raw(width) per t.

    PCG64 takes state 0 and increment inc = 2 * words[2:4] + 1 (128-bit,
    high word first), steps, adds words[0:2] and steps again; each output
    steps once more and returns rotr64(hi ^ lo, hi >> 58) of the state. So
    output j reads M^(j+2) * words[0:2] + (1 + M + ... + M^(j+2)) * inc mod 2^128.
    """
    words = _pcg64_words(seed, trials)
    jumps, power, total = [], _PCG_MULT ** 2 & _MASK128, 1 + _PCG_MULT
    for _ in range(width):
        total = total + power & _MASK128
        jumps += [power >> 64, power & _MASK64, total >> 64, total & _MASK64]
        power = power * _PCG_MULT & _MASK128
    jumps = np.array(jumps, dtype=np.uint64).reshape(width, 4).T
    s_hi, s_lo = _mul128((words[:, 0:1], words[:, 1:2]), jumps[:2])
    i_hi, i_lo = _mul128((words[:, 2:3] << 1 | words[:, 3:4] >> 63, words[:, 3:4] << 1 | 1),
                         jumps[2:])
    lo = s_lo + i_lo
    hi = s_hi + i_hi + (lo < i_lo)
    mixed, rot = hi ^ lo, hi >> 58
    return mixed >> rot | mixed << (-rot & 63)


# what each trial draws from; grid is (len(gammas), len(ms))
_Draws = namedtuple("_Draws", "relation_counts lo hi grid empty_positive_rate positive_rate")


def _draw_trial(rng: np.random.Generator, draws: _Draws):
    """One trial's (relation count, logits, positive mask, arm index) from its generator."""
    r_count = draws.relation_counts[rng.integers(len(draws.relation_counts))]
    values = rng.uniform(draws.lo, draws.hi, size=r_count + 1)
    # column j is relation j+1; rng.random(R) reads the stream as R single draws do
    positives = (np.zeros(r_count, dtype=bool) if rng.random() < draws.empty_positive_rate
                 else rng.random(r_count) < draws.positive_rate)
    n_gammas, n_ms = draws.grid
    return r_count, values, positives, rng.integers(n_gammas) * n_ms + rng.integers(n_ms)


def _decode(words: np.ndarray, seed: int, first: int, draws: _Draws):
    """``_draw_trial``'s draws for trials first, first + 1, ... from their raw words, a row each.

    ``integers(k)`` is Lemire's product of k and a word's low 32 bits, and
    at the next bounded draw of its high 32 bits (k = 1 takes nothing);
    ``uniform`` and ``random`` take a word per value. A trial whose product
    could enter numpy's rejection loop is drawn from its generator instead.
    Returns the (T,) relation counts and arm indices, (T, max R + 1) logits
    and (T, max R) positive masks; rows are valid up to their relation count.
    """
    rows, at, spare = np.arange(len(words)), 0, None
    suspect = np.zeros(len(words), dtype=bool)
    units = (words >> 11) * 2.0 ** -53      # Generator.random() of each word

    def bounded(k):
        nonlocal at, spare, suspect
        if k == 1:
            return np.zeros(len(words), dtype=np.intp)
        if spare is None:
            word = words[rows, at]
            at, half, spare = at + 1, word & _MASK32, word >> 32
        else:
            half, spare = spare, None
        product = half * np.uint64(k)
        suspect |= (product & _MASK32) < k
        return (product >> 32).astype(np.intp)

    counts = np.array(draws.relation_counts, dtype=np.intp)
    r_counts = counts[bounded(len(counts))]
    values = draws.lo + (draws.hi - draws.lo) * units[:, at:at + counts.max() + 1]
    at = at + r_counts + 1
    empty = units[rows, at] < draws.empty_positive_rate
    positives = ((units[rows[:, None], at[:, None] + 1 + np.arange(counts.max())]
                  < draws.positive_rate) & ~empty[:, None])
    at = at + 1 + np.where(empty, 0, r_counts)
    arms = bounded(draws.grid[0]) * draws.grid[1] + bounded(draws.grid[1])
    for row in np.flatnonzero(suspect).tolist():
        r_count, logits, mask, arm = _draw_trial(np.random.default_rng((seed, first + row)), draws)
        r_counts[row], arms[row] = r_count, arm
        values[row, :r_count + 1], positives[row, :r_count] = logits, mask
    return r_counts, values, positives, arms


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

    Each trial draws its own RNG stream from (seed, trial index), so reports
    are deterministic and do not depend on how trials are drawn or scored
    together. Label sets include empty-positive cases. Trials are drawn a
    block at a time, and a block's trials with one relation count are
    scored in chunks, each with one analytic call of the stacked cmm
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
    if not (isinstance(logit_range, (list, tuple)) and len(logit_range) == 2):
        raise TypeError(f"logit_range must be a list of two numbers, got {logit_range!r}")
    lo, hi = logit_range
    require_finite("logit_range[0]", lo)
    require_finite("logit_range[1]", hi)
    if not (lo < hi and math.isfinite(float(hi) - float(lo))):
        raise ValueError(f"logit_range must have lo < hi and a finite width, "
                         f"got {list(logit_range)}")
    if not isinstance(relation_counts, (list, tuple)):
        raise TypeError(f"relation_counts must be a list of integers, got {relation_counts!r}")
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
    draws = _Draws(tuple(relation_counts), float(lo), float(hi),
                   (len(gammas), len(ms)), empty_positive_rate, positive_rate)
    arms = [LossConfig(kind="cmm", gamma=float(g), m=float(m)) for g in gammas for m in ms]
    arm_gamma, arm_m, arm_clamp = _cmm_arms(arms)

    # each block's trials are scored with one analytic and one value kernel call
    # per chunk of trials with one relation count
    width = 2 * max(relation_counts) + 4      # words of the widest trial
    block = max(1, WORD_BLOCK // width)
    errors, excluded, failures = np.zeros(trials), 0, []
    for first in range(0, trials, block):
        words = _raw_words(int(seed), range(first, min(trials, first + block)), width)
        r_counts, logits, positives, arm = _decode(words, int(seed), first, draws)
        first_bad = None
        for n in np.unique(r_counts + 1).tolist():
            members = np.flatnonzero(r_counts + 1 == n)
            size = max(1, PROBE_STACK_FLOATS // (2 * n * n))
            for chunk in (members[i:i + size] for i in range(0, len(members), size)):
                values, pos_mask = logits[chunk, :n], positives[chunk, :n - 1]
                gamma, m, clamp = arm_gamma[arm[chunk]], arm_m[arm[chunk]], arm_clamp[arm[chunk]]
                _, grads = _cmm_rows(values[:, None, :], np.nonzero(pos_mask[:, None, :]),
                                     gamma, m, clamp, need_grad=True, need_value=False)
                probe_pos = np.nonzero(np.broadcast_to(pos_mask[:, None, :],
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
                errors[first + chunk] = err
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
    # NaN errors count as no failure and do not raise the maximum
    return GradCheckReport(trials=trials, tolerance=tolerance, seed=seed, step=step,
                           max_rel_error=float(np.fmax.reduce(errors, initial=0.0)),
                           excluded_coords=excluded, failures=tuple(failures))
