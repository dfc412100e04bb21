"""Host speed: a fixed reference load, timed between the measured commands.

The benchmark runs on a few cores of a shared host whose speed drifts with
the other tenants' load. A fixed pure-Python load timed back to back for
8 minutes on the 2-vCPU reference host took between 0.15 and 0.25 s, in
waves minutes long, so the medians of 10- to 50-second windows spread by
25-29% (IQR over median) whatever the window length: a longer run does not
average the drift away. So interpreter-bound timings are divided by the
host factor measured just before and just after them: the time of the
reference load relative to REFERENCE_S. Over five runs of the gradcheck
workload this cut the spread of the command time from 29% to 7%, and that
of the set-up time from 37% to 11%.

The factor does not track numpy-bound training: while it moved by 40%,
`cmm compare` moved by 18%, and a second, numpy-shaped reference load moved
by 77%. So it is applied to every set-up, and to the repetitions of the
workloads in `common.HOST_FACTOR_SCOPE` only.

The load is the benchmark's own and never calls `cmm`, so a change to the
program cannot move it. It mixes interpreter work on dicts, frozensets and
floats, JSON encoding and decoding, and numpy calls on 11-element arrays.
It calls no BLAS routine, so thread settings cannot change it, and it runs
with the garbage collector off, so the program's heap does not slow it.
"""

from __future__ import annotations

import gc
import json
import math
import random
import statistics
import time

import numpy as np

# Nominal time of reference_load() on the 2-vCPU reference host (its median
# over one 5-minute stretch there was 0.16 s); timings divided by the host
# factor read as seconds at that speed.
REFERENCE_S = 0.15
MIN_LOADS = 3
# A host-factor sample lasts this share of the timing it corrects: the host
# switches between fast and slow phases within seconds, and a sample of a
# few loads next to a 3-second set-up would catch one phase only.
SAMPLE_SHARE = 0.15


def reference_load() -> float:
    """Fixed interpreter, JSON and small-array work; the result only keeps it from being skipped."""
    rng = random.Random(12345)
    table: dict[tuple[int, int], float] = {}
    acc = 0.0
    rows = []
    for i in range(24000):
        x = rng.random()
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + math.exp(-x)
        bits = frozenset(j for j in range(i % 9) if (i >> j) & 1)
        acc += len(bits & {1, 3, 5})
        if i % 20 == 0:
            rows.append({"id": f"p{i}", "f": [rng.uniform(-1.0, 1.0) for _ in range(16)],
                         "s": sorted(bits)})
    decoded = [json.loads(line) for line in "\n".join(json.dumps(r) for r in rows).splitlines()]
    a = np.linspace(-3.0, 3.0, 11)
    for _ in range(6000):
        b = a - a[0]
        acc += float(np.maximum(b, 0.0).sum()) + float(np.log1p(np.exp(-np.abs(b))).sum())
    return acc + len(decoded)


def host_factor(timed_s: float = 0.0) -> float:
    """Mean reference_load() time over REFERENCE_S; 1.0 at reference speed.

    Runs at least MIN_LOADS loads and for at least SAMPLE_SHARE x timed_s
    seconds, timed_s being the timing the sample stands next to.
    """
    times: list[float] = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        while len(times) < MIN_LOADS or sum(times) < SAMPLE_SHARE * timed_s:
            t0 = time.perf_counter()
            reference_load()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.fmean(times) / REFERENCE_S


def at_reference_speed(walls: list[float], factors: list[float]) -> list[float]:
    """Each wall time divided by the mean host factor measured just before and just after it.

    factors[i] was measured before walls[i] and factors[i + 1] after it.
    """
    if len(factors) != len(walls) + 1:
        raise ValueError(f"{len(walls)} timings need {len(walls) + 1} host factors, "
                         f"got {len(factors)}")
    return [w / ((factors[i] + factors[i + 1]) / 2.0) for i, w in enumerate(walls)]
