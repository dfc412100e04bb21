"""Benchmark of the cmm command-line tool, run from the root of a checkout.

    python3 perfbench/run.py --workload grid --seed 2024 --seconds 20 --trace 0

Each workload sends `cmm` commands through the real entry point,
`cmm.cli.main`, called in this process: one client, one command at a time
(a closed loop). Inputs are generated in set-up from `--seed` (the data
seed), so the program only ever receives generated files. The loop repeats
the workload's commands while another one fits into `--seconds` and reports
medians. Every command's exit code is checked; the first repetition's
outputs are recounted by `checks.py` and every later repetition must
reproduce them byte for byte.

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` the workload's commands run once (checked), are then replayed
through each layer's public functions with spans recorded (`replay.py`),
and the last line holds the per-layer metrics. Machine facts precede the result line. Spans, facts
and the result are also written under `.perfbench/` in the checkout.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
OUT_ROOT = ROOT / ".perfbench"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "command_s": "s", "work_per_s": "1/s", "peak_rss_mib": "MiB",
    "output_quality": "1", "ops_ok_frac": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "trace", "data", "gradcheck"))
    parser.add_argument("--seed", type=int, default=2024, help="data seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time; the loop starts no command that would overrun it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_name": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def work_units(workload: str) -> int:
    """Work in one repetition: pair-epochs, pairs written plus read, or gradcheck trials."""
    from common import (DATA_SHAPE, EPOCHS, GENERATE_DOCUMENTS, GRADCHECK_TRIALS, GRID_ARMS,
                        TRACE_ARMS, TRAIN_DOCUMENTS)
    train_pairs = TRAIN_DOCUMENTS * DATA_SHAPE["pairs_per_document"]
    if workload == "grid":
        return len(GRID_ARMS) * EPOCHS * train_pairs
    if workload == "trace":
        return len(TRACE_ARMS) * EPOCHS * train_pairs
    if workload == "data":
        return 2 * GENERATE_DOCUMENTS * DATA_SHAPE["pairs_per_document"]
    return GRADCHECK_TRIALS


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_run(args, workdir: Path, usage) -> tuple[dict, "Loop", dict]:
    from common import HOST_FACTOR_SCOPE, Loop, set_up
    from hostspeed import at_reference_speed, host_factor
    # A host factor is measured before and after every set-up, and every
    # repetition of a workload in HOST_FACTOR_SCOPE.
    setups, setup_factors = [], [host_factor()]
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        paths = set_up(workdir, args.seed)
        setups.append(time.perf_counter() - t0)
        setup_factors.append(host_factor(setups[-1]))
    usage.sample()
    loop = Loop(args.workload, paths, usage)
    scaled = args.workload in HOST_FACTOR_SCOPE
    factors = [host_factor()] if scaled else []
    start = time.perf_counter()
    while True:
        loop.repetition()
        t0 = time.perf_counter()
        if scaled:
            factors.append(host_factor(loop.walls[-1]))
        step = statistics.median(loop.walls) + time.perf_counter() - t0
        if time.perf_counter() - start + step > args.seconds:
            break
    command_s = statistics.median(at_reference_speed(loop.walls, factors) if scaled
                                  else loop.walls)
    values = {
        "setup_s": statistics.median(at_reference_speed(setups, setup_factors)),
        "command_s": command_s,
        "work_per_s": work_units(args.workload) / command_s,
        "peak_rss_mib": peak_rss_mib(),
        "output_quality": loop.quality,
        "ops_ok_frac": (loop.attempted - loop.failed) / loop.attempted,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {"setup_wall_s": setups, "setup_host_factors": setup_factors,
              "repetition_wall_s": loop.walls, "repetition_host_factors": factors,
              "command_wall_s": loop.command_walls}
    return metrics, loop, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cmm" / "__init__.py").is_file():
        print(f"perfbench: no cmm sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import cmm
    if Path(cmm.__file__).resolve().parent != (ROOT / "src" / "cmm").resolve():
        print(f"perfbench: imported cmm from {cmm.__file__}, not this checkout", file=sys.stderr)
        return 2

    OUT_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    from common import Usage
    usage = Usage()
    try:
        if args.trace:
            from replay import traced_run
            metrics, loop, detail = traced_run(args, workdir, usage)
        else:
            metrics, loop, detail = timed_run(args, workdir, usage)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts = machine_facts()
    facts.update(threads_used=usage.threads, processes_used=usage.processes,
                 within_nproc=max(usage.threads, usage.processes) <= (os.cpu_count() or 1))
    result = {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "detail": detail, "result": result}
    (OUT_ROOT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
