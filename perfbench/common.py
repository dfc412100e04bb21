"""Inputs, set-up and command definitions shared by the timed and traced runs.

The data shape is the criterion-5 experiment (|R|=20, F=64, rho=0.03, hard
0.25, teacher margin 2.0, seen 0.35, 30% false negatives injected into the
train split) scaled to 140 documents x 150 pairs, split 120/20 by document.
The scale keeps the 6:1 train/dev ratio, so each layer's share of a command
stays close to the full-size experiment, while a `compare` grid fits twice
into one run.
"""

from __future__ import annotations

import contextlib
import gc
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

from cmm.cli import main as cli_main
from cmm.encoder import TrainConfig, save_checkpoint, train
from cmm.loss import LossConfig
from cmm.schema import save_dataset_jsonl, split_by_documents
from cmm.synthdata import GenConfig, generate, inject_false_negatives

DATA_SHAPE = {
    "n_documents": 140, "pairs_per_document": 150, "relation_count": 20,
    "feature_dim": 64, "positive_rate": 0.03, "hard_fraction": 0.25,
    "teacher_margin": 2.0, "seen_in_train_rate": 0.35,
}
TRAIN_DOCUMENTS = 120
FALSE_NEGATIVE_RATE = 0.3
EPOCHS = 30
# The checkpoint `cmm eval` reads in the data workload: a short cmm run.
CHECKPOINT_EPOCHS = 15
# `cmm generate` in the data workload writes half the set-up shape, and
# `cmm gradcheck` runs 1000 trials: about 2 s and 0.8 s per repetition, so
# one 20-second run holds 6 to 25 repetitions and their median is steady.
GENERATE_DOCUMENTS = 70
GRADCHECK_TRIALS = 1000

GRID_ARMS = (("cmm", 1.0, 0.1), ("cmm", 1.0, 0.4), ("cmm", 2.0, 0.1), ("cmm", 2.0, 0.4),
             ("plain_margin", None, None), ("atl_reference", None, None))
TRACE_ARMS = (("cmm", 1.0, 0.2), ("plain_margin", None, None))
CMM_LOSS = {"kind": "cmm", "gamma": 1.0, "m": 0.2}


# The `cmm` subcommands of one repetition of each workload.
COMMANDS = {"grid": ("compare",), "trace": ("train",), "data": ("generate", "eval"),
            "gradcheck": ("gradcheck",)}
# Workloads whose repetitions are divided by the host factor (hostspeed.py),
# as every set-up is: interpreter- and JSON-bound work, which the factor
# tracks. The grid and trace commands spend most of their time in numpy
# training steps, which it does not track, so their times are reported as
# measured.
HOST_FACTOR_SCOPE = ("data", "gradcheck")


class NullTracer:
    """Stands in for replay.Tracer when tracing is off; records nothing."""

    def span(self, name):
        return contextlib.nullcontext()


def gen_config(seed: int, false_negative_rate: float = 0.0, n_documents: int | None = None
               ) -> GenConfig:
    shape = dict(DATA_SHAPE, n_documents=n_documents or DATA_SHAPE["n_documents"])
    return GenConfig(**shape, false_negative_rate=false_negative_rate, seed=seed)


def train_config(kind: str, gamma, m, eval_every: int, epochs: int = EPOCHS) -> TrainConfig:
    loss = LossConfig(kind=kind) if gamma is None else LossConfig(kind=kind, gamma=gamma, m=m)
    return TrainConfig(loss=loss, epochs=epochs, seed=0, eval_every=eval_every)


def set_up(workdir: Path, seed: int, tracer=NullTracer()) -> dict[str, Path]:
    """Write every input the workloads read into workdir: JSONL, a checkpoint, configs.

    Returns their paths: `train_data`, `dev_data`, `checkpoint`, `dir` and
    one config per subcommand. Commands write their outputs to dir/<subcommand>.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    with tracer.span("synthdata.generate"):
        full = generate(gen_config(seed))
    train_ds, dev_ds = split_by_documents(full, TRAIN_DOCUMENTS)
    with tracer.span("synthdata.inject"):
        train_ds = inject_false_negatives(train_ds, FALSE_NEGATIVE_RATE, seed=seed)
    paths = {"dir": workdir, "train_data": workdir / "train.jsonl",
             "dev_data": workdir / "dev.jsonl", "checkpoint": workdir / "checkpoint.json"}
    for dataset, path in ((train_ds, paths["train_data"]), (dev_ds, paths["dev_data"])):
        with tracer.span("schema.save"):
            save_dataset_jsonl(dataset, str(path))
    cfg = train_config("cmm", CMM_LOSS["gamma"], CMM_LOSS["m"], CHECKPOINT_EPOCHS,
                       epochs=CHECKPOINT_EPOCHS)
    with tracer.span("encoder.train"):
        params, _ = train(train_ds, dev_ds, cfg)
    with tracer.span("encoder.checkpoint_save"):
        save_checkpoint(str(paths["checkpoint"]), params, None)

    data = {"dataset": "train.jsonl", "dev": "dev.jsonl"}
    configs = {
        "compare": {
            **data,
            "train": {"epochs": EPOCHS, "seed": 0, "eval_every": EPOCHS, "loss": CMM_LOSS},
            "kinds": ["cmm", "plain_margin", "atl_reference"],
            "gammas": [1.0, 2.0], "ms": [0.1, 0.4], "seeds": [0],
        },
        "train": {
            **data,
            "train": {"epochs": EPOCHS, "seed": 0, "eval_every": 1, "loss": CMM_LOSS},
            "arms": [{"name": "cmm", "loss": CMM_LOSS},
                     {"name": "plain_margin", "loss": {"kind": "plain_margin"}}],
        },
        "generate": {**DATA_SHAPE, "n_documents": GENERATE_DOCUMENTS,
                     "false_negative_rate": FALSE_NEGATIVE_RATE, "seed": seed},
        "eval": {"dataset": "generate/dataset.jsonl", "checkpoint": "checkpoint.json"},
        "gradcheck": {"trials": GRADCHECK_TRIALS, "seed": seed},
    }
    for sub, config in configs.items():
        paths[sub] = workdir / f"{sub}.json"
        paths[sub].write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return paths


def _threads_and_processes() -> tuple[int, int]:
    with open("/proc/self/status", encoding="utf-8") as fh:
        threads = int(next(line.split()[1] for line in fh if line.startswith("Threads:")))
    children = 0
    for task in Path("/proc/self/task").iterdir():
        children += len((task / "children").read_text().split())
    return threads, 1 + children


class Usage:
    """Peak threads and processes seen at the sample points (after every command)."""

    def __init__(self) -> None:
        self.threads = self.processes = 0

    def sample(self) -> None:
        threads, processes = _threads_and_processes()
        self.threads = max(self.threads, threads)
        self.processes = max(self.processes, processes)


def run_cli(argv: list[str]) -> tuple[float, int]:
    """Wall time and exit code of one in-process `cmm` command; a raised exception is a failure."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        code = cli_main(argv)
    except Exception:  # the benchmark must keep running and report the failure
        traceback.print_exc()
        code = -1
    return time.perf_counter() - t0, code


class Loop:
    """Runs repetitions of a workload's commands and checks their outputs."""

    def __init__(self, workload: str, paths: dict[str, Path], usage: Usage):
        self.workload, self.paths, self.usage = workload, paths, usage
        self.walls: list[float] = []
        self.command_walls: dict[str, list[float]] = {}
        self.attempted = self.failed = 0
        self.quality = 0.0
        self._reference = None

    def repetition(self) -> None:
        from checks import CHECKS, digest
        subs = COMMANDS[self.workload]
        outdirs = [self.paths["dir"] / sub for sub in subs]
        wall, ok = 0.0, True
        for sub, out in zip(subs, outdirs):
            dt, code = run_cli([sub, str(self.paths[sub]), "-o", str(out)])
            self.attempted += 1
            wall += dt
            self.command_walls.setdefault(sub, []).append(dt)
            if code != 0:
                print(f"perfbench: `cmm {sub}` exited {code}", file=sys.stderr)
                self.failed += 1
                ok = False
        self.walls.append(wall)
        self.usage.sample()
        if ok:
            if self._reference is None:
                try:
                    self.quality, problems = CHECKS[self.workload](self.paths)
                except Exception as exc:  # a missing or malformed output fails the check
                    traceback.print_exc()
                    problems = [f"output check raised {exc!r}"]
                self._reference = [digest(o) for o in outdirs]
            elif [digest(o) for o in outdirs] != self._reference:
                problems = ["outputs differ from the first repetition"]
            else:
                problems = []
            for p in problems:
                print(f"perfbench: {self.workload}: {p}", file=sys.stderr)
            if problems:
                self.failed += 1
        for o in outdirs:
            shutil.rmtree(o, ignore_errors=True)
