"""The benchmark harness in perfbench/ imports what it times from the package.

A deletion in ``src/cmm`` that the traced replay still uses fails here, in
the test suite, rather than in a benchmark run.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import cmm.gradcheck
from cmm.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("hostspeed", "common", "checks", "replay"):    # dependencies first
        monkeypatch.delitem(sys.modules, name, raising=False)
        monkeypatch.setitem(sys.modules, name, importlib.import_module(name))
    return sys.modules


def test_benchmark_modules_import(monkeypatch):
    benchmark_modules(monkeypatch)
    # the replay counts the gradcheck oracle's loss calls by wrapping this name
    assert hasattr(cmm.gradcheck, "cmm_loss")


@pytest.mark.parametrize("seed", [2024, 31, 4503, 7002, 20240])
def test_benchmark_gradcheck_gate_passes(monkeypatch, tmp_path, seed):
    # the benchmark fails a repetition whose gradcheck stream draws a failing trial
    checks = benchmark_modules(monkeypatch)["checks"]
    config = tmp_path / "gc.json"
    config.write_text(json.dumps({"trials": checks.GRADCHECK_TRIALS, "seed": seed}))
    assert main(["gradcheck", str(config), "-o", str(tmp_path / "gradcheck")]) == 0
    assert checks.check_gradcheck({"dir": tmp_path}) == (1.0, [])


def test_benchmark_set_up_and_data_repetition(monkeypatch, tmp_path):
    # the set-up saves its checkpoint with save_checkpoint(path, params, None), and the
    # data check recounts eval's metrics with the parameters load_checkpoint returns
    common = benchmark_modules(monkeypatch)["common"]
    loop = common.Loop("data", common.set_up(tmp_path, 2024), common.Usage())
    loop.repetition()
    assert (loop.attempted, loop.failed) == (2, 0)
    assert loop.quality == 0.6128266033254157     # the F1 `cmm eval` reports
