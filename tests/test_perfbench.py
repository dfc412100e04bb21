"""The benchmark harness in perfbench/ imports what it times from the package.

A deletion in ``src/cmm`` that the traced replay still uses fails here, in
the test suite, rather than in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import cmm.gradcheck

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_modules_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("hostspeed", "common", "checks", "replay"):    # dependencies first
        monkeypatch.delitem(sys.modules, name, raising=False)
        monkeypatch.setitem(sys.modules, name, importlib.import_module(name))
    # the replay counts the gradcheck oracle's loss calls by wrapping this name
    assert hasattr(cmm.gradcheck, "cmm_loss")
