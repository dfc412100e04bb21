"""Every third-party module the package imports is a declared dependency.

A module that is installed where the tests run but missing from
``pyproject.toml`` would import here and fail only in a fresh install.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")    # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_third_party_imports_are_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_")
                for req in requirements}
    imported = set().union(*map(imported_top_level_modules, (ROOT / "src" / "cmm").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"cmm"}
    assert {"numpy", "orjson"} <= third_party
    assert third_party - declared == set()
