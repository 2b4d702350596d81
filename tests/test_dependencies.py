"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``.  These tests hold the
code to that: every ``repro`` module must import in a fresh interpreter
without pulling in numpy (or any other third-party package a test
environment might happen to have installed).
"""

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

_PROBE = """
import importlib, json, pkgutil, sys
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
print(json.dumps({"modules": names, "numpy": numpy}))
"""


def test_pyproject_declares_no_runtime_dependencies():
    lines = (REPO / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines


def test_every_module_imports_without_numpy():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert "repro.api" in report["modules"]
    assert "repro.arch.fastsim" in report["modules"]
    assert report["numpy"] == []
