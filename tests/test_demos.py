"""The narrative demos run end to end against the package under test."""

import os
import pathlib
import subprocess
import sys

import pytest

from test_cli import package_env

DEMOS = pathlib.Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize("name", ["spectrum_and_bandwidth", "sweep_statistics",
                                  "tsvd_reconstruction"])
def test_demo_exits_cleanly(name, tmp_path):
    proc = subprocess.run([sys.executable, os.fspath(DEMOS / f"{name}.py")],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
