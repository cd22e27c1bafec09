"""The narrative demos and the README examples run end to end against the
package under test."""

import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from ispband import cli
from test_cli import package_env

DEMOS = pathlib.Path(__file__).parents[1] / "demos"
README = pathlib.Path(__file__).parents[1] / "README.md"


@pytest.mark.parametrize("name", ["spectrum_and_bandwidth", "sweep_statistics",
                                  "tsvd_reconstruction"])
def test_demo_exits_cleanly(name, tmp_path):
    proc = subprocess.run([sys.executable, os.fspath(DEMOS / f"{name}.py")],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def readme_block(heading: str, lang: str) -> str:
    """The first ```lang block of the README after heading."""
    text = README.read_text().split(heading + "\n", 1)[1]
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_its_comments(capsys):
    code = readme_block("## Library quick start", "python")
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert comments[0] == out[0] == "27 26 29"
    assert comments[-1] == "~1e-15 for clean data"
    assert float(out[-1]) < 1e-13


def test_readme_bandwidth_example_prints_its_comment(capsys):
    lines = readme_block("## Command line", "sh").splitlines()
    at = lines.index("ispband bandwidth --kappa0 31.4159 --kappa 31.4159")
    want = [lines[at + 1].removeprefix("# -> "),
            lines[at + 2].removeprefix("#    ")]
    assert want[0] == "B=27 B-=26 B+=29 Btilde-=26 Btilde+=32"
    assert cli.main(shlex.split(lines[at])[1:]) == 0
    assert capsys.readouterr().out.splitlines() == want
