"""The example scripts: a bad argument is refused before any output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import codekit

SRC = Path(codekit.__file__).resolve().parents[1]
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("channel_experiment.py", ["--seed", "-1"], "seed must be at least 0, got -1"),
        ("channel_experiment.py", ["--probs", "2"], "corruption probability must lie in [0, 1]"),
        ("enumerate_closed_codes.py", ["--k", "0"], "defect count must be at least 1"),
        ("enumerate_closed_codes.py", ["--limit", "-1"], "limit must be at least 0, got -1"),
    ],
    ids=["seed-1", "probs2", "k0", "limit-1"],
)
def test_script_usage_error_exits_three_with_one_line(script, argv, message):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"{script}: error: {message}\n"
