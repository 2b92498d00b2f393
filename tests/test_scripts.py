"""The scripts in scripts/ run end to end against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("folner_diagnostics.py", ["--group", "heisenberg", "--n-max", "3"]),
    ("smb_convergence.py", ["--model", "mixed", "--n-max", "4", "--trajectories", "4"]),
])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
