"""The scripts in scripts/ run end to end against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("folner_diagnostics.py", ["--group", "heisenberg", "--n-max", "3"]),
])
def test_script_runs(script, args):
    out = run_script(script, args)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


@pytest.mark.parametrize("script, args", [
    ("folner_diagnostics.py", ["--n-max", "0"]),
])
def test_script_rejects_bad_input_without_traceback(script, args):
    out = run_script(script, args)
    assert out.returncode == 2
    assert "error: --n-max must be >= 1" in out.stderr
    assert "Traceback" not in out.stderr
    assert not out.stdout
