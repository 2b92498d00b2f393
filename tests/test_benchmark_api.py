"""The names the benchmark in perfbench/ imports, calls and traces resolve.

perfbench/ drives fiberent only from outside: `layers.TARGETS` names every
function its traced run wraps, and each part of `workloads.PARTS` builds
its inputs in `setup`.  A rename or a moved rule in the package must show
up here, not as a failed benchmark run.
"""

import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402


def _target_id(target):
    _, owner, attr = target
    return f"{owner.__name__}.{attr}"


@pytest.mark.parametrize("target", layers.TARGETS, ids=_target_id)
def test_trace_target_resolves(target):
    name, owner, attr = target
    assert callable(getattr(owner, attr)), name
    if inspect.isclass(owner):
        # defined on the class itself, so the tracer wraps each function once
        assert attr in vars(owner), name


@pytest.mark.parametrize("part", sorted(workloads.PARTS))
def test_part_setup_runs(part, tmp_path):
    state = workloads.PARTS[part].setup(workloads.Context(ROOT, None, tmp_path))
    assert state
