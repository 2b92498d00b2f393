"""The CI workflow files parse as YAML, and every job has steps to run.

A plain-scalar `run:` line holding ": " once made a workflow invalid, so
CI could not run that commit at all, and no test saw it.
"""

from pathlib import Path

import pytest
import yaml

WORKFLOWS = sorted((Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.yml"))


def test_there_are_workflows():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=[p.name for p in WORKFLOWS])
def test_workflow_parses_and_every_job_has_steps(path):
    doc = yaml.safe_load(path.read_text())
    assert isinstance(doc, dict) and doc.get("jobs")
    for name, job in doc["jobs"].items():
        steps = job.get("steps")
        assert isinstance(steps, list) and steps, f"job {name} has no steps"
        assert all("run" in step or "uses" in step for step in steps), name
