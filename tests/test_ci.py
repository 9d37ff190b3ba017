"""The CI workflow cannot run offline; it must at least load as YAML and
run the tier-1 command that ROADMAP.md names, on push and pull request."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_tier1_workflow_runs_the_roadmap_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    # YAML 1.1 reads the bare key `on` as true
    assert set(workflow[True]) == {"push", "pull_request"}
    (job,) = workflow["jobs"].values()
    runs = [step.get("run") for step in job["steps"]]
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    assert runs[-2:] == ['pip install -e ".[test]"', command]
    (python,) = [step["with"]["python-version"] for step in job["steps"] if "with" in step]
    assert python == "3.11"
