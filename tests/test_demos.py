"""Each demo and the README library tour run to completion against the
public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_readme_tour_runs():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library tour\n\n```python\n", 1)[1].split("```", 1)[0]
    tour = {}
    exec(compile(block, "README.md", "exec"), tour)
    assert tour["check_feasible"](tour["model"], tour["assign"]) == (True, [])
