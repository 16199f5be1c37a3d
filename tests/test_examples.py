"""Run every script under ``examples/`` end to end.

Each example runs in its own interpreter with ``PYTHONPATH=src`` and one
shared, initially empty ``REPRO_CACHE_DIR``, exactly as a reader would run
it.  It must exit 0 and reach its final ``print``: an example that raises
half-way, or silently stops early, fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: The start of each example's last stdout line.
FINAL_LINES = {
    "design_space.py": "once on-chip throughput covers",
    "frequent_flier.py": "training losses per round:",
    "inference_serving.py": "latency stays flat because every chip walks its trees",
    "quickstart.py": "(paper, Fig. 7:",
}


@pytest.fixture(scope="module")
def example_env(tmp_path_factory):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("example-cache"))
    return env


def test_every_example_has_a_final_line():
    assert sorted(p.name for p in EXAMPLES) == sorted(FINAL_LINES)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_to_completion(script, example_env, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=example_env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    assert lines, f"{script.name} printed nothing"
    assert lines[-1].startswith(FINAL_LINES[script.name]), lines[-1]
