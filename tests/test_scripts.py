"""Smoke tests: the experiment scripts run to completion on their own."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_oov_toy_experiment_runs(tmp_path):
    proc = _run("oov_toy_experiment.py", "--epochs", "2", "--dim", "4",
                "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "Wilcoxon signed-rank over 16 (include, exclude) pairs" in proc.stdout
