"""Smoke tests: the experiment scripts run to completion on their own."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import write_split_files

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


def test_audit_benchmarks_exit_codes(tmp_path):
    train = [("a", "p", "b"), ("b", "p", "c")]
    write_split_files(tmp_path / "clean" / "TOY", train, [("a", "p", "c")], [("c", "p", "a")])
    write_split_files(tmp_path / "oov" / "TOY", train, [("a", "p", "c")], [("a", "p", "ghost")])
    (tmp_path / "empty").mkdir()
    out = tmp_path / "out"
    proc = _run("audit_benchmarks.py", "--root", str(tmp_path / "clean"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "TOY.json").is_file() and (out / "TOY.md").is_file()
    proc = _run("audit_benchmarks.py", "--root", str(tmp_path / "oov"), "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    assert "OOV PRESENT" in proc.stdout
    proc = _run("audit_benchmarks.py", "--root", str(tmp_path / "empty"), "--out", str(out))
    assert proc.returncode == 1
    assert "no datasets found" in proc.stderr
