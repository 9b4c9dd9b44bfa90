"""Each benchmark child (perfbench/child.py) runs against this checkout and
passes its own checks.  A package call that a child makes and that no longer
works would otherwise show only when the benchmark itself fails."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _child(mode, out, *extra):
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), mode, "--out", str(out),
           "--seed", "0", "--t0", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    assert result["checks"] == [], result["checks"]
    return result


def test_every_benchmark_child_runs_and_passes_its_checks(tmp_path):
    _child("grid", tmp_path / "grid")
    work = tmp_path / "work"
    work.mkdir()
    train = _child("train", tmp_path / "train", "--work", str(work))
    _child("recon", tmp_path / "recon", "--checkpoint", train["data"]["checkpoint"])
    _child("prep", tmp_path / "prep")
