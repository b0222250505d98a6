"""The demos run end to end, in order, against one run directory."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_build_memory", "02_query_memory", "03_evaluate", "04_timeline_export")


def test_demos_run_in_order(tmp_path):
    run = str(tmp_path / "demo")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name in DEMOS:
        flag = "--out" if name == "01_build_memory" else "--run"
        done = subprocess.run(
            [sys.executable, str(ROOT / "demos" / f"{name}.py"), flag, run],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, f"{name} failed:\n{done.stdout}\n{done.stderr}"
