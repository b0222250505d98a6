"""The committed fixtures are what scripts/generate_fixtures.py writes today."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ("synthetic60.json", "script_table.json", "contrast_bank.json", "contrast_queries.json")


def test_generated_fixtures_match_the_committed_ones(tmp_path):
    pythonpath = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "generate_fixtures.py"), "--out-dir", str(tmp_path)],
        check=True,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )
    for name in FIXTURES:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name
