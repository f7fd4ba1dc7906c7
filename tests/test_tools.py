"""The repository's measurement tools run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_interleaved_ab_reports_each_scenario():
    # one round of the same checkout on both sides: the history digests
    # agree, so each scenario prints its per-round ratio and win count
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleaved_ab.py"), str(ROOT), str(ROOT),
         "--rounds", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["fixed-q1", "refine-q136", "p3-q1.2-l100"]
    for line in lines:
        assert re.search(r"median per-round base/head \d+\.\d{3}x, head won [01]/1$", line), line
