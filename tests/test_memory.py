"""Memory follows the active window near the peak, not the grid size K.

Near blow-up with q > 1 the grid refines to millions (or billions) of
intervals while only about a hundred nodes stay non-zero.  A run must hold
and step only that window, so its memory does not depend on K.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

from cwblowup import SimParams, run

ROOT = Path(__file__).resolve().parent.parent


def test_run_peak_memory_is_bounded():
    # K reaches 3.7e6 here; one left half of it would take 15 MB
    tracemalloc.start()
    try:
        outcome, _ = run(SimParams(p=3.0, q=1.36, tau=0.1, h=0.05, lam=10.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.status.value == "BlewUp"
    assert outcome.final_grid.interval_count > 3 * 10**6
    assert peak < 5e6


# The address-space limit binds only the child: a state that grew with K
# (15 GB for one left half at K = 3.7e9) fails there with MemoryError
# instead of exhausting the machine.
_LIMITED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[1])
from cwblowup import SimParams, run
outcome, _ = run(SimParams(p=3.0, q=1.45))
print(outcome.status.value, outcome.final_grid.interval_count)
"""


def test_huge_grid_runs_in_limited_address_space():
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_RUN, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    status, k = proc.stdout.split()
    assert status == "BlewUp"
    assert int(k) > 3 * 10**9
