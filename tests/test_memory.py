"""Memory follows the active window near the peak, not the grid size K.

Near blow-up with q > 1 the grid refines to millions (or billions) of
intervals while only about a hundred nodes stay non-zero.  A run must hold
and step only that window, so its memory does not depend on K.
"""

import subprocess
import sys
import tracemalloc
from pathlib import Path

from cwblowup import SimParams, compute_h, make_initial, run
from cwblowup.grid import build_grid_by_count, interval_count_for
from cwblowup.simulator import _INITIAL_MAX_INTERVALS, _SNAPSHOT_MAX_INTERVALS

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


def test_make_initial_holds_less_than_two_node_vectors():
    # make_initial builds and samples x_0..x_mid on a cold grid, so it never
    # holds two K+1 node vectors at once, and the grid keeps no coordinates
    grid = build_grid_by_count(2**20)
    tracemalloc.start()
    try:
        state = make_initial(SimParams(lam=100.0), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.u.size == grid.mid + 1
    assert peak < 2 * 8 * (grid.interval_count + 1)
    assert set(vars(grid)) == {"interval_count", "h", "mid"}


# The address-space limit binds only the child: a state that grew with K
# (15 GB for one left half at K = 3.7e9) fails there with MemoryError
# instead of exhausting the machine.
_LIMITED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.path.insert(0, sys.argv[1])
from cwblowup import ConfigError, SimParams, run
try:
    outcome, _ = run(
        SimParams(p=3.0, q=1.45, lam=float(sys.argv[3])), snapshot_every=int(sys.argv[2])
    )
except ConfigError as exc:
    print("ConfigError", exc)
else:
    print(outcome.status.value, outcome.final_grid.interval_count)
"""


def _limited_run(snapshot_every: int, lam: float = 10.0) -> list[str]:
    proc = subprocess.run(
        [
            sys.executable, "-c", _LIMITED_RUN, str(ROOT / "src"), str(snapshot_every),
            repr(lam),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def test_huge_grid_runs_in_limited_address_space():
    status, k = _limited_run(0)
    assert status == "BlewUp"
    assert int(k) > 3 * 10**9


def test_huge_grid_snapshots_refused_in_limited_address_space():
    # each snapshot lists all K+1 nodes (59 GB at K = 3.7e9), so the run is
    # refused at the first regrid beyond the limit, not ended by MemoryError
    words = _limited_run(100)
    assert words[0] == "ConfigError", words
    assert f"{_SNAPSHOT_MAX_INTERVALS};" in words


def test_huge_initial_grid_refused_in_limited_address_space():
    # lambda = 1e11 starts on K = 5.7e8, whose K+1 sampled nodes (4.2 GiB)
    # cannot be built, so the run is refused before sampling, with or without
    # snapshots
    words = _limited_run(0, lam=1e11)
    assert words[0] == "ConfigError", words
    assert "K = 567156262" in " ".join(words)
    assert f"{_INITIAL_MAX_INTERVALS}" in " ".join(words)


def test_snapshot_limit_admits_the_largest_refining_run():
    # p=3 q=1.36 reaches K = 3.7e6 at the default threshold, and its
    # snapshot runs must keep working
    k = interval_count_for(compute_h(SimParams(p=3.0, q=1.36), 1e12))
    assert _SNAPSHOT_MAX_INTERVALS >= k
