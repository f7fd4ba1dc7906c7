"""The benchmark's tracer still sees the package's layers.

``perfbench/tracer.py`` wraps the package's public calls by patching the
names its callers look up.  A refactor that renames or stops calling one of
them would leave the per-layer benchmark table silently empty, so this test
installs the tracer on a real run and checks what it recorded.  It runs in a
subprocess because ``Tracer.install`` patches module globals for the whole
process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
sys.dont_write_bytecode = True  # leave no cache files in the benchmark's directory
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import cwblowup, cwblowup.analysis, cwblowup.cli, cwblowup.simulator
from tracer import WRAPPED, Tracer

tracer = Tracer()
tracer.install(cwblowup)
unpatched = []
for _, sites in WRAPPED:
    for site in sites:
        owner = cwblowup
        *path, attr = site.split(".")
        for part in path:
            owner = getattr(owner, part)
        if not hasattr(getattr(owner, attr), "__wrapped__"):
            unpatched.append(site)
with tracer.root():
    outcome, _ = cwblowup.simulator.run(cwblowup.SimParams(p=3.0, q=1.2, lam=10.0))
print(json.dumps({"unpatched": unpatched, "status": outcome.status.value,
                  "steps": outcome.n_final, "layers": tracer.layer_metrics()}))
"""


def test_tracer_sees_every_layer():
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout)
    layers, steps = result["layers"], result["steps"]
    assert result["unpatched"] == []
    assert result["status"] == "BlewUp" and steps > 0
    assert layers["stepper.step.n"] == steps
    assert layers["stepper.assemble.n"] >= steps
    assert layers["stepper.solve_tridiag.n"] >= steps
    assert layers["grid.carry_to_grid.n"] > 1
    assert abs(layers["trace.self_sum_ratio"] - 1.0) <= 0.05
