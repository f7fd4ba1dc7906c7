"""The benchmark's tracer still sees the package's layers.

``perfbench/tracer.py`` wraps the package's public calls by patching the
names its callers look up.  A refactor that renames or stops calling one of
them would leave the per-layer benchmark table silently empty, so this test
installs the tracer on a real run and checks what it recorded.  It runs in a
subprocess because ``Tracer.install`` patches module globals for the whole
process.  A second traced run checks that solves stay the size of the active
window near the peak, not of the grid.
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
from tracer import LAYERS, ROOT, WRAPPED, Tracer

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
    outcome, _ = cwblowup.simulator.run(cwblowup.SimParams(**json.loads(sys.argv[2])))
(root,) = [i for i, _, name, _, _ in tracer.spans if name == ROOT]
print(json.dumps({"unpatched": unpatched, "status": outcome.status.value,
                  "steps": outcome.n_final, "layers": tracer.layer_metrics(),
                  "root_children": [name for _, up, name, _, _ in tracer.spans if up == root],
                  "unlayered": sorted({name for i, _, name, _, _ in tracer.spans
                                       if i != root and name.split(".")[0] not in LAYERS})}))
"""


def _traced_run(**params) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT), json.dumps(params)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_tracer_sees_every_layer():
    result = _traced_run(p=3.0, q=1.2, lam=10.0)
    layers, steps = result["layers"], result["steps"]
    assert result["unpatched"] == [], f"unpatched sites {result['unpatched']}"
    assert result["status"] == "BlewUp" and steps > 0, f"{result['status']} after {steps} steps"
    step_n, assemble_n = layers["stepper.step.n"], layers["stepper.assemble.n"]
    solve_n, carry_n = layers["stepper.solve_tridiag.n"], layers["grid.carry_to_grid.n"]
    assert step_n == steps, f"stepper.step.n {step_n} against {steps} steps"
    assert assemble_n >= steps, f"stepper.assemble.n {assemble_n} against {steps} steps"
    assert solve_n >= steps, f"stepper.solve_tridiag.n {solve_n} against {steps} steps"
    assert carry_n > 1, f"grid.carry_to_grid.n {carry_n}"
    # the root span holds only the run, and every span below it is a layer's
    assert result["root_children"] == ["simulator.run"], result["root_children"]
    assert result["unlayered"] == [], result["unlayered"]


def test_solves_follow_the_active_window():
    # K grows to 3.7e6 while ~100 nodes near the peak are non-zero: a solve
    # the size of the grid (about 133k unknowns per solve on average) means
    # the window was lost
    result = _traced_run(p=3.0, q=1.36, lam=10.0)
    layers = result["layers"]
    assert result["unpatched"] == [] and result["status"] == "BlewUp"
    assert layers["grid.peak_K"] > 3 * 10**6
    assert layers["stepper.unknowns.n"] / layers["stepper.solve_tridiag.n"] < 1000
