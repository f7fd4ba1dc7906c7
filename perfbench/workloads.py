"""Workload inputs, operations and output checks.

Inputs are generated from the seed here, in the launcher; the solver only
ever sees the generated parameters and files.  Each operation returns an
observation: the fields checked against ``references.json`` plus a sha256
digest of the history columns (or of the CLI's output files), which is
reported but not checked, so later changes can show bit-identity.

Why each workload (also recorded in BENCHMARK.json):

* refine-q136 - p=3, q=1.36: the grid refines from 40 to about 3.7M
  intervals while only ~170 nodes stay non-zero, so cost is per-node work
  over the full grid; this is where an active-window solve shows.
* fixed-q1 - p=2, q=1, tau=0.001: K stays 40 for ~27k steps, so cost is
  per-call overhead (numpy reductions, the scipy wrapper, the monitor); it
  never regrids and so bypasses any active-window change.
* study-cli - the paper's deliverables through ``cli.main`` at small K:
  snapshots, file writes, many short runs and the full-width solve of
  non-symmetric table initial data.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

# Amplitudes of the paper's criterion-1 table (refine-q136).
REFINE_LAMBDAS = (10.0, 1e2, 1e3, 1e4, 1e5)
# Log-uniform grid over [5, 20] (fixed-q1): 5 * 4**(j/32), j = 0..32.
FIXED_LAMBDAS = tuple(5.0 * 4.0 ** (j / 32) for j in range(33))
# Table initial data variants (study-cli): amplitude and shape exponent.
TABLE_VARIANTS = tuple((a, b) for a in (12.0, 16.0, 20.0, 24.0) for b in (1.0, 1.5, 2.0))
TABLE_POINTS = 157  # never aligned with the solver's grid

# Relative tolerance for every float compared against references.json.
RTOL = 1e-6

WORKLOADS = ("refine-q136", "fixed-q1", "study-cli")

# Approximate seconds per iteration on a 2-core Xeon VM (fresh process
# included); used only to size a run to --seconds.
NOMINAL_ITERATION_S = {"refine-q136": 10.0, "fixed-q1": 5.0, "study-cli": 2.0}

REFINE_PARAMS = {"p": 3.0, "q": 1.36, "tau": 0.1, "h": 0.05}
FIXED_PARAMS = {"p": 2.0, "q": 1.0, "tau": 0.001, "h": 0.05}

# Known defect, run outside the timed iterations and reported, not gated:
# the h = 0.00125 reference run gives lambda_n = 6.4e4 and its solve fails
# the residual check, so the study ends SolverError and the CLI exits 2.
KNOWN_DEFECT_ARGV = (
    "converge", "--set", "p=2", "--set", "q=1", "--levels", "0.02,0.01,0.005",
)


def plan(workload: str, seed: int, iterations: int) -> dict:
    """Inputs for ``iterations`` iterations of ``workload``, drawn from ``seed``.

    refine-q136 and fixed-q1 stratify their amplitudes, so the median over a
    run's iterations does not move with the seed: refine-q136 cycles through
    the seed's table entry, its mirror in the table and the middle entry
    (whose step count is the median of the three), fixed-q1 takes one
    amplitude from each of ``iterations`` equal slices of the log-uniform
    grid.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "refine-q136":
        k = rng.randrange(len(REFINE_LAMBDAS))
        cycle = [k, len(REFINE_LAMBDAS) - 1 - k, len(REFINE_LAMBDAS) // 2]
        rng.shuffle(cycle)
        lams = [REFINE_LAMBDAS[cycle[i % 3]] for i in range(iterations)]
        return {"lams": lams}
    if workload == "fixed-q1":
        u = rng.random()
        n = len(FIXED_LAMBDAS)
        idx = [min(n - 1, int((i + u) * n / iterations)) for i in range(iterations)]
        rng.shuffle(idx)
        return {"lams": [FIXED_LAMBDAS[j] for j in idx]}
    if workload == "study-cli":
        return {"table_variant": rng.randrange(len(TABLE_VARIANTS))}
    raise ValueError(f"unknown workload {workload!r}")


def write_table(path: Path, variant: int) -> None:
    """Write table initial data u0 = a * cos(pi x / 2)**b at equispaced x.

    x_i = -1 + 2i/(n-1) is symmetric about 0 only to rounding, so the
    sampled profile is not bit-symmetric and the run takes the full-width
    solve.
    """
    a, b = TABLE_VARIANTS[variant]
    n = TABLE_POINTS
    xs = [-1.0 + 2.0 * i / (n - 1) for i in range(n)]
    us = [a * math.cos(0.5 * math.pi * x) ** b for x in xs]
    us[0] = us[-1] = 0.0
    lines = ["x,u0"] + [f"{x!r},{u!r}" for x, u in zip(xs, us)]
    path.write_text("\n".join(lines) + "\n")


def study_ops(table: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of the CLI calls in one study-cli iteration."""
    return [
        ("classify-p2-q1", ["classify", "--set", "p=2", "--set", "q=1"]),
        ("diagnostics-p4-q1.3", ["diagnostics", "--set", "p=4", "--set", "q=1.3"]),
        ("time-table-q1.2", ["time-table", "--set", "q=1.2", "--lambdas", "10,100,1000"]),
        ("figures", ["figures"]),
        ("converge-q1", ["converge", "--set", "q=1"]),
        ("converge-q1.2-fine",
         ["converge", "--set", "q=1.2", "--levels", "0.02,0.01,0.005"]),
        ("run-table",
         ["run", "--set", f"initial=file:{table.resolve()}", "--snapshot-every", "20"]),
    ]


def reference_key(workload: str, op: str, spec: dict) -> str:
    if workload == "study-cli":
        if op == "run-table":
            return f"study-cli/run-table/variant={spec['table_variant']}"
        return f"study-cli/{op}"
    return f"{workload}/lam={op}"


# -- observations ------------------------------------------------------------
def history_digest(history, columns) -> str:
    import numpy as np

    h = hashlib.sha256()
    for name in columns:
        h.update(np.asarray(history.rows[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def observe_api_run(outcome, report, bounds) -> dict:
    """Checked fields of one in-process run (refine-q136, fixed-q1)."""
    return {
        "status": outcome.status.value,
        "t_num_partial": outcome.t_num_partial,
        "t_num_tail": outcome.t_num_tail,
        "verdicts": {str(k): v.value for k, v in sorted(report.verdicts.items())},
        "sandwich_ok": bounds.sandwich_ok,
    }


def _csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def observe_cli(op: str, exit_code: int, out: Path) -> dict:
    """Checked fields of one CLI call, read back from its output files."""
    obs: dict = {"exit_code": exit_code}
    if exit_code != 0:
        return obs
    if op.startswith("diagnostics"):
        outcome = json.loads((out / "diagnostics.json").read_text())["outcome"]
    elif op.startswith(("classify", "run")):
        outcome = json.loads((out / "outcome.json").read_text())
    else:
        outcome = None
    if outcome is not None:
        obs["status"] = outcome["status"]
        obs["t_num_partial"] = outcome["t_num_partial"]
    if op.startswith("classify"):
        report = json.loads((out / "blowup_report.json").read_text())
        obs["verdicts"] = {str(o["offset"]): o["verdict"] for o in report["offsets"]}
    elif op.startswith("diagnostics"):
        obs["failures"] = json.loads((out / "diagnostics.json").read_text())["failures"]
    elif op.startswith("time-table"):
        rows = _csv_rows(out / "time_table.csv")
        obs["T_num"] = [float(r["T_num"]) for r in rows]
        obs["sandwich_ok"] = [r["sandwich_ok"] for r in rows]
        obs["row_status"] = [r["status"] for r in rows]
    elif op == "figures":
        rows = _csv_rows(out / "time_vs_bound.csv")
        obs["T_num"] = [float(r["T_num"]) for r in rows]
        obs["row_status"] = [r["status"] for r in rows]
        obs["files"] = sorted(p.name for p in out.iterdir())
    elif op.startswith("converge"):
        report = json.loads((out / "convergence.json").read_text())
        obs["fitted_order"] = report["fitted_order"]
        obs["errors"] = report["errors"]
    elif op.startswith("run"):
        obs["snapshots"] = sum(1 for p in out.iterdir() if p.name.startswith("snapshot_"))
    return obs


def files_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- checks ------------------------------------------------------------------
def mismatches(observed, reference, where: str = "") -> list[str]:
    """Differences beyond RTOL (floats) or any difference (everything else)."""
    if isinstance(reference, dict):
        if not isinstance(observed, dict) or set(observed) != set(reference):
            return [f"{where}: keys {sorted(observed) if isinstance(observed, dict) else observed}"
                    f" != {sorted(reference)}"]
        out: list[str] = []
        for key in reference:
            out += mismatches(observed[key], reference[key], f"{where}.{key}")
        return out
    if isinstance(reference, list):
        if not isinstance(observed, list) or len(observed) != len(reference):
            return [f"{where}: {observed!r} != {reference!r}"]
        out = []
        for i, (o, r) in enumerate(zip(observed, reference)):
            out += mismatches(o, r, f"{where}[{i}]")
        return out
    if isinstance(reference, float) and not isinstance(observed, bool) \
            and isinstance(observed, (int, float)):
        if math.isclose(observed, reference, rel_tol=RTOL, abs_tol=0.0):
            return []
        return [f"{where}: {observed!r} != {reference!r} (rtol {RTOL})"]
    return [] if observed == reference else [f"{where}: {observed!r} != {reference!r}"]
