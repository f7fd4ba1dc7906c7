"""Regenerate perfbench/references.json from the current sources.

Usage (from the root of a checkout): python3 perfbench/make_references.py

Runs every input the workloads can draw, untraced, through the same worker
as the benchmark and stores the checked fields and the history digest of
each operation.  Run it only when a change is meant to alter the outputs,
and say so where the change is described.  Takes about four minutes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run as bench
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(bench.ROOT / "src"))
    from cwblowup import InitialData, SimParams, build_grid, compute_h

    references: dict[str, dict] = {}
    out_root = bench.ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        work = Path(tmp)
        runner = bench.Runner("refine-q136", work, budget_s=3600.0)

        def collect(workload: str, task: dict) -> None:
            runner.workload = workload
            out = work / f"out{len(references)}"
            result = runner.worker(dict(task, mode="iteration", out_dir=str(out)))
            if result["errors"]:
                raise SystemExit(f"{workload}: {result['errors']}")
            for key, observed in result["observed"].items():
                references[key] = {"expect": observed, "digest": result["digests"][key]}
                print(key, observed.get("status", ""), flush=True)

        for workload, lams in (("refine-q136", wl.REFINE_LAMBDAS),
                               ("fixed-q1", wl.FIXED_LAMBDAS)):
            for lam in lams:
                collect(workload, {"spec": {"lams": [lam]}, "lam": lam})
        for variant in range(len(wl.TABLE_VARIANTS)):
            table = work / "initial.csv"
            wl.write_table(table, variant)
            # The table must take the full-width (non-symmetric) solve.
            initial = InitialData.from_csv(table)
            params = SimParams()
            grid = build_grid(compute_h(params, initial.sup_estimate(params)))
            u = initial.sample(params, grid.nodes, grid.mid)
            if (u == u[::-1]).all():
                raise SystemExit(f"table variant {variant} samples bit-symmetric")
            collect("study-cli", {"spec": {"table_variant": variant}, "table": str(table)})

    path = bench.HERE / "references.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(references)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
