"""Self-test of the benchmark: each workload once, at reduced length.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Checks, for every workload, that an untraced and a traced run print every
metric named in BENCHMARK.json with its unit and pass the output checks,
that the layer self times add up to the traced total within 5%, and the two
layer facts the workloads were chosen for: on refine-q136 the step takes at
least 80% of the run, and fixed-q1 never regrids.  Last, the benchmark must
refuse to run, without a result, in a directory that holds only
BENCHMARK.json and perfbench/.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def layer_problems(where: str, workload: str, metrics: dict) -> list[str]:
    value = {name: m["value"] for name, m in metrics.items()}
    problems = []
    ratio = value["trace.self_sum_ratio"]
    if abs(ratio - 1.0) > 0.05:
        problems.append(f"{where}: self times sum to {ratio:.3f} of the total")
    if workload == "refine-q136" and value["stepper.step.s"] < 0.8 * value["simulator.run.s"]:
        problems.append(f"{where}: step takes under 80% of run")
    if workload == "fixed-q1" and value["grid.carry_to_grid.n"] != 0:
        problems.append(f"{where}: fixed-q1 regridded")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                detail = json.loads(proc.stdout.strip().splitlines()[-2])
                problems.append(f"{where}: outputs wrong: {detail['failures'][:3]}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in metrics.items()}
            if printed != expected:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed) ^ set(expected))}")
            if trace == 1:
                problems += layer_problems(where, workload, metrics)
            print(f"ran {where}", flush=True)

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark ran without the sources")
        else:
            print("ran without sources: refused", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
