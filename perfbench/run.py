"""cwblowup benchmark: end-to-end metrics, or a traced per-layer table.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload refine-q136 --seed 1 --seconds 40 --trace 0

Each iteration runs in a fresh ``python3`` process (perfbench/worker.py)
with BLAS pinned to one thread, one process at a time: a closed loop with a
single client.  Inputs come from ``--seed`` (see workloads.plan); the run
is sized to ``--seconds`` by a fixed iteration count per workload.

``--trace 0`` reports the end-to-end metrics:
  wall_s       wall time of one iteration (blow-up verdict / CLI calls),
               averaged over the run's iterations
  steps_per_s  accepted steps of all iterations over their total wall time
  setup_s      median time to import cwblowup, validate and make_initial
               in a fresh process
  peak_rss_mb  median peak RSS of a fresh process running one iteration
  ok_frac      operations that matched their references / operations attempted

``--trace 1`` alternates untraced and traced iterations on the same inputs
and reports the per-layer table (medians over traced iterations) with the
tracing overhead.  The last stdout line is the JSON result; the line before
it holds digests, the known-defect status and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_PROBES = 5
SELF_SUM_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    from tracer import LAYERS, WRAPPED

    units = {}
    for name, _ in WRAPPED:
        units[name + ".s"] = "s"
        units[name + ".n"] = "count"
    for layer in LAYERS:
        units[layer + ".self_s"] = "s"
    units.update({
        "stepper.step.self_s": "s",
        "simulator.run.self_s": "s",
        "analysis.convergence_study.self_s": "s",
        "stepper.assemble.stiff.n": "count",
        "stepper.unknowns.n": "count",
        "stepper.picard_iters.n": "count",
        "stepper.sign_flips.n": "count",
        "grid.peak_K": "count",
        "grid.moved_bytes": "bytes-computed",
        "simulator.snapshot_bytes": "bytes",
        "cli.runs.n": "count",
        "cli.bytes_written": "bytes",
        "stepper.useful_solve_ratio": "ratio",
        "trace.total_s": "s",
        "trace.unattributed_s": "s",
        "trace.self_sum_ratio": "ratio",
        "trace.spans.n": "count",
        "trace.overhead_s": "s",
    })
    return units


class Runner:
    """Launches workers one at a time and keeps what they report."""

    def __init__(self, workload: str, work: Path, budget_s: float = DEADLINE_S) -> None:
        self.workload = workload
        self.work = work
        self.deadline = time.monotonic() + budget_s
        self.env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONHASHSEED="0",
            TMPDIR=str(work),
        )

    def worker(self, task: dict) -> dict:
        task = dict(task, root=str(ROOT), workload=self.workload)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(task)],
            capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=remaining,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-800:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def iteration_count(workload: str, seconds: int) -> int:
    # the warm-up and set-up probe processes take about 0.6 s each
    budget = seconds - (SETUP_PROBES * 0.6 if seconds >= 10 else 1.0)
    return max(1, int(budget / wl.NOMINAL_ITERATION_S[workload]))


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": "?", "llc": "?"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
        if caches:
            last = caches[-1]
            level = (last / "level").read_text().strip()
            info["llc"] = f"L{level} {(last / 'size').read_text().strip()}"
    except OSError:
        pass
    info["blas_threads"] = "OPENBLAS/OMP/MKL_NUM_THREADS=1"
    return info


def check(observed: dict, errors: dict, references: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) for one iteration's operations."""
    keys = sorted(set(observed) | set(errors))
    failed, messages = 0, []
    for key in keys:
        problems = []
        if key in errors:
            problems.append(errors[key])
        if key in observed:
            if key not in references:
                problems.append("no reference stored")
            else:
                problems += wl.mismatches(observed[key], references[key]["expect"], key)
        if problems:
            failed += 1
            messages += [f"{key}: {p}" for p in problems]
    return len(keys), failed, messages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cwblowup" / "__init__.py").is_file():
        print(f"error: no cwblowup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())

    out_root = ROOT / ".perfbench_out"
    work = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, Runner(args.workload, work), references, out_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, runner: Runner, references: dict, out_root: Path) -> int:
    n_iter = iteration_count(args.workload, args.seconds)
    spec = wl.plan(args.workload, args.seed, n_iter)
    if args.workload == "study-cli":
        spec["table"] = str(runner.work / "initial.csv")
        wl.write_table(Path(spec["table"]), spec["table_variant"])

    # Warm-up, not measured: fills the bytecode and file caches, runs the
    # known-defect case and reads the library versions.
    warm = runner.worker({"mode": "defect", "spec": spec, "out_dir": str(runner.work)})
    environment = dict(machine(), **warm["environment"])

    def task(i: int, traced: bool = False) -> dict:
        t = {"mode": "iteration", "spec": spec, "traced": traced,
             "out_dir": str(runner.work / f"it{i}{'t' if traced else ''}")}
        if "lams" in spec:
            t["lam"] = spec["lams"][i]
        if "table" in spec:
            t["table"] = spec["table"]
        if traced:
            t["spans_path"] = str(out_root / f"spans-{args.workload}.csv")
        return t

    untraced, traced = [], []
    setup_samples = []
    if args.trace == 0:
        probes = SETUP_PROBES if args.seconds >= 10 else 1
        for _ in range(probes):
            setup_samples.append(runner.worker({"mode": "setup", "spec": spec})["setup_s"])
        for i in range(n_iter):
            untraced.append(runner.worker(task(i)))
    else:
        for i in range(max(1, n_iter // 2)):
            untraced.append(runner.worker(task(i)))
            traced.append(runner.worker(task(i, traced=True)))

    attempted = failed = 0
    messages: list[str] = []
    digests: dict[str, str] = {}
    for r in untraced + traced:
        a, f, m = check(r["observed"], r["errors"], references)
        attempted, failed, messages = attempted + a, failed + f, messages + m
        for key, digest in r["digests"].items():
            if digests.setdefault(key, digest) != digest:
                messages.append(f"{key}: history digest differs between iterations")
                failed += 1

    median = statistics.median
    if args.trace == 0:
        setup_samples += [r["setup_s"] for r in untraced]
        # Run totals, not medians: the machine's speed shifts between states
        # that last tens of seconds, and a mean over the run varies less from
        # run to run than a median that snaps to whichever state dominated.
        walls = [r["wall_s"] for r in untraced]
        values = {
            "wall_s": statistics.fmean(walls),
            "steps_per_s": sum(r["steps"] for r in untraced) / sum(walls),
            "setup_s": median(setup_samples),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        samples = {"wall_s": walls, "setup_s": setup_samples}
    else:
        units = per_layer_units()
        values = {}
        for name in units:
            if name == "trace.overhead_s":
                values[name] = median(t["wall_s"] - u["wall_s"] for u, t in zip(untraced, traced))
            else:
                values[name] = median(t["layers"][name] for t in traced)
        samples = {"wall_s": [r["wall_s"] for r in untraced],
                   "traced_wall_s": [r["wall_s"] for r in traced]}
        ratio = values["trace.self_sum_ratio"]
        if abs(ratio - 1.0) > SELF_SUM_TOLERANCE:
            print(f"warning: layer self times sum to {ratio:.3f} of the traced total",
                  file=sys.stderr)
    print_table(values, units)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
        "inputs": {k: v for k, v in spec.items() if k != "table"},
        "digests": digests,
        "digests_match_references": {
            k: references.get(k, {}).get("digest") == d for k, d in digests.items()},
        "known_defect": warm["known_defect"],
        "environment": environment,
        "failures": messages,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def print_table(values: dict, units: dict) -> None:
    width = max(len(k) for k in units)
    for name, unit in units.items():
        print(f"{name:<{width}}  {values[name]:>16.6g}  {unit}")


if __name__ == "__main__":
    sys.exit(main())
