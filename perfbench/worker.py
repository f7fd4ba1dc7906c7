"""One measurement in a fresh process; prints one JSON object on stdout.

Usage: python3 perfbench/worker.py '<json task>'

The task names a mode:

* ``setup``     - time ``import cwblowup`` plus ``validate`` and
                  ``make_initial`` for the workload's first input;
* ``iteration`` - the same set-up, then one timed workload iteration,
                  optionally traced; returns the observations to check;
* ``defect``    - run the known-defect CLI case and report its status.

Every mode reports the process's peak RSS.  The package is imported from
the ``src`` directory of the checkout named in the task and from nowhere
else.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

TASK = json.loads(sys.argv[1])
ROOT = Path(TASK["root"])
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import cwblowup  # noqa: E402
import cwblowup.analysis  # noqa: E402
import cwblowup.cli  # noqa: E402
import cwblowup.simulator  # noqa: E402

import workloads as wl  # noqa: E402


def _base_params(workload: str, spec: dict):
    if workload == "refine-q136":
        return cwblowup.SimParams(lam=spec["lams"][0], **wl.REFINE_PARAMS)
    if workload == "fixed-q1":
        return cwblowup.SimParams(lam=spec["lams"][0], **wl.FIXED_PARAMS)
    return cwblowup.SimParams()


def _setup(workload: str, spec: dict) -> float:
    params = _base_params(workload, spec)
    report = cwblowup.validate(params)
    if not report.ok:
        raise SystemExit(f"workload parameters refused: {report.failures()}")
    grid = cwblowup.build_grid(cwblowup.compute_h(params, params.lam))
    cwblowup.make_initial(params, grid)
    return time.perf_counter() - _T0


def _count_steps(package) -> list[int]:
    """Sum accepted steps over every run() call, through the callers' lookups."""
    total = [0]
    original = package.simulator.run

    def counted(*args, **kwargs):
        outcome, history = original(*args, **kwargs)
        total[0] += outcome.n_final
        return outcome, history

    for module in (package.simulator, package.analysis, package.cli):
        module.run = counted
    return total


def _api_iteration(params_base: dict, lam: float):
    """One run to blow-up plus its verdicts and time bounds, looked up at call time."""
    sim, ana = cwblowup.simulator, cwblowup.analysis
    params = cwblowup.SimParams(lam=lam, **params_base)
    outcome, history = sim.run(params)
    report = ana.classify_blowup_set(history, params)
    bounds = ana.blowup_time_bounds(outcome, params)
    return outcome, history, report, bounds


def _iteration(task: dict, steps: list[int], tracer) -> dict:
    workload, spec = task["workload"], task["spec"]
    obs, digests, errors = {}, {}, {}
    root = tracer.root() if tracer is not None else contextlib.nullcontext()
    if workload in ("refine-q136", "fixed-q1"):
        base = wl.REFINE_PARAMS if workload == "refine-q136" else wl.FIXED_PARAMS
        lam = task["lam"]
        key = wl.reference_key(workload, repr(lam), spec)
        t0 = time.perf_counter()
        with root:
            try:
                result = _api_iteration(base, lam)
            except Exception as exc:  # reported as a failed operation
                result, errors[key] = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if result is not None:
            outcome, history, report, bounds = result
            obs[key] = wl.observe_api_run(outcome, report, bounds)
            digests[key] = wl.history_digest(history, cwblowup.simulator.HISTORY_COLUMNS)
    else:
        out_root = Path(task["out_dir"])
        ops = wl.study_ops(Path(task["table"]))
        exits = {}
        sink_out, sink_err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with root, contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            for name, argv in ops:
                try:
                    exits[name] = cwblowup.cli.main(argv + ["--output-dir", str(out_root / name)])
                except Exception as exc:  # reported as a failed operation
                    errors[wl.reference_key(workload, name, spec)] = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        for name, _ in ops:
            key = wl.reference_key(workload, name, spec)
            if name in exits:
                out = out_root / name
                obs[key] = wl.observe_cli(name, exits[name], out)
                digests[key] = wl.files_digest(out)
                if exits[name] != 0:
                    errors[key] = sink_err.getvalue().strip()[-500:]
    result = {"wall_s": wall, "steps": steps[0], "observed": obs, "digests": digests,
              "errors": errors}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["cli.bytes_written"] = sum(
            f.stat().st_size for f in Path(task["out_dir"]).rglob("*") if f.is_file())
        if task.get("spans_path"):
            tracer.write_spans(Path(task["spans_path"]))
    return result


def _defect(task: dict) -> dict:
    out = Path(task["out_dir"]) / "known-defect"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cwblowup.cli.main(list(wl.KNOWN_DEFECT_ARGV) + ["--output-dir", str(out)])
    message = err.getvalue().strip()
    status = "SolverError" if "SolverError" in message else ("ok" if code == 0 else "error")
    return {
        "case": " ".join(wl.KNOWN_DEFECT_ARGV),
        "exit_code": code,
        "status": status,
        "message": message.splitlines()[-1] if message else "",
    }


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
    }


def main() -> None:
    src_file = Path(cwblowup.__file__).resolve()
    if SRC.resolve() not in src_file.parents:
        raise SystemExit(f"cwblowup imported from {src_file}, not from {SRC}")
    mode = TASK["mode"]
    result: dict = {}
    if mode == "defect":
        result = {"known_defect": _defect(TASK), "environment": _environment()}
    else:
        result["setup_s"] = _setup(TASK["workload"], TASK["spec"])
        if mode == "iteration":
            steps = _count_steps(cwblowup)
            tracer = None
            if TASK.get("traced"):
                from tracer import Tracer

                tracer = Tracer()
                tracer.install(cwblowup)
            result.update(_iteration(TASK, steps, tracer))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
