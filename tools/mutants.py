"""Mutation gate: the tier-1 suite must kill a fixed list of source mutants.

Each mutant replaces one string, which occurs exactly once under ``src/``,
by another: a check turned off or moved by one, a constant or a formula
changed.  For each mutant the script copies the repository into a temporary
directory, applies the mutant there, and runs the whole tier-1 suite on the
copy.  It prints, per mutant, every test that failed (the kill matrix) with
its crash message and the first one, then the tests that are the sole killer
of some mutant.  It exits 1 when the unmutated suite fails on the copy, when
a mutant's string is not found exactly once, when a suite run does not
finish, and when a mutant survives that is not in ``EXPECTED_SURVIVORS``, or
one that is gets killed.

    python tools/mutants.py   # one suite run per mutant: about 20 min on 2 vCPUs

The runs repeat: pytest runs without its cache and with a fixed Hypothesis
seed.  Each runs under an address-space limit, so a mutant that lets a
window or a grid grow fails its test with MemoryError instead of taking the
machine's memory, and each test under a time limit, so a mutant that loops
fails its test instead of hanging the run.  This file is also the pytest
plugin (``-p mutants``) that sets the time limit and logs the failed tests
with the message of each one's crash line.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cwblowup"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cwblowup
    function: str
    old: str
    new: str


MUTANTS = (
    # stepper.step
    Mutant("step-length-check-off-by-one", "stepper.py", "step",
           "    if start < 0:\n", "    if start < -1:\n"),
    Mutant("step-admits-falling-window", "stepper.py", "step",
           "sup < math.inf and low >= 0.0 and", "sup < math.inf and"),
    Mutant("step-admits-negative-first-value", "stepper.py", "step",
           "and low >= 0.0 and u[0] >= 0.0):", "and low >= 0.0):"),
    Mutant("step-admits-infinite-sup", "stepper.py", "step",
           "(sup < math.inf and low", "(low"),
    Mutant("step-threshold-check-off", "stepper.py", "step",
           "    if sup >= params.blow_threshold:\n        raise StepError",
           "    if False:\n        raise StepError"),
    Mutant("step-grid-admission-off", "stepper.py", "step",
           "** (q - 1.0) <= 1.0:", "** (q - 1.0) <= 1e300:"),
    Mutant("step-zero-edge-always-accepted", "stepper.py", "step",
           "if lo == 0 or not np.count_nonzero(", "if True or not np.count_nonzero("),
    Mutant("step-retry-plain-doubling", "stepper.py", "step",
           "wanted = max(2 * margin, u.size)", "wanted = 2 * margin"),
    Mutant("step-retry-window-uncapped", "stepper.py", "step",
           "capped = min(wanted, limit - u.size)", "capped = wanted"),
    Mutant("step-retry-solved-limit-window-again", "stepper.py", "step",
           "if capped <= margin:", "if capped < margin:"),
    Mutant("step-rise-check-off", "stepper.py", "step",
           "if not rising:", "if False:"),
    Mutant("solve-finite-check-off", "stepper.py", "step",
           " and top < math.inf", ""),
    Mutant("step-trim-one-node-too-far", "stepper.py", "step",
           "min(first - 1, new.size - 3)", "min(first, new.size - 3)"),
    Mutant("step-no-kahan-compensation", "stepper.py", "step",
           "y = tau_n - state.t_comp", "y = tau_n"),
    Mutant("step-keeps-negative-zero-sup", "stepper.py", "step",
           "sup_norm=top + 0.0", "sup_norm=top"),
    Mutant("step-gamma-exponent", "stepper.py", "step",
           "(w[2:] - w[:-2]) ** (q - 1.0)", "(w[2:] - w[:-2]) ** (q - 0.999)"),
    # stepper.assemble
    Mutant("assemble-peak-row-not-folded", "stepper.py", "assemble",
           "band[m - 1] = -2.0 * lam", "band[m - 1] = -lam"),
    Mutant("assemble-gamma-rows-shifted", "stepper.py", "assemble",
           "np.subtract(-lam, gamma[1:],", "np.subtract(-lam, gamma[:-1],"),
    # stepper.solve_tridiag
    Mutant("solve-pivot-info-ignored", "stepper.py", "solve_tridiag",
           "if info != 0:", "if info < 0:"),
    # simulator.RunHistory.record
    Mutant("record-second-neighbour-wraps", "simulator.py", "RunHistory.record",
           "second = u[-3] if grid.mid >= 2 else 0.0", "second = u[-3]"),
    Mutant("record-offset-2-reads-offset-1", "simulator.py", "RunHistory.record",
           "second = u[-3] if", "second = u[-2] if"),
    Mutant("record-peak-cells-swapped", "simulator.py", "RunHistory.record",
           "u[-1], u[-2], second", "u[-2], u[-1], second"),
    Mutant("record-growth-reverses-rows", "simulator.py", "RunHistory.record",
           "grown[:k] = self._block", "grown[:k] = self._block[::-1]"),
    # simulator.run
    Mutant("run-decayed-on-sup-alone", "simulator.py", "run",
           "if (u <= np.sin(0.5 * np.pi * grid.h * j)).all():", "if True:"),
    Mutant("run-phi-doubled-frequency", "simulator.py", "run",
           "np.sin(0.5 * np.pi * grid.h * j)", "np.sin(np.pi * grid.h * j)"),
    Mutant("run-budget-one-step-late", "simulator.py", "run",
           "if state.n >= params.max_steps:", "if state.n > params.max_steps:"),
    Mutant("run-snapshot-grid-unlimited", "simulator.py", "run",
           "    if k > _SNAPSHOT_MAX_INTERVALS:", "    if False:"),
    Mutant("run-q-below-1.5-never-regrids", "simulator.py", "run",
           "q_one = params.q == 1.0", "q_one = params.q < 1.5"),
    # simulator.tail_estimate
    Mutant("tail-is-one-term", "simulator.py", "tail_estimate",
           "tau_last * r / (1.0 - r)", "tau_last * r"),
    # grid.compute_h and grid.compute_tau
    Mutant("compute-h-unclamped", "grid.py", "compute_h",
           "return min(params.h, shrink)", "return shrink"),
    Mutant("compute-h-refuses-q-above-2-only", "grid.py", "compute_h",
           "if params.q >= 2.0:", "if params.q > 2.0:"),
    Mutant("compute-tau-power-below-unit-sup", "grid.py", "compute_tau",
           "    if sup_norm <= 1.0:\n        return params.tau\n",
           "    if sup_norm <= 0.0:\n        return params.tau\n"),
    Mutant("compute-tau-exponent", "grid.py", "compute_tau",
           "sup_norm ** (1.0 - params.p)", "sup_norm ** (0.9 - params.p)"),
    # params.validate
    Mutant("validate-admits-zero-tau", "params.py", "validate",
           'params.tau > 0.0, f"tau must be positive', 'params.tau >= 0.0, f"tau must be positive'),
    Mutant("validate-q-unbounded-above", "params.py", "validate",
           "1.0 <= q <= q_hi,", "1.0 <= q,"),
    Mutant("validate-tail-ratio-unchecked", "params.py", "validate",
           "or tail_ratio(params) < 1.0,", "or True,"),
    Mutant("validate-threshold-overflow-margin", "params.py", "validate",
           "< _MAX_LOG10\n", "< _MAX_LOG10 + 100.0\n"),
    Mutant("validate-rounding-limit-doubled", "params.py", "validate",
           "not lam_max >= 2.0**52,", "not lam_max >= 2.0**53,"),
    # params._check_left_half
    Mutant("profile-absolute-tolerance", "params.py", "_check_left_half",
           "tol = 1e-12 * max(-lo, hi)", "tol = 1e-12 * max(-lo, hi, 1.0)"),
    Mutant("profile-negative-check-off", "params.py", "_check_left_half",
           "    if lo < -tol:\n", "    if False:\n"),
    Mutant("profile-flatness-check-off", "params.py", "_check_left_half",
           "if max(hi - u[0], u[0] - lo) <= tol:", "if False:"),
    Mutant("profile-boundary-check-off", "params.py", "_check_left_half",
           "if abs(u[0]) > tol:", "if False:"),
    Mutant("profile-admits-flat-steps", "params.py", "_check_left_half",
           "if not (u[1:] > u[:-1]).all():", "if not (u[1:] >= u[:-1]).all():"),
    # params.SimParams.regime
    Mutant("regime-boundary-included", "params.py", "SimParams.regime",
           "self.q < 2.0 * (self.p - 1.0) / self.p", "self.q <= 2.0 * (self.p - 1.0) / self.p"),
    # analysis.classify_blowup_set
    Mutant("classify-mid-check-off-by-one", "analysis.py", "classify_blowup_set",
           "if mid < 3:", "if mid < 2:"),
    Mutant("classify-admits-two-rows", "analysis.py", "classify_blowup_set",
           "if len(u_m) < CLASSIFY_MIN_ROWS:", "if len(u_m) < 2:"),
    Mutant("classify-unfinished-run-admitted", "analysis.py", "classify_blowup_set",
           "    if sup[-1] < params.blow_threshold:\n", "    if False:\n"),
    Mutant("classify-bounded-drift-doubled", "analysis.py", "classify_blowup_set",
           "_BOUNDED_DRIFT = 0.01 ", "_BOUNDED_DRIFT = 0.02 "),
    Mutant("classify-trend-persistence-raised", "analysis.py", "classify_blowup_set",
           "_TREND_PERSISTENCE = 0.5 ", "_TREND_PERSISTENCE = 0.6 "),
    # analysis.convergence_study
    Mutant("converge-q1-compares-mid-2", "analysis.py", "convergence_study",
           "upto, expected = 1, 2.0", "upto, expected = 2, 2.0"),
    Mutant("converge-levels-need-not-halve", "analysis.py", "convergence_study",
           "if b != 2 * a:", "if False:"),
    Mutant("converge-reference-twice-the-finest", "analysis.py", "convergence_study",
           "k_ref = 4 * counts[-1]", "k_ref = 2 * counts[-1]"),
    Mutant("converge-immediate-blowup-admitted", "analysis.py", "convergence_study",
           "        if not t_check > 0.0:\n", "        if False:\n"),
    # cli.main and the verbs' exit codes
    Mutant("main-step-error-exits-2", "cli.py", "main",
           'SolverError\n        print(f"error: {exc}", file=sys.stderr)\n        return 3',
           'SolverError\n        print(f"error: {exc}", file=sys.stderr)\n        return 2'),
    Mutant("run-solver-error-exits-0", "cli.py", "cmd_run",
           "return 3 if outcome.status", "return 0 if outcome.status"),
    Mutant("diagnostics-failure-exits-0", "cli.py", "cmd_diagnostics",
           "return 4 if failures else 0", "return 0 if failures else 0"),
    Mutant("diagnostics-growth-bound-doubled", "cli.py", "cmd_diagnostics",
           "diag.growth_deviation > 0.01:", "diag.growth_deviation > 0.02:"),
    Mutant("diagnostics-ratio-bound-doubled", "cli.py", "cmd_diagnostics",
           "diag.ratio_change_deviation > 0.02:", "diag.ratio_change_deviation > 0.04:"),
    # cli's input refusals
    Mutant("amplitudes-empty-list-admitted", "cli.py", "_amplitude_table",
           "    if not lambdas:\n", "    if False:\n"),
    Mutant("output-dir-file-admitted", "cli.py", "_output_dir",
           "if not existing.is_dir():", "if False:"),
    # params' config parsing
    Mutant("config-unknown-key-admitted", "params.py", "_pair",
           'if key not in _FIELDS and key != "initial":', "if False:"),
    Mutant("config-fraction-truncated", "params.py", "build_params",
           "if not number.is_integer():", "if False:"),
)

# Mutants the suite does not kill, each with the reason it may stay.
EXPECTED_SURVIVORS = {
    "classify-trend-persistence-raised": (
        "no tracked offset of a test run has a late-to-early increment ratio "
        "between 0.5 and 0.6; ROADMAP item 6 replaces the persistence test by a "
        "fit of the growth law and deletes _TREND_PERSISTENCE"
    ),
}

# Functions the list must reach (each with at least one mutant).
FUNCTIONS = (
    "step", "assemble", "solve_tridiag", "RunHistory.record", "run", "tail_estimate",
    "compute_h", "compute_tau", "validate", "_check_left_half", "classify_blowup_set",
    "convergence_study", "main", "cmd_run", "cmd_diagnostics", "_amplitude_table",
    "_output_dir", "_pair", "build_params",
)

# address space of one suite run, and wall time of one test and of one run
_ADDRESS_SPACE = 2 << 30
_TEST_SECONDS = 30
_RUN_SECONDS = 900
_LOG = "CWBLOWUP_MUTANT_LOG"


def target_counts() -> dict[str, int]:
    """How often each mutant's string occurs in its file."""
    return {m.name: (SRC / m.file).read_text().count(m.old) for m in MUTANTS}


# --- the pytest plugin, active in the suite runs of main() -----------------


class TimeLimitExceeded(Exception):
    """A test ran longer than _TEST_SECONDS."""


def _alarm(signum, frame):
    raise TimeLimitExceeded(f"test ran longer than {_TEST_SECONDS} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(_TEST_SECONDS)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _log(line: str) -> None:
    with open(os.environ[_LOG], "a") as f:
        f.write(line + "\n")


def pytest_collectreport(report):
    if report.failed:
        _log(f"collect {report.nodeid}")


def pytest_runtest_logreport(report):
    if report.failed:
        # the crash line's message, whitespace runs (newlines too) made one space
        crash = getattr(report.longrepr, "reprcrash", None)
        message = " ".join(crash.message.split()) if crash else ""
        _log(f"failed {report.nodeid}\t{message}")


def pytest_sessionfinish(session, exitstatus):
    _log(f"done {session.testscollected}")


# --- the gate ---------------------------------------------------------------


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def _run_suite(mutant: Mutant | None) -> tuple[dict[str, str] | None, int, float]:
    """Failed test ids in run order, each with its crash message (None if the
    run did not finish), the number of tests collected, and the run's wall
    time."""
    with tempfile.TemporaryDirectory(prefix="cwblowup-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "cw_out",
            ),
        )
        if mutant is not None:
            path = copy / "src" / "cwblowup" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        log = Path(tmp) / "failed.log"
        log.touch()
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join((str(copy / "src"), str(copy / "tools"))),
            "PYTHONDONTWRITEBYTECODE": "1",
            _LOG: str(log),
        }
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-p", "mutants", "--hypothesis-seed=0"]
        if mutant is not None:
            # the guard of this list fails on every mutated copy by design
            argv.append("--ignore=tests/test_mutants.py")
        start = time.perf_counter()
        with open(Path(tmp) / "pytest.out", "w") as out:
            proc = subprocess.Popen(
                argv,
                cwd=copy, env=env, stdout=out, stderr=subprocess.STDOUT,
                preexec_fn=_limit_address_space, start_new_session=True,
            )
            try:
                proc.wait(timeout=_RUN_SECONDS)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        seconds = time.perf_counter() - start
        lines = log.read_text().splitlines()
        failed = {}
        for line in lines:
            kind, _, rest = line.partition(" ")
            if kind != "done":
                test, _, message = rest.partition("\t")
                failed.setdefault(test, message)
        done = [line for line in lines if line.startswith("done ")]
        if not done:
            tail = (Path(tmp) / "pytest.out").read_text().splitlines()[-5:]
            print("    the suite did not finish; its last lines:", *tail, sep="\n      ")
            return None, 0, seconds
        return failed, int(done[-1].split()[1]), seconds


def main() -> int:
    problems = [f"{name}: string found {n} times" for name, n in target_counts().items() if n != 1]
    problems += [f"{name} is not in the list" for name in EXPECTED_SURVIVORS
                 if name not in {m.name for m in MUTANTS}]
    if problems:
        print("the mutant list does not match src/:", *problems, sep="\n  ")
        return 1
    failed, collected, seconds = _run_suite(None)
    print(f"unmutated: {collected} tests, {len(failed or [])} failed ({seconds:.0f} s)")
    if failed is None or failed:
        for test, message in (failed or {}).items():
            print(f"  {test}: {message}")
        return 1

    kills: dict[str, list[str]] = {}
    bad = []
    for i, mutant in enumerate(MUTANTS, 1):
        failed, collected, seconds = _run_suite(mutant)
        expected = mutant.name in EXPECTED_SURVIVORS
        if failed is None:
            verdict, ok = "NOT FINISHED", False
        elif failed:
            verdict, ok = ("killed, LISTED AS SURVIVOR", False) if expected else ("killed", True)
        else:
            verdict, ok = ("survived (expected)", True) if expected else ("SURVIVED", False)
        if not ok:
            bad.append(mutant.name)
        kills[mutant.name] = list(failed or {})
        first = f", first {next(iter(failed))}" if failed else ""
        print(f"[{i:2}/{len(MUTANTS)}] {mutant.name} ({mutant.file}: {mutant.function}): "
              f"{verdict}, {len(failed or [])} of {collected} tests fail{first} ({seconds:.0f} s)")
        for test, message in (failed or {}).items():
            print(f"        {test}: {message}")

    sole = {}
    for name, tests in kills.items():
        if len(tests) == 1:
            sole.setdefault(tests[0], []).append(name)
    print("sole killers:")
    for test, names in sorted(sole.items()):
        print(f"  {test}: {', '.join(names)}")
    killers = {test for tests in kills.values() for test in tests}
    killed = sum(1 for tests in kills.values() if tests)
    print(f"{len(MUTANTS)} mutants: {killed} killed, {len(MUTANTS) - killed} survived; "
          f"{len(killers)} tests kill at least one")
    for name, reason in EXPECTED_SURVIVORS.items():
        print(f"expected survivor {name}: {reason}")
    if bad:
        print("the gate fails on:", *bad, sep="\n  ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
