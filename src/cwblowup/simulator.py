"""Run loop: adapt the increments, regrid, step, and record history.

A run advances until the sup norm reaches ``blow_threshold`` (numerical
blow-up), the step budget runs out, an optional time horizon is passed, or
the stepper fails.  The accumulated time Sum tau_n approximates the numerical
blow-up time; it is summed with compensation because the tail consists of
many tiny geometric terms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from cwblowup.grid import (
    GridState,
    build_grid,
    build_grid_by_count,
    carry_to_grid,
    compute_h,
    interval_count_for,
)
from cwblowup.params import (
    ConfigError,
    InitialData,
    SimParams,
    make_initial,
    params_header,
    validate,
)
from cwblowup.state import SolutionState, mirrored
from cwblowup.stepper import StepError, step

logger = logging.getLogger(__name__)

HISTORY_COLUMNS = (
    "n",
    "t",
    "tau_n",
    "h_n",
    "sup_norm",
    "u_m",
    "u_m_minus_1",
    "u_m_minus_2",
    "u_m_plus_1",
    "u_m_plus_2",
)

# A snapshot holds all K+1 coordinates and values: about 67 MB at this K.
_SNAPSHOT_MAX_INTERVALS = 2**22


def _refuse_snapshot_grid(k: int) -> None:
    if k > _SNAPSHOT_MAX_INTERVALS:
        raise ConfigError(
            f"snapshots list all K+1 nodes, but the grid reaches K = {k} "
            f"intervals, above the limit of {_SNAPSHOT_MAX_INTERVALS}; "
            "run without snapshots"
        )


class RunStatus(Enum):
    BLEW_UP = "BlewUp"
    BUDGET_EXHAUSTED = "BudgetExhausted"
    SOLVER_ERROR = "SolverError"
    TIME_LIMIT = "TimeLimit"


class _Kahan:
    """Compensated accumulator for the sum of time increments."""

    __slots__ = ("total", "_c")

    def __init__(self) -> None:
        self.total = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        s = self.total + y
        self._c = (s - self.total) - y
        self.total = s


@dataclass
class RunHistory:
    """Per-step records plus optional full snapshots.

    Row k holds the state after k accepted steps; ``tau_n`` and ``h_n`` in
    row k are the increments used by the step that produced it (0 and the
    initial spacing in row 0).  Tracked values follow the middle index of the
    current grid, so after a regrid they continue to describe the peak and
    its offset neighbours.  The ``u_m_plus_k`` columns repeat ``u_m_minus_k``,
    their mirror images.  Snapshots hold all K+1 nodes.
    """

    rows: dict[str, list[float]] = field(
        default_factory=lambda: {name: [] for name in HISTORY_COLUMNS}
    )
    snapshots: list[tuple[int, float, np.ndarray, np.ndarray]] = field(default_factory=list)
    invariant_summary: dict | None = None

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.rows[name], dtype=float)

    def __len__(self) -> int:
        return len(self.rows["n"])

    def record(self, state: SolutionState, grid: GridState) -> None:
        u = state.u  # the window ends at the peak node and holds mid-2..mid
        # with mid = 1 there is no second neighbour; u[-3] would wrap to the peak
        second = float(u[-3]) if grid.mid >= 2 else 0.0
        values = {
            "n": float(state.n),
            "t": state.t,
            "tau_n": state.tau_last,
            "h_n": grid.h,
            "sup_norm": state.sup_norm,
            "u_m": float(u[-1]),
            "u_m_minus_1": float(u[-2]),
            "u_m_minus_2": second,
            "u_m_plus_1": float(u[-2]),
            "u_m_plus_2": second,
        }
        for name in HISTORY_COLUMNS:
            self.rows[name].append(values[name])

    def add_snapshot(self, state: SolutionState, grid: GridState) -> None:
        self.snapshots.append((state.n, state.t, grid.nodes.copy(), mirrored(state)))


class _InvariantMonitor:
    """Observes each accepted state; recording never touches the run."""

    def __init__(self) -> None:
        self.min_entry = math.inf
        self.monotonicity_violations = 0
        self.worst_monotonicity_defect = 0.0
        self.boundary_ok = True
        self.sup_at_mid = True
        self.steps_observed = 0

    def observe(self, state: SolutionState) -> None:
        u = state.u  # window of the left half: zero node at u[0], peak node at u[-1]
        sup = state.sup_norm
        scale = max(sup, 1.0)
        self.steps_observed += 1
        self.min_entry = min(self.min_entry, float(np.min(u)))
        # left of offset 0 every node, the boundary too, is 0 by construction
        if state.offset == 0 and u[0] != 0.0:
            self.boundary_ok = False
        defect = float(np.min(np.diff(u)))
        if defect < -1e-12 * scale:
            self.monotonicity_violations += 1
            self.worst_monotonicity_defect = min(self.worst_monotonicity_defect, defect)
        if u[-1] < sup:
            self.sup_at_mid = False

    def summary(self) -> dict:
        return {
            "steps_observed": self.steps_observed,
            "max_asymmetry": 0.0,  # a left-half state is symmetric by construction
            "min_entry": self.min_entry if self.steps_observed else 0.0,
            "monotonicity_violations": self.monotonicity_violations,
            "worst_monotonicity_defect": self.worst_monotonicity_defect,
            "boundary_zero": self.boundary_ok,
            "sup_norm_at_middle": self.sup_at_mid,
        }


@dataclass(frozen=True)
class RunOutcome:
    """How a run ended and what it accumulated."""

    status: RunStatus
    t_num_partial: float
    t_num_tail: float
    n_final: int
    final_state: SolutionState
    final_grid: GridState
    error: str | None = None


def tail_estimate(outcome: RunOutcome, params: SimParams) -> float:
    """Geometric tail of the time sum beyond the last accepted step.

    Near blow-up the peak grows by the factor (1+tau) per step, so the
    remaining increments form a geometric series with ratio
    r = (1+tau)^(1-p); the tail is tau_last * r / (1 - r).  Reported
    separately from the partial sum, never silently added.
    """
    r = (1.0 + params.tau) ** (-(params.p - 1.0))
    return outcome.final_state.tau_last * r / (1.0 - r)


def run(
    params: SimParams,
    initial: InitialData | None = None,
    *,
    snapshot_every: int = 0,
    t_stop: float | None = None,
    monitor: bool = True,
) -> tuple[RunOutcome, RunHistory]:
    """Drive a full simulation.

    Before each step the adaptive spacing is recomputed and the solution is
    carried per offset from the centre (:func:`carry_to_grid`) to the finer
    grid whenever the snapped interval count changed.

    Returns the outcome together with the per-step history.  Step failures
    are reported through the outcome status, not raised.  With
    ``snapshot_every > 0`` a grid of more than ``_SNAPSHOT_MAX_INTERVALS``
    intervals raises :class:`ConfigError` when it is reached, since each
    snapshot lists all K+1 nodes.
    """
    report = validate(params)
    if not report.ok:
        raise ConfigError("invalid parameters: " + "; ".join(report.failures()))

    initial = initial if initial is not None else InitialData.sine()
    grid = build_grid(compute_h(params, initial.sup_estimate(params)))
    if snapshot_every > 0:
        _refuse_snapshot_grid(grid.interval_count)
    state = make_initial(params, grid, initial)

    history = RunHistory()
    mon = _InvariantMonitor() if monitor else None
    acc = _Kahan()
    history.record(state, grid)
    if snapshot_every > 0:
        history.add_snapshot(state, grid)

    status: RunStatus
    error: str | None = None
    while True:
        sup = state.sup_norm
        if sup >= params.blow_threshold:
            status = RunStatus.BLEW_UP
            break
        if state.n >= params.max_steps:
            status = RunStatus.BUDGET_EXHAUSTED
            break
        if t_stop is not None and state.t >= t_stop:
            status = RunStatus.TIME_LIMIT
            break

        k_new = interval_count_for(compute_h(params, sup))
        if k_new != grid.interval_count:
            if snapshot_every > 0:
                _refuse_snapshot_grid(k_new)
            new_grid = build_grid_by_count(k_new)
            logger.debug(
                "regrid at step %d: %d -> %d intervals", state.n, grid.interval_count, k_new
            )
            state = carry_to_grid(state, grid, new_grid)
            grid = new_grid

        try:
            result = step(state, grid, params)
        except StepError as exc:
            status = RunStatus.SOLVER_ERROR
            error = f"{type(exc).__name__}: {exc}"
            logger.warning("step %d failed: %s", state.n, error)
            break

        acc.add(result.next.tau_last)
        state = replace(result.next, t=acc.total)
        history.record(state, grid)
        if mon is not None:
            mon.observe(state)
        if snapshot_every > 0 and state.n % snapshot_every == 0:
            history.add_snapshot(state, grid)

    if snapshot_every > 0 and (
        not history.snapshots or history.snapshots[-1][0] != state.n
    ):
        history.add_snapshot(state, grid)
    if mon is not None:
        history.invariant_summary = mon.summary()

    outcome = RunOutcome(
        status=status,
        t_num_partial=acc.total,
        t_num_tail=0.0,
        n_final=state.n,
        final_state=state,
        final_grid=grid,
        error=error,
    )
    if status is RunStatus.BLEW_UP:
        outcome = replace(outcome, t_num_tail=tail_estimate(outcome, params))
    logger.info(
        "run finished: %s after %d steps, t = %.6e", status.value, state.n, state.t
    )
    return outcome, history


def write_history_csv(
    history: RunHistory,
    path: str | Path,
    params: SimParams,
    initial: InitialData | None = None,
) -> None:
    """Write the per-step history as CSV with a resolved-parameter comment."""
    lines = [params_header(params, initial), ",".join(HISTORY_COLUMNS)]
    columns = [history.rows[name] for name in HISTORY_COLUMNS]
    for row in zip(*columns):
        lines.append(str(int(row[0])) + "," + ",".join(repr(v) for v in row[1:]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_snapshot_csv(
    snapshot: tuple[int, float, np.ndarray, np.ndarray],
    path: str | Path,
    params: SimParams,
    initial: InitialData | None = None,
) -> None:
    """Write one (x, u) snapshot as CSV."""
    n, t, x, u = snapshot
    lines = [params_header(params, initial) + f" n={n} t={t!r}", "x,u"]
    lines.extend(f"{xi!r},{ui!r}" for xi, ui in zip(x, u))
    Path(path).write_text("\n".join(lines) + "\n")
