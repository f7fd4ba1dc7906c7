"""Run loop: adapt the increments, regrid, step, and record history.

A run advances until the sup norm reaches ``blow_threshold`` (numerical
blow-up), the step budget runs out, an optional time horizon is passed, or
the stepper fails.  The accumulated time Sum tau_n approximates the numerical
blow-up time; it is summed with compensation because the tail consists of
many tiny geometric terms.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from cwblowup.grid import (
    _INITIAL_MAX_INTERVALS,
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
    tail_ratio,
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
# The block stores the first eight columns; each u_m_plus_k column reads the
# stored u_m_minus_k, its mirror image.
_STORED_COLUMNS = HISTORY_COLUMNS[:8]
_COLUMN_INDEX = {name: j for j, name in enumerate(_STORED_COLUMNS)}
_COLUMN_INDEX.update(
    u_m_plus_1=_COLUMN_INDEX["u_m_minus_1"], u_m_plus_2=_COLUMN_INDEX["u_m_minus_2"]
)

# A snapshot holds all K+1 coordinates and values: about 67 MB at this K.
_SNAPSHOT_MAX_INTERVALS = 2**22


def refuse_initial_spacing(h0: float, remedy: str) -> None:
    """Raise ConfigError for a first grid of spacing h0 that ``run()`` cannot
    sample: more than ``_INITIAL_MAX_INTERVALS`` intervals, or an underflowing
    h0.  ``remedy`` ends the message."""
    if not h0 * _INITIAL_MAX_INTERVALS >= 2.0:
        # K is given for a normal spacing only: 2/h0 overflows below 1.1e-308
        needs = (
            f"K = {interval_count_for(h0)} intervals, above the limit of "
            if h0 >= sys.float_info.min
            else f"spacing h = {h0!r}, below the limit of 2/"
        )
        raise ConfigError(
            f"the initial grid needs {needs}{_INITIAL_MAX_INTERVALS} for sampling "
            f"the initial profile; {remedy}"
        )


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


class RunHistory:
    """Per-step records and optional snapshots.

    Row k holds the state after k accepted steps; ``tau_n`` and ``h_n`` in
    row k are the increments used by the step that produced it (0 and the
    initial spacing in row 0).  Tracked values follow the middle index of the
    current grid, so after a regrid they continue to describe the peak and
    its offset neighbours.  Snapshots hold all K+1 nodes.

    The rows live in one float64 block of the eight ``_STORED_COLUMNS``,
    with a row per record, whose capacity doubles when it fills;
    :meth:`column` and ``rows`` are views of the filled rows.  A state is
    its left half, so the ``u_m_plus_k`` columns are views of
    ``u_m_minus_k``, their mirror images.  The two newest recorded states
    are kept as ``previous`` and ``latest``.
    """

    def __init__(self) -> None:
        self._block = np.empty((256, len(_STORED_COLUMNS)))
        self._filled = 0
        self.snapshots: list[tuple[int, float, np.ndarray, np.ndarray]] = []
        self.previous: SolutionState | None = None
        self.latest: SolutionState | None = None

    def column(self, name: str) -> np.ndarray:
        """The named column over the filled rows, as a view of the block."""
        return self._block[: self._filled, _COLUMN_INDEX[name]]

    @property
    def rows(self) -> dict[str, np.ndarray]:
        """Every column by name, as views of the filled rows."""
        return {name: self.column(name) for name in HISTORY_COLUMNS}

    def __len__(self) -> int:
        return self._filled

    def record(self, state: SolutionState, grid: GridState) -> None:
        """Append the state's row and keep the state."""
        self.previous, self.latest = self.latest, state
        k = self._filled
        if k == self._block.shape[0]:
            grown = np.empty((2 * k, len(_STORED_COLUMNS)))
            grown[:k] = self._block
            self._block = grown
        # the window runs from a zero node u[0] to the peak node u[-1] and
        # holds mid-2..mid
        u = state.u
        # with mid = 1 there is no second neighbour; u[-3] would wrap to the peak
        second = u[-3] if grid.mid >= 2 else 0.0
        self._block[k] = (
            state.n, state.t, state.tau_last, grid.h,
            state.sup_norm, u[-1], u[-2], second,
        )
        self._filled = k + 1

    def add_snapshot(self, state: SolutionState, grid: GridState) -> None:
        # the one place a right half is built, with x_(K-j) = -x_j
        x, u = grid.nodes, mirrored(state, grid.mid)
        self.snapshots.append((state.n, state.t, np.concatenate((x, -x[-2::-1])), u))


@dataclass(frozen=True)
class RunOutcome:
    """How a run ended and what it accumulated (the tail is 0 unless it blew up)."""

    status: RunStatus
    final_state: SolutionState
    final_grid: GridState
    t_num_tail: float = 0.0
    error: str | None = None

    @property
    def n_final(self) -> int:
        """Accepted steps, the final state's step count."""
        return self.final_state.n

    @property
    def t_num_partial(self) -> float:
        """The partial time sum Sum tau_n, the final state's time."""
        return self.final_state.t

    @property
    def t_num(self) -> float:
        """The numerical blow-up time: the partial sum plus its tail (0 unless
        the run blew up)."""
        return self.t_num_partial + self.t_num_tail


def tail_estimate(outcome: RunOutcome, params: SimParams) -> float:
    """Geometric tail of the time sum beyond the last accepted step.

    Near blow-up the peak grows by the factor (1+tau) per step, so the
    remaining increments form a geometric series with ratio
    r = (1+tau)^(1-p); the tail is tau_last * r / (1 - r).  Reported
    separately from the partial sum, never silently added.
    """
    r = tail_ratio(params)
    return outcome.final_state.tau_last * r / (1.0 - r)


def run(
    params: SimParams,
    initial: InitialData | None = None,
    *,
    snapshot_every: int = 0,
    t_stop: float | None = None,
) -> tuple[RunOutcome, RunHistory]:
    """Drive a full simulation.

    Before each step the adaptive spacing is recomputed and the solution is
    carried per offset from the centre (:func:`carry_to_grid`) to the finer
    grid whenever the snapped interval count grew; a shrinking peak keeps
    its finer grid, where the gradient term, of order h^(2-q) relative to
    diffusion, stays dominated.  With q = 1 the spacing never changes, so
    the interval count is computed once.

    Returns the outcome together with the per-step history
    (:class:`RunHistory`).  Step failures are reported through the outcome
    status, not raised.  An initial grid of more than
    ``_INITIAL_MAX_INTERVALS`` intervals, or of a spacing that underflows,
    raises :class:`ConfigError` before the profile is sampled on it.  With
    ``snapshot_every > 0`` a grid of more than ``_SNAPSHOT_MAX_INTERVALS``
    intervals raises :class:`ConfigError` when it is reached, since each
    snapshot lists all K+1 nodes; a negative ``snapshot_every`` raises
    :class:`ConfigError`.
    """
    if snapshot_every < 0:
        raise ConfigError(f"snapshot_every must be >= 0, got {snapshot_every}")
    report = validate(params)
    if not report.ok:
        raise ConfigError("invalid parameters: " + "; ".join(report.failures()))

    initial = initial if initial is not None else InitialData.sine()
    h0 = compute_h(params, initial.sup_estimate(params))
    refuse_initial_spacing(h0, "choose a smaller lambda or q")
    grid = build_grid(h0)
    if snapshot_every > 0:
        _refuse_snapshot_grid(grid.interval_count)
    state = make_initial(params, grid, initial)

    history = RunHistory()
    history.record(state, grid)
    if snapshot_every > 0:
        history.add_snapshot(state, grid)

    status: RunStatus
    error: str | None = None
    # compute_h returns the base spacing at every sup norm when q = 1
    q_one = params.q == 1.0
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

        k_new = grid.interval_count if q_one else interval_count_for(compute_h(params, sup))
        if k_new > grid.interval_count:
            if snapshot_every > 0:
                _refuse_snapshot_grid(k_new)
            new_grid = build_grid_by_count(k_new)
            logger.debug(
                "regrid at step %d: %d -> %d intervals", state.n, grid.interval_count, k_new
            )
            state = carry_to_grid(state, grid, new_grid)
            grid = new_grid

        try:
            state = step(state, grid, params).next
        except StepError as exc:
            status = RunStatus.SOLVER_ERROR
            error = f"{type(exc).__name__}: {exc}"
            logger.warning("step %d failed: %s", state.n, error)
            break

        history.record(state, grid)
        if snapshot_every > 0 and state.n % snapshot_every == 0:
            history.add_snapshot(state, grid)

    if snapshot_every > 0 and history.snapshots[-1][0] != state.n:
        history.add_snapshot(state, grid)

    outcome = RunOutcome(status=status, final_state=state, final_grid=grid, error=error)
    if status is RunStatus.BLEW_UP:
        outcome = replace(outcome, t_num_tail=tail_estimate(outcome, params))
    logger.info(
        "run finished: %s after %d steps, t = %.6e", status.value, state.n, state.t
    )
    return outcome, history
