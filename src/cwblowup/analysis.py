"""Turn run histories into verdicts: blow-up sets, limits, bounds, orders.

The classifier separates three observable behaviours at the tracked offsets
from the peak: geometric divergence (the peak itself, growth ratio tending
to 1+tau), sustained non-saturating growth (the neighbours in the p = 2,
q = 1 regime, which diverge roughly linearly in the step count), and
saturation (bounded nodes, whose increments vanish geometrically).  All
verdicts are relative to the finite stopping threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace as dc_replace
from enum import Enum

import numpy as np

from cwblowup.grid import interval_count_for
from cwblowup.params import ConfigError, InitialData, SimParams
from cwblowup.simulator import (
    RunHistory,
    RunOutcome,
    RunStatus,
    refuse_initial_spacing,
    run,
)
from cwblowup.state import left_half
from cwblowup.stepper import StepError

# Classifier thresholds (see classify_blowup_set): chosen so the classes
# cannot overlap on one run.
_GEOMETRIC_RATIO_MARGIN = 0.5      # per-step ratio must exceed 1 + margin*tau
_BOUNDED_DRIFT = 0.01              # relative drift below this means saturated
_TREND_DRIFT = 0.05                # sustained growth needs at least this drift
_TREND_PERSISTENCE = 0.5           # late increments must keep >= half the early pace
_WINDOW_GROWTH_FACTOR = 100.0      # window = trailing steps with 100x peak growth
CLASSIFY_MIN_ROWS = 3              # history rows classify_blowup_set needs
# Ratio diagnostics windows (see peak_ratio_diagnostics), in trailing steps.
_RATIO_WINDOW = 50                 # steps averaged for the two limits
_RATIO_TAIL_WINDOW = 200           # steps over which the ratio must decrease


def _fields_dict(report) -> dict:
    """A report dataclass's fields as a JSON-ready dict; tuples become lists."""
    values = ((f.name, getattr(report, f.name)) for f in fields(report))
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


class Verdict(Enum):
    BLOWS_UP = "BlowsUp"
    BOUNDED = "Bounded"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class OffsetEvidence:
    """What the classifier saw at one offset from the peak."""

    final_value: float
    window_start_value: float
    drift: float
    per_step_ratio: float
    strictly_increasing: bool
    trend_persistence: float

    def to_dict(self) -> dict:
        return _fields_dict(self)


@dataclass(frozen=True)
class BlowupReport:
    """Per-offset verdicts for offsets 0, +-1, +-2 from the peak."""

    regime: str
    verdicts: dict[int, Verdict]
    evidence: dict[int, OffsetEvidence]
    expected: dict[int, Verdict] | None
    window_steps: int

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "offsets": [
                {"offset": k, "verdict": self.verdicts[k].value}
                for k in sorted(self.verdicts)
            ],
            "evidence": {str(k): self.evidence[k].to_dict() for k in sorted(self.evidence)},
            "expected": None
            if self.expected is None
            else {str(k): v.value for k, v in sorted(self.expected.items())},
            "window_steps": self.window_steps,
        }


# Columns of offsets 0, -1 and -2; offset +k shares the verdict of its
# mirror image -k.
_OFFSET_COLUMNS = {0: "u_m", 1: "u_m_minus_1", 2: "u_m_minus_2"}


def _trailing_growth_window(u_m: np.ndarray, factor: float) -> int:
    """Index where the trailing window with peak growth >= factor begins."""
    final = u_m[-1]
    below = np.nonzero(u_m * factor > final)[0]
    start = int(below[0]) if below.size else len(u_m) - 1
    return max(0, start - 1)


def _classify_offset(v: np.ndarray, params: SimParams) -> tuple[Verdict, OffsetEvidence]:
    steps = len(v) - 1
    start, end = float(v[0]), float(v[-1])
    drift = (end - start) / start if start > 0.0 else 0.0
    ratio = (end / start) ** (1.0 / steps) if start > 0.0 and end > 0.0 else 0.0
    increments = np.diff(v)
    increasing = bool(np.all(increments > 0.0))
    half = steps // 2
    early = float(np.sum(increments[:half]))
    late = float(np.sum(increments[half:]))
    persistence = late / early if early > 0.0 else 0.0
    evidence = OffsetEvidence(
        final_value=end,
        window_start_value=start,
        drift=drift,
        per_step_ratio=ratio,
        strictly_increasing=increasing,
        trend_persistence=persistence,
    )

    geometric = (
        end >= math.sqrt(params.blow_threshold)
        and ratio >= 1.0 + _GEOMETRIC_RATIO_MARGIN * params.tau
    )
    if geometric:
        return Verdict.BLOWS_UP, evidence
    if abs(drift) < _BOUNDED_DRIFT:
        return Verdict.BOUNDED, evidence
    if increasing and drift >= _TREND_DRIFT and persistence >= _TREND_PERSISTENCE:
        return Verdict.BLOWS_UP, evidence
    return Verdict.UNDETERMINED, evidence


def classify_blowup_set(history: RunHistory, params: SimParams) -> BlowupReport:
    """Classify the tracked offsets of a blown-up run.

    The verdict window is the trailing stretch over which the peak grew by
    a factor of 100.  An offset blows up if it either diverges geometrically
    (value beyond sqrt(blow_threshold) with per-step ratio above 1 + tau/2)
    or keeps growing without saturation across the window (strictly
    increasing, drift >= 5%, late increments at least half the early ones).
    It is bounded if it drifted by less than 1% across the window.

    Raises ValueError when there is nothing to classify: too short a
    history, no blow-up, or a final grid where offset 2 is no interior node.
    """
    u_m = history.column("u_m")
    if len(u_m) < CLASSIFY_MIN_ROWS:
        raise ValueError("history too short to classify")
    sup = history.column("sup_norm")
    if sup[-1] < params.blow_threshold:
        raise ValueError("classification requires a run that reached blow_threshold")
    mid = round(1.0 / history.column("h_n")[-1])  # offset k is node mid - k
    if mid < 3:
        raise ValueError(f"the final grid has mid = {mid}, so offset 2 is not an interior node")

    start = _trailing_growth_window(u_m, _WINDOW_GROWTH_FACTOR)
    verdicts: dict[int, Verdict] = {}
    evidence: dict[int, OffsetEvidence] = {}
    for k, column in _OFFSET_COLUMNS.items():
        v = history.column(column)[start:]
        verdicts[-k], evidence[-k] = _classify_offset(v, params)
        verdicts[k], evidence[k] = verdicts[-k], evidence[-k]

    regime = params.regime()
    expected: dict[int, Verdict] | None = None
    if regime == "multi-point":
        expected = {
            -1: Verdict.BLOWS_UP,
            1: Verdict.BLOWS_UP,
            -2: Verdict.BOUNDED,
            2: Verdict.BOUNDED,
        }
    elif regime == "single-point":
        expected = {-1: Verdict.BOUNDED, 1: Verdict.BOUNDED}
    return BlowupReport(
        regime=regime,
        verdicts=verdicts,
        evidence=evidence,
        expected=expected,
        window_steps=len(u_m) - 1 - start,
    )


@dataclass(frozen=True)
class RatioDiagnostics:
    """Limit behaviour of the peak-neighbour ratio and the peak growth.

    The neighbour ratio is u at offset -1 over u at the peak, per step.  In
    the single-point regime it decays to 0 with per-step factor 1/(1+tau)
    while the peak growth tends to 1+tau.  The four means and deviations
    are None when the report is not applicable.
    """

    applicable: bool
    reason: str
    mean_ratio_change: float | None
    mean_growth: float | None
    ratio_change_deviation: float | None
    growth_deviation: float | None
    strictly_decreasing_tail: bool
    sup_condition_observed: bool
    window: int = _RATIO_WINDOW
    tail_window: int = _RATIO_TAIL_WINDOW

    def to_dict(self) -> dict:
        return _fields_dict(self)


def peak_ratio_diagnostics(history: RunHistory, params: SimParams) -> RatioDiagnostics:
    """Diagnose the neighbour-to-peak ratio limits of a blown-up run.

    The two means are taken over the last ``_RATIO_WINDOW`` steps, and the
    ratio must decrease strictly over the last ``_RATIO_TAIL_WINDOW``.
    Applicable in the single-point regime (p > 2, q < 2(p-1)/p) once the run
    reached the threshold with a non-zero peak neighbour on the averaged
    rows; otherwise the report is marked not applicable and carries no
    computed limits.
    """
    not_applicable = RatioDiagnostics(
        applicable=False,
        reason="",
        mean_ratio_change=None,
        mean_growth=None,
        ratio_change_deviation=None,
        growth_deviation=None,
        strictly_decreasing_tail=False,
        sup_condition_observed=False,
    )
    if params.regime() != "single-point":
        return dc_replace(
            not_applicable,
            reason=f"regime {params.regime()!r} is outside p > 2, q < 2(p-1)/p",
        )
    sup = history.column("sup_norm")
    if len(sup) < _RATIO_WINDOW + 2 or sup[-1] < params.blow_threshold:
        return dc_replace(not_applicable, reason="run did not reach blow_threshold")

    u_m = history.column("u_m")
    u_m1 = history.column("u_m_minus_1")
    if not np.all(u_m1[-(_RATIO_WINDOW + 1) :]):
        # a zero neighbour (the boundary node when K = 2) makes a ratio 0/0
        return dc_replace(
            not_applicable,
            reason=f"peak neighbour u_m_minus_1 is 0 in the last {_RATIO_WINDOW + 1} rows",
        )
    a = u_m1 / u_m
    ratio_change = a[1:] / a[:-1]
    growth = u_m[1:] / u_m[:-1]

    mean_ratio_change = float(np.mean(ratio_change[-_RATIO_WINDOW:]))
    mean_growth = float(np.mean(growth[-_RATIO_WINDOW:]))
    target_change = 1.0 / (1.0 + params.tau)
    target_growth = 1.0 + params.tau
    tail = a[-(_RATIO_TAIL_WINDOW + 1) :]
    strictly_decreasing = bool(np.all(np.diff(tail) < 0.0))
    sup_condition = float(np.max(u_m1)) > 3.0 * (1.0 + params.tau) / params.h**2

    return RatioDiagnostics(
        applicable=True,
        reason="ok",
        mean_ratio_change=mean_ratio_change,
        mean_growth=mean_growth,
        ratio_change_deviation=abs(mean_ratio_change - target_change) / target_change,
        growth_deviation=abs(mean_growth - target_growth) / target_growth,
        strictly_decreasing_tail=strictly_decreasing,
        sup_condition_observed=sup_condition,
    )


def amplitude_lower_bound(p: float, lam: float) -> float:
    """Classical lower bound 1/((p-1) * lam^(p-1)) on the blow-up time.

    Where lam^(p-1) overflows the bound underflows, and is 0.0.
    """
    try:
        return 1.0 / ((p - 1.0) * lam ** (p - 1.0))
    except OverflowError:
        return 0.0


def geometric_upper_bound(params: SimParams, peak0: float) -> float | None:
    """Closed-form upper bound on the numerical blow-up time.

    Derived from the per-step lower growth bound of the peak: the time
    increments are dominated by a geometric series whose ratio involves
    eps0 = tau * 2^(-q/(2-q)) * peak0^((-2p + q(1+p))/(2-q)).  Returns None
    when the series ratio is not below 1 (amplitude too small for the bound)
    or a power in it overflows, and when peak0^(p-1) underflows to 0, where
    the bound overflows.  Where peak0^(p-1) overflows the bound underflows,
    and is 0.0, as :func:`amplitude_lower_bound`'s is.
    """
    p, q, tau = params.p, params.q, params.tau
    try:
        eps0 = tau * 2.0 ** (-q / (2.0 - q)) * peak0 ** ((-2.0 * p + q * (1.0 + p)) / (2.0 - q))
        ratio = ((1.0 + eps0) / (1.0 + tau)) ** (p - 1.0)
    except OverflowError:
        return None
    if ratio >= 1.0:
        return None
    try:
        return (tau / peak0 ** (p - 1.0)) / (1.0 - ratio)
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        return None


@dataclass(frozen=True)
class TimeBounds:
    """The two-sided bounds on a run's numerical blow-up time, ``RunOutcome.t_num``."""

    lower_g: float
    upper: float | None
    sandwich_ok: bool


def blowup_time_bounds(outcome: RunOutcome, params: SimParams) -> TimeBounds:
    """Sandwich the numerical blow-up time between g(lambda) and the
    geometric upper bound, for sine-bump runs where the initial peak is lam."""
    if outcome.status is not RunStatus.BLEW_UP:
        raise ValueError("time bounds require a run that blew up")
    g = amplitude_lower_bound(params.p, params.lam)
    upper = geometric_upper_bound(params, params.lam)
    ok = upper is not None and g <= outcome.t_num <= upper
    return TimeBounds(lower_g=g, upper=upper, sandwich_ok=bool(ok))


@dataclass(frozen=True)
class ConvergenceReport:
    """Grid-refinement study: measured error orders against a fine reference."""

    t_check: float
    levels: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float
    expected_order: float
    compared_upto: str  # "mid-1" (q = 1) or "mid-2" (q > 1 damped case)
    reference_h: float

    def to_dict(self) -> dict:
        return _fields_dict(self)


def _raise_on_solver_error(outcome: RunOutcome, h: float) -> None:
    if outcome.status is RunStatus.SOLVER_ERROR:
        raise StepError(f"run at h={h} ended with SolverError: {outcome.error}")


def _solution_at_time(
    params: SimParams,
    t_check: float,
    initial: InitialData | None,
) -> tuple[np.ndarray, int]:
    """Run to t_check and interpolate the left half's values linearly in time.

    Returns (u_0..u_mid, interval_count).  The run must reach t_check before
    blowing up or exhausting its budget; it stops at the first state with
    t >= t_check, and the state recorded before it lies before t_check.
    """
    outcome, history = run(params, initial, t_stop=t_check)
    _raise_on_solver_error(outcome, params.h)
    if outcome.status is not RunStatus.TIME_LIMIT:
        raise ConfigError(
            f"run at h={params.h} ended with {outcome.status.value} before "
            f"t_check={t_check}; pick a smaller t_check"
        )
    h_n = history.column("h_n")
    if h_n.size > 1 and h_n[-1] != h_n[-2]:
        raise ConfigError("grid changed across t_check; pick a smaller t_check")
    after = history.latest
    before = history.previous or after
    mid = outcome.final_grid.mid
    u0, u1 = left_half(before, mid), left_half(after, mid)
    t0, t1 = before.t, after.t
    if t1 == t0:
        u = u1
    else:
        w = (t_check - t0) / (t1 - t0)
        u = u0 + w * (u1 - u0)
    return u, outcome.final_grid.interval_count


def compare_to_reference(
    u_level: np.ndarray,
    k_level: int,
    u_ref: np.ndarray,
    k_ref: int,
    upto_offset: int,
) -> float:
    """Max nodal error over indices 1..mid-upto_offset at shared nodes."""
    if k_ref % k_level != 0:
        raise ConfigError(f"grids are not nested: {k_ref} vs {k_level} intervals")
    stride = k_ref // k_level
    mid = k_level // 2
    top = mid - upto_offset
    if top < 1:
        raise ConfigError("grid too coarse for the compared index range")
    j = np.arange(1, top + 1)
    return float(np.max(np.abs(u_level[j] - u_ref[j * stride])))


def convergence_study(
    params: SimParams,
    t_check: float | None = None,
    grid_levels: tuple[float, ...] = (0.1, 0.05, 0.025),
    initial: InitialData | None = None,
) -> ConvergenceReport:
    """Measure the scheme's spatial convergence order by grid refinement.

    Runs each level to ``t_check`` (default: half the coarsest level's
    blow-up time estimate; a given value must be > 0), compares against a
    reference run on exactly 4x the finest level's intervals, and fits the
    slope of log(error) against log(h).  The expected order is 2 for q = 1
    (errors compared over indices 1..mid-1) and 3-q in the damped case
    p > 2, q < 2(p-1)/p (indices 1..mid-2).  Raises StepError, carrying the
    run's error, when a run it needs ends with SolverError, and ConfigError
    for a study it cannot make: among others, a spacing outside (0, 2], a
    level or reference too fine for ``run()`` to sample the initial profile
    on, a coarse run that blows up at once (the default t_check would be 0),
    or a level whose error is 0, which leaves no order to fit.
    """
    if t_check is not None and not t_check > 0.0:
        raise ConfigError(f"t_check must be > 0, got {t_check!r}")
    if len(grid_levels) < 3:
        raise ConfigError("need at least 3 grid levels")
    for h in grid_levels:
        if not 0.0 < h <= 2.0:
            raise ConfigError(f"grid spacings must lie in (0, 2], got {h!r}")
        refuse_initial_spacing(h, f"choose a grid spacing coarser than {h!r}")
    counts = [interval_count_for(h) for h in grid_levels]
    for a, b in zip(counts, counts[1:]):
        if b != 2 * a:
            raise ConfigError(f"levels must halve h: got interval counts {counts}")
    k_ref = 4 * counts[-1]
    refuse_initial_spacing(
        2.0 / k_ref,
        f"choose a finest level coarser than {grid_levels[-1]!r} (the reference "
        "has 4x its intervals)",
    )
    if params.q == 1.0:
        upto, expected = 1, 2.0
    elif params.regime() == "single-point":
        upto, expected = 2, 3.0 - params.q
    else:
        raise ConfigError(
            "no proven convergence order for this (p, q); need q = 1 or "
            "p > 2 with q < 2(p-1)/p"
        )

    if t_check is None:
        coarse, _ = run(dc_replace(params, h=grid_levels[0]), initial)
        _raise_on_solver_error(coarse, grid_levels[0])
        if coarse.status is not RunStatus.BLEW_UP:
            raise ConfigError("coarse run did not blow up; cannot pick t_check")
        t_check = 0.5 * coarse.t_num
        if not t_check > 0.0:
            raise ConfigError(
                f"coarse run at h={grid_levels[0]!r} blew up at once (lambda="
                f"{params.lam!r}, blow_threshold={params.blow_threshold!r}), so "
                "there is no time before blow-up to compare at; choose a smaller lambda"
            )

    u_ref, k_ref = _solution_at_time(dc_replace(params, h=2.0 / k_ref), t_check, initial)

    snapped = []
    errors = []
    for h_level in grid_levels:
        u_lvl, k_lvl = _solution_at_time(
            dc_replace(params, h=h_level), t_check, initial
        )
        snapped.append(2.0 / k_lvl)
        errors.append(compare_to_reference(u_lvl, k_lvl, u_ref, k_ref, upto))
    if 0.0 in errors:
        raise ConfigError(
            f"the error at h={snapped[errors.index(0.0)]!r} is 0 at t_check={t_check!r}, "
            "so there is no order to fit; pick a larger t_check"
        )

    slope = float(np.polyfit(np.log(snapped), np.log(errors), 1)[0])
    return ConvergenceReport(
        t_check=t_check,
        levels=tuple(snapped),
        errors=tuple(errors),
        fitted_order=slope,
        expected_order=expected,
        compared_upto=f"mid-{upto}",
        reference_h=2.0 / k_ref,
    )
