"""Run parameters, admissibility validation, and initial data.

The solver expects exponents p > 1 and 1 <= q <= 2p/(p+1), positive base
increments tau and h, and bump-shaped initial data: continuous, nonnegative,
symmetric about x = 0, strictly increasing on [-1, 0] and zero at both
ends.  A profile of sup norm at most 1 is accepted; its run ends
``Decayed`` once it lies below the discrete principal eigenvector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from cwblowup.state import SolutionState

if TYPE_CHECKING:  # pragma: no cover
    from cwblowup.grid import GridState

# Decimal budget of IEEE double; blow_threshold**p must stay below it.
_MAX_LOG10 = 308.0


class ConfigError(ValueError):
    """Bad configuration file, key, or parameter combination."""


class InitialDataError(ConfigError):
    """Initial data violating the bump-profile requirements."""


@dataclass(frozen=True)
class SimParams:
    """Immutable contract for one run; the solver's tolerances are
    constants of :mod:`cwblowup.stepper`, not run parameters.

    Attributes:
        p: source exponent, must be > 1.
        q: gradient exponent, must satisfy 1 <= q <= 2p/(p+1).
        tau: base time increment; the adaptive step is tau*min(1, sup^(1-p)).
        h: base space increment, 0 < h <= 2 (the domain has length 2).
        lam: amplitude of the sine bump initial profile.
        blow_threshold: sup-norm level at which blow-up is declared.
        max_steps: step budget before giving up.
    """

    p: float = 3.0
    q: float = 1.2
    tau: float = 0.1
    h: float = 0.05
    lam: float = 10.0
    blow_threshold: float = 1e12
    max_steps: int = 100_000

    @property
    def q_max(self) -> float:
        """Largest admissible gradient exponent, 2p/(p+1)."""
        return 2.0 * self.p / (self.p + 1.0)

    def regime(self) -> str:
        """Classify (p, q) by the known blow-up set behaviour.

        Returns one of:
          * ``"multi-point"``   -- p = 2, q = 1: the peak and both neighbours
            diverge while the second neighbours stay bounded (the neighbours
            diverge when h < 1/(1+tau)).
          * ``"single-point"``  -- p > 2, q < 2(p-1)/p: only the peak diverges.
          * ``"open-theory"``   -- 1 < p < 2: boundedness off the peak is an
            open question; only empirical evidence is reported.
          * ``"other"``         -- anything else in the admissible range.
        """
        if self.p == 2.0 and self.q == 1.0:
            return "multi-point"
        if self.p > 2.0 and self.q < 2.0 * (self.p - 1.0) / self.p:
            return "single-point"
        if 1.0 < self.p < 2.0:
            return "open-theory"
        return "other"


# Config key -> SimParams field: the key is the field's name, except
# ``lambda`` for ``lam``.  The only other config key is ``initial``.
_FIELDS = {("lambda" if f.name == "lam" else f.name): f for f in fields(SimParams)}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: one (name, ok, message) row per check."""

    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[str]:
        return [f"{name}: {msg}" for name, ok, msg in self.checks if not ok]


def validate(params: SimParams) -> ValidationReport:
    """Check a parameter set against the admissibility constraints.

    Total: always returns a report, never raises.
    """
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, msg: str) -> None:
        checks.append((name, bool(ok), msg))

    p, q = params.p, params.q
    add("p_range", p > 1.0, f"p must be > 1, got {p}")
    q_hi = params.q_max if p > 1.0 else float("nan")
    add(
        "q_range",
        p > 1.0 and 1.0 <= q <= q_hi,
        f"q must lie in [1, 2p/(p+1)] = [1, {q_hi}], got {q}",
    )
    add("tau_positive", params.tau > 0.0, f"tau must be positive, got {params.tau}")
    add("tau_finite", math.isfinite(params.tau), f"tau must be finite, got {params.tau}")
    # r = (1+tau)^(1-p) < 1 for tau > 0 and p > 1, but it can round to 1,
    # and the tail of a blown-up run's time sum divides by 1 - r
    add(
        "tail_ratio_below_1",
        not (p > 1.0 and params.tau > 0.0) or tail_ratio(params) < 1.0,
        f"(1+tau)^(1-p) rounds to 1 at tau={params.tau}, p={p}, so the blow-up "
        "time's geometric tail is undefined; choose a larger tau or p",
    )
    add(
        "h_range",
        0.0 < params.h <= 2.0,
        f"h must lie in (0, 2], got {params.h}",
    )
    add("lambda_positive", params.lam > 0.0, f"lambda must be positive, got {params.lam}")
    add("lambda_finite", math.isfinite(params.lam), f"lambda must be finite, got {params.lam}")
    add(
        "blow_threshold_range",
        params.blow_threshold > 1.0,
        f"blow_threshold must exceed 1, got {params.blow_threshold}",
    )
    overflow_ok = (
        params.blow_threshold > 1.0
        and p * math.log10(params.blow_threshold) < _MAX_LOG10
    )
    add(
        "blow_threshold_representable",
        params.blow_threshold <= 1.0 or overflow_ok,
        "blow_threshold**p overflows double precision",
    )
    add("max_steps_nonnegative", params.max_steps >= 0, "max_steps must be >= 0")
    # a run's largest lambda_n = tau_n/h_n^2 is tau/h0^2 on its first grid
    # (README, "Grid admission"); from 2^52 on 1 + 2*lambda_n can round to
    # 2*lambda_n.  Below h = 1.1e-308, 2/h overflows, and run() refuses h
    lam_max = tau_limit = math.nan
    if 0.0 < params.h <= 2.0 and 2.0 / params.h < math.inf:
        from cwblowup.grid import interval_count_for

        h0 = 2.0 / interval_count_for(params.h)
        lam_max, tau_limit = params.tau / h0 / h0, 2.0**52 * h0 * h0
    add(
        "lambda_n_below_2**52",
        not lam_max >= 2.0**52,
        f"tau/h0^2 = {lam_max:.3e} on the first grid reaches the limit 2^52, from "
        f"which 1 + 2*lambda_n can round to 2*lambda_n; choose tau below {tau_limit:.3e}",
    )
    return ValidationReport(checks=tuple(checks))


def tail_ratio(params: SimParams) -> float:
    """The ratio r of :func:`cwblowup.simulator.tail_estimate`'s series."""
    return (1.0 + params.tau) ** (-(params.p - 1.0))


@dataclass(frozen=True)
class InitialData:
    """Initial profile: the built-in sine bump or a tabulated curve.

    The sine bump is lam * sin(pi/2 * (x + 1)), evaluated as lam * cos(pi*x/2)
    on the left half of the grid; the right half is its mirror image.
    """

    table: np.ndarray | None = None  # shape (k, 2): columns x, u0; None for the sine

    @property
    def kind(self) -> str:
        """``"sine"`` or ``"table"``."""
        return "sine" if self.table is None else "table"

    @classmethod
    def sine(cls) -> "InitialData":
        return cls()

    @classmethod
    def from_table(cls, x: np.ndarray, u0: np.ndarray) -> "InitialData":
        x = np.asarray(x, dtype=float)
        u0 = np.asarray(u0, dtype=float)
        if x.ndim != 1 or x.shape != u0.shape or x.size < 3:
            raise InitialDataError("table needs matching 1-d x and u0 with >= 3 rows")
        order = np.argsort(x)
        x, u0 = x[order], u0[order]
        if not np.allclose(x, -x[::-1], atol=1e-9):
            raise InitialDataError("table: sample points are not symmetric about 0")
        peak = _check_left_half(u0[: (x.size + 1) // 2], context="table")
        if not (np.abs(u0 - u0[::-1]) <= 1e-12 * peak).all():
            raise InitialDataError("table: values are not symmetric about x = 0")
        return cls(table=np.column_stack([x, u0]))

    @classmethod
    def from_csv(cls, path: str | Path) -> "InitialData":
        path = Path(path)
        rows = []
        for lineno, raw in _text_lines(path, "initial data file", InitialDataError):
            parts = raw.replace(",", " ").split()
            if parts[0].lower() == "x":
                continue
            if len(parts) != 2:
                raise InitialDataError(
                    f"{path}:{lineno}: expected two columns (x, u0), got: {raw!r}"
                )
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise InitialDataError(
                    f"{path}:{lineno}: non-numeric value in {raw!r}"
                ) from exc
        if len(rows) < 3:
            raise InitialDataError("initial data table needs at least 3 rows")
        arr = np.asarray(rows, dtype=float)
        return cls.from_table(arr[:, 0], arr[:, 1])

    def sup_estimate(self, params: SimParams) -> float:
        """Sup norm of the profile, used to size the initial grid."""
        if self.table is None:
            return params.lam
        return float(self.table[:, 1].max())

    def sample(self, params: SimParams, nodes: np.ndarray, mid: int) -> np.ndarray:
        """Evaluate the profile on the left half, returning u_0..u_mid with u_0 = 0.

        ``nodes`` is x_0..x_mid; a table must cover [-1, 1], with x_K = -x_0 = 1.
        """
        left_nodes = nodes[: mid + 1]
        if self.table is None:
            # u0(x) = lam*sin(pi/2*(x+1)), evaluated as lam*cos(pi*x/2)
            left = params.lam * np.cos(0.5 * np.pi * left_nodes)
        else:
            x, u0 = self.table[:, 0], self.table[:, 1]
            if x[0] > nodes[0] or x[-1] < -nodes[0]:
                raise InitialDataError("initial data table must cover [-1, 1]")
            left = np.interp(left_nodes, x, u0)
        left[0] = 0.0
        return left


def _check_left_half(u: np.ndarray, *, context: str) -> float:
    """Enforce the bump-profile requirements on u_0..u_mid, the values at
    x <= 0 of a profile whose right half is their mirror image; returns the
    sup norm u_mid, which strict increase makes the largest value."""
    if not np.isfinite(u).all():
        raise InitialDataError(f"{context}: non-finite values")
    lo, hi = float(u.min()), float(u.max())
    # relative to the profile's own size, so a tiny amplitude is not flat
    tol = 1e-12 * max(-lo, hi)
    if lo < -tol:
        raise InitialDataError(f"{context}: negative values (profile must be nonnegative)")
    if max(hi - u[0], u[0] - lo) <= tol:
        raise InitialDataError(f"{context}: profile must be nonconstant")
    if abs(u[0]) > tol:
        raise InitialDataError(f"{context}: profile must vanish at x = -1 and x = 1")
    if not (u[1:] > u[:-1]).all():
        raise InitialDataError(f"{context}: profile must increase strictly on [-1, 0]")
    if hi < 10.0:
        warnings.warn(
            f"{context}: sup norm {hi} < 10; the blow-up asymptotics assume a "
            "large amplitude",
            stacklevel=3,
        )
    return hi


def make_initial(
    params: SimParams,
    grid: "GridState",
    initial: InitialData | None = None,
) -> SolutionState:
    """Sample and check the initial profile on a grid's left half: the t = 0 state."""
    initial = initial if initial is not None else InitialData.sine()
    u = initial.sample(params, grid.nodes, grid.mid)
    peak = _check_left_half(u, context=initial.kind)
    return SolutionState(u=u, t=0.0, n=0, tau_last=0.0, sup_norm=peak)


def _text_lines(path: Path, what: str, error: type[ConfigError]) -> list[tuple[int, str]]:
    """(line number, line) for each line of a UTF-8 text file that is neither
    blank nor a ``#`` comment; a missing or undecodable file raises ``error``."""
    if not path.is_file():
        raise error(f"{what} not found or not a file: {path}")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from exc
    return [(n, raw) for n, raw in enumerate(lines, 1) if raw.strip()[:1] not in ("", "#")]


def _pair(where: str, raw: str) -> tuple[str, str]:
    """Split a ``key=value`` string whose key is a config key."""
    key, eq, value = raw.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}: expected key=value, got: {raw!r}")
    if key not in _FIELDS and key != "initial":
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value.strip()


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value config file into a raw string mapping."""
    path = Path(path)
    lines = _text_lines(path, "config file", ConfigError)
    return dict(_pair(f"{path}:{lineno}", raw) for lineno, raw in lines)


def apply_overrides(mapping: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply key=value override strings on top of a config mapping."""
    return {**mapping, **dict(_pair("override", item) for item in overrides)}


def build_params(
    mapping: dict[str, str], *, base_dir: Path | None = None
) -> tuple[SimParams, InitialData]:
    """Turn a raw config mapping into (SimParams, InitialData).

    Each value takes the type of its field's default.  Raises ConfigError
    when a value fails to parse, an integer value is not a finite whole
    number, or validation fails.
    """
    kwargs: dict[str, float | int] = {}
    for key, field in _FIELDS.items():
        if key not in mapping:
            continue
        value = mapping[key]
        try:
            number = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
        if isinstance(field.default, int):
            if not number.is_integer():
                raise ConfigError(f"{key!r} must be a whole number, got {value!r}")
            number = int(number)
        kwargs[field.name] = number
    params = SimParams(**kwargs)  # type: ignore[arg-type]
    report = validate(params)
    if not report.ok:
        raise ConfigError("; ".join(report.failures()))

    choice = mapping.get("initial", "sine")
    if choice == "sine":
        initial = InitialData.sine()
    elif choice.startswith("file:"):
        rel = Path(choice[len("file:") :])
        if base_dir is not None and not rel.is_absolute():
            rel = base_dir / rel
        initial = InitialData.from_csv(rel)
    else:
        raise ConfigError(f"initial must be 'sine' or 'file:PATH', got {choice!r}")
    return params, initial


def params_header(params: SimParams, initial: InitialData | None = None) -> str:
    """One-line comment recording the fully resolved parameter set."""
    parts = [f"{key}={getattr(params, f.name)!r}" for key, f in _FIELDS.items()]
    if initial is not None:
        parts.append(f"initial={initial.kind}")
    return "# " + " ".join(parts)
