"""Run parameters, admissibility validation, and initial data.

The solver expects exponents p > 1 and 1 <= q <= 2p/(p+1), positive base
increments tau and h, and bump-shaped initial data: continuous, nonnegative,
symmetric about x = 0, strictly increasing on [-1, 0], zero at both ends,
and with a sup norm above 1 (a smaller profile decays, and its run would end
in a solver error once u is subnormal).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from cwblowup.state import SolutionState, mirrored

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
    add(
        "h_range",
        0.0 < params.h <= 2.0,
        f"h must lie in (0, 2], got {params.h}",
    )
    add("lambda_positive", params.lam > 0.0, f"lambda must be positive, got {params.lam}")
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
    return ValidationReport(checks=tuple(checks))


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
        _check_profile(x, u0, context="table")
        return cls(table=np.column_stack([x, u0]))

    @classmethod
    def from_csv(cls, path: str | Path) -> "InitialData":
        path = Path(path)
        if not path.is_file():
            raise InitialDataError(f"initial data file not found or not a file: {path}")
        rows = []
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
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

        ``nodes`` spans the whole grid, so a table is checked to cover [-1, 1].
        """
        left_nodes = nodes[: mid + 1]
        if self.table is None:
            # u0(x) = lam*sin(pi/2*(x+1)), evaluated as lam*cos(pi*x/2)
            left = params.lam * np.cos(0.5 * np.pi * left_nodes)
        else:
            x, u0 = self.table[:, 0], self.table[:, 1]
            if x[0] > nodes[0] or x[-1] < nodes[-1]:
                raise InitialDataError("initial data table must cover [-1, 1]")
            left = np.interp(left_nodes, x, u0)
        left[0] = 0.0
        return left


def _check_profile(x: np.ndarray, u: np.ndarray, *, context: str) -> None:
    """Enforce the bump-profile requirements on sampled values."""
    scale = float(np.max(np.abs(u))) if u.size else 0.0
    tol = 1e-12 * max(scale, 1.0)
    if np.any(~np.isfinite(u)):
        raise InitialDataError(f"{context}: non-finite values")
    if np.any(u < -tol):
        raise InitialDataError(f"{context}: negative values (profile must be nonnegative)")
    if scale <= 0.0 or np.all(np.abs(u - u[0]) <= tol):
        raise InitialDataError(f"{context}: profile must be nonconstant")
    if abs(u[0]) > tol or abs(u[-1]) > tol:
        raise InitialDataError(f"{context}: profile must vanish at x = -1 and x = 1")
    # Symmetry: every sampled x must have a mirror partner with equal value.
    order = np.argsort(-x)
    if not np.allclose(x, -x[order], atol=1e-9):
        raise InitialDataError(f"{context}: sample points are not symmetric about 0")
    if np.max(np.abs(u - u[order])) > tol:
        raise InitialDataError(f"{context}: values are not symmetric about x = 0")
    # Strict monotonicity on [-1, 0].
    left = u[x <= 1e-15]
    if np.any(np.diff(left) <= 0.0):
        raise InitialDataError(f"{context}: profile must increase strictly on [-1, 0]")
    if scale <= 1.0:
        raise InitialDataError(
            f"{context}: sup norm {scale} <= 1; such a run decays and ends in a "
            "solver error once u is subnormal"
        )
    if scale < 10.0:
        warnings.warn(
            f"{context}: sup norm {scale} < 10; the blow-up asymptotics assume a "
            "large amplitude",
            stacklevel=3,
        )


def make_initial(
    params: SimParams,
    grid: "GridState",
    initial: InitialData | None = None,
) -> SolutionState:
    """Sample the initial profile on a grid and wrap it as the t = 0 state."""
    initial = initial if initial is not None else InitialData.sine()
    state = SolutionState(
        u=initial.sample(params, grid.nodes, grid.mid), t=0.0, n=0, tau_last=0.0
    )
    _check_profile(grid.nodes, mirrored(state, grid.mid), context=initial.kind)
    return state


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value config file into a raw string mapping."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found or not a file: {path}")
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got: {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS and key != "initial":
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        mapping[key] = value
    return mapping


def apply_overrides(mapping: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply key=value override strings on top of a config mapping."""
    out = dict(mapping)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got: {item!r}")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS and key != "initial":
            raise ConfigError(f"unknown override key {key!r}")
        out[key] = value
    return out


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
