"""One implicit step of the finite-difference scheme.

The scheme treats diffusion implicitly, the source (u_j^n)^p explicitly,
and the gradient damping with mixed levels:

    (u_j' - u_j)/tau_n = (u_{j+1}' - 2 u_j' + u_{j-1}')/h^2 + (u_j)^p
                         - (2h)^(-q) |u_{j+1} - u_{j-1}|^(q-1) |u_{j+1}' - u_{j-1}'|

where primes denote the new level.  The absolute value at the new level is
linearized by freezing its sign from the current level, turning the step
into one tridiagonal solve; the frozen signs are verified a posteriori and
re-frozen (Picard) in the rare case they disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgtsv

from cwblowup.grid import GridState, compute_tau
from cwblowup.params import SimParams
from cwblowup.state import SolutionState

_MAX_TAU_HALVINGS = 20
_RESIDUAL_RTOL = 1e-12
# A windowed step solves from 32 zero nodes left of the window and accepts
# the solve once the 8 nodes next to its held-zero edge come out exactly 0;
# otherwise the margin doubles.
_WINDOW_MARGIN = 32
_ZERO_EDGE = 8


class StepError(RuntimeError):
    """A step could not be completed."""


class StiffError(StepError):
    """Diagonal dominance lost even after halving the time increment."""


class SingularError(StepError):
    """Zero pivot during the tridiagonal elimination."""


class PicardError(StepError):
    """The frozen-sign iteration found no sign fixed point."""


class NegativeSolutionError(StepError):
    """The solve produced a negative entry beyond roundoff size."""


@dataclass(frozen=True)
class TriDiagSystem:
    """Tridiagonal system rows: sub[j-1]*x[j-1] + diag[j]*x[j] + sup[j]*x[j+1] = rhs[j]."""

    sub: np.ndarray   # length n-1
    diag: np.ndarray  # length n
    sup: np.ndarray   # length n-1
    rhs: np.ndarray   # length n

    @property
    def size(self) -> int:
        return self.diag.size

    @cached_property
    def _off_diagonal_sums(self) -> np.ndarray:
        """|sub| + |sup| per row, shared by the margin and the norm."""
        off = np.zeros(self.size)
        off[1:] += np.abs(self.sub)
        off[:-1] += np.abs(self.sup)
        return off

    def dominance_margin(self) -> float:
        """Smallest row-wise gap |diag| - |sub| - |sup|; positive means dominant."""
        return float((np.abs(self.diag) - self._off_diagonal_sums).min())

    def norm_inf(self) -> float:
        """Largest row-wise sum |diag| + |sub| + |sup|, the matrix inf-norm."""
        return float((np.abs(self.diag) + self._off_diagonal_sums).max())

    def residual(self, x: np.ndarray) -> np.ndarray:
        r = self.diag * x - self.rhs
        r[1:] += self.sub * x[:-1]
        r[:-1] += self.sup * x[1:]
        return r


def _gradient_coeff(diffs: np.ndarray, h: float, q: float, tau_n: float) -> np.ndarray:
    """gamma_j = tau_n (2h)^(-q) |u_{j+1} - u_{j-1}|^(q-1) from the differences.

    For q = 1 the exponent vanishes and gamma is the constant tau_n/(2h)
    (0**0 evaluates to 1, which is the intended limit).
    """
    return tau_n * (2.0 * h) ** (-q) * np.abs(diffs) ** (q - 1.0)


def assemble(
    u: np.ndarray,
    h: float,
    params: SimParams,
    tau_n: float,
    signed_gamma: np.ndarray,
) -> TriDiagSystem:
    """Assemble the linearized step system on a window u_lo..u_mid, rows lo+1..mid.

    Row j encodes (1+2*lam)u_j' - lam(u_{j+1}'+u_{j-1}') + gamma_j*s_j*
    (u_{j+1}'-u_{j-1}') = u_j + tau_n*(u_j)^p with lam = tau_n/h^2 and s_j
    the frozen sign of (u_{j+1}' - u_{j-1}'); ``signed_gamma`` holds
    gamma_j*s_j for rows lo+1..mid-1.  Row lo+1 uses u_lo' = 0 (the boundary
    when lo = 0), and the reflection u_{mid+1}' = u_{mid-1}' folds the peak
    row into (1+2*lam)u_mid' - 2*lam*u_{mid-1}' = rhs (its gradient term
    cancels).

    Raises StiffError if the rows are not strictly diagonally dominant.
    """
    m = u.size - 1
    lam = tau_n / (h * h)
    inner = u[1:]
    sub = np.full(m - 1, -2.0 * lam)  # coefficient of u_{j-1}', rows lo+2..mid
    sub[:-1] = -lam - signed_gamma[1:]
    sys = TriDiagSystem(
        sub=sub,
        diag=np.full(m, 1.0 + 2.0 * lam),
        sup=-lam + signed_gamma,  # coefficient of u_{j+1}', rows lo+1..mid-1
        rhs=inner + tau_n * inner**params.p,
    )
    margin = sys.dominance_margin()
    if margin <= 0.0:
        raise StiffError(
            f"diagonal dominance lost (margin {margin:.3e}); "
            "the gradient coefficient exceeds the diffusion weight"
        )
    return sys


def solve_tridiag(sys: TriDiagSystem) -> np.ndarray:
    """Solve the tridiagonal system with LAPACK gtsv and verify its backward error.

    A 1x1 system is x = rhs/diag.  The solve is accepted when
    ||A x - b|| <= rtol * (||A|| ||x|| + ||b||) in the inf-norm, which every
    backward-stable solve meets whatever the conditioning of A.
    """
    if sys.size == 1:
        x = sys.rhs / sys.diag
    else:
        _, _, _, x, info = dgtsv(sys.sub, sys.diag, sys.sup, sys.rhs)
        if info != 0:
            raise SingularError(f"tridiagonal solve failed: gtsv info {info}")
    if not np.all(np.isfinite(x)):
        raise SingularError("tridiagonal solve produced non-finite values")
    resid = float(np.abs(sys.residual(x)).max())
    scale = sys.norm_inf() * float(np.abs(x).max()) + float(np.abs(sys.rhs).max())
    if resid > _RESIDUAL_RTOL * scale:
        raise StepError(
            f"solver residual {resid:.3e} exceeds {_RESIDUAL_RTOL} * "
            "(||A|| ||x|| + ||b||)"
        )
    return x


def step(state: SolutionState, grid: GridState, params: SimParams) -> "StepResult":
    """Advance one time level of a window state u_offset..u_mid.

    Freezes the gradient-term signs from the current level, solves the
    tridiagonal system with a reflection at the peak, verifies the signs a
    posteriori, and falls back to re-frozen Picard iterations on a mismatch.
    Diagonal-dominance loss is retried with a halved time increment up to 20
    times.  The solve covers rows lo+1..mid with lo = max(0, offset - 32) and
    node lo held at 0; unless lo = 0 it is accepted only when the 8 solved
    nodes next to lo are exactly 0, and otherwise repeated with a doubled
    margin.  Rows left of lo then have rhs 0 and zero neighbours, so the
    zero-padded solution solves the whole half with the window's residual,
    and the window's all-zero rows carry the dominance margin of those rows.
    The next state is trimmed to one zero node before its first non-zero node
    (keeping nodes mid-2..mid) on the same grid.

    Raises StepError if the state does not hold grid.mid + 1 - offset values,
    is non-finite, or is already at ``blow_threshold``.
    """
    u = state.u
    if u.size != grid.mid + 1 - state.offset:
        raise StepError(
            f"state holds {u.size} values, not the {grid.mid + 1 - state.offset} "
            "of its window on the left half"
        )
    if not np.all(np.isfinite(u)):
        raise StepError("state contains non-finite values")
    sup = state.sup_norm
    if sup >= params.blow_threshold:
        raise StepError(
            f"sup norm {sup:.3e} already at blow_threshold; the source term is refused"
        )

    # sup = 0 falls on the clamp branch of the tau rule (min(1, 0^(1-p)) = 1),
    # keeping the all-zero state a fixed point of the step.
    tau_n = params.tau if sup == 0.0 else compute_tau(params, sup)
    last_stiff: StiffError | None = None
    for _ in range(_MAX_TAU_HALVINGS + 1):
        try:
            lo, new, iters, flips = _solve_window(state, grid.h, params, tau_n)
            break
        except StiffError as exc:
            last_stiff = exc
            tau_n *= 0.5
    else:
        raise StiffError(
            f"dominance not recovered after {_MAX_TAU_HALVINGS} halvings: {last_stiff}"
        )

    clamp_tol = params.picard_tol * max(1.0, sup)
    low = float(new.min())
    if low < -clamp_tol:
        raise NegativeSolutionError(
            f"negative entry {low:.3e} beyond roundoff tolerance {clamp_tol:.3e}"
        )
    if low < 0.0:
        np.clip(new, 0.0, None, out=new)

    if lo > 0 or new[1] == 0.0:
        nonzero = np.flatnonzero(new)
        first = int(nonzero[0]) if nonzero.size else new.size
        cut = max(0, min(first - 1, new.size - 3))
        new, lo = new[cut:], lo + cut

    next_state = SolutionState(
        u=new, t=state.t + tau_n, n=state.n + 1, tau_last=tau_n, offset=lo
    )
    return StepResult(next=next_state, picard_iters=iters, sign_flips=flips)


def _solve_window(
    state: SolutionState,
    h: float,
    params: SimParams,
    tau_n: float,
) -> tuple[int, np.ndarray, int, int]:
    """Solve the level on u_lo..u_mid, widening the zero margin left of the window.

    Returns lo and the new values u'_lo..u'_mid (u'_lo = 0) with the Picard
    counts of the accepted solve.
    """
    offset, margin = state.offset, _WINDOW_MARGIN
    while True:
        lo = max(0, offset - margin)
        u = np.concatenate((np.zeros(offset - lo), state.u)) if offset else state.u
        new, iters, flips = _solve_level(u, h, params, tau_n, state.sup_norm)
        if lo == 0 or not new[1 : _ZERO_EDGE + 1].any():
            return lo, new, iters, flips
        margin *= 2


def _solve_level(
    u: np.ndarray,
    h: float,
    params: SimParams,
    tau_n: float,
    sup: float,
) -> tuple[np.ndarray, int, int]:
    """Frozen-sign solve with a posteriori verification and Picard fallback.

    Works on rows lo+1..mid-1 of the window u_lo..u_mid, the rows whose
    gradient term survives the fold, and returns the new values
    u'_lo..u'_mid with u'_lo = 0.  Sign flips count both halves.
    """
    diffs = u[2:] - u[:-2]  # u_{j+1} - u_{j-1}, rows lo+1..mid-1
    gamma = _gradient_coeff(diffs, h, params.q, tau_n)
    active = gamma > 0.0
    signs = np.sign(diffs)

    total_flips = 0
    prev: np.ndarray | None = None
    for iteration in range(1, params.picard_max_iters + 1):
        x = solve_tridiag(assemble(u, h, params, tau_n, gamma * signs))
        new = np.concatenate(([0.0], x))  # u'_lo .. u'_mid
        new_diffs = new[2:] - new[:-2]
        # A frozen sign is contradicted where the new difference is nonzero
        # and disagrees; an exactly zero difference satisfies either sign.
        mismatch = active & (new_diffs != 0.0) & (np.sign(new_diffs) != signs)
        flips = 2 * int(np.count_nonzero(mismatch))
        if flips == 0:
            if prev is None:
                return new, iteration, total_flips
            gap = float(np.max(np.abs(new - prev)))
            if gap < params.picard_tol * max(1.0, sup):
                return new, iteration, total_flips
        total_flips += flips
        signs = np.where(mismatch, np.sign(new_diffs), signs)
        prev = new
    raise PicardError(
        f"no sign fixed point within {params.picard_max_iters} iterations "
        f"({total_flips} total sign flips)"
    )


@dataclass(frozen=True)
class StepResult:
    """Outcome of one accepted step."""

    next: SolutionState
    picard_iters: int
    sign_flips: int
