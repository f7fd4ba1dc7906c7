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

import importlib.machinery
import importlib.util
import math
import os
from typing import NamedTuple

import numpy as np

from cwblowup.grid import GridState, compute_tau
from cwblowup.params import SimParams
from cwblowup.state import SolutionState, with_sup_norm


def _load_dgtsv():
    """LAPACK ``dgtsv`` from scipy's compiled ``_flapack`` module, loaded alone.

    ``scipy.linalg``'s package init costs about 0.25 s and 20 MB per process
    (its array-API layer imports ``numpy.f2py``); the extension module that
    ``scipy.linalg.lapack`` re-exports loads in about 5 ms and holds the same
    compiled routine.  Where no such file sits in the ``linalg`` directory of
    the installed scipy (an editable build, say), the public import is used.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    dirs = scipy_spec.submodule_search_locations if scipy_spec else None
    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(d, "linalg") for d in dirs or ()]
    )
    if spec is None:
        from scipy.linalg.lapack import dgtsv

        return dgtsv
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dgtsv


dgtsv = _load_dgtsv()


_MAX_TAU_HALVINGS = 20
_RESIDUAL_RTOL = 1e-12
# A windowed step solves from 32 zero nodes left of the window and accepts
# the solve once the 8 nodes next to its held-zero edge come out exactly 0;
# otherwise the margin doubles.
_WINDOW_MARGIN = 32
_ZERO_EDGE = 8
# Maxima and minima on the step path are read by index, a[a.argmax()]: on
# ~20 entries that costs a third of a ufunc reduce and gives the same value,
# NaN included (argmax and argmin stop at the first NaN); only the sign of a
# zero result may differ.


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


class TriDiagSystem(NamedTuple):
    """Tridiagonal system rows: sub[j-1]*x[j-1] + diag[j]*x[j] + sup[j]*x[j+1] = rhs[j].

    ``norm`` and ``rhs_norm`` are ||A||_inf and ||b||_inf when the code that
    forms the system already knows them (:func:`assemble` does);
    :func:`solve_tridiag` computes any that is None row by row.
    """

    sub: np.ndarray   # length n-1
    diag: np.ndarray  # length n
    sup: np.ndarray   # length n-1
    rhs: np.ndarray   # length n
    norm: float | None = None
    rhs_norm: float | None = None

    @property
    def size(self) -> int:
        return self.diag.size

    def _off_diagonal_sums(self) -> np.ndarray:
        """|sub| + |sup| per row, shared by the margin and the norm."""
        off = np.zeros(self.size)
        off[1:] += np.abs(self.sub)
        off[:-1] += np.abs(self.sup)
        return off

    def dominance_margin(self) -> float:
        """Smallest row-wise gap |diag| - |sub| - |sup|; positive means dominant."""
        return float((np.abs(self.diag) - self._off_diagonal_sums()).min())

    def norm_inf(self) -> float:
        """Largest row-wise sum |diag| + |sub| + |sup|, the matrix inf-norm."""
        return float((np.abs(self.diag) + self._off_diagonal_sums()).max())


def _gradient_coeff(diffs: np.ndarray, h: float, q: float, tau_n: float) -> np.ndarray:
    """gamma_j = tau_n (2h)^(-q) |u_{j+1} - u_{j-1}|^(q-1) from the differences.

    For q = 1 the exponent vanishes and gamma is the constant tau_n/(2h)
    (0**0 evaluates to 1, which is the intended limit).
    """
    return tau_n * (2.0 * h) ** (-q) * np.abs(diffs) ** (q - 1.0)


def source_rhs(u: np.ndarray, tau_n: float, p: float) -> tuple[np.ndarray, float]:
    """Right-hand side u_j + tau_n*(u_j)^p of rows lo+1..mid, with its inf-norm.

    Depends on the level and tau_n only, so it is formed once per tau_n and
    shared by every Picard iteration.
    """
    inner = u[1:]
    rhs = inner + tau_n * inner**p
    mag = np.abs(rhs)
    return rhs, float(mag[mag.argmax()])


def assemble(
    rhs: np.ndarray,
    rhs_norm: float,
    h: float,
    tau_n: float,
    signed_gamma: np.ndarray,
) -> TriDiagSystem:
    """Assemble the linearized step system on a window u_lo..u_mid, rows lo+1..mid.

    Row j encodes (1+2*lam)u_j' - lam(u_{j+1}'+u_{j-1}') + gamma_j*s_j*
    (u_{j+1}'-u_{j-1}') = u_j + tau_n*(u_j)^p with lam = tau_n/h^2 and s_j
    the frozen sign of (u_{j+1}' - u_{j-1}'); ``rhs`` and ``rhs_norm`` come
    from :func:`source_rhs`, and ``signed_gamma`` holds gamma_j*s_j for rows
    lo+1..mid-1.  Row lo+1 uses u_lo' = 0 (the boundary when lo = 0), and the
    reflection u_{mid+1}' = u_{mid-1}' folds the peak row into
    (1+2*lam)u_mid' - 2*lam*u_{mid-1}' = rhs (its gradient term cancels).

    Every row has the diagonal d = 1 + 2*lam > 0, so with the largest
    off-diagonal row sum o the dominance margin is d - o and ||A||_inf is
    d + o; rounding is monotone, so both equal the row-wise minimum and
    maximum bit for bit.

    Raises StiffError if the rows are not strictly diagonally dominant.
    """
    m = rhs.size
    lam = tau_n / (h * h)
    d = 1.0 + 2.0 * lam
    # band = [0, sub..., sup..., 0]: row r's off-diagonal coefficients are
    # band[r] (of u_{r-1}', 0 in the first row) and band[m + r] (of u_{r+1}',
    # 0 in the last row).  The folded peak row's -2*lam lands on band[m - 1],
    # which is the padding band[0] when m = 1, so the padding is written last.
    band = np.empty(2 * m)
    band[m - 1] = -2.0 * lam
    band[0] = band[-1] = 0.0
    np.subtract(-lam, signed_gamma[1:], band[1 : m - 1])  # rows lo+2..mid-1
    np.add(-lam, signed_gamma, band[m:-1])  # rows lo+1..mid-1
    abs_band = np.abs(band)
    row_off = abs_band[:m] + abs_band[m:]
    off = float(row_off[row_off.argmax()])
    margin = d - off
    if margin <= 0.0:
        raise StiffError(
            f"diagonal dominance lost (margin {margin:.3e}); "
            "the gradient coefficient exceeds the diffusion weight"
        )
    diag = np.empty(m)
    diag.fill(d)
    return TriDiagSystem(band[1:m], diag, band[m:-1], rhs, d + off, rhs_norm)


def solve_tridiag(sys: TriDiagSystem) -> np.ndarray:
    """Solve the tridiagonal system with LAPACK gtsv and verify its backward error.

    A 1x1 system is x = rhs/diag.  The solve is accepted when
    ||A x - b|| <= rtol * (||A|| ||x|| + ||b||) in the inf-norm, which every
    backward-stable solve meets whatever the conditioning of A.  The
    returned x is a view of a buffer led by one zero, ``x.base`` = [0, x],
    which is the new window u'_lo..u'_mid of a step.
    """
    buf = np.zeros(sys.size + 1)
    x = buf[1:]
    if sys.size == 1:
        np.divide(sys.rhs, sys.diag, x)
    else:
        x[...] = sys.rhs
        _, _, _, x, info = dgtsv(sys.sub, sys.diag, sys.sup, x, overwrite_b=1)
        if info != 0:
            raise SingularError(f"tridiagonal solve failed: gtsv info {info}")
    mag = np.abs(x)
    x_norm = float(mag[mag.argmax()])
    if not math.isfinite(x_norm):  # argmax finds the first NaN, and |+-inf| is the max
        raise SingularError("tridiagonal solve produced non-finite values")
    r = sys.diag * x
    r -= sys.rhs
    r[1:] += sys.sub * x[:-1]
    r[:-1] += sys.sup * x[1:]
    np.abs(r, r)
    resid = float(r[r.argmax()])
    norm = sys.norm_inf() if sys.norm is None else sys.norm
    rhs_norm = float(np.abs(sys.rhs).max()) if sys.rhs_norm is None else sys.rhs_norm
    if resid > _RESIDUAL_RTOL * (norm * x_norm + rhs_norm):
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
    (keeping nodes mid-2..mid) on the same grid.  Its time is state.t + tau_n,
    summed with compensation (``t_comp``), and it carries its sup norm.

    Raises StepError if the state does not hold grid.mid + 1 - offset values,
    is non-finite, or is already at ``blow_threshold``.
    """
    u = state.u
    if u.size != grid.mid + 1 - state.offset:
        raise StepError(
            f"state holds {u.size} values, not the {grid.mid + 1 - state.offset} "
            "of its window on the left half"
        )
    # Every state a run hands over came out of a checked step, so the carried
    # sup norm (NaN or +inf) and the minimum (-inf) suffice to refuse a
    # non-finite one, before any arithmetic on it.
    sup = state.sup_norm
    if not (sup < math.inf and u[u.argmin()] > -math.inf):
        raise StepError("state contains non-finite values")
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
            lo, new, iters, flips = _solve_window(state, grid.h, params, tau_n, sup)
            break
        except StiffError as exc:
            last_stiff = exc
            tau_n *= 0.5
    else:
        raise StiffError(
            f"dominance not recovered after {_MAX_TAU_HALVINGS} halvings: {last_stiff}"
        )

    clamp_tol = params.picard_tol * max(1.0, sup)
    low = float(new[new.argmin()])
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

    # t is a compensated (Kahan) sum of the increments
    y = tau_n - state.t_comp
    t = state.t + y
    next_state = SolutionState(
        u=new, t=t, n=state.n + 1, tau_last=tau_n, offset=lo, t_comp=(t - state.t) - y
    )
    new_sup = float(new[new.argmax()])
    if new_sup == 0.0:
        # an all-zero window keeps np.maximum.reduce's sign of zero, which
        # the sup_norm history column records
        new_sup = float(np.maximum.reduce(new))
    with_sup_norm(next_state, new_sup)
    return StepResult(next_state, iters, flips)


def _solve_window(
    state: SolutionState,
    h: float,
    params: SimParams,
    tau_n: float,
    sup: float,
) -> tuple[int, np.ndarray, int, int]:
    """Solve the level on u_lo..u_mid, widening the zero margin left of the window.

    Returns lo and the new values u'_lo..u'_mid (u'_lo = 0) with the Picard
    counts of the accepted solve.
    """
    offset, margin = state.offset, _WINDOW_MARGIN
    while True:
        lo = max(0, offset - margin)
        u = np.concatenate((np.zeros(offset - lo), state.u)) if offset else state.u
        new, iters, flips = _solve_level(u, h, params, tau_n, sup)
        if lo == 0 or not np.count_nonzero(new[1 : _ZERO_EDGE + 1]):
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
    rhs, rhs_norm = source_rhs(u, tau_n, params.p)
    diffs = u[2:] - u[:-2]  # u_{j+1} - u_{j-1}, rows lo+1..mid-1
    gamma = _gradient_coeff(diffs, h, params.q, tau_n)
    signs = np.sign(diffs)

    total_flips = 0
    prev: np.ndarray | None = None
    for iteration in range(1, params.picard_max_iters + 1):
        x = solve_tridiag(assemble(rhs, rhs_norm, h, tau_n, gamma * signs))
        new = x.base  # u'_lo .. u'_mid, the solve's buffer led by u'_lo = 0
        new_signs = np.sign(new[2:] - new[:-2])
        # A frozen sign is contradicted where the row is active (gamma > 0)
        # and the new difference is nonzero and disagrees; an exactly zero
        # difference satisfies either sign.  With gamma >= 0 and signs in
        # {-1, 0, 1}, that is where gamma * s' * (s' - s) is nonzero.
        contradiction = gamma * new_signs * (new_signs - signs)
        flips = 2 * np.count_nonzero(contradiction)
        if flips == 0:
            if prev is None:
                return new, iteration, total_flips
            gap = float(np.abs(new - prev).max())
            if gap < params.picard_tol * max(1.0, sup):
                return new, iteration, total_flips
        total_flips += flips
        signs = np.where(contradiction != 0.0, new_signs, signs)
        prev = new
    raise PicardError(
        f"no sign fixed point within {params.picard_max_iters} iterations "
        f"({total_flips} total sign flips)"
    )


class StepResult(NamedTuple):
    """Outcome of one accepted step."""

    next: SolutionState
    picard_iters: int
    sign_flips: int
