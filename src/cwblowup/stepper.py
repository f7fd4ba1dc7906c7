"""One implicit step of the finite-difference scheme.

The scheme treats diffusion implicitly, the source (u_j^n)^p explicitly,
and the gradient damping with mixed levels:

    (u_j' - u_j)/tau_n = (u_{j+1}' - 2 u_j' + u_{j-1}')/h^2 + (u_j)^p
                         - (2h)^(-q) |u_{j+1} - u_{j-1}|^(q-1) |u_{j+1}' - u_{j-1}'|

where primes denote the new level.  The absolute value at the new level is
linearized by freezing the sign of u_{j+1}' - u_{j-1}' at +1, which turns
the step into one tridiagonal solve.  That is the scheme on a window that
rises towards the peak, as every admissible initial profile does on
[-1, 0]: a step checks that the window rises before the solve and that the
solution rises after it, and refuses the step (``StepError``) otherwise.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from typing import NamedTuple

import numpy as np

from cwblowup.grid import _INITIAL_MAX_INTERVALS, GridState, compute_tau
from cwblowup.params import SimParams
from cwblowup.state import SolutionState


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
# otherwise it retries with a margin of at least the window's length (each
# retry re-solves the whole window, so a smaller margin costs more solves
# than it saves rows), doubled on each further retry, up to a window of
# _INITIAL_MAX_INTERVALS//2 + 1 nodes.
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


class TriDiagSystem(NamedTuple):
    """Tridiagonal system rows: sub[j-1]*x[j-1] + diag[j]*x[j] + sup[j]*x[j+1] = rhs[j].

    ``norm`` and ``rhs_norm`` are ||A||_inf and ||b||_inf, supplied by the
    code that forms the system (:func:`assemble` knows both); :meth:`norm_inf`
    recomputes ||A||_inf row by row.  ``stencil`` is set by :func:`assemble`
    on a constant band of at least 3 rows: the row (sub, diag, sup) that
    every row but the last one follows, the last row being (sub[-1],
    diag[-1]).  It and the three bands are views of one buffer, and
    :func:`solve_tridiag` reads it only while they still are, so a system
    whose band is replaced (``_replace(sup=...)``) is checked row by row.
    """

    sub: np.ndarray   # length n-1
    diag: np.ndarray  # length n
    sup: np.ndarray   # length n-1
    rhs: np.ndarray   # length n
    norm: float
    rhs_norm: float
    stencil: np.ndarray | None = None  # length 3

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


def assemble(
    rhs: np.ndarray,
    rhs_norm: float,
    h: float,
    tau_n: float,
    signed_gamma: np.ndarray | float,
) -> TriDiagSystem:
    """Assemble the linearized step system on a window u_lo..u_mid, rows lo+1..mid.

    Row j encodes (1+2*lam)u_j' - lam(u_{j+1}'+u_{j-1}') + gamma_j*s_j*
    (u_{j+1}'-u_{j-1}') = u_j + tau_n*(u_j)^p with lam = tau_n/h^2 and s_j
    the frozen sign of (u_{j+1}' - u_{j-1}'); ``rhs`` holds u_j + tau_n*(u_j)^p
    of rows lo+1..mid and ``rhs_norm`` its inf-norm, and ``signed_gamma``
    holds gamma_j*s_j for rows lo+1..mid-1, or is one float g shared by them
    all (q = 1 with every s_j = +1).  Row lo+1 uses u_lo' = 0 (the
    boundary when lo = 0), and the reflection u_{mid+1}' = u_{mid-1}' folds
    the peak row into (1+2*lam)u_mid' - 2*lam*u_{mid-1}' = rhs (its gradient
    term cancels).

    Every row has the diagonal d = 1 + 2*lam > 0, so with the largest
    off-diagonal row sum o the dominance margin is d - o and ||A||_inf is
    d + o; rounding is monotone, so both equal the row-wise minimum and
    maximum bit for bit.  With one float g and at least 3 rows the band is
    constant, (-lam-g, d, -lam+g) on every row but the folded one, and o is
    the larger of two row sums, formed as the row-wise ones are: an
    interior row's (never below the first row's) and the folded row's.

    Raises StiffError if the rows are not strictly diagonally dominant.
    """
    m = rhs.size
    lam = tau_n / (h * h)
    d = 1.0 + 2.0 * lam
    stencil = None
    if m < 3 and isinstance(signed_gamma, float):  # np.float64 included
        # no interior row: the row-wise sums below serve
        signed_gamma = np.full(m - 1, signed_gamma)
    if isinstance(signed_gamma, float):
        below, above = -lam - signed_gamma, -lam + signed_gamma
        # band = [below.., -2*lam, below, d, above.., d..]: the sub band (m-1
        # entries, ending in the folded row's -2*lam), the stencil (below, d,
        # above), the sup band (m-1 entries, the first of them the stencil's)
        # and the diagonal (m entries), all views of one buffer
        band = np.empty(3 * m)
        band.fill(below)
        band[m - 2] = -2.0 * lam
        band[m] = d
        band[m + 1 : 2 * m] = above
        band[2 * m :] = d
        sub, diag, sup = band[: m - 1], band[2 * m :], band[m + 1 : 2 * m]
        stencil = band[m - 1 : m + 2]
        # an interior row's sum (never below the first row's 0 + |above|),
        # then the folded row's |-2*lam| + 0: a NaN leads, as the index read
        # of the row-wise sums finds it first
        off = max(abs(below) + abs(above), 2.0 * lam)
    else:
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
        sub, sup = band[1:m], band[m:-1]
        diag = np.empty(m)
        diag.fill(d)
    margin = d - off
    if margin <= 0.0:
        raise StiffError(
            f"diagonal dominance lost (margin {margin:.3e}); "
            "the gradient coefficient exceeds the diffusion weight"
        )
    return TriDiagSystem(sub, diag, sup, rhs, d + off, rhs_norm, stencil)


def solve_tridiag(sys: TriDiagSystem) -> np.ndarray:
    """Solve the tridiagonal system with LAPACK gtsv and verify its backward error.

    A 1x1 system is x = rhs/diag.  The solve is accepted when
    ||A x - b|| <= rtol * (||A|| ||x|| + ||b||) < inf in the inf-norm, which
    every backward-stable solve meets whatever the conditioning of A; a
    system whose stencil still shares its buffer with the bands forms A x by
    one correlation with it, the folded last row set apart (its rows sum in
    another order than the row-wise residual's).  The returned x is a view
    of a buffer led by one zero, ``x.base`` = [0, x], which is the new
    window u'_lo..u'_mid of a step.
    """
    sub, diag, sup, rhs, norm, rhs_norm, stencil = sys
    buf = np.zeros(diag.size + 1)
    x = buf[1:]
    if diag.size == 1:
        np.divide(rhs, diag, x)
    else:
        x[...] = rhs
        # overwrite_dl, _d, _du, _b by position: the residual reads sub, diag, sup
        _, _, _, x, info = dgtsv(sub, diag, sup, x, 0, 0, 0, 1)
        if info != 0:
            raise SingularError(f"tridiagonal solve failed: gtsv info {info}")
    mag = np.abs(x)
    x_norm = float(mag[mag.argmax()])
    if not math.isfinite(x_norm):  # argmax finds the first NaN, and |+-inf| is the max
        raise SingularError("tridiagonal solve produced non-finite values")
    band = None if stencil is None else stencil.base
    if band is not None and sub.base is band and diag.base is band and sup.base is band:
        # "same" pads x with zeros: the last row alone has its own stencil
        r = np.correlate(x, stencil, "same")
        r[-1] = sub[-1] * x[-2] + diag[-1] * x[-1]
        r -= rhs
    else:
        r = diag * x
        r -= rhs
        r[1:] += sub * x[:-1]
        r[:-1] += sup * x[1:]
    np.abs(r, r)
    resid = float(r[r.argmax()])
    # a NaN residual or an overflowed bound proves nothing and is refused
    if not resid <= _RESIDUAL_RTOL * (norm * x_norm + rhs_norm) < math.inf:
        raise StepError(
            f"solver residual {resid:.3e} not within a finite {_RESIDUAL_RTOL} * "
            "(||A|| ||x|| + ||b||)"
        )
    return x


def step(state: SolutionState, grid: GridState, params: SimParams) -> "StepResult":
    """Advance one time level of a rising window state u_start..u_mid.

    Every frozen sign is +1, as the carried ``min_rise`` (trusted like
    ``sup_norm``) certifies: a q = 1 window must be the whole left half with
    min_rise > 0 (a padded window's zeros have d_j = 0, sign 0, where
    gamma_j > 0), a q > 1 window must have min_rise >= 0 and u[0] >= 0
    (gamma_j = 0 wherever d_j = 0).  The system, reflected at the peak, is
    solved once per attempt; dominance loss halves tau_n, up to 20 times.
    The window starts at node start = grid.mid + 1 - state.u.size, and the
    solve covers rows lo+1..mid with node lo = max(0, start - margin) held
    at 0; unless lo = 0 it is accepted only when the 8 solved nodes next to
    lo are exactly 0, so that it equals the zero-padded whole half's.  The
    accepted solve must rise, so no new sign contradicts +1, no entry is
    negative and the sup norm is the last node.  The next state, trimmed to
    one zero before its first non-zero node (keeping nodes mid-2..mid), has
    time state.t + tau_n, summed with compensation (``t_comp``), and
    carries its sup norm and the solve's smallest rise.

    Raises StepError for a state longer than the left half, non-finite, at
    ``blow_threshold`` or not rising as above; for a solve that does not
    rise (its smallest rise negative or NaN); and for a retried margin whose
    window would hold more nodes than the left half of the largest first
    grid ``run()`` samples.  A q = 1 solve whose smallest rise is 0 is
    returned, and the next step refuses it on entry.
    """
    u, mid = state.u, grid.mid
    start = mid + 1 - u.size
    if start < 0:
        raise StepError(
            f"state holds {u.size} values, more than the {mid + 1} of the left half"
        )
    # The carried facts refuse a non-finite state before any arithmetic: NaN
    # or +inf shows in the sup norm, -inf in the smallest rise (as -inf or
    # NaN) or in u[0], the held node, where it makes the first rise +inf.
    sup, low = state.sup_norm, state.min_rise
    if not (sup < math.inf and u[0] > -math.inf and low > -math.inf):
        raise StepError("state contains non-finite values")
    if sup >= params.blow_threshold:
        raise StepError(
            f"sup norm {sup:.3e} already at blow_threshold; the source term is refused"
        )

    h, p, q = grid.h, params.p, params.q
    if not (start == 0 and low > 0.0 if q == 1.0 else low >= 0.0 and u[0] >= 0.0):
        raise StepError(
            f"window does not rise (smallest rise {low:.3e}, first value {u[0]:.3e}, "
            f"{start} padding nodes): its frozen signs are not all +1"
        )
    tau_n = compute_tau(params, sup)
    halvings, margin = 0, _WINDOW_MARGIN
    while True:
        lo = max(0, start - margin)
        if start:
            w = np.zeros(mid + 1 - lo)
            w[start - lo :] = u
        else:
            w = u
        # rows lo+1..mid: the source right-hand side u_j + tau_n*(u_j)^p, whose
        # inf-norm is its last entry (the window rises)
        inner = w[1:]
        rhs = inner**p
        rhs *= tau_n
        rhs += inner
        # rows lo+1..mid-1: gamma_j = tau_n (2h)^(-q) |d_j|^(q-1) of the current
        # differences d_j = u_{j+1} - u_{j-1}, one float tau_n/(2h) for q = 1
        c = tau_n * (2.0 * h) ** (-q)
        gamma = c if q == 1.0 else c * np.abs(w[2:] - w[:-2]) ** (q - 1.0)
        try:
            # u'_lo .. u'_mid, the solve's buffer led by u'_lo = 0
            new = solve_tridiag(assemble(rhs, rhs[-1], h, tau_n, gamma)).base
        except StiffError as exc:
            if halvings == _MAX_TAU_HALVINGS:
                raise StiffError(
                    f"dominance not recovered after {_MAX_TAU_HALVINGS} halvings: {exc}"
                ) from None
            halvings, margin = halvings + 1, _WINDOW_MARGIN
            tau_n *= 0.5
            continue
        if lo == 0 or not np.count_nonzero(new[1 : _ZERO_EDGE + 1]):
            break
        margin = max(2 * margin, u.size)
        nodes = mid + 1 - max(0, start - margin)
        if nodes > _INITIAL_MAX_INTERVALS // 2 + 1:
            raise StepError(
                f"the solve window would hold {nodes} nodes, above the limit of "
                f"{_INITIAL_MAX_INTERVALS // 2 + 1} (the largest first grid's left half)"
            )

    rises = new[1:] - new[:-1]
    rise = float(rises[rises.argmin()])
    if not rise >= 0.0:  # NaN included
        raise StepError(f"solved window does not rise (smallest rise {rise:.3e})")

    if lo > 0 or new[1] == 0.0:
        # new[0] is the held zero, so argmax finds 0 only in an all-zero window
        first = int((new != 0.0).argmax()) or new.size
        cut = max(0, min(first - 1, new.size - 3))
        new = new[cut:]

    # t is a compensated (Kahan) sum of the increments; the sup norm is the
    # last node, + 0.0 turning an all-zero window's -0 into the maximum's +0
    y = tau_n - state.t_comp
    t = state.t + y
    next_state = SolutionState(
        u=new, t=t, n=state.n + 1, tau_last=tau_n, t_comp=(t - state.t) - y,
        sup_norm=float(new[-1]) + 0.0, min_rise=rise,
    )
    return StepResult(next_state)


class StepResult(NamedTuple):
    """One accepted step: the next state, its frozen-sign solves and sign flips.

    Every frozen sign is +1 and the accepted solve contradicts none, so
    ``picard_iters`` is always 1 and ``sign_flips`` always 0; the
    benchmark's tracer (``perfbench/tracer.py``) still reads both.
    """

    next: SolutionState
    picard_iters: int = 1
    sign_flips: int = 0
