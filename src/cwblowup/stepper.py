"""One implicit step of the finite-difference scheme.

The scheme treats diffusion implicitly, the source (u_j^n)^p explicitly,
and the gradient damping with mixed levels:

    (u_j' - u_j)/tau_n = (u_{j+1}' - 2 u_j' + u_{j-1}')/h^2 + (u_j)^p
                         - (2h)^(-q) |u_{j+1} - u_{j-1}|^(q-1) |u_{j+1}' - u_{j-1}'|

where primes denote the new level.  The absolute value at the new level is
linearized by freezing the sign of u_{j+1}' - u_{j-1}' at +1, which turns
the step into one tridiagonal solve.  That is the scheme exactly when the
new level rises towards the peak: a step admits a finite window that rises
from a nonnegative first value, as every admissible initial profile does on
[-1, 0], and refuses (``StepError``) a solve that does not rise.

A step admits its grid by gamma_j <= lam_n, which the spacing rule keeps:
the band is then an M-matrix, on which elimination is backward stable, so
a solve is checked only for a zero pivot and, by the step's pass over its
smallest rise, a finite result.
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


# A windowed step solves from 32 zero nodes left of the window and accepts
# the solve once the 8 nodes next to its held-zero edge come out exactly 0;
# otherwise it retries with a margin of at least the window's length (each
# retry re-solves the whole window, so a smaller margin costs more solves
# than it saves rows), doubled on each further retry.  A margin is cut to a
# window of _INITIAL_MAX_INTERVALS//2 + 1 nodes, and a step whose window of
# that many nodes was solved without a zero edge is refused.
_WINDOW_MARGIN = 32
_ZERO_EDGE = 8
# The step's one minimum, its solve's smallest rise, is read by index,
# a[a.argmin()]: on ~20 entries that costs a third of a ufunc reduce and
# gives the same value, NaN included (argmin stops at the first NaN); only
# the sign of a zero result may differ.  Its sup norm is the top node.


class StepError(RuntimeError):
    """A step could not be completed."""


class StiffError(StepError):
    """The gradient coefficient exceeds the diffusion weight: the grid is
    coarser than the spacing rule allows at the state's sup norm."""


class SingularError(StepError):
    """Zero pivot during the tridiagonal elimination, or a non-finite solve."""


class TriDiagSystem(NamedTuple):
    """Tridiagonal system rows: sub[j-1]*x[j-1] + diag[j]*x[j] + sup[j]*x[j+1] = rhs[j]."""

    sub: np.ndarray   # length n-1
    diag: np.ndarray  # length n
    sup: np.ndarray   # length n-1
    rhs: np.ndarray   # length n

    @property
    def size(self) -> int:
        return self.diag.size


def assemble(
    rhs: np.ndarray, h: float, tau_n: float, gamma: np.ndarray | float
) -> TriDiagSystem:
    """Assemble the linearized step system on a window u_lo..u_mid, rows lo+1..mid.

    Row j encodes (1+2*lam)u_j' - lam(u_{j+1}'+u_{j-1}') + gamma_j*
    (u_{j+1}'-u_{j-1}') = u_j + tau_n*(u_j)^p with lam = tau_n/h^2, every
    frozen sign being +1; ``rhs`` holds u_j + tau_n*(u_j)^p of rows
    lo+1..mid, and ``gamma`` holds gamma_j for rows lo+1..mid-1, or is one
    float g shared by them all (q = 1).  Row lo+1 uses u_lo' = 0 (the
    boundary when lo = 0), and the reflection u_{mid+1}' = u_{mid-1}' folds
    the peak row into (1+2*lam)u_mid' - 2*lam*u_{mid-1}' = rhs (its gradient
    term cancels).  Dominance is the caller's to establish (``step`` admits
    the grid); nothing is checked here.
    """
    m = rhs.size
    lam = tau_n / (h * h)
    # band = [0, sub..., sup..., 0, diag...]: row r's off-diagonal coefficients
    # are band[r] (of u_{r-1}', 0 in the first row) and band[m + r] (of
    # u_{r+1}', 0 in the last row).  The folded peak row's -2*lam lands on
    # band[m - 1], which is the padding band[0] when m = 1, so the padding is
    # written last.
    band = np.empty(3 * m)
    band[m - 1] = -2.0 * lam
    band[0] = band[2 * m - 1] = 0.0
    if isinstance(gamma, float):  # np.float64 included: two slice fills
        band[1 : m - 1] = -lam - gamma
        band[m : 2 * m - 1] = -lam + gamma
    else:
        np.subtract(-lam, gamma[1:], band[1 : m - 1])  # rows lo+2..mid-1
        np.add(-lam, gamma, band[m : 2 * m - 1])  # rows lo+1..mid-1
    band[2 * m :] = 1.0 + 2.0 * lam
    return TriDiagSystem(band[1:m], band[2 * m :], band[m : 2 * m - 1], rhs)


def solve_tridiag(sys: TriDiagSystem) -> np.ndarray:
    """Solve the tridiagonal system in place with LAPACK gtsv.

    As in LAPACK, ``sys.rhs`` becomes the solution and is returned, and the
    bands are overwritten by the factorization.  A 1x1 system is
    x = rhs/diag.  A zero pivot raises SingularError; the solution is not
    scanned, so a non-finite one is the caller's to refuse (``step`` does).
    """
    sub, diag, sup, rhs = sys
    if diag.size == 1:
        return np.divide(rhs, diag, rhs)
    # overwrite_dl, _d, _du, _b by position
    _, _, _, x, info = dgtsv(sub, diag, sup, rhs, 1, 1, 1, 1)
    if info != 0:
        raise SingularError(f"tridiagonal solve failed: gtsv info {info}")
    if x is not rhs:  # a wrapper that solved a copy
        rhs[:] = x.ravel()
    return rhs


def step(state: SolutionState, grid: GridState, params: SimParams) -> "StepResult":
    """Advance one time level of a rising window state u_start..u_mid.

    A state is admitted by its carried facts (``sup_norm`` and ``min_rise``
    are trusted) and its first value, before any arithmetic: sup norm below
    inf, min_rise >= 0 and u[0] >= 0, for every q.  A NaN or +inf shows in
    the sup norm, a -inf past the held node in min_rise (-inf or NaN) and
    one at it in u[0].  The grid is admitted next: on a rising window
    d_j <= sup, so gamma_j/lam_n <= 2^(-q) h^(2-q) sup^(q-1), which must be
    <= 1.  Every frozen sign is +1, and the system, reflected at the peak,
    is solved once per attempt.  The window starts at node
    start = grid.mid + 1 - state.u.size, and the solve covers rows lo+1..mid
    with node lo = max(0, start - margin) held at 0; unless lo = 0 it is
    accepted only when the 8 solved nodes next to lo are exactly 0, so that
    it equals the zero-padded whole half's.  The accepted solve must rise:
    then every new difference u'_{j+1} - u'_{j-1} is >= 0, so
    gamma_j*|u'_{j+1} - u'_{j-1}| is the linear term solved, no entry is
    negative and the sup norm is the last node.  The next state, trimmed to
    one zero before its first non-zero node (keeping nodes mid-2..mid), has
    time state.t + tau_n, summed with compensation (``t_comp``), and
    carries its sup norm and the solve's smallest rise.

    Raises StepError for a state longer than the left half, not admitted as
    above or at ``blow_threshold``; for a grid coarser than the rule allows
    (StiffError); for a zero pivot or a non-finite solve (SingularError, on
    the attempt that produced it); for a solve that does not rise (its
    smallest rise negative or NaN); and for a retry beyond a solved window
    of as many nodes as the left half of the largest first grid ``run()``
    samples.
    """
    u, mid = state.u, grid.mid
    start = mid + 1 - u.size
    if start < 0:
        raise StepError(
            f"state holds {u.size} values, more than the {mid + 1} of the left half"
        )
    sup, low = state.sup_norm, state.min_rise
    if not (sup < math.inf and low >= 0.0 and u[0] >= 0.0):
        raise StepError(
            f"state not admitted (sup norm {sup:.3e}, smallest rise {low:.3e}, "
            f"first value {u[0]:.3e}): it must be finite and rise from a value >= 0"
        )
    if sup >= params.blow_threshold:
        raise StepError(
            f"sup norm {sup:.3e} already at blow_threshold; the source term is refused"
        )

    h, p, q = grid.h, params.p, params.q
    tau_n = compute_tau(params, sup)
    if not 2.0 ** -q * h ** (2.0 - q) * sup ** (q - 1.0) <= 1.0:
        raise StiffError(
            f"grid spacing h = {h!r} is coarser than the spacing rule allows at "
            f"sup norm {sup:.3e}: the gradient coefficient exceeds the diffusion weight"
        )
    # gamma_j = c d_j^(q-1) of the current differences d_j = u_{j+1} - u_{j-1}
    c = tau_n * (2.0 * h) ** (-q)
    margin = _WINDOW_MARGIN
    while True:
        lo = max(0, start - margin)
        if start:
            w = np.zeros(mid + 1 - lo)
            w[start - lo :] = u
        else:
            w = u
        # the solve's buffer [u'_lo = 0, rows lo+1..mid], the rows holding the
        # source right-hand side u_j + tau_n*(u_j)^p until solved in place
        buf = np.zeros(w.size)
        inner, rhs = w[1:], buf[1:]
        np.multiply(inner**p, tau_n, rhs)
        rhs += inner
        # rows lo+1..mid-1: d_j >= 0 (the window rises), so no absolute value
        # is taken; one float c for q = 1
        gamma = c if q == 1.0 else c * (w[2:] - w[:-2]) ** (q - 1.0)
        # u'_lo .. u'_mid
        new = solve_tridiag(assemble(rhs, h, tau_n, gamma)).base
        # one pass over the solve: a window rising from its held +0 to a
        # finite top node is finite throughout; a non-finite one is refused
        # here, unretried
        rises = new[1:] - new[:-1]
        rise, top = float(rises[rises.argmin()]), float(new[-1])
        rising = rise >= 0.0 and top < math.inf  # NaN included
        if not rising and not np.isfinite(new).all():
            raise SingularError("tridiagonal solve produced non-finite values")
        if lo == 0 or not np.count_nonzero(new[1 : _ZERO_EDGE + 1]):
            break
        # the next margin, cut to the largest window the limit admits
        limit = _INITIAL_MAX_INTERVALS // 2 + 1
        wanted = max(2 * margin, u.size)
        capped = min(wanted, limit - u.size)
        if capped <= margin:
            nodes = mid + 1 - max(0, start - wanted)
            raise StepError(
                f"the solve window would hold {nodes} nodes, above the limit of "
                f"{limit} (the largest first grid's left half)"
            )
        margin = capped

    if not rising:
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
        sup_norm=top + 0.0, min_rise=rise,
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
