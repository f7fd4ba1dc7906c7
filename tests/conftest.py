"""Shared test helpers: independent oracles and state generators."""

from __future__ import annotations

import numpy as np
import pytest

from cwblowup import SimParams, build_grid
from cwblowup.grid import GridState
from cwblowup.state import SolutionState


def dense_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting on a dense copy.

    Independent oracle for the tridiagonal solver; no library solver involved.
    """
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = b.size
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0.0:
            raise ZeroDivisionError("singular matrix in oracle")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        for i in range(k + 1, n):
            f = a[i, k] / a[k, k]
            a[i, k:] -= f * a[k, k:]
            b[i] -= f * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def tridiag_dense(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> np.ndarray:
    n = diag.size
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = diag
    a[np.arange(1, n), np.arange(n - 1)] = sub
    a[np.arange(n - 1), np.arange(1, n)] = sup
    return a


def scheme_rows(
    u: np.ndarray, h: float, p: float, q: float, tau_n: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of the step on a window u_lo..u_mid, from the scheme's formulas.

    The right-hand side u_j + tau_n*u_j^p of rows lo+1..mid;
    gamma_j = tau_n (2h)^(-q) |d_j|^(q-1) and the frozen signs sign(d_j),
    d_j = u_{j+1} - u_{j-1}, of rows lo+1..mid-1.
    """
    inner = u[1:]
    rhs = inner + tau_n * inner**p
    diffs = u[2:] - u[:-2]
    gamma = tau_n * (2.0 * h) ** (-q) * np.abs(diffs) ** (q - 1.0)
    return rhs, gamma, np.sign(diffs)


def nonlinear_step_oracle(
    u: np.ndarray,
    h: float,
    p: float,
    q: float,
    tau_n: float,
    *,
    tol: float = 1e-13,
    max_sweeps: int = 500_000,
) -> np.ndarray:
    """Brute-force fixed point of the implicit step, absolute values intact.

    Jacobi sweeps of
        u_j' = [u_j + tau u_j^p + lam (u_{j+1}' + u_{j-1}')
                - gamma_j |u_{j+1}' - u_{j-1}'|] / (1 + 2 lam)
    which contract at rate 2*max(lam, gamma)/(1+2*lam) in sup norm.
    """
    lam = tau_n / (h * h)
    gamma = tau_n * (2.0 * h) ** (-q) * np.abs(u[2:] - u[:-2]) ** (q - 1.0)
    rhs = u[1:-1] + tau_n * u[1:-1] ** p
    x = u.copy()
    for _ in range(max_sweeps):
        prev = x.copy()
        interior = (
            rhs + lam * (prev[2:] + prev[:-2]) - gamma * np.abs(prev[2:] - prev[:-2])
        ) / (1.0 + 2.0 * lam)
        x = np.zeros_like(prev)
        x[1:-1] = interior
        scale = max(1.0, float(np.max(np.abs(x))))
        if float(np.max(np.abs(x - prev))) < tol * scale:
            return x
    raise AssertionError("oracle fixed point did not converge")


def random_symmetric_monotone_state(
    rng: np.random.Generator,
    *,
    max_intervals: int = 32,
) -> tuple[SolutionState, GridState, SimParams]:
    """Random valid left-half state: strictly monotone u_0..u_mid, u_0 = 0.

    The amplitude is capped so the grid spacing respects the adaptive rule
    (the gradient coefficient then never exceeds the diffusion weight), and
    the base increment stays in the realistic range, keeping the one-step
    growth factor 1 + tau_n*sup^(p-1) bounded by 1 + tau.
    """
    p = float(rng.uniform(1.5, 5.0))
    q = float(rng.uniform(1.0, 2.0 * p / (p + 1.0)))
    k = 2 * int(rng.integers(2, max_intervals // 2 + 1))
    grid = build_grid(2.0 / k)

    if q > 1.0:
        # cap in log space: for q barely above 1 the exponent 1/(q-1) blows up
        log_cap = np.log(2.0 / grid.h ** (2.0 - q)) / (q - 1.0)
        sup_cap = np.exp(log_cap) if log_cap < 700.0 else np.inf
    else:
        sup_cap = np.inf
    hi = min(30.0, 0.9 * sup_cap)
    sup = float(np.exp(rng.uniform(np.log(1.5), np.log(hi))))

    m = grid.mid
    increments = rng.uniform(0.05, 1.0, size=m)
    left = np.concatenate([[0.0], np.cumsum(increments)])
    left *= sup / left[-1]

    tau_base = float(rng.uniform(0.02, 0.5))
    params = SimParams(p=p, q=q, tau=tau_base, h=grid.h, lam=sup, blow_threshold=1e15)
    state = SolutionState(u=left, t=0.0, n=0, tau_last=0.0)
    return state, grid, params


def window_start(state: SolutionState, grid: GridState) -> int:
    """Index of the window's first node: a window ends at the middle node."""
    return grid.mid + 1 - state.u.size


def padded_half(state: SolutionState, grid: GridState) -> np.ndarray:
    """u_0..u_mid of a window state: zeros up to the window, then the window."""
    return np.concatenate((np.zeros(window_start(state, grid)), state.u))


def window_ok(state: SolutionState, grid: GridState) -> bool:
    """The window invariants: it ends at the peak node, starts at a zero node,
    and holds the nodes mid-2..mid (all nodes when mid < 2)."""
    return state.u[0] == 0.0 and 0 <= window_start(state, grid) <= max(0, grid.mid - 2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
