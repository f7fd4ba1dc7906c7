"""Solution state: node values plus time bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, init=False)
class SolutionState:
    """Values of a mirror-symmetric solution at one time level.

    ``u`` holds the active window of the left half, from a zero node
    (u[0] = 0) to the node at x = 0 (u[-1]).  The window is placed by its
    length: on a grid with middle index mid it starts at node
    mid + 1 - u.size, and every node left of it is exactly 0.  The window
    always holds the nodes mid-2..mid (all nodes when mid < 2), and a window
    of mid + 1 values is the whole left half u_0..u_mid.  :func:`left_half`
    pads a window to u_0..u_mid, and :func:`mirrored`, for snapshots only,
    builds all K+1 nodes.  ``t`` is the accumulated time, ``n`` the step
    count, and ``tau_last`` the time increment that produced this state (0
    for the initial one).  ``t_comp`` is the compensation term of the
    compensated (Kahan) sum that gives ``t``, so a long run of tiny
    increments keeps ``t`` accurate.

    ``sup_norm`` is the largest node value, ||u||_inf as states are
    nonnegative.  Whatever builds a state and already holds that maximum
    passes it in; left out, it is computed as ``u.max()``.
    ``dataclasses.replace`` never copies it, so a replaced state computes
    its own.
    """

    u: np.ndarray
    t: float
    n: int
    tau_last: float
    t_comp: float = 0.0
    sup_norm: float = field(init=False)

    def __init__(self, u, t, n, tau_last, t_comp=0.0, sup_norm=None) -> None:
        # The instance dict is written directly: a frozen dataclass's own
        # __init__ sets each field through object.__setattr__, about twice
        # the cost, and every step builds a state.
        d = self.__dict__
        d["u"] = u
        d["t"] = t
        d["n"] = n
        d["tau_last"] = tau_last
        d["t_comp"] = t_comp
        d["sup_norm"] = float(u.max()) if sup_norm is None else sup_norm


def left_half(state: SolutionState, mid: int) -> np.ndarray:
    """u_0..u_mid of a grid with middle index ``mid``: the window padded
    with zeros on the left (the window itself when it is the whole half)."""
    pad = mid + 1 - state.u.size
    return np.concatenate((np.zeros(pad), state.u)) if pad else state.u


def mirrored(state: SolutionState, mid: int) -> np.ndarray:
    """Full node vector u_0..u_K of a grid with middle index ``mid``: the
    left half, then its mirror image."""
    left = left_half(state, mid)
    return np.concatenate([left, left[-2::-1]])
