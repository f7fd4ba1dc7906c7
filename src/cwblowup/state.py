"""Solution state: node values plus time bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SolutionState:
    """Values of a mirror-symmetric solution at one time level.

    ``u`` holds the active window u_offset..u_mid of the left half, from a
    zero node (u[0] = 0) to the node at x = 0 (u[-1]); every node left of
    ``offset`` is exactly 0.  The window always holds the nodes mid-2..mid
    (all nodes when mid < 2), and an offset-0 state is the whole left half
    u_0..u_mid.  :func:`mirrored` builds all K+1 nodes.  ``t`` is the
    accumulated time, ``n`` the step count, and ``tau_last`` the time
    increment that produced this state (0 for the initial one).
    """

    u: np.ndarray
    t: float
    n: int
    tau_last: float
    offset: int = 0

    @cached_property
    def sup_norm(self) -> float:
        """Largest node value, which is ||u||_inf as states are nonnegative.

        Computed once per state and shared by every reader of that state.
        """
        return float(self.u.max())


def mirrored(state: SolutionState) -> np.ndarray:
    """Full node vector u_0..u_K: the window padded with ``offset`` zeros, then mirrored."""
    left = np.concatenate((np.zeros(state.offset), state.u)) if state.offset else state.u
    return np.concatenate([left, left[-2::-1]])
