"""Solution state: node values plus time bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def mirrored(left: np.ndarray) -> np.ndarray:
    """Full node vector u_0..u_K from the left half u_0..u_mid, u_{mid+k} = u_{mid-k}."""
    return np.concatenate([left, left[-2::-1]])


@dataclass(frozen=True)
class SolutionState:
    """Values of a mirror-symmetric solution at one time level.

    ``u`` holds the left half u_0..u_mid only, from the boundary (u[0] = 0)
    to the node at x = 0 (u[-1]); :func:`mirrored` builds all K+1 nodes.
    ``t`` is the accumulated time, ``n`` the step count, and ``tau_last``
    the time increment that produced this state (0 for the initial one).
    """

    u: np.ndarray
    t: float
    n: int
    tau_last: float

    @cached_property
    def sup_norm(self) -> float:
        """Largest node value, which is ||u||_inf as states are nonnegative.

        Computed once per state and shared by every reader of that state.
        """
        return float(self.u.max())
