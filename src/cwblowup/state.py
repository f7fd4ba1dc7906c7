"""Solution state: node values plus time bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SolutionState:
    """Values on the current grid at one time level.

    ``u`` spans all nodes including the boundaries (u[0] = u[-1] = 0),
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
