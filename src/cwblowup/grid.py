"""Adaptive increments and the uniform grid on [-1, 1].

The time increment shrinks like sup^(1-p) and, for q > 1, the space
increment shrinks like (2*sup^(1-q))^(1/(2-q)) as the solution grows.
The grid is uniform with an even interval count so a node sits exactly
at x = 0 (the peak of symmetric data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cwblowup.params import SimParams
from cwblowup.state import SolutionState

# The largest first grid: the initial profile is sampled on its left half,
# whose mid+1 node coordinates take 67 MB at this K, and the sampled values
# 67 MB.  No step solves a window of more nodes than that left half.
_INITIAL_MAX_INTERVALS = 2**24


@dataclass(frozen=True, init=False)
class GridState:
    """Uniform grid x_j = -1 + j*h, j = 0..K, for an even interval count K.

    K is the one field.  The spacing ``h`` = 2/K and the index ``mid`` = K/2
    of the node at x = 0 are plain attributes computed once when the grid is
    built, since a step reads both; ``nodes``, the left half x_0..x_mid, is
    built on each read (sampling and snapshots) and never kept.
    """

    interval_count: int

    def __init__(self, interval_count: int) -> None:
        # written to the instance dict, as a frozen dataclass refuses setattr
        k = interval_count
        self.__dict__.update(interval_count=k, h=2.0 / k, mid=k // 2)

    @property
    def nodes(self) -> np.ndarray:
        # (2j - K)/K makes x_0 = -1 and x_mid = 0 exact, and x_(K-j) = -x_j
        k = self.interval_count
        return (2.0 * np.arange(self.mid + 1) - k) / k


def interval_count_for(h_target: float) -> int:
    """Smallest even interval count K with 2/K <= h_target (up to rounding)."""
    if not 0.0 < h_target <= 2.0:
        raise ValueError(f"h_target must lie in (0, 2], got {h_target}")
    k = math.ceil(2.0 / h_target - 1e-9)
    if k % 2:
        k += 1
    return max(k, 2)


def build_grid_by_count(k: int) -> GridState:
    """Build the uniform grid with k intervals (k even)."""
    if k < 2 or k % 2:
        raise ValueError(f"interval count must be even and >= 2, got {k}")
    return GridState(interval_count=k)


def build_grid(h_target: float) -> GridState:
    """Build the grid whose snapped spacing is closest below ``h_target``."""
    return build_grid_by_count(interval_count_for(h_target))


def compute_tau(params: SimParams, sup_norm: float) -> float:
    """Adaptive time increment tau * min(1, sup^(1-p)).

    For sup <= 1 the minimum is 1, so tau is returned without the power,
    which would overflow at a decaying run's subnormal (or zero) sup norm.
    """
    if sup_norm < 0.0:
        raise ValueError(f"sup_norm must be nonnegative, got {sup_norm}")
    if sup_norm <= 1.0:
        return params.tau
    return params.tau * min(1.0, sup_norm ** (1.0 - params.p))


def compute_h(params: SimParams, sup_norm: float) -> float:
    """Adaptive space increment min(h, (2*sup^(1-q))^(1/(2-q))).

    For q = 1 the second argument is 2, so the base spacing is returned
    unchanged and the grid never changes along a run.  For sup <= 1 the
    second argument is at least 2 >= h, so h is returned without the power,
    which would overflow at a subnormal or zero sup norm.
    """
    if sup_norm < 0.0:
        raise ValueError(f"sup_norm must be nonnegative, got {sup_norm}")
    if params.q >= 2.0:
        raise ValueError(f"q must be < 2 for the adaptive spacing rule, got {params.q}")
    if sup_norm <= 1.0:
        return params.h
    shrink = (2.0 * sup_norm ** (1.0 - params.q)) ** (1.0 / (2.0 - params.q))
    return min(params.h, shrink)


def carry_to_grid(state: SolutionState, old: GridState, new: GridState) -> SolutionState:
    """Transfer a window state onto a finer grid by carrying values per offset.

    The node at offset k from the centre keeps the old offset-k value, and
    the nodes the finer grid adds on the left are zeros, matching the
    boundary.  A window is placed by its length from the middle node, so the
    state is returned unchanged: a carry allocates nothing and costs O(1).
    A grid of fewer intervals than ``old`` is refused.
    Equivalently this is interpolation in the stretched coordinate x/h, under
    which the scheme's step recursions continue seamlessly.  Plain linear
    interpolation would smear the one-node spike that develops near blow-up
    (every inserted neighbour would pick up a fixed fraction of the peak),
    destroying the bounded-neighbour structure this transfer keeps intact.
    """
    if new.interval_count < old.interval_count:
        raise ValueError("carry_to_grid refuses to coarsen (new spacing exceeds old)")
    return state
