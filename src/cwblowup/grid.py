"""Adaptive increments and the uniform grid on [-1, 1].

The time increment shrinks like sup^(1-p) and, for q > 1, the space
increment shrinks like (2*sup^(1-q))^(1/(2-q)) as the solution grows.
The grid is uniform with an even interval count so a node sits exactly
at x = 0 (the peak of symmetric data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from cwblowup.params import SimParams
from cwblowup.state import SolutionState


@dataclass(frozen=True)
class GridState:
    """Uniform grid: nodes x_0 = -1 < ... < x_{N+1} = 1 with spacing h.

    ``num_interior`` (odd) counts the interior nodes and ``mid`` is the
    index of the node at x = 0, mid = (num_interior + 1) / 2.
    """

    h: float
    num_interior: int
    mid: int
    nodes: np.ndarray

    @property
    def interval_count(self) -> int:
        return self.num_interior + 1


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
    # (2j - k)/k makes x_0 = -1, x_mid = 0 and x_k = 1 exact floats.
    nodes = (2.0 * np.arange(k + 1) - k) / k
    return GridState(h=2.0 / k, num_interior=k - 1, mid=k // 2, nodes=nodes)


def build_grid(h_target: float) -> GridState:
    """Build the grid whose snapped spacing is closest below ``h_target``."""
    return build_grid_by_count(interval_count_for(h_target))


def compute_tau(params: SimParams, sup_norm: float) -> float:
    """Adaptive time increment tau * min(1, sup^(1-p))."""
    if sup_norm <= 0.0:
        raise ValueError(f"sup_norm must be positive, got {sup_norm}")
    return params.tau * min(1.0, sup_norm ** (1.0 - params.p))

def compute_h(params: SimParams, sup_norm: float) -> float:
    """Adaptive space increment min(h, (2*sup^(1-q))^(1/(2-q))).

    For q = 1 the second argument is 2, so the base spacing is returned
    unchanged and the grid never changes along a run.
    """
    if sup_norm <= 0.0:
        raise ValueError(f"sup_norm must be positive, got {sup_norm}")
    if params.q >= 2.0:
        raise ValueError(f"q must be < 2 for the adaptive spacing rule, got {params.q}")
    shrink = (2.0 * sup_norm ** (1.0 - params.q)) ** (1.0 / (2.0 - params.q))
    return min(params.h, shrink)


def regrid(state: SolutionState, old: GridState, new: GridState) -> SolutionState:
    """Transfer a symmetric state onto a finer grid by linear interpolation.

    Interpolates the left half and mirrors it, preserving nonnegativity,
    symmetry and monotonicity, and carries the value at the shared node
    x = 0 exactly.  Refuses to coarsen: the spacing never grows along a run.

    Note: near a one-node spike, interpolation mixes the peak value into the
    freshly inserted neighbours.  The run loop therefore defaults to
    :func:`carry_to_grid`, which preserves the peaked profile structure; this
    function remains available as the physical-space transfer.
    """
    if new.h > old.h * (1.0 + 1e-12):
        raise ValueError("regrid refuses to coarsen (new spacing exceeds old)")
    if new.interval_count == old.interval_count:
        return replace(state, u=state.u.copy())
    # interpolate the left half and mirror so symmetry stays bit-exact
    left = np.interp(new.nodes[: new.mid + 1], old.nodes, state.u)
    left[0] = 0.0
    left[-1] = state.u[old.mid]  # shared node, carried exactly
    return replace(state, u=np.concatenate([left, left[-2::-1]]))


def carry_to_grid(state: SolutionState, old: GridState, new: GridState) -> SolutionState:
    """Transfer values onto a finer grid by carrying them per offset from 0.

    The node at offset k from the centre keeps the old offset-k value; new
    outer nodes (beyond the old index range) get 0, matching the boundary.
    Equivalently this is interpolation in the stretched coordinate x/h, under
    which the scheme's step recursions continue seamlessly.  Plain linear
    interpolation would smear the one-node spike that develops near blow-up
    (every inserted neighbour would pick up a fixed fraction of the peak),
    destroying the bounded-neighbour structure this transfer keeps intact.
    """
    if new.h > old.h * (1.0 + 1e-12):
        raise ValueError("carry_to_grid refuses to coarsen (new spacing exceeds old)")
    if new.interval_count == old.interval_count:
        return replace(state, u=state.u.copy())
    u = np.zeros(new.interval_count + 1)
    lo = new.mid - old.mid
    u[lo : lo + old.interval_count + 1] = state.u
    return replace(state, u=u)
