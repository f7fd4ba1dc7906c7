"""Adaptive increments and the uniform grid on [-1, 1].

The time increment shrinks like sup^(1-p) and, for q > 1, the space
increment shrinks like (2*sup^(1-q))^(1/(2-q)) as the solution grows.
The grid is uniform with an even interval count so a node sits exactly
at x = 0 (the peak of symmetric data).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from cwblowup.params import SimParams
from cwblowup.state import SolutionState, with_sup_norm


@dataclass(frozen=True)
class GridState:
    """Uniform grid x_j = -1 + j*h, j = 0..K, for an even interval count K.

    The spacing h = 2/K and the index mid = K/2 of the node at x = 0 follow
    from K; the node coordinates are built only when first read (sampling
    and snapshots).
    """

    interval_count: int

    @property
    def h(self) -> float:
        return 2.0 / self.interval_count

    @property
    def mid(self) -> int:
        return self.interval_count // 2

    @cached_property
    def nodes(self) -> np.ndarray:
        # (2j - K)/K makes x_0 = -1, x_mid = 0 and x_K = 1 exact floats
        k = self.interval_count
        return (2.0 * np.arange(k + 1) - k) / k


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
    which would overflow once a decaying run's sup norm is subnormal.
    """
    if sup_norm <= 0.0:
        raise ValueError(f"sup_norm must be positive, got {sup_norm}")
    if sup_norm <= 1.0:
        return params.tau
    return params.tau * min(1.0, sup_norm ** (1.0 - params.p))

def compute_h(params: SimParams, sup_norm: float) -> float:
    """Adaptive space increment min(h, (2*sup^(1-q))^(1/(2-q))).

    For q = 1 the second argument is 2, so the base spacing is returned
    unchanged and the grid never changes along a run.  For sup <= 1 the
    second argument is at least 2 >= h, so h is returned without the power,
    which would overflow at a subnormal sup norm.
    """
    if sup_norm <= 0.0:
        raise ValueError(f"sup_norm must be positive, got {sup_norm}")
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
    boundary.  So the window moves right by new.mid - old.mid, and ``u`` and
    the sup norm are shared, not recomputed: a carry allocates no node
    values and costs O(1).
    Equivalently this is interpolation in the stretched coordinate x/h, under
    which the scheme's step recursions continue seamlessly.  Plain linear
    interpolation would smear the one-node spike that develops near blow-up
    (every inserted neighbour would pick up a fixed fraction of the peak),
    destroying the bounded-neighbour structure this transfer keeps intact.
    """
    if new.h > old.h * (1.0 + 1e-12):
        raise ValueError("carry_to_grid refuses to coarsen (new spacing exceeds old)")
    # built field by field: dataclasses.replace walks the fields on every call
    carried = SolutionState(
        u=state.u,
        t=state.t,
        n=state.n,
        tau_last=state.tau_last,
        offset=state.offset + new.mid - old.mid,
        t_comp=state.t_comp,
    )
    return with_sup_norm(carried, state.sup_norm)
