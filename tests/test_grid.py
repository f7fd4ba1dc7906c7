"""Adaptive increments, grid construction, and the carry to finer grids."""

from dataclasses import fields, replace

import numpy as np
import pytest

from cwblowup import SimParams, build_grid, carry_to_grid, compute_h, compute_tau
from cwblowup.grid import build_grid_by_count, interval_count_for
from cwblowup.state import SolutionState


class TestComputeTau:
    def test_shrinks_with_sup(self):
        assert compute_tau(SimParams(p=3.0, tau=0.1), 10.0) == pytest.approx(1e-3)

    def test_clamped_below_one(self):
        assert compute_tau(SimParams(p=2.0, tau=0.1), 0.5) == 0.1

    def test_rejects_nonpositive_sup(self):
        # a zero sup norm takes the sup <= 1 branch (the all-zero state);
        # only a negative one is refused
        params = SimParams()
        assert compute_tau(params, 0.0) == params.tau
        assert compute_h(params, 0.0) == params.h
        for rule in (compute_tau, compute_h):
            with pytest.raises(ValueError, match="nonnegative"):
                rule(params, -1e-300)


class TestComputeH:
    def test_q_one_never_shrinks(self):
        params = SimParams(p=3.0, q=1.0, h=0.05)
        for sup in (1.0, 1e3, 1e12):
            assert compute_h(params, sup) == 0.05

    def test_shrinks_for_q_above_one(self):
        params = SimParams(p=3.0, q=1.5, h=0.1)
        assert compute_h(params, 1e4) == pytest.approx(4e-4)

    def test_clamped_at_base(self):
        params = SimParams(p=3.0, q=1.5, h=0.1)
        assert compute_h(params, 16.0) == pytest.approx(0.1)

    def test_rejects_q_at_two(self):
        params = SimParams(p=3.0, q=2.0, h=0.1)
        with pytest.raises(ValueError):
            compute_h(params, 10.0)


@pytest.mark.parametrize("p, q", [(2.0, 1.0), (1.5, 1.1), (3.0, 1.5), (5.0, 5.0 / 3.0)])
@pytest.mark.parametrize("sup", [1e-320, 0.5, 1.0])
def test_base_increments_up_to_unit_sup(p, q, sup):
    # sup <= 1 keeps tau and h without the power: a subnormal sup norm of a
    # decaying run would overflow sup**(1-p) (and the spacing rule's power
    # near q_max = 2p/(p+1)), and where the power is finite it agrees
    params = SimParams(p=p, q=q, tau=0.3, h=0.05)
    assert compute_tau(params, sup) == 0.3
    assert compute_h(params, sup) == 0.05
    if sup >= 0.5:
        assert 0.3 * min(1.0, sup ** (1.0 - p)) == 0.3
        assert min(0.05, (2.0 * sup ** (1.0 - q)) ** (1.0 / (2.0 - q))) == 0.05


class TestBuildGrid:
    def test_exact_divisor(self):
        g = build_grid(0.5)
        assert (g.interval_count, g.h, g.mid) == (4, 0.5, 2)
        assert g.nodes[g.mid] == 0.0

    def test_rounds_up_to_even(self):
        g = build_grid(0.3)
        assert (g.interval_count, g.h, g.mid) == (8, 0.25, 4)

    def test_large_count(self):
        g = build_grid(4e-4)
        assert (g.interval_count, g.mid) == (5000, 2500)

    def test_nodes_built_on_demand(self):
        # the interval count is the whole grid; h and mid are computed once
        # when the grid is built, and the left half's coordinates on each
        # read, which stores nothing on the grid
        g = build_grid_by_count(6)
        assert [f.name for f in fields(g)] == ["interval_count"]
        assert (vars(g)["h"], vars(g)["mid"]) == (2.0 / 6, 3)
        assert replace(g, interval_count=8).h == 0.25
        before = dict(vars(g))
        first = g.nodes
        assert vars(g) == before
        assert g.nodes is not first and np.array_equal(g.nodes, first)
        assert first.size == 4

    @pytest.mark.parametrize("k", [7, 0, -4])
    def test_odd_or_small_count_refused(self, k):
        with pytest.raises(ValueError, match=f"even and >= 2, got {k}"):
            build_grid_by_count(k)

    def test_interval_count_floating_safety(self):
        # 2/h computing to 4.000000000000001 must still give 4
        assert interval_count_for(2.0 / 4.0000000000000009) == 4

    def test_rejects_bad_target(self):
        for bad in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                interval_count_for(bad)


def _state(values):
    return SolutionState(u=np.asarray(values, dtype=float), t=0.0, n=3, tau_last=0.01)


class TestCarryToGrid:
    @pytest.mark.parametrize("k", [4, 40, 3_700_002, 4 * 10**12])
    def test_refusal_compares_interval_counts(self, k):
        # the same K is accepted as it is; K - 2 intervals are refused, with
        # the same message at every K, also where the two spacings differ
        # by less than 1e-12 relative (K = 4e12)
        state = _state(np.arange(3.0))
        grid = build_grid_by_count(k)
        out = carry_to_grid(state, grid, build_grid_by_count(k))
        assert out is state
        with pytest.raises(
            ValueError,
            match=r"^carry_to_grid refuses to coarsen \(new spacing exceeds old\)$",
        ):
            carry_to_grid(state, grid, build_grid_by_count(k - 2))
