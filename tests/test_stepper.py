"""Step assembly, the tridiagonal solve, and the frozen-sign step."""

from dataclasses import replace

import numpy as np
import pytest

from cwblowup import SimParams, assemble, build_grid, solve_tridiag, step
from cwblowup.grid import build_grid_by_count, compute_tau
from cwblowup.state import SolutionState, mirrored
from cwblowup.stepper import StepError, StiffError, _gradient_coeff

from conftest import (
    dense_solve,
    nonlinear_step_oracle,
    padded_half,
    random_symmetric_monotone_state,
    tridiag_dense,
    window_ok,
)


def _state(values):
    return SolutionState(u=np.asarray(values, dtype=float), t=0.0, n=0, tau_last=0.0)


# The left half of a rough symmetric profile whose frozen signs flip on the
# first solve.
_ROUGH = np.array([0.0, 4.0033, 1.9838, 0.7254, 0.5909, 4.973, 5.5202])


class TestAssemble:
    def test_zero_state_is_pure_diffusion(self):
        grid = build_grid_by_count(6)
        params = SimParams(p=3.0, q=1.2)
        sys = assemble(np.zeros(4), grid.h, params, 0.01, np.zeros(2))
        lam = 0.01 / grid.h**2
        assert sys.size == grid.mid
        assert np.allclose(sys.rhs, 0.0)
        assert np.allclose(sys.diag, 1 + 2 * lam)
        assert np.allclose(sys.sup, -lam) and np.allclose(sys.sub[:-1], -lam)
        # the reflection u_{mid+1}' = u_{mid-1}' folds both neighbours of the peak
        assert sys.sub[-1] == -2 * lam

    def test_folded_system_matches_full_width(self, rng):
        # the half-range system with the reflection has the same solution as
        # the full-width system of a symmetric state (dense oracle)
        state, grid, params = random_symmetric_monotone_state(rng)
        u, m = mirrored(state), grid.mid
        tau_n = compute_tau(params, float(np.max(u)))
        lam = tau_n / grid.h**2
        diffs = u[2:] - u[:-2]
        gs = _gradient_coeff(diffs, grid.h, params.q, tau_n) * np.sign(diffs)
        half = solve_tridiag(assemble(state.u, grid.h, params, tau_n, gs[: m - 1]))
        n = grid.interval_count - 1
        full = dense_solve(
            tridiag_dense(-lam - gs[1:], np.full(n, 1 + 2 * lam), -lam + gs[:-1]),
            u[1:-1] + tau_n * u[1:-1] ** params.p,
        )
        scale = max(1.0, float(np.max(u)))
        assert np.max(np.abs(half - full[:m])) <= 1e-11 * scale

    def test_single_interior_node(self):
        grid = build_grid_by_count(2)  # nodes -1, 0, 1
        params = SimParams(p=2.0, q=1.2)
        u1 = 3.0
        tau_n = 0.05
        sys = assemble(np.array([0.0, u1]), grid.h, params, tau_n, np.zeros(0))
        assert sys.size == 1
        lam = tau_n / grid.h**2
        assert sys.diag[0] == pytest.approx(1 + 2 * lam)
        # neighbours are both zero, so the gradient coefficient vanishes
        assert sys.rhs[0] == pytest.approx(u1 + tau_n * u1**2)
        x = solve_tridiag(sys)
        assert x[0] == pytest.approx((u1 + tau_n * u1**2) / (1 + 2 * lam))

    def test_q_one_gradient_coeff_constant(self):
        grid = build_grid_by_count(8)
        rng = np.random.default_rng(3)
        u = np.concatenate([[0.0], rng.uniform(1, 5, 7), [0.0]])
        gamma = _gradient_coeff(u[2:] - u[:-2], grid.h, 1.0, 0.02)
        assert np.allclose(gamma, 0.02 / (2 * grid.h))

    def test_dominance_violation_raises(self):
        # a time increment far above the adaptive rule lets the gradient
        # coefficient overwhelm the diffusion weight
        grid = build_grid_by_count(4)
        params = SimParams(p=3.0, q=1.5, h=0.5)
        u = np.array([0.0, 1e6, 2e6])
        diffs = u[2:3] - u[0:1]  # row 1, the only row left of the peak
        gs = _gradient_coeff(diffs, grid.h, params.q, 0.01) * np.sign(diffs)
        with pytest.raises(StiffError, match="dominance"):
            assemble(u, grid.h, params, 0.01, gs)


class TestSolveTridiag:
    def test_symmetric_example(self):
        from cwblowup import TriDiagSystem

        sys = TriDiagSystem(
            sub=np.array([-1.0, -1.0]),
            diag=np.array([2.0, 2.0, 2.0]),
            sup=np.array([-1.0, -1.0]),
            rhs=np.array([1.0, 0.0, 1.0]),
        )
        assert np.allclose(solve_tridiag(sys), [1.0, 1.0, 1.0])

    def test_one_by_one(self):
        from cwblowup import TriDiagSystem

        sys = TriDiagSystem(
            sub=np.empty(0), diag=np.array([4.0]), sup=np.empty(0), rhs=np.array([2.0])
        )
        assert solve_tridiag(sys)[0] == 0.5

    def test_matches_dense_oracle(self):
        from cwblowup import TriDiagSystem

        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            sub = rng.uniform(-1, 1, n - 1)
            sup = rng.uniform(-1, 1, n - 1)
            diag = np.zeros(n)
            diag[1:] += np.abs(sub)
            diag[:-1] += np.abs(sup)
            diag += rng.uniform(0.1, 2.0, n)
            rhs = rng.uniform(-5, 5, n)
            sys = TriDiagSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
            x = solve_tridiag(sys)
            x_ref = dense_solve(tridiag_dense(sub, diag, sup), rhs)
            assert np.max(np.abs(x - x_ref)) <= 1e-12 * max(1.0, np.max(np.abs(x_ref)))

    def test_perturbed_solution_rejected(self, monkeypatch):
        # the residual check is independent of the solver: a solution off by
        # far more than roundoff must fail it
        from cwblowup import TriDiagSystem, stepper

        real = stepper.dgtsv

        def perturbed(*args):
            du2, d, du, x, info = real(*args)
            return du2, d, du, x * (1.0 + 1e-6), info

        monkeypatch.setattr(stepper, "dgtsv", perturbed)
        sys = TriDiagSystem(
            sub=np.array([-1.0, -1.0]),
            diag=np.array([4.0, 4.0, 4.0]),
            sup=np.array([-1.0, -1.0]),
            rhs=np.array([1.0, 2.0, 1.0]),
        )
        with pytest.raises(StepError, match="residual"):
            solve_tridiag(sys)

    def test_large_lambda_solve_accepted(self):
        # lambda_n = 6.4e4: the residual scales with ||A|| ||x||, not with
        # ||b||, so a backward-stable solve must pass
        from cwblowup import TriDiagSystem

        lam, n = 6.4e4, 400
        sub = np.full(n - 1, -lam)
        sub[-1] = -2.0 * lam
        diag = np.full(n, 1 + 2 * lam)
        sup = np.full(n - 1, -lam)
        x_true = 10.0 * np.sin(0.5 * np.pi * np.arange(1, n + 1) / n)
        rhs = tridiag_dense(sub, diag, sup) @ x_true
        x = solve_tridiag(TriDiagSystem(sub=sub, diag=diag, sup=sup, rhs=rhs))
        assert np.max(np.abs(x - x_true)) <= 1e-6 * np.max(x_true)


class TestStep:
    def test_zero_state_is_fixed_point(self):
        grid = build_grid_by_count(8)
        params = SimParams(p=3.0, q=1.2, tau=0.05)
        result = step(_state(np.zeros(5)), grid, params)
        # the padded half stays all zeros; the window keeps only mid-2..mid
        assert window_ok(result.next, grid)
        assert np.array_equal(padded_half(result.next), np.zeros(5))
        assert result.next.offset == grid.mid - 2
        assert result.next.tau_last == params.tau

    def test_sine_bump_stays_symmetric_monotone(self):
        grid = build_grid(0.125)
        params = SimParams(p=3.0, q=1.2, tau=0.1, lam=10.0, h=grid.h)
        from cwblowup import make_initial

        state = make_initial(params, grid)
        result = step(state, grid, params)
        u = result.next.u
        assert u.size == grid.mid + 1
        assert np.all(np.diff(u) > 0.0)
        assert np.argmax(u) == grid.mid
        # against the brute-force nonlinear fixed point, absolute values kept
        oracle = nonlinear_step_oracle(
            mirrored(state), grid.h, params.p, params.q, result.next.tau_last
        )
        assert np.max(np.abs(mirrored(result.next) - oracle)) <= 1e-10 * max(1.0, np.max(u))

    def test_small_tau_closed_form_at_peak(self):
        # with lam_n -> 0 the peak update approaches u*(1 + tau_n*u^(p-1))
        grid = build_grid(0.25)
        params = SimParams(p=2.0, q=1.0, tau=1e-8, lam=40.0, h=grid.h)
        from cwblowup import make_initial

        state = make_initial(params, grid)
        result = step(state, grid, params)
        tau_n = result.next.tau_last
        lam = tau_n / grid.h**2
        m = grid.mid
        u_m, u_m_new = state.u[m], result.next.u[m]
        u_m1_new = result.next.u[m - 1]
        lhs = (1 + 2 * lam) * u_m_new - 2 * lam * u_m1_new
        rhs = (1 + tau_n * u_m ** (params.p - 1)) * u_m
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        assert u_m_new == pytest.approx(u_m * (1 + tau_n * u_m), rel=1e-9)

    def test_peak_lower_growth_bound(self):
        grid = build_grid(0.05)
        params = SimParams(p=3.0, q=1.2, tau=0.1, lam=10.0, h=grid.h)
        from cwblowup import make_initial

        state = make_initial(params, grid)
        result = step(state, grid, params)
        lam = result.next.tau_last / grid.h**2
        floor = state.u[grid.mid] / (1 + 2 * lam)
        assert result.next.u[grid.mid] >= floor * (1 - 1e-10)

    def test_refuses_wrong_length_state(self, rng):
        # a state holds its window u_offset..u_mid of the left half; the full
        # node vector, a half of another grid or a window whose offset does
        # not match its length is refused rather than misread
        state, grid, params = random_symmetric_monotone_state(rng)
        for wrong in (mirrored(state), state.u[:-1]):
            with pytest.raises(StepError, match="left half"):
                step(_state(wrong), grid, params)
        with pytest.raises(StepError, match="left half"):
            step(replace(state, offset=1), grid, params)
        result = step(state, grid, params)
        assert window_ok(result.next, grid)

    def test_positivity_on_random_states(self, rng):
        for _ in range(20):
            state, grid, params = random_symmetric_monotone_state(rng)
            result = step(state, grid, params)
            assert np.min(result.next.u) >= 0.0
            assert result.picard_iters <= params.picard_max_iters

    def test_tau_halving_recovers_dominance(self):
        # an oversized base increment puts the gradient coefficient above the
        # diffusion weight on a steep interior row; halving tau fixes the
        # margin since gamma - lam shrinks linearly with the increment
        grid = build_grid_by_count(6)
        params = SimParams(p=3.0, q=1.5, tau=1200.0, h=grid.h, blow_threshold=1e15)
        u = np.array([0.0, 40.0, 50.0, 100.0])
        state = _state(u)
        result = step(state, grid, params)
        assert result.next.tau_last < compute_tau(params, float(np.max(u)))
        oracle = nonlinear_step_oracle(
            mirrored(state), grid.h, params.p, params.q, result.next.tau_last
        )
        gap = np.max(np.abs(mirrored(result.next) - oracle))
        assert gap <= 1e-10 * max(1.0, np.max(u))

    def test_refuses_state_beyond_threshold(self):
        grid = build_grid_by_count(4)
        params = SimParams(blow_threshold=1e12)
        u = np.array([0.0, 1e12, 2e12])
        with pytest.raises(StepError, match="blow_threshold"):
            step(_state(u), grid, params)

    def test_refuses_non_finite(self):
        grid = build_grid_by_count(4)
        u = np.array([0.0, 1.0, np.nan])
        with pytest.raises(StepError, match="non-finite"):
            step(_state(u), grid, SimParams())

    def test_picard_fallback_converges_to_fixed_point(self):
        # a rough symmetric profile flips frozen signs; the re-frozen
        # iteration must land on the same nonlinear fixed point
        grid = build_grid_by_count(12)
        params = SimParams(p=3.214, q=1.0, tau=1.963, h=grid.h, blow_threshold=1e15)
        u = _ROUGH
        result = step(_state(u), grid, params)
        assert result.sign_flips > 0
        assert result.picard_iters > 1
        oracle = nonlinear_step_oracle(
            mirrored(_state(u)), grid.h, params.p, params.q, result.next.tau_last
        )
        gap = np.max(np.abs(mirrored(result.next) - oracle))
        assert gap <= 1e-10 * max(1.0, np.max(u))

    def test_picard_iteration_cap(self):
        from cwblowup import PicardError

        grid = build_grid_by_count(12)
        params = SimParams(
            p=3.214, q=1.0, tau=1.963, h=grid.h, blow_threshold=1e15,
            picard_max_iters=1,
        )
        with pytest.raises(PicardError):
            step(_state(_ROUGH), grid, params)

    def test_singular_system_raises(self):
        from cwblowup import SingularError, TriDiagSystem

        sys = TriDiagSystem(
            sub=np.array([0.0]),
            diag=np.array([0.0, 0.0]),
            sup=np.array([0.0]),
            rhs=np.array([1.0, 1.0]),
        )
        with pytest.raises(SingularError):
            solve_tridiag(sys)


class TestWindow:
    """A windowed step is the step of the whole zero-padded half, bit for bit."""

    @staticmethod
    def _assert_same_as_whole_half(state, grid, params):
        windowed = step(state, grid, params)
        whole = step(_state(padded_half(state)), grid, params)
        assert window_ok(windowed.next, grid)
        assert np.array_equal(padded_half(windowed.next), padded_half(whole.next))
        assert windowed.next.offset == whole.next.offset
        assert windowed.next.tau_last == whole.next.tau_last
        assert (windowed.picard_iters, windowed.sign_flips) == (
            whole.picard_iters, whole.sign_flips
        )
        return windowed

    def test_states_carried_out_of_a_run(self, monkeypatch):
        from cwblowup import simulator

        real_step = simulator.step
        seen = []

        def keep(state, grid, params):
            if state.offset > 0:
                seen.append((state, grid))
            return real_step(state, grid, params)

        monkeypatch.setattr(simulator, "step", keep)
        params = SimParams(p=3.0, q=1.36, tau=0.1, h=0.05, lam=10.0)
        simulator.run(params)
        assert len(seen) > 200
        for i in np.linspace(0, len(seen) - 1, 8).astype(int):
            state, grid = seen[i]
            self._assert_same_as_whole_half(state, grid, params)
        assert seen[-1][1].interval_count > 10**6  # ends far beyond the window

    @pytest.mark.parametrize("tau", [1e-4, 1e-6])
    def test_spike_margin_doubles(self, monkeypatch, tau):
        # a one-node spike with lambda_n = 1 (tau = 1e-4) or 0.01 (1e-6):
        # the solution does not underflow within 32 nodes of the window, so
        # the margin must double until the zero edge holds
        from cwblowup import stepper

        grid = build_grid_by_count(2000)
        params = SimParams(p=3.0, q=1.36, tau=tau, h=grid.h, blow_threshold=1e15)
        state = SolutionState(
            u=np.array([0.0, 0.0, 10.0]), t=0.0, n=0, tau_last=0.0, offset=grid.mid - 2
        )
        assert compute_tau(params, 10.0) / grid.h**2 == pytest.approx(tau * 1e4)
        sizes = []
        real = stepper.solve_tridiag

        def spy(sys):
            sizes.append(sys.size)
            return real(sys)

        monkeypatch.setattr(stepper, "solve_tridiag", spy)
        step(state, grid, params)
        monkeypatch.undo()
        assert sizes[:2] == [34, 66]
        # lambda_n = 1 widens the solve to the whole half, 0.01 stops on the way
        assert (sizes[-1] == grid.mid) == (tau == 1e-4)
        result = self._assert_same_as_whole_half(state, grid, params)
        # the trimmed window starts one zero before the spread support
        assert result.next.u[1] > 0.0 and result.next.offset < state.offset
