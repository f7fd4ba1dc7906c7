"""Step assembly, the tridiagonal solve, and the frozen-sign step."""

import importlib.machinery
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cwblowup import SimParams, assemble, build_grid, solve_tridiag, step
from cwblowup.grid import build_grid_by_count, compute_tau
from cwblowup.simulator import RunHistory
from cwblowup.state import SolutionState, mirrored
from cwblowup.stepper import (
    _WINDOW_MARGIN,
    _ZERO_EDGE,
    NegativeSolutionError,
    StepError,
    StiffError,
    _gradient_coeff,
    source_rhs,
)

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
        sys = assemble(*source_rhs(np.zeros(4), 0.01, params.p), grid.h, 0.01, np.zeros(2))
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
        half = solve_tridiag(assemble(
            *source_rhs(state.u, tau_n, params.p), grid.h, tau_n, gs[: m - 1]
        ))
        n = grid.interval_count - 1
        full = dense_solve(
            tridiag_dense(-lam - gs[1:], np.full(n, 1 + 2 * lam), -lam + gs[:-1]),
            u[1:-1] + tau_n * u[1:-1] ** params.p,
        )
        scale = max(1.0, float(np.max(u)))
        assert np.max(np.abs(half - full[:m])) <= 1e-11 * scale

    def test_carried_norms_match_row_oracle(self, rng):
        # ||b|| from source_rhs and ||A|| from assemble, both read by index,
        # equal the row-wise norms of the assembled system
        state, grid, params = random_symmetric_monotone_state(rng)
        tau_n = compute_tau(params, state.sup_norm)
        diffs = state.u[2:] - state.u[:-2]
        gs = _gradient_coeff(diffs, grid.h, params.q, tau_n) * np.sign(diffs)
        sys = assemble(*source_rhs(state.u, tau_n, params.p), grid.h, tau_n, gs)
        assert sys.rhs_norm == float(np.abs(sys.rhs).max())
        assert sys.norm == sys.norm_inf()

    def test_single_interior_node(self):
        grid = build_grid_by_count(2)  # nodes -1, 0, 1
        params = SimParams(p=2.0, q=1.2)
        u1 = 3.0
        tau_n = 0.05
        sys = assemble(
            *source_rhs(np.array([0.0, u1]), tau_n, params.p), grid.h, tau_n, np.zeros(0)
        )
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
            assemble(*source_rhs(u, 0.01, params.p), grid.h, 0.01, gs)


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

        def perturbed(*args, **kwargs):
            du2, d, du, x, info = real(*args, **kwargs)
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

    @pytest.mark.parametrize("fraction, accepted", [(0.5, True), (2.0, False)])
    def test_residual_bound_holds_row_by_row(self, monkeypatch, fraction, accepted):
        # One solved entry is moved so that one row's residual is a fraction
        # of the bound rtol * (||A|| ||x|| + ||b||); every other row stays at
        # roundoff.  The bound needs the largest residual and the largest |x|
        # (here ~16x the smallest), not any other entry.
        from cwblowup import TriDiagSystem, stepper

        lam, n, k = 1e4, 50, 25
        x_true = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
        sub, sup = np.full(n - 1, -lam), np.full(n - 1, -lam)
        diag = np.full(n, 1.0 + 2.0 * lam)
        rhs = tridiag_dense(sub, diag, sup) @ x_true
        sys = TriDiagSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
        bound = 1e-12 * (sys.norm_inf() * np.max(x_true) + np.max(np.abs(rhs)))
        real = stepper.dgtsv

        def moved(*args, **kwargs):
            du2, d, du, x, info = real(*args, **kwargs)
            x[k] += fraction * bound / diag[k]
            return du2, d, du, x, info

        monkeypatch.setattr(stepper, "dgtsv", moved)
        if accepted:
            solve_tridiag(sys)
        else:
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


class TestInPlaceSolve:
    """solve_tridiag solves in place into a zero-led buffer; the bits must not move."""

    @staticmethod
    def _assert_same_as_gtsv(sys):
        from scipy.linalg.lapack import dgtsv

        x = solve_tridiag(sys)
        ref = dgtsv(sys.sub, sys.diag, sys.sup, sys.rhs)[3]
        assert x.tobytes() == ref.tobytes()
        assert x.base[0] == 0.0 and np.shares_memory(x.base[1:], x)
        return x

    def test_random_dominant_systems(self):
        from cwblowup import TriDiagSystem

        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            sub = rng.uniform(-1, 1, n - 1)
            sup = rng.uniform(-1, 1, n - 1)
            diag = np.zeros(n)
            diag[1:] += np.abs(sub)
            diag[:-1] += np.abs(sup)
            diag += rng.uniform(1e-3, 2.0, n)
            rhs = rng.uniform(-5, 5, n)
            self._assert_same_as_gtsv(TriDiagSystem(sub=sub, diag=diag, sup=sup, rhs=rhs))

    def test_pivoting_system(self):
        from scipy.linalg.lapack import dgtsv

        from cwblowup import TriDiagSystem

        # |sub| > |diag| in the first column: gtsv interchanges rows 1 and 2,
        # which leaves fill-in on the second superdiagonal
        sys = TriDiagSystem(
            sub=np.array([3.0, 0.5, 0.25]),
            diag=np.array([1.0, 2.0, 4.0, 3.0]),
            sup=np.array([0.5, 1.0, 0.5]),
            rhs=np.array([1.0, -2.0, 3.0, 0.5]),
        )
        assert dgtsv(sys.sub, sys.diag, sys.sup, sys.rhs)[0][0] != 0.0
        self._assert_same_as_gtsv(sys)

    def test_every_solve_of_a_run(self, monkeypatch):
        # p=2 q=1 interchanges the last two rows (the folded peak row) on 11
        # of its 279 solves
        from cwblowup import run, stepper

        real = stepper.solve_tridiag
        systems = []

        def keep(sys):
            systems.append(sys)
            return real(sys)

        monkeypatch.setattr(stepper, "solve_tridiag", keep)
        run(SimParams(p=2.0, q=1.0))
        monkeypatch.undo()
        assert len(systems) == 279
        for sys in systems:
            self._assert_same_as_gtsv(sys)


class TestLapackLoad:
    """stepper loads dgtsv from scipy's _flapack module, not via scipy.linalg."""

    def test_package_import_leaves_out_scipy_linalg(self):
        from cwblowup import stepper

        code = (
            "import sys, cwblowup, cwblowup.cli, cwblowup.analysis; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
        )
        src = str(Path(stepper.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @staticmethod
    def _assert_same_as_public(sub, diag, sup, rhs):
        from scipy.linalg.lapack import dgtsv

        from cwblowup import stepper

        loaded = stepper.dgtsv(sub, diag, sup, rhs)
        public = dgtsv(sub, diag, sup, rhs)
        assert len(loaded) == len(public) == 5
        for a, b in zip(loaded[:4], public[:4]):
            assert a.tobytes() == b.tobytes()
        assert loaded[4] == public[4]
        return loaded[4]

    def test_random_systems_match_public_routine(self):
        # dominant systems solve without interchanges; |sub| > |diag| pivots
        rng = np.random.default_rng(23)
        for pivoting in (False, True):
            for _ in range(200):
                n = int(rng.integers(2, 40))
                sub = rng.uniform(-1, 1, n - 1)
                sup = rng.uniform(-1, 1, n - 1)
                if pivoting:
                    sub *= 4.0
                    diag = rng.uniform(-1, 1, n)
                else:
                    diag = rng.uniform(1e-3, 2.0, n)
                    diag[1:] += np.abs(sub)
                    diag[:-1] += np.abs(sup)
                rhs = rng.uniform(-5, 5, n)
                assert self._assert_same_as_public(sub, diag, sup, rhs) == 0

    def test_singular_system_same_info(self):
        sub = np.array([0.0, 0.0, 1.0])
        diag = np.array([1.0, 0.0, 2.0, 1.0])
        sup = np.array([0.0, 0.0, 1.0])
        assert self._assert_same_as_public(sub, diag, sup, np.ones(4)) == 2

    def test_public_import_when_no_module_file(self, monkeypatch):
        from scipy.linalg import lapack

        from cwblowup import stepper

        real = importlib.machinery.PathFinder.find_spec

        def find(name, path=None, target=None):
            return None if name == "_flapack" else real(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", find)
        dgtsv = stepper._load_dgtsv()
        assert dgtsv is lapack.dgtsv
        x, info = dgtsv(np.array([-1.0]), np.array([2.0, 2.0]), np.array([-1.0]), np.ones(2))[3:]
        assert info == 0 and x.tolist() == [1.0, 1.0]


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

    @pytest.mark.parametrize(
        "values",
        [
            [0.0, np.nan, 2.0],  # NaN inside the window
            [0.0, 1.0, np.inf],  # +inf at the peak
            [0.0, -np.inf, 2.0],  # -inf inside the window
            [-np.inf, 1.0, 2.0],  # -inf at the held zero node
        ],
    )
    def test_refuses_non_finite_before_arithmetic(self, values):
        grid = build_grid_by_count(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # (-inf)**2.5 would warn
            with pytest.raises(StepError, match="state contains non-finite values"):
                step(_state(values), grid, SimParams(p=2.5, q=1.2))

    def test_all_zero_window_keeps_the_reduce_sup_norm(self):
        # The sup norm is read as new[new.argmax()], which may differ from
        # np.maximum.reduce only in a zero's sign; an all-zero window keeps
        # the reduce's bytes in the sup_norm column.  From an all -0.0 state
        # at q = 1.2 numpy 2.4 reduces the new window (+0, -0, -0) to -0.0.
        windows = [np.zeros(3), np.full(3, -0.0), np.array([0.0, -0.0, -0.0])]
        windows += [np.full(21, -0.0), np.zeros(21), np.full(201, -0.0)]
        for u in windows:
            grid = build_grid_by_count(2 * (u.size - 1))
            for params in (SimParams(p=2.0, q=1.0), SimParams(p=3.0, q=1.2)):
                new = step(_state(u), grid, params).next
                assert not np.any(new.u)
                history = RunHistory()
                history.record(new, grid)
                expected = np.maximum.reduce(new.u).tobytes()
                assert history.column("sup_norm")[0].tobytes() == expected

    @pytest.mark.parametrize("value", [-1e-14, -0.0, 0.0])
    def test_roundoff_negative_entry_clamped(self, monkeypatch, value):
        # an entry below zero by less than picard_tol * sup is set to 0
        state, grid, params = self._with_solved_entry(monkeypatch, value)
        new = step(state, grid, params).next
        half = padded_half(new)
        assert half[1] == 0.0 and np.min(half) == 0.0
        assert window_ok(new, grid)

    def test_negative_entry_beyond_roundoff_refused(self, monkeypatch):
        state, grid, params = self._with_solved_entry(monkeypatch, -1e-6)
        with pytest.raises(NegativeSolutionError, match="negative entry -1.000e-06"):
            step(state, grid, params)

    @staticmethod
    def _with_solved_entry(monkeypatch, value):
        """A sine state whose every solve returns ``value`` at node 1."""
        from cwblowup import make_initial, stepper

        grid = build_grid(0.125)
        params = SimParams(p=3.0, q=1.2, tau=0.1, lam=10.0, h=grid.h)
        real = stepper.solve_tridiag

        def solve(sys):
            x = real(sys)
            x[0] = value
            return x

        monkeypatch.setattr(stepper, "solve_tridiag", solve)
        return make_initial(params, grid), grid, params

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


class TestFrozenSignCheck:
    """The a posteriori sign check of the Picard loop, on a prescribed solve."""

    @staticmethod
    def _level(monkeypatch, u, q, new):
        from cwblowup import stepper

        def fixed(sys):
            buf = np.array(new, dtype=float)  # u'_lo = 0 leads the buffer
            return buf[1:]

        monkeypatch.setattr(stepper, "solve_tridiag", fixed)
        params = SimParams(p=2.0, q=q, tau=0.01, h=0.5, blow_threshold=1e15)
        _, iters, flips = stepper._solve_level(np.asarray(u, float), 0.5, params, 0.01, 3.0)
        return iters, flips

    def test_zero_new_difference_keeps_the_sign(self, monkeypatch):
        # frozen signs (+, +); the new differences are (+, 0): no contradiction
        assert self._level(monkeypatch, [0.0, 1.0, 2.0, 3.0], 1.0, [0, 1, 1, 1]) == (1, 0)

    def test_opposite_sign_flips_once(self, monkeypatch):
        # frozen (+, +); new (-, 0): row lo+1 flips (counted for both halves),
        # and the re-frozen signs (-, +) hold on the second iteration
        assert self._level(monkeypatch, [0.0, 1.0, 2.0, 3.0], 1.0, [0, 1, -1, 1]) == (2, 2)

    def test_inactive_rows_never_flip(self, monkeypatch):
        # q > 1 and zero differences give gamma = 0: no gradient term to sign
        assert self._level(monkeypatch, [0.0, 1.0, 0.0, 1.0], 1.5, [0, 1, -1, 2]) == (1, 0)


class TestWindow:
    """A windowed step is the step of the whole zero-padded half, bit for bit."""

    @pytest.mark.parametrize(
        "first_nonzero, sizes", [(_ZERO_EDGE, [34, 66]), (_ZERO_EDGE + 1, [34])]
    )
    def test_zero_edge_width(self, monkeypatch, first_nonzero, sizes):
        # a windowed solve is accepted only when all _ZERO_EDGE nodes next to
        # its held zero come out exactly 0: a non-zero node at distance 8
        # doubles the margin, one at distance 9 does not
        from cwblowup import stepper

        solved = []

        def level(u, h, params, tau_n, sup):
            new = np.zeros(u.size)
            new[-1] = 1.0
            if not solved:
                new[first_nonzero] = 1e-300
            solved.append(u.size)
            return new, 1, 0

        monkeypatch.setattr(stepper, "_solve_level", level)
        state = SolutionState(u=np.array([0.0, 1.0]), t=0.0, n=0, tau_last=0.0, offset=100)
        lo, _, _, _ = stepper._solve_window(state, 0.01, SimParams(), 0.1, 1.0)
        assert solved == sizes
        assert lo == 100 - _WINDOW_MARGIN * len(sizes)

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
