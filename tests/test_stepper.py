"""Step assembly, the tridiagonal solve, and the rising-window step."""

import importlib.machinery
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwblowup import InitialData, SimParams, assemble, build_grid, run, solve_tridiag, step
from cwblowup.grid import build_grid_by_count, compute_h, compute_tau
from cwblowup.simulator import RunHistory
from cwblowup.state import SolutionState, mirrored
from cwblowup.stepper import (
    _WINDOW_MARGIN,
    _ZERO_EDGE,
    SingularError,
    StepError,
    StepResult,
    StiffError,
    TriDiagSystem,
)

from conftest import (
    dense_solve,
    nonlinear_step_oracle,
    padded_half,
    random_symmetric_monotone_state,
    scheme_rows,
    tridiag_dense,
    window_ok,
    window_start,
)


def _state(values):
    return SolutionState(u=np.asarray(values, dtype=float), t=0.0, n=0, tau_last=0.0)


def _copied(sys):
    """A copy of ``sys``, whose solve overwrites its bands and right-hand side."""
    return TriDiagSystem(*(a.copy() for a in sys))


def _assembled(monkeypatch, state, grid, params):
    """Step ``state`` and return the arguments and system of every assemble
    call, copied before the solve consumes them."""
    from cwblowup import stepper

    real = stepper.assemble
    calls = []

    def spy(*args):
        sys = real(*args)
        kept = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
        calls.append((kept, _copied(sys)))
        return sys

    monkeypatch.setattr(stepper, "assemble", spy)
    result = step(state, grid, params)
    monkeypatch.undo()
    return calls, result


# The left half of a rough symmetric profile, which does not rise.
_ROUGH = np.array([0.0, 4.0033, 1.9838, 0.7254, 0.5909, 4.973, 5.5202])


class TestAssemble:
    def test_zero_state_is_pure_diffusion(self):
        grid = build_grid_by_count(6)
        params = SimParams(p=3.0, q=1.2)
        rhs = scheme_rows(np.zeros(4), grid.h, params.p, params.q, 0.01)[0]
        sys = assemble(rhs, grid.h, 0.01, np.zeros(2))
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
        u, m = mirrored(state, grid.mid), grid.mid
        tau_n = compute_tau(params, float(np.max(u)))
        lam = tau_n / grid.h**2
        _, gamma, signs = scheme_rows(u, grid.h, params.p, params.q, tau_n)
        gs = gamma * signs
        rhs = scheme_rows(state.u, grid.h, params.p, params.q, tau_n)[0]
        half = solve_tridiag(assemble(rhs, grid.h, tau_n, gs[: m - 1]))
        n = grid.interval_count - 1
        full = dense_solve(
            tridiag_dense(-lam - gs[1:], np.full(n, 1 + 2 * lam), -lam + gs[:-1]),
            u[1:-1] + tau_n * u[1:-1] ** params.p,
        )
        scale = max(1.0, float(np.max(u)))
        assert np.max(np.abs(half - full[:m])) <= 1e-11 * scale

    @pytest.mark.parametrize("q", [1.0, 1.2])
    def test_step_assembles_the_scheme_rows(self, rng, monkeypatch, q):
        # the right-hand side and gamma_j the step hands to assemble are the
        # scheme's formulas, bit for bit, with every frozen sign s_j = +1; for
        # q = 1 the step hands one float, the coefficient of every row
        state, grid, params = random_symmetric_monotone_state(rng)
        params = replace(params, q=q)
        calls, result = _assembled(monkeypatch, state, grid, params)
        (rhs, h, tau_n, gamma), _ = calls[0]
        ref = scheme_rows(state.u, grid.h, params.p, q, result.next.tau_last)
        assert (h, tau_n) == (grid.h, result.next.tau_last)
        assert rhs.tobytes() == ref[0].tobytes()
        assert isinstance(gamma, float) == (q == 1.0)
        rows = np.broadcast_to(gamma, ref[1].shape)
        assert rows.tobytes() == (ref[1] * ref[2]).tobytes()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=2.0, q=1.0, tau=0.001, h=0.05, lam=7.0, max_steps=2000),
            dict(p=3.0, q=1.36, tau=0.1, h=0.05, lam=10.0),
            dict(p=3.0, q=1.45),
        ],
        ids=["fixed-q1", "refine-q136", "p3-q1.45"],
    )
    def test_every_band_of_a_run_is_an_m_matrix(self, monkeypatch, kwargs):
        # the premise of the solve: on the spacing rule's grid gamma_j <=
        # lam_n, so every off-diagonal entry of every system a run assembles
        # is <= 0 (with the positive diagonal, an M-matrix)
        from cwblowup import stepper

        real, systems = stepper.assemble, []

        def keep(*args):
            sys = real(*args)
            systems.append(_copied(sys))
            return sys

        monkeypatch.setattr(stepper, "assemble", keep)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*large amplitude", UserWarning)
            outcome, _ = run(SimParams(**kwargs))
        assert len(systems) >= outcome.n_final > 200
        for sys in systems:
            assert (sys.sub <= 0.0).all() and (sys.sup <= 0.0).all()
            assert (sys.diag > 0.0).all()

    def test_single_interior_node(self):
        grid = build_grid_by_count(2)  # nodes -1, 0, 1
        params = SimParams(p=2.0, q=1.2)
        u1 = 3.0
        tau_n = 0.05
        rhs = scheme_rows(np.array([0.0, u1]), grid.h, params.p, params.q, tau_n)[0]
        sys = assemble(rhs, grid.h, tau_n, np.zeros(0))
        assert sys.size == 1
        lam = tau_n / grid.h**2
        assert sys.diag[0] == pytest.approx(1 + 2 * lam)
        # neighbours are both zero, so the gradient coefficient vanishes
        assert sys.rhs[0] == pytest.approx(u1 + tau_n * u1**2)
        x = solve_tridiag(sys)
        assert x[0] == pytest.approx((u1 + tau_n * u1**2) / (1 + 2 * lam))

    def test_q_one_gradient_coeff_constant(self, monkeypatch):
        # a rising left half with sup <= 1, so tau_n = tau = 0.02; every row
        # has a nonzero difference, and |gamma_j*s_j| is tau_n/(2h) on all
        grid = build_grid_by_count(8)
        rng = np.random.default_rng(3)
        u = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 1.0, 4))])
        assert np.all(u[2:] != u[:-2])
        params = SimParams(p=3.0, q=1.0, tau=0.02, h=grid.h)
        calls, _ = _assembled(monkeypatch, _state(u), grid, params)
        gamma = np.abs(calls[0][0][3])
        assert np.allclose(gamma, 0.02 / (2 * grid.h))


class TestConstantBand:
    """q = 1 hands assemble one float gamma, which fills the band's rows as a
    filled gamma array does: the same system bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3, 20])
    @pytest.mark.parametrize("h, tau_n", [(0.05, 0.001), (0.05, 0.1), (0.00125, 0.1)])
    def test_same_system_as_a_filled_gamma(self, m, h, tau_n):
        # lambda = 0.4, 40 and 6.4e4; gamma from 0 to beyond lambda, both signs
        rhs = np.linspace(1.0, 2.0, m)
        lam = tau_n / (h * h)
        for g in (0.0, tau_n / (2.0 * h), 0.5 * lam, lam, lam + 0.5, 2.0 * lam + 1.0):
            for signed in (g, -g):
                want = assemble(rhs, h, tau_n, np.full(m - 1, signed))
                for scalar in (float(signed), np.float64(signed)):
                    got = assemble(rhs, h, tau_n, scalar)
                    for name in ("sub", "diag", "sup", "rhs"):
                        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("m", [2, 3, 20])
    @pytest.mark.parametrize("g", [np.nan, np.inf, -np.inf])
    def test_non_finite_gamma_as_a_filled_gamma(self, m, g):
        h, tau_n = 0.05, 0.1
        want = assemble(np.ones(m), h, tau_n, np.full(m - 1, g))
        got = assemble(np.ones(m), h, tau_n, g)
        for name in ("sub", "diag", "sup"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestSolveTridiag:
    def test_one_by_one(self):
        sys = TriDiagSystem(
            sub=np.empty(0), diag=np.array([4.0]), sup=np.empty(0), rhs=np.array([2.0])
        )
        x = solve_tridiag(sys)
        assert x is sys.rhs and x[0] == 0.5

    def test_large_lambda_solve_accepted(self):
        # lambda_n = 6.4e4: the residual scales with ||A|| ||x||, not with
        # ||b||, so a backward-stable solve must pass
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
    """solve_tridiag solves in place into its system's rhs; the bits must not move."""

    @staticmethod
    def _assert_same_as_gtsv(sys):
        from scipy.linalg.lapack import dgtsv

        ref = dgtsv(*_copied(sys))[3]
        x = solve_tridiag(sys)
        assert x is sys.rhs
        assert x.tobytes() == ref.tobytes()
        return x

    def test_pivoting_system(self):
        from scipy.linalg.lapack import dgtsv

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

    def test_wrapper_that_solves_a_copy(self, monkeypatch):
        # a dgtsv wrapper that hands back a new array, as one that copies
        # its right-hand side would: the solution still lands in sys.rhs
        from scipy.linalg.lapack import dgtsv

        from cwblowup import stepper

        monkeypatch.setattr(stepper, "dgtsv", lambda dl, d, du, b, *flags: dgtsv(dl, d, du, b))
        sys = TriDiagSystem(np.full(3, -1.0), np.full(4, 3.0), np.full(3, -1.0), np.ones(4))
        self._assert_same_as_gtsv(sys)

    def test_every_solve_of_a_run(self, monkeypatch):
        # p=2 q=1 interchanges the last two rows (the folded peak row) on 11
        # of its 279 solves; each solves into a buffer led by the held zero
        # node, which becomes the step's new window
        from cwblowup import run, stepper

        real = stepper.solve_tridiag
        systems = []

        def keep(sys):
            led = sys.rhs.base
            assert led[0] == 0.0 and led.size == sys.size + 1
            assert np.shares_memory(led[1:], sys.rhs)
            systems.append(_copied(sys))
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
        assert np.array_equal(padded_half(result.next, grid), np.zeros(5))
        assert window_start(result.next, grid) == grid.mid - 2
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
            mirrored(state, grid.mid), grid.h, params.p, params.q, result.next.tau_last
        )
        gap = np.max(np.abs(mirrored(result.next, grid.mid) - oracle))
        assert gap <= 1e-10 * max(1.0, np.max(u))

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

    def test_refuses_wrong_length_state(self, rng):
        # a state holds a window of the left half, placed by its length; the
        # full node vector, or a half one node longer, is refused rather than
        # misread
        state, grid, params = random_symmetric_monotone_state(rng)
        for wrong in (mirrored(state, grid.mid), np.concatenate(([0.0], state.u))):
            with pytest.raises(StepError, match="more than the .* left half"):
                step(_state(wrong), grid, params)
        result = step(state, grid, params)
        assert window_ok(result.next, grid)

    def test_grid_coarser_than_the_rule_refused(self, monkeypatch):
        # sup = 100 on h = 1/3 at q = 1.5, where the spacing rule gives
        # K = 50: 2^(-q) h^(2-q) sup^(q-1) = 2.04 > 1, so gamma_j could
        # exceed lam_n; the grid is refused before any assemble or solve.
        # Refined to K = 50 the same state is admitted
        from cwblowup import stepper

        params = SimParams(p=3.0, q=1.5, tau=1e4, h=1.0 / 3.0, blow_threshold=1e15)
        state = _state([0.0, 60.0, 90.0, 100.0])
        calls = []
        monkeypatch.setattr(stepper, "assemble", lambda *args: calls.append(args))
        monkeypatch.setattr(stepper, "solve_tridiag", lambda *args: calls.append(args))
        with pytest.raises(StiffError, match="coarser than the spacing rule"):
            step(state, build_grid_by_count(6), params)
        assert calls == []
        monkeypatch.undo()
        fine = build_grid(compute_h(params, 100.0))
        assert fine.interval_count == 50
        result = step(_state(padded_half(state, build_grid_by_count(6))), fine, params)
        assert result.next.min_rise >= 0.0

    def test_refuses_state_beyond_threshold(self):
        grid = build_grid_by_count(4)
        params = SimParams(blow_threshold=1e12)
        u = np.array([0.0, 1e12, 2e12])
        with pytest.raises(StepError, match="blow_threshold"):
            step(_state(u), grid, params)

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
            with pytest.raises(StepError, match="state not admitted"):
                step(_state(values), grid, SimParams(p=2.5, q=1.2))

    def test_all_zero_window_has_zero_sup_norm(self):
        # a +-0 window steps to an all-zero window, whose last node is a zero
        # of either sign; its sup norm and the history's are +0
        windows = [np.zeros(3), np.full(3, -0.0), np.array([0.0, -0.0, -0.0])]
        windows += [np.full(21, -0.0), np.zeros(21), np.full(201, -0.0)]
        for u in windows:
            grid = build_grid_by_count(2 * (u.size - 1))
            for params in (SimParams(p=2.0, q=1.0), SimParams(p=3.0, q=1.2)):
                new = step(_state(u), grid, params).next
                assert not np.any(new.u)
                assert new.sup_norm.hex() == "0x0.0p+0"
                history = RunHistory()
                history.record(new, grid)
                assert float(history.column("sup_norm")[0]).hex() == "0x0.0p+0"

    def test_negative_entry_beyond_roundoff_refused(self, monkeypatch):
        # a solved entry below zero makes the window fall from its held +0:
        # nothing is clamped, however small the entry
        for value in (-1e-6, -1e-14, -5e-324):
            state, grid, params = self._with_solved_entry(monkeypatch, value)
            with pytest.raises(StepError, match=f"smallest rise {value:.3e}"):
                step(state, grid, params)
            monkeypatch.undo()

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

    def test_singular_system_raises(self):
        from cwblowup import SingularError

        sys = TriDiagSystem(
            sub=np.array([0.0]),
            diag=np.array([0.0, 0.0]),
            sup=np.array([0.0]),
            rhs=np.array([1.0, 1.0]),
        )
        with pytest.raises(SingularError):
            solve_tridiag(sys)

    @staticmethod
    def _windowed_solves(monkeypatch, tail):
        """Step [0, 1] on nodes 100..101 = mid of a 202-interval grid, whose
        first solve holds node lo = 68 at 0, with every solve returning 1e-300
        on the nodes between lo and ``tail`` (so the zero edge never holds),
        and ``tail`` on the last nodes; return the StepError raised and the
        window size of each solve."""
        from cwblowup import stepper

        solved = []

        def solve(sys):
            new = np.full(sys.size + 1, 1e-300)
            new[0] = 0.0  # u'_lo = 0 leads the buffer
            new[-len(tail) :] = tail
            solved.append(new.size)
            return new[1:]

        monkeypatch.setattr(stepper, "solve_tridiag", solve)
        grid = build_grid_by_count(202)
        with np.errstate(all="ignore"), pytest.raises(StepError) as raised:
            step(_state([0.0, 1.0]), grid, SimParams(q=1.2, tau=0.1, h=grid.h))
        return raised.value, solved

    @pytest.mark.parametrize("case", ["nan", "+inf", "-inf", "overflow"])
    def test_non_finite_solve_refused_unretried(self, monkeypatch, case):
        # a NaN or -inf inside the window, a window rising to +inf at its top
        # node, and quotients that overflowed (1/5e-324) on the last two
        # nodes, whose rise inf - inf is NaN: each is refused on the
        # windowed attempt that produced it, although its zero edge fails
        with np.errstate(over="ignore"):
            big = np.float64(1.0) / 5e-324
        tail = {
            "nan": [np.nan, 1.0], "+inf": [0.5, np.inf], "-inf": [-np.inf, 1.0],
            "overflow": [big, big],
        }[case]
        error, solved = self._windowed_solves(monkeypatch, tail)
        assert isinstance(error, SingularError) and "non-finite" in str(error)
        assert solved == [34]

    def test_finite_non_rising_solve_is_not_singular(self, monkeypatch):
        # a finite solve that falls is retried while its zero edge fails, like
        # any windowed solve, and refused as not rising once accepted at lo = 0
        error, solved = self._windowed_solves(monkeypatch, [2.0, 1.0])
        assert type(error) is StepError and "does not rise" in str(error)
        assert solved == [34, 66, 102]


# values of a nonnegative window: signed zeros, the smallest subnormal, a
# tiny normal and O(1) values
_WINDOW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300]), st.floats(0.01, 10.0)
)


def _outcome(fn, *args):
    """fn(*args), or the type of the StepError it raised."""
    try:
        return fn(*args)
    except StepError as exc:
        return type(exc)


def _exact_path(state, grid, params):
    """A whole-half window's step by one solve, the reference of ``step``.

    Every frozen sign is +1: scheme_rows' gamma_j as the row coefficients,
    one assemble and solve, SingularError for a non-finite solve and
    StepError for one that does not rise, then the trim; the sup norm is the
    window's largest |u|.  The time increment is the step's tau_n.
    """
    u, sup = state.u, state.sup_norm
    tau_n = compute_tau(params, sup)
    rhs, gamma, _ = scheme_rows(u, grid.h, params.p, params.q, tau_n)
    new = np.zeros(rhs.size + 1)  # u'_lo = 0, then the rows solved in place
    new[1:] = rhs
    solve_tridiag(assemble(new[1:], grid.h, tau_n, gamma))
    if not np.isfinite(new).all():
        raise SingularError("non-finite solve")
    if not np.all(np.diff(new) >= 0.0):
        raise StepError("solved window does not rise")
    if new[1] == 0.0:
        first = int((new != 0.0).argmax()) or new.size
        new = new[max(0, min(first - 1, new.size - 3)) :]
    return SolutionState(new, tau_n, 1, tau_n, sup_norm=float(np.abs(new).max()))


def _certified(state):
    """Whether ``step`` admits the window: finite, rising from u[0] >= 0."""
    return state.sup_norm < np.inf and state.min_rise >= 0.0 and state.u[0] >= 0.0


def _assert_is_the_exact_path(got, state, grid, params):
    """``got``, a step's result or StepError type, is the reference's step
    where the window is admitted and the reference's solve rises; everywhere
    else it is StepError."""
    whole = _state(padded_half(state, grid))
    want = _outcome(_exact_path, whole, grid, params)
    if not (_certified(state) and isinstance(want, SolutionState)):
        assert isinstance(got, type) and issubclass(got, StepError)
        return None
    assert isinstance(got, StepResult)
    assert got.next.u.tobytes() == want.u.tobytes()
    assert got.next.t == want.t and got.next.tau_last == want.tau_last
    assert got.next.sup_norm.hex() == want.sup_norm.hex()
    # the step carries its solve's rise, a lower bound of the trimmed window's
    assert 0.0 <= got.next.min_rise <= want.min_rise
    return want


class TestOneSolveRoute:
    """Every frozen sign is +1, so a step is the scheme's one solve exactly
    where its window and that solve both rise: every new difference is then
    0 or +1 and contradicts no frozen sign.  It refuses every other window
    and solve.  ``_exact_path`` is the reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.sampled_from([0.0, -0.0]),
        rest=st.lists(_WINDOW_VALUES, min_size=2, max_size=12),
        rising=st.booleans(),
        q=st.sampled_from([1.0, 1.5]),
        p=st.sampled_from([2.0, 3.0]),
        tau=st.sampled_from([0.1, 1e-170]),
        pad=st.integers(0, 40),
    )
    # -0 + 0.1*(-0)^3 is -0: the step's all-zero window ends in -0, and its
    # sup norm must still be the exact path's maximum, +0
    @example(head=0.0, rest=[-0.0, -0.0], rising=False, q=1.5, p=3.0, tau=0.1, pad=0)
    # tau_n (2h)^(-q) |d|^(q-1) underflows to 0 on row 1 (d = 5e-324), while
    # row 2 keeps gamma > 0: the rising window is stepped as the exact path
    # steps it
    @example(head=0.0, rest=[0.0, 5e-324, 1.0], rising=True, q=1.5, p=3.0, tau=1e-170, pad=0)
    def test_route_matches_exact_path(self, head, rest, rising, q, p, tau, pad):
        # a nonnegative window, sorted half the time so that the step takes
        # it, on its own grid (the whole left half) or as a window on a grid
        # up to 40 nodes wider (zero padding, beyond 32 nodes part of it left
        # of the solve's held node), against the exact path on the
        # zero-padded whole half: where the step takes it, it is the exact
        # path bit for bit and records the same history row.  The same
        # state claiming min_rise = -1 is refused
        u = np.array([head] + (sorted(rest) if rising else rest))
        grid = build_grid_by_count(2 * (u.size - 1 + pad))
        params = SimParams(p=p, q=q, tau=tau, h=grid.h)
        state = _state(u)
        claim = SolutionState(u, 0.0, 0, 0.0, sup_norm=state.sup_norm, min_rise=-1.0)
        with pytest.raises(StepError, match="not admitted"):
            step(claim, grid, params)
        got = _outcome(step, state, grid, params)
        exact = _assert_is_the_exact_path(got, state, grid, params)
        if exact is None:
            return
        recorded = [RunHistory(), RunHistory()]
        recorded[0].record(got.next, grid)
        recorded[1].record(exact, grid)
        assert recorded[0].rows.keys() == recorded[1].rows.keys()
        for name, column in recorded[0].rows.items():
            assert column.tobytes() == recorded[1].rows[name].tobytes()

    @pytest.mark.parametrize(
        "u, mid, q",
        [
            (_ROUGH, 6, 1.0),  # a rough profile
            ([0.0, 2.0, 1.0, 3.0], 3, 1.5),  # one falling difference
            # q = 1 and d = 0 where gamma = tau_n/(2h) > 0, from zero padding
            # or a flat difference: a rising window, stepped as the
            # reference steps it
            ([0.0, 1.0, 2.0, 3.0], 6, 1.0),
            ([0.0, 0.0, 1.0, 2.0], 3, 1.0),
            # rising (min_rise 1) from u[0] < 0: the window meets its zero
            # padding with a falling difference, sign -1 with gamma > 0
            ([-0.25, 1.0, 2.0, 3.0], 6, 1.5),
        ],
    )
    def test_non_rising_entry_refused_before_any_solve(self, monkeypatch, u, mid, q):
        from cwblowup import stepper

        grid = build_grid_by_count(2 * mid)
        params = SimParams(p=2.0, q=q, tau=0.1, h=grid.h, blow_threshold=1e15)
        state = _state(u)
        if u[0] >= 0.0 and np.all(np.diff(u) >= 0.0):
            got = _outcome(step, state, grid, params)
            assert _assert_is_the_exact_path(got, state, grid, params) is not None
            return

        def unreachable(*args):
            raise AssertionError("a refused window was assembled or solved")

        monkeypatch.setattr(stepper, "assemble", unreachable)
        monkeypatch.setattr(stepper, "solve_tridiag", unreachable)
        with pytest.raises(StepError, match="not admitted"):
            step(state, grid, params)


class TestSignPrefilter:
    """The one route's prescribed-solve table: a step accepts a solve, in
    one solve, exactly where the window and the solve both rise.

    The exact sign test marks row j contradicted where gamma_j*s'*(s' - s)
    != 0, s the frozen and s' the new sign.  A step freezes s = +1 and
    accepts a rising solve, so every s' is 0 or +1 and no row is marked,
    whatever gamma_j >= 0; it refuses every other window and solve.
    """

    @pytest.mark.parametrize(
        "q, s, nd, g",
        [
            (q, s, nd, g)
            for q in (1.0, 1.5)
            for s in (-1.0, 0.0, 1.0)
            for nd in (-5e-324, 0.0, 5e-324, 1.0)
            for g in (0.0, 0.25)
            if q == 1.0 or s != 0.0 or g == 0.0
        ],
    )
    def test_no_mark_means_no_contradiction(self, monkeypatch, q, s, nd, g):
        # the whole half [0, s/2, s] has the current difference s on its one
        # row, whose gamma g is 0 where s = 0 and q > 1; its solve [0, 0, nd]
        # has the new difference nd.  A window that does not rise is refused
        # unsolved; one that rises is solved once, and that solve is the
        # step exactly when it rises too, and then no gamma marks it: a new
        # difference of 0 keeps the frozen +1, and a flat row steps like any
        # rising one
        from cwblowup import stepper

        calls = []

        def prescribed(sys):
            calls.append(sys)
            return np.array([0.0, 0.0, nd])[1:]  # u'_lo = 0 leads the buffer

        monkeypatch.setattr(stepper, "solve_tridiag", prescribed)
        grid = build_grid_by_count(4)
        params = SimParams(p=2.0, q=q, tau=0.01, h=grid.h)
        got = _outcome(step, _state([0.0, 0.5 * s, s]), grid, params)
        assert len(calls) == int(s >= 0.0)
        if s >= 0.0 and nd >= 0.0:
            assert padded_half(got.next, grid).tolist() == [0.0, 0.0, nd]
            assert g * np.sign(nd) * (np.sign(nd) - 1.0) == 0.0
        else:
            assert got is StepError


class TestOnePassTraffic:
    """Every step of the benchmark scenarios solves once."""

    @pytest.mark.parametrize("case", ["fixed-q1", "refine-q136", "table"])
    def test_every_solve_takes_the_route(self, monkeypatch, case):
        from cwblowup import simulator, stepper

        initial = None
        if case == "fixed-q1":
            params = SimParams(p=2.0, q=1.0, tau=0.001, h=0.05, lam=7.0, max_steps=500)
        elif case == "refine-q136":
            params = SimParams(p=3.0, q=1.36, tau=0.1, h=0.05, lam=10.0)
        else:  # table data that is not bit-symmetric, at the default parameters
            params = SimParams()
            x = np.array([-1.0 + 2.0 * i / 200 for i in range(201)])
            u = 16.0 * np.cos(0.5 * np.pi * x) ** 1.5
            u[0] = u[-1] = 0.0
            initial = InitialData.from_table(x, u)
        real_solve, real_step = stepper.solve_tridiag, simulator.step
        solves, steps = [], []

        def solve(sys):
            solves.append(sys.size)
            return real_solve(sys)

        def counted(*args):
            steps.append(real_step(*args))
            return steps[-1]

        monkeypatch.setattr(stepper, "solve_tridiag", solve)
        monkeypatch.setattr(simulator, "step", counted)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*large amplitude", UserWarning)
            outcome, _ = run(params, initial)
        # no window retry: one solve per step
        assert len(solves) == len(steps) == outcome.n_final > 100


class TestWindow:
    """A windowed step is the step of the whole zero-padded half, bit for bit."""

    @pytest.mark.parametrize(
        "first_nonzero, sizes", [(_ZERO_EDGE, [34, 66]), (_ZERO_EDGE + 1, [34])]
    )
    def test_zero_edge_width(self, monkeypatch, first_nonzero, sizes):
        # a windowed solve is accepted only when all _ZERO_EDGE nodes next to
        # its held zero come out exactly 0: a non-zero node at distance 8
        # doubles the margin, one at distance 9 does not
        # (the window u_lo..u_mid of a solve holds sys.size + 1 values)
        from cwblowup import stepper

        solved = []

        def solve(sys):
            new = np.zeros(sys.size + 1)  # u'_lo = 0 leads the buffer
            new[-1] = 1.0
            if not solved:
                new[first_nonzero:-1] = 1e-300  # rising from node lo + first_nonzero
            solved.append(new.size)
            return new[1:]

        monkeypatch.setattr(stepper, "solve_tridiag", solve)
        grid = build_grid_by_count(202)
        state = _state([0.0, 1.0])  # nodes 100..101 = mid
        step(state, grid, SimParams(q=1.2, tau=0.1, h=grid.h))
        assert solved == sizes
        lo = grid.mid + 1 - solved[-1]
        assert lo == 100 - _WINDOW_MARGIN * len(sizes)

    def test_retry_margin_covers_the_window(self, monkeypatch):
        # a window of 200 nodes retries with a margin of its own length, not
        # 64, and doubles it after that: 200 + 32, 200 + 200, 200 + 400 nodes
        from cwblowup import stepper

        solved = []

        def solve(sys):
            new = np.linspace(0.0, 1.0, sys.size + 1)  # u'_lo = 0 leads the buffer
            if len(solved) == 2:
                new[1 : _ZERO_EDGE + 1] = 0.0
            solved.append(new.size)
            return new[1:]

        monkeypatch.setattr(stepper, "solve_tridiag", solve)
        grid = build_grid_by_count(2000)
        state = _state(np.linspace(0.0, 1.0, 200))
        result = step(state, grid, SimParams(q=1.2, tau=0.1, h=grid.h))
        assert solved == [232, 400, 600]
        assert window_start(result.next, grid) == grid.mid + 1 - 600 + _ZERO_EDGE

    @pytest.mark.parametrize("edge_holds", [True, False])
    def test_retry_margin_cut_at_the_window_limit(self, monkeypatch, edge_holds):
        # with a limit of 513 nodes a window of 400 retries with the margin
        # 113, not its own length (800 nodes), and is refused only after
        # the 513-node window was solved without a zero edge
        from cwblowup import stepper

        monkeypatch.setattr(stepper, "_INITIAL_MAX_INTERVALS", 2**10)
        solved = []

        def solve(sys):
            new = np.linspace(0.0, 1.0, sys.size + 1)  # u'_lo = 0 leads the buffer
            if edge_holds and solved:
                new[1 : _ZERO_EDGE + 1] = 0.0
            solved.append(new.size)
            return new[1:]

        monkeypatch.setattr(stepper, "solve_tridiag", solve)
        grid = build_grid_by_count(2000)
        state = _state(np.linspace(0.0, 1.0, 400))
        params = SimParams(q=1.2, tau=0.1, h=grid.h)
        if edge_holds:
            result = step(state, grid, params)
            assert window_start(result.next, grid) == grid.mid + 1 - 513 + _ZERO_EDGE
        else:
            with pytest.raises(StepError, match="would hold 800 nodes, above the limit of 513"):
                step(state, grid, params)
        assert solved == [432, 513]

    @staticmethod
    def _assert_same_as_whole_half(state, grid, params):
        windowed = step(state, grid, params)
        whole = step(_state(padded_half(state, grid)), grid, params)
        assert window_ok(windowed.next, grid)
        assert np.array_equal(padded_half(windowed.next, grid), padded_half(whole.next, grid))
        assert windowed.next.u.size == whole.next.u.size
        assert windowed.next.tau_last == whole.next.tau_last
        return windowed

    def test_states_carried_out_of_a_run(self, monkeypatch):
        from cwblowup import simulator

        real_step = simulator.step
        seen = []

        def keep(state, grid, params):
            if window_start(state, grid) > 0:
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
        state = _state([0.0, 0.0, 10.0])  # nodes mid-2..mid
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
        assert result.next.u[1] > 0.0
        assert window_start(result.next, grid) < window_start(state, grid)

    def test_window_limit_ends_the_run(self, monkeypatch):
        # at q = q_max a large tau spreads each solve over the whole left half
        # while K grows about 100x per step; a doubled margin beyond the
        # limit (here made small) ends the run instead of being allocated
        from cwblowup import stepper

        monkeypatch.setattr(stepper, "_INITIAL_MAX_INTERVALS", 2**10)
        outcome, _ = run(SimParams(p=3.0, q=1.5, tau=100.0))
        assert outcome.status.value == "SolverError"
        assert "StepError: the solve window would hold" in outcome.error
        assert "above the limit of 513" in outcome.error
