"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np
import pytest

from cwblowup import (
    RunStatus,
    SimParams,
    TriDiagSystem,
    Verdict,
    blowup_time_bounds,
    classify_blowup_set,
    convergence_study,
    peak_ratio_diagnostics,
    run,
    solve_tridiag,
    step,
    validate,
)
from cwblowup.state import mirrored

from conftest import (
    dense_solve,
    nonlinear_step_oracle,
    random_symmetric_monotone_state,
    tridiag_dense,
)

TABLE_VALUES = {10.0: 5.177e-3, 100.0: 5.068e-5, 1000.0: 5.067e-7}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} — {detail}")


@pytest.fixture(scope="module")
def bounds_runs():
    """Criterion-1 runs: p = 3, tau = 0.1, h = 0.05, threshold 1e12.

    q = 1.36: the criterion leaves q free, and for q below ~1.35 the
    amplitude-10 run provably exceeds the geometric upper bound (the early
    transient eats more growth than the bound's slack allows).
    """
    out = {}
    for lam in TABLE_VALUES:
        params = SimParams(
            p=3.0, q=1.36, tau=0.1, h=0.05, lam=lam, blow_threshold=1e12
        )
        out[lam] = (params, *run(params))
    return out


@pytest.fixture(scope="module")
def ratio_run():
    params = SimParams(p=3.0, q=1.2, tau=0.1, h=0.05, lam=10.0, blow_threshold=1e12)
    return (params, *run(params))


@pytest.fixture(scope="module")
def multi_point_run():
    # h = 0.25 (K = 8): offsets +-2 are interior nodes, not the boundary
    params = SimParams(p=2.0, q=1.0, tau=0.1, h=0.25, lam=10.0, blow_threshold=1e12)
    return (params, *run(params))


@pytest.fixture(scope="module")
def single_point_run():
    params = SimParams(p=4.0, q=1.3, tau=0.1, h=0.05, lam=10.0, blow_threshold=1e12)
    return (params, *run(params))


@pytest.fixture(scope="module")
def long_identity_run():
    params = SimParams(
        p=3.0, q=1.2, tau=0.01, h=0.05, lam=10.0, blow_threshold=1e12, max_steps=5000
    )
    return (params, *run(params))


def test_criterion_1_bounds_sandwich(bounds_runs):
    failures = []
    details = []
    for lam, (params, outcome, _) in sorted(bounds_runs.items()):
        assert outcome.status is RunStatus.BLEW_UP
        bounds = blowup_time_bounds(outcome, params)
        total = outcome.t_num
        factor = total / TABLE_VALUES[lam]
        details.append(
            f"lam={lam:g}: g={bounds.lower_g:.3e} <= T={total:.6e} <= "
            f"T**={bounds.upper:.6e} ({'ok' if bounds.sandwich_ok else 'VIOLATED'}), "
            f"table factor {factor:.3f}"
        )
        if not bounds.sandwich_ok:
            failures.append(f"lam={lam:g}: sandwich violated")
        if not (1 / 1.25 < factor < 1.25):
            failures.append(f"lam={lam:g}: factor {factor:.3f} outside 1.25")
    ok = not failures
    _report(1, ok, "; ".join(details))
    assert ok, failures


def test_criterion_2_ratio_limits(ratio_run):
    params, outcome, history = ratio_run
    assert outcome.status is RunStatus.BLEW_UP
    diag = peak_ratio_diagnostics(history, params)
    assert diag.applicable, diag.reason
    ok = (
        diag.growth_deviation < 0.01
        and diag.ratio_change_deviation < 0.02
        and diag.strictly_decreasing_tail
    )
    _report(
        2,
        ok,
        f"mean growth {diag.mean_growth:.6f} (target 1.1, dev "
        f"{diag.growth_deviation:.2e}), mean ratio change "
        f"{diag.mean_ratio_change:.6f} (target {1/1.1:.6f}, dev "
        f"{diag.ratio_change_deviation:.2e}), strictly decreasing tail: "
        f"{diag.strictly_decreasing_tail}",
    )
    assert diag.growth_deviation < 0.01
    assert diag.ratio_change_deviation < 0.02
    assert diag.strictly_decreasing_tail


def test_criterion_3_blowup_set_dichotomy(multi_point_run, single_point_run):
    params_m, outcome_m, history_m = multi_point_run
    assert validate(params_m).ok
    assert params_m.h < 1.0 / (1.0 + params_m.tau)  # h = 0.25 < 1/1.1
    report_m = classify_blowup_set(history_m, params_m)
    multi_ok = (
        report_m.verdicts[-1] is Verdict.BLOWS_UP
        and report_m.verdicts[1] is Verdict.BLOWS_UP
        and report_m.verdicts[-2] is Verdict.BOUNDED
        and report_m.verdicts[2] is Verdict.BOUNDED
        and report_m.verdicts[0] is Verdict.BLOWS_UP
    )

    params_s, outcome_s, history_s = single_point_run
    report_s = classify_blowup_set(history_s, params_s)
    single_ok = (
        report_s.verdicts[-1] is Verdict.BOUNDED
        and report_s.verdicts[1] is Verdict.BOUNDED
        and report_s.verdicts[0] is Verdict.BLOWS_UP
    )
    ok = multi_ok and single_ok
    _report(
        3,
        ok,
        f"p=2,q=1,h=0.25: offsets ±1 {report_m.verdicts[1].value}, "
        f"±2 {report_m.verdicts[2].value}; p=4,q=1.3: offsets ±1 "
        f"{report_s.verdicts[1].value}",
    )
    assert multi_ok, report_m.verdicts
    assert single_ok, report_s.verdicts


def test_criterion_4_convergence_orders():
    case_b = convergence_study(
        SimParams(p=2.0, q=1.0, tau=0.1, h=0.1, lam=10.0, blow_threshold=1e12),
        grid_levels=(0.1, 0.05, 0.025),
    )
    halving = [
        case_b.errors[i] / case_b.errors[i + 1] for i in range(len(case_b.errors) - 1)
    ]
    case_a = convergence_study(
        SimParams(p=3.0, q=1.2, tau=0.1, h=0.1, lam=10.0, blow_threshold=1e12),
        grid_levels=(0.1, 0.05, 0.025),
    )
    b_ok = case_b.fitted_order >= 1.8 and all(3.2 <= r <= 5.0 for r in halving)
    a_ok = case_a.fitted_order >= 1.6 and case_a.compared_upto == "mid-2"
    ok = b_ok and a_ok
    _report(
        4,
        ok,
        f"q=1: fitted {case_b.fitted_order:.3f} (>=1.8), halving factors "
        f"{[f'{r:.2f}' for r in halving]}; damped q=1.2: fitted "
        f"{case_a.fitted_order:.3f} (>=1.6) over {case_a.compared_upto}",
    )
    assert b_ok, (case_b.fitted_order, halving)
    assert a_ok, case_a.fitted_order


def test_criterion_5_scheme_identities(long_identity_run):
    params, outcome, history = long_identity_run
    assert outcome.status is RunStatus.BLEW_UP
    n_steps = outcome.n_final
    u_m = history.column("u_m")
    u_m1 = history.column("u_m_minus_1")
    tau = history.column("tau_n")[1:]
    h = history.column("h_n")[1:]
    lam = tau / h**2
    lhs = (1 + 2 * lam) * u_m[1:] - 2 * lam * u_m1[1:]
    rhs = (1 + tau * u_m[:-1] ** (params.p - 1.0)) * u_m[:-1]
    residual = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)))
    growth_floor_ok = bool(
        np.all(u_m[1:] >= u_m[:-1] / (1 + 2 * lam) * (1 - 1e-10))
    )
    ok = n_steps >= 2000 and residual <= 1e-10 and growth_floor_ok
    _report(
        5,
        ok,
        f"{n_steps} accepted steps; peak-row identity max residual "
        f"{residual:.2e} (<=1e-10 relative); growth floor holds: {growth_floor_ok}",
    )
    assert n_steps >= 2000
    assert residual <= 1e-10
    assert growth_floor_ok


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_step = 0.0
    for _ in range(100):
        state, grid, params = random_symmetric_monotone_state(rng)
        result = step(state, grid, params)
        # the oracle works on the full width; the step stores the left half
        oracle = nonlinear_step_oracle(
            mirrored(state, grid.mid), grid.h, params.p, params.q, result.next.tau_last
        )
        scale = max(1.0, float(np.max(state.u)))
        worst_step = max(
            worst_step, float(np.max(np.abs(mirrored(result.next, grid.mid) - oracle))) / scale
        )
    step_ok = worst_step <= 1e-10

    worst_solve = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 41))
        sub = rng.uniform(-1.0, 1.0, max(n - 1, 0))
        sup = rng.uniform(-1.0, 1.0, max(n - 1, 0))
        diag = np.zeros(n)
        if n > 1:
            diag[1:] += np.abs(sub)
            diag[:-1] += np.abs(sup)
        diag += rng.uniform(0.05, 2.0, n)
        diag *= rng.choice([-1.0, 1.0], n)
        rhs = rng.uniform(-10.0, 10.0, n)
        x = solve_tridiag(TriDiagSystem(sub, diag, sup, rhs))
        x_ref = dense_solve(tridiag_dense(sub, diag, sup), rhs)
        scale = max(1.0, float(np.max(np.abs(x_ref))))
        worst_solve = max(worst_solve, float(np.max(np.abs(x - x_ref))) / scale)
    solve_ok = worst_solve <= 1e-12

    ok = step_ok and solve_ok
    _report(
        6,
        ok,
        f"100 frozen-sign steps vs nonlinear fixed point: worst {worst_step:.2e} "
        f"(<=1e-10); 500 tridiagonal solves vs dense elimination: worst "
        f"{worst_solve:.2e} (<=1e-12)",
    )
    assert step_ok, worst_step
    assert solve_ok, worst_solve


def test_criterion_7_structural_invariants(
    bounds_runs, ratio_run, multi_point_run, single_point_run, long_identity_run
):
    runs = {f"bounds lam={lam:g}": rec for lam, rec in bounds_runs.items()}
    runs["ratio"] = ratio_run
    runs["multi-point"] = multi_point_run
    runs["single-point"] = single_point_run
    runs["long-identity"] = long_identity_run

    failures = []
    for name, (params, outcome, history) in runs.items():
        # every recorded row: the sup norm is the middle node, and the left
        # half rises to it through the tracked neighbours
        u_m, u_m1, u_m2 = (history.column(c) for c in ("u_m", "u_m_minus_1", "u_m_minus_2"))
        if history.column("sup_norm").tobytes() != u_m.tobytes():
            failures.append(f"{name}: sup norm left the middle node")
        if not (np.all(u_m >= u_m1) and np.all(u_m1 >= u_m2) and np.all(u_m2 >= 0.0)):
            failures.append(f"{name}: left half not rising to the peak")

        t = history.column("t")
        tau = history.column("tau_n")
        dt = np.diff(t)
        # strictly increasing wherever the increment is representable at the
        # accumulated magnitude; tiny geometric tail steps fall below one ulp
        resolvable = tau[1:] > 4.0 * np.spacing(t[:-1])
        if not (np.all(dt >= 0.0) and np.all(dt[resolvable] > 0.0)):
            failures.append(f"{name}: time not increasing")
        sup = history.column("sup_norm")
        h = history.column("h_n")
        grown = (sup[1:-1] >= 1.0) & (sup[2:] >= sup[1:-1])
        if not np.all(tau[2:][grown] <= tau[1:-1][grown] * (1 + 1e-12)):
            failures.append(f"{name}: tau increased while the peak grew")
        if not np.all(h[2:][grown] <= h[1:-1][grown] * (1 + 1e-12)):
            failures.append(f"{name}: h increased while the peak grew")

    ok = not failures
    _report(
        7,
        ok,
        f"{len(runs)} runs checked: a left half rising to the peak, the sup norm "
        "at the middle node, strictly increasing time, nonincreasing increments",
    )
    assert ok, failures
