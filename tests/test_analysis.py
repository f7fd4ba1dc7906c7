"""Classification, ratio diagnostics, time bounds, and the order study."""

import numpy as np
import pytest

from cwblowup import (
    SimParams,
    Verdict,
    amplitude_lower_bound,
    blowup_time_bounds,
    classify_blowup_set,
    convergence_study,
    geometric_upper_bound,
    peak_ratio_diagnostics,
    run,
)
from cwblowup.analysis import _solution_at_time, compare_to_reference
from cwblowup.grid import build_grid_by_count
from cwblowup.params import ConfigError
from cwblowup.simulator import RunHistory, RunStatus
from cwblowup.state import SolutionState


def _synthetic_history(n_steps=400, threshold=1e12):
    """Geometric peak, linearly growing first neighbours, saturating second."""
    hist = RunHistory()
    grid = build_grid_by_count(6)  # the left half u_0..u_3 ends at the peak
    t = 0.0
    for n in range(n_steps + 1):
        u_m = 10.0 * 1.1**n
        if u_m > threshold * 1.2:
            break
        u_1 = 5.0 + 0.33 * n
        u_2 = 2.0 - 1.0 / (n + 1.0)
        tau = 0.1 / u_m
        t += tau
        u = np.array([0.0, u_2, u_1, u_m])
        hist.record(SolutionState(u=u, t=t, n=n, tau_last=tau if n else 0.0), grid)
    return hist


class TestClassify:
    def test_synthetic_three_behaviours(self):
        params = SimParams(p=2.0, q=1.0, tau=0.1, h=0.5, blow_threshold=1e12)
        report = classify_blowup_set(_synthetic_history(), params)
        assert report.verdicts[0] is Verdict.BLOWS_UP
        assert report.verdicts[-1] is Verdict.BLOWS_UP
        assert report.verdicts[1] is Verdict.BLOWS_UP
        assert report.verdicts[-2] is Verdict.BOUNDED
        assert report.verdicts[2] is Verdict.BOUNDED
        assert report.regime == "multi-point"
        assert report.expected[-1] is Verdict.BLOWS_UP

    def test_deterministic(self):
        params = SimParams(p=2.0, q=1.0, tau=0.1, h=0.5, blow_threshold=1e12)
        hist = _synthetic_history()
        a = classify_blowup_set(hist, params)
        b = classify_blowup_set(hist, params)
        assert a.verdicts == b.verdicts
        assert a.to_dict() == b.to_dict()

    def test_refuses_short_history(self):
        hist = RunHistory()
        grid = build_grid_by_count(6)
        for n in range(2):
            u = np.array([0.0, 1.0, 2.0, 1e13])
            hist.record(SolutionState(u=u, t=0.1 * n, n=n, tau_last=0.1 * n), grid)
        params = SimParams(p=2.0, q=1.0, blow_threshold=1e12)
        with pytest.raises(ValueError, match="history too short to classify"):
            classify_blowup_set(hist, params)

    def test_undetermined_first_neighbours(self):
        # the benchmark's refine-q136 reference at lambda = 10: the peak
        # blows up, the first neighbours grow without a verdict and the
        # second stay bounded
        params = SimParams(p=3.0, q=1.36, tau=0.1, h=0.05, lam=10.0)
        outcome, hist = run(params)
        assert outcome.status is RunStatus.BLEW_UP
        report = classify_blowup_set(hist, params)
        assert report.verdicts == {
            -2: Verdict.BOUNDED,
            -1: Verdict.UNDETERMINED,
            0: Verdict.BLOWS_UP,
            1: Verdict.UNDETERMINED,
            2: Verdict.BOUNDED,
        }

    def test_refuses_unfinished_run(self):
        params = SimParams(p=2.0, q=1.0, blow_threshold=1e30)
        with pytest.raises(ValueError, match="blow_threshold"):
            classify_blowup_set(_synthetic_history(), params)

    def test_single_point_regime_expectations(self):
        params = SimParams(p=4.0, q=1.3, tau=0.1, h=0.05, blow_threshold=1e8)
        outcome, hist = run(params)
        assert outcome.status is RunStatus.BLEW_UP
        report = classify_blowup_set(hist, params)
        assert report.regime == "single-point"
        assert report.expected == {-1: Verdict.BOUNDED, 1: Verdict.BOUNDED}
        assert report.verdicts[0] is Verdict.BLOWS_UP

    def test_json_shape(self):
        params = SimParams(p=2.0, q=1.0, tau=0.1, h=0.5, blow_threshold=1e12)
        payload = classify_blowup_set(_synthetic_history(), params).to_dict()
        assert set(payload) == {"regime", "offsets", "evidence", "expected", "window_steps"}
        assert [entry["offset"] for entry in payload["offsets"]] == [-2, -1, 0, 1, 2]
        assert set(payload["evidence"]["0"]) == {
            "final_value",
            "window_start_value",
            "drift",
            "per_step_ratio",
            "strictly_increasing",
            "trend_persistence",
        }


class TestRatioDiagnostics:
    def test_not_applicable_outside_regime(self):
        params = SimParams(p=2.0, q=1.0, tau=0.1, h=0.5, blow_threshold=1e12)
        diag = peak_ratio_diagnostics(_synthetic_history(), params)
        assert not diag.applicable
        assert "regime" in diag.reason

    def test_limits_on_single_point_run(self):
        params = SimParams(p=3.0, q=1.2, tau=0.1, h=0.05, lam=100.0, blow_threshold=1e9)
        outcome, hist = run(params)
        diag = peak_ratio_diagnostics(hist, params)
        assert diag.applicable
        assert diag.growth_deviation < 0.01
        assert diag.ratio_change_deviation < 0.02
        assert diag.strictly_decreasing_tail
        # the neighbour-to-peak ratio stays inside (0, 1) on monotone states
        ratio = hist.column("u_m_minus_1") / hist.column("u_m")
        assert np.all(ratio > 0.0)
        assert np.all(ratio < 1.0)

    def test_not_applicable_without_blowup(self):
        params = SimParams(p=3.0, q=1.2, tau=0.1, h=0.05, blow_threshold=1e12)
        outcome, hist = run(params, t_stop=1e-3)
        diag = peak_ratio_diagnostics(hist, params)
        assert not diag.applicable


class TestTimeBounds:
    def test_lower_bound_value(self):
        assert amplitude_lower_bound(3.0, 10.0) == pytest.approx(5e-3, rel=1e-14)

    def test_lower_bound_scaling_law(self):
        for p in (2.0, 3.0, 4.5):
            ratio = amplitude_lower_bound(p, 100.0) / amplitude_lower_bound(p, 10.0)
            assert ratio == pytest.approx(10.0 ** (1.0 - p), rel=1e-12)

    def test_upper_bound_reproduces_reported_value(self):
        # tau = 0.01 reproduces the reported closed-form bound at lam = 1e3
        params = SimParams(p=3.0, q=1.0, tau=0.01, h=0.05)
        assert geometric_upper_bound(params, 1e3) == pytest.approx(5.075e-7, rel=1e-3)

    def test_reported_blowup_time_reproduced_with_small_increment(self):
        # at tau = 0.01 the measured time lands within 1% of the reported
        # 5.067e-7 for amplitude 1e3 (the tabulated reference value)
        params = SimParams(
            p=3.0, q=1.0, tau=0.01, h=0.05, lam=1e3, blow_threshold=1e12
        )
        outcome, _ = run(params)
        assert outcome.t_num == pytest.approx(5.067e-7, rel=1e-2)

    def test_upper_bound_not_applicable_for_small_amplitude(self):
        params = SimParams(p=3.0, q=1.0, tau=0.1)
        assert geometric_upper_bound(params, 0.5) is None

    @pytest.mark.parametrize("p", [3.0, 5.0])
    def test_overflowing_powers(self, p):
        # lam^(p-1) overflows a float: g and the upper bound, tau / lam^(p-1)
        # over 1 - ratio, both underflow to 0.0
        assert amplitude_lower_bound(p, 1e300) == 0.0
        assert geometric_upper_bound(SimParams(p=p, q=1.0), 1e300) == 0.0
        # eps0's power overflows (a tiny amplitude at q = 1), or peak0^(p-1)
        # underflows to 0 (at q = 1.5 and p = 3 eps0 is a constant): no bound
        assert geometric_upper_bound(SimParams(p=p, q=1.0), 1e-300) is None
        assert geometric_upper_bound(SimParams(p=3.0, q=1.5), 1e-300) is None
        # where the powers are finite the expressions are today's
        assert amplitude_lower_bound(p, 1e30) == 1.0 / ((p - 1.0) * 1e30 ** (p - 1.0))

    def test_bounds_require_blowup(self):
        params = SimParams(p=3.0, q=1.0, blow_threshold=1e8)
        outcome, _ = run(SimParams(p=3.0, q=1.0, max_steps=3))
        with pytest.raises(ValueError, match="blew up"):
            blowup_time_bounds(outcome, params)

    def test_sandwich_on_fast_run(self):
        params = SimParams(p=3.0, q=1.36, tau=0.1, h=0.05, lam=100.0, blow_threshold=1e6)
        outcome, _ = run(params)
        bounds = blowup_time_bounds(outcome, params)
        assert bounds.lower_g == pytest.approx(5e-5, rel=1e-12)
        assert bounds.sandwich_ok
        assert bounds.lower_g <= outcome.t_num <= bounds.upper


class TestConvergence:
    def test_identical_grid_gives_zero_error(self):
        u = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        assert compare_to_reference(u, 4, u, 4, 1) == 0.0

    def test_non_nested_refused(self):
        u = np.zeros(7)
        v = np.zeros(9)
        with pytest.raises(ValueError, match="nested"):
            compare_to_reference(u, 6, v, 8, 1)

    def test_grid_too_coarse_for_compared_range(self):
        u = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ConfigError, match="grid too coarse for the compared index range"):
            compare_to_reference(u, 2, u, 2, 1)

    def test_coarse_run_without_blowup_refused(self):
        params = SimParams(p=2.0, q=1.0, max_steps=5)
        with pytest.raises(ConfigError, match="coarse run did not blow up"):
            convergence_study(params)

    @pytest.mark.parametrize("reference_h", [0.0125, 0.025 / 4.5], ids=["2x", "not-nested"])
    def test_reference_not_a_4x_nested_refinement_refused(self, monkeypatch, reference_h):
        from cwblowup import analysis

        def no_run(*args, **kwargs):
            raise AssertionError("convergence_study ran before refusing")

        monkeypatch.setattr(analysis, "run", no_run)
        with pytest.raises(ConfigError, match="nested refinement >= 4x the finest level"):
            convergence_study(
                SimParams(p=2.0, q=1.0), t_check=0.01, reference_h=reference_h
            )

    def test_needs_three_levels(self):
        with pytest.raises(ValueError, match="3 grid levels"):
            convergence_study(SimParams(p=2.0, q=1.0), grid_levels=(0.1, 0.05))

    def test_levels_must_halve(self):
        with pytest.raises(ValueError, match="halve"):
            convergence_study(SimParams(p=2.0, q=1.0), grid_levels=(0.1, 0.05, 0.03))

    @pytest.mark.parametrize(
        "levels, reference_h, names",
        [
            ((4e-320, 2e-320, 1e-320), None, "spacing h = 4e-320"),
            ((1e-7, 5e-8, 2.5e-8), None, "K = 20000000 intervals"),
            # the reference spacing is checked too
            ((0.1, 0.05, 0.025), 1e-8, "K = 200000000 intervals"),
        ],
    )
    def test_spacing_run_cannot_sample_refused_before_any_run(
        self, monkeypatch, levels, reference_h, names
    ):
        from cwblowup import analysis

        def no_run(*args, **kwargs):
            raise AssertionError("convergence_study ran before refusing")

        monkeypatch.setattr(analysis, "run", no_run)
        with pytest.raises(ConfigError, match=names):
            convergence_study(
                SimParams(p=2.0, q=1.0), grid_levels=levels, reference_h=reference_h
            )

    def test_immediate_blowup_names_lambda(self):
        # the coarse run starts above the threshold: the default t_check is 0
        params = SimParams(p=2.0, q=1.0, lam=1e13)
        with pytest.raises(ConfigError, match=r"blew up at once \(lambda=10000000000000\.0"):
            convergence_study(params)

    def test_unproven_regime_refused(self):
        with pytest.raises(ValueError, match="order"):
            convergence_study(SimParams(p=2.0, q=1.2))

    def test_t_check_beyond_blowup_refused(self):
        params = SimParams(p=2.0, q=1.0, tau=0.1, h=0.1, lam=10.0, blow_threshold=1e10)
        with pytest.raises(ValueError, match="t_check"):
            convergence_study(params, t_check=10.0, grid_levels=(0.2, 0.1, 0.05))

    def test_study_takes_no_snapshot(self, monkeypatch):
        # each level reads the two newest recorded states around t_check
        def refuse(self, state, grid):
            raise AssertionError("convergence_study took a snapshot")

        monkeypatch.setattr(RunHistory, "add_snapshot", refuse)
        params = SimParams(p=2.0, q=1.0, tau=0.1, h=0.2, lam=10.0, blow_threshold=1e10)
        report = convergence_study(
            params, grid_levels=(0.2, 0.1, 0.05), reference_h=0.0125
        )
        assert all(e > 0 for e in report.errors)

    def test_solution_interpolated_between_the_states_around_t_check(self):
        # oracle: the two states around t_check, from a snapshot at every step
        params = SimParams(p=2.0, q=1.0, tau=0.1, h=0.1, lam=10.0)
        _, history = run(params, snapshot_every=1)
        (_, t0, _, u0), (_, t1, _, u1) = history.snapshots[4:6]
        t_check = t0 + 0.25 * (t1 - t0)
        u, k = _solution_at_time(params, t_check, None)
        w = (t_check - t0) / (t1 - t0)
        # the study reads the left half u_0..u_mid
        assert u.tobytes() == (u0 + w * (u1 - u0))[: u.size].tobytes()
        assert k == 2 * (u.size - 1)

    def test_grid_change_across_t_check_refused(self):
        # state n is the first on a finer grid, so the states around t_n
        # differ in size
        params = SimParams(p=3.0, q=1.2, lam=10.0)
        _, history = run(params)
        h = history.column("h_n")
        n = int(np.flatnonzero(h[1:] != h[:-1])[0]) + 1
        with pytest.raises(ValueError, match="grid changed"):
            _solution_at_time(params, float(history.column("t")[n]), None)

    def test_keeps_the_two_newest_states(self):
        outcome, history = run(SimParams(p=2.0, q=1.0), t_stop=0.05)
        assert history.latest is outcome.final_state
        assert history.previous.n == outcome.n_final - 1
        assert history.previous.t < 0.05 <= history.latest.t

    def test_small_study_runs(self):
        params = SimParams(p=2.0, q=1.0, tau=0.1, h=0.2, lam=10.0, blow_threshold=1e10)
        report = convergence_study(
            params, grid_levels=(0.2, 0.1, 0.05), reference_h=0.0125
        )
        assert report.expected_order == 2.0
        assert report.compared_upto == "mid-1"
        assert all(e > 0 for e in report.errors)
        assert report.fitted_order > 1.5
        payload = report.to_dict()
        assert set(payload) >= {"levels", "errors", "fitted_order", "expected_order"}
