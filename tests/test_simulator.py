"""Run loop behaviour: stopping, accumulation, history, output files."""

import itertools
import json
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cwblowup import (
    ConfigError,
    InitialData,
    InitialDataError,
    RunStatus,
    SimParams,
    classify_blowup_set,
    peak_ratio_diagnostics,
    run,
    tail_estimate,
    validate,
)
from cwblowup.cli import _FIGURE_COLUMNS, _figure_series, _history_columns, _write_csv
from cwblowup.grid import build_grid_by_count, compute_h, interval_count_for
from cwblowup.params import params_header
from cwblowup.simulator import HISTORY_COLUMNS, RunHistory, RunOutcome
from cwblowup.state import SolutionState, left_half, mirrored

from conftest import padded_half, window_ok, window_start


def _fast_params(**kwargs):
    defaults = dict(p=3.0, q=1.0, tau=0.1, h=0.05, lam=10.0, blow_threshold=1e8)
    defaults.update(kwargs)
    return SimParams(**defaults)


class TestRun:
    def test_empty_budget(self):
        outcome, history = run(_fast_params(max_steps=0))
        assert outcome.status is RunStatus.BUDGET_EXHAUSTED
        assert outcome.t_num_partial == 0.0
        assert outcome.t_num == 0.0  # no tail unless the run blew up
        assert outcome.n_final == 0
        assert outcome.final_state.u[outcome.final_grid.mid] == 10.0
        assert len(history) == 1

    def test_zero_initial_rejected_before_running(self):
        x = np.linspace(-1, 1, 9)
        with pytest.raises(InitialDataError):
            InitialData.from_table(x, np.zeros(9))

    def test_blowup_run_matches_reported_time_scale(self):
        params = _fast_params(blow_threshold=1e12)
        outcome, history = run(params)
        assert outcome.status is RunStatus.BLEW_UP
        total = outcome.t_num
        assert total == outcome.t_num_partial + outcome.t_num_tail
        # the reported value for these exponents; base increments differ,
        # so agreement is only expected within a modest factor
        assert total / 5.177e-3 < 1.25
        assert total / 5.177e-3 > 1 / 1.25

    def test_time_strictly_increasing(self):
        outcome, history = run(_fast_params())
        t = history.column("t")
        tau = history.column("tau_n")
        dt = np.diff(t)
        assert np.all(dt >= 0.0)
        # strict wherever the increment is representable at the current total
        resolvable = tau[1:] > 4.0 * np.spacing(t[:-1])
        assert np.all(dt[resolvable] > 0.0)

    def test_sup_is_peak_on_symmetric_runs(self):
        _, history = run(_fast_params())
        assert np.array_equal(history.column("sup_norm"), history.column("u_m"))

    def test_grid_constant_for_q_one(self):
        outcome, history = run(_fast_params())
        h = history.column("h_n")
        assert np.all(h == h[0])

    def test_grid_refines_for_q_above_one(self):
        outcome, history = run(_fast_params(q=1.2, blow_threshold=1e9))
        h = history.column("h_n")
        assert h[-1] < h[0]
        assert np.all(np.diff(h) <= 0.0)

    def test_recording_does_not_perturb(self):
        base, _ = run(_fast_params())
        snap, hist = run(_fast_params(), snapshot_every=3)
        assert snap.t_num_partial == base.t_num_partial
        assert hist.snapshots, "snapshots were requested"

    def test_compensated_sum_matches_fsum(self):
        outcome, history = run(_fast_params())
        taus = history.column("tau_n")[1:]
        exact = math.fsum(taus)
        assert abs(outcome.t_num_partial - exact) <= 1e-9 * exact

    def test_time_limit_stop(self):
        outcome, _ = run(_fast_params(), t_stop=1e-3)
        assert outcome.status is RunStatus.TIME_LIMIT
        assert outcome.final_state.t >= 1e-3

    def test_solver_error_reported_not_raised(self, monkeypatch):
        from cwblowup import simulator
        from cwblowup.stepper import StiffError

        def boom(*args, **kwargs):
            raise StiffError("synthetic failure")

        monkeypatch.setattr(simulator, "step", boom)
        outcome, _ = run(_fast_params())
        assert outcome.status is RunStatus.SOLVER_ERROR
        assert "StiffError" in outcome.error

    def test_decay_ends_decayed(self):
        # four runs that decay end Decayed within a few ms, at the first state
        # below the discrete principal eigenvector phi_j = sin(pi*j*h/2)
        for kwargs, steps in [
            (dict(p=1.5, q=1.0, lam=10.0), 35),
            (dict(p=1.5, lam=10.0), 25),
            (dict(p=2.0, q=1.0, lam=2.0), 7),
            (dict(p=3.0, q=1.2, lam=2.0), 15),
        ]:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", ".*large amplitude", UserWarning)
                start = time.perf_counter()
                outcome, history = run(SimParams(**kwargs))
                assert time.perf_counter() - start < 0.1
            assert outcome.status is RunStatus.DECAYED and outcome.error is None
            assert outcome.n_final == steps
            assert outcome.t_num_tail == 0.0
            mid = outcome.final_grid.mid
            phi = np.sin(0.5 * np.pi * outcome.final_grid.h * np.arange(mid + 1))
            assert np.all(left_half(history.latest, mid) <= phi)
            assert not np.all(left_half(history.previous, mid) <= phi)

    def test_small_amplitude_ends_decayed(self):
        # lambda = 0.5 is below phi at every node from the start
        with pytest.warns(UserWarning, match="large amplitude"):
            outcome, history = run(SimParams(lam=0.5))
        assert outcome.status is RunStatus.DECAYED
        assert outcome.n_final == 0 and len(history) == 1

    def test_decayed_needs_every_node_below_phi(self):
        # a flat top of sup 0.9 lies above phi next to the boundary: the
        # run steps until the whole window is below phi, not while sup <= 1
        x = np.linspace(-1.0, 1.0, 201)
        with pytest.warns(UserWarning, match="large amplitude"):
            data = InitialData.from_table(x, 0.9 * (1.0 - x**8))
            outcome, history = run(SimParams(), data)
        assert outcome.status is RunStatus.DECAYED
        assert outcome.n_final == 2
        assert history.column("sup_norm").max() < 1.0

    def test_rounding_limit_refused(self):
        # tau/h0^2 = 4e302: 1 + 2*lambda_n would round to 2*lambda_n
        with pytest.raises(ConfigError, match=r"reaches the limit 2\^52"):
            run(SimParams(tau=1e300))
        # the largest tau accepted on the first grid h0 = 0.05
        limit = 2.0**52 * 0.05**2
        assert validate(SimParams(tau=0.99 * limit)).ok
        assert not validate(SimParams(tau=limit)).ok

    def test_invalid_params_raise(self):
        from cwblowup import ConfigError

        with pytest.raises(ConfigError):
            run(SimParams(p=0.5))

    def test_refused_initial_data_is_a_config_error(self):
        # a table with no row at x = 0 is flat on (-1/9, 1/9), which the
        # first grid (h = 0.05) samples: the profile is refused inside run(),
        # and only ConfigError leaves it
        x = np.linspace(-1, 1, 10)
        u = 20.0 * np.cos(0.5 * np.pi * x)
        u[0] = u[-1] = 0.0
        with pytest.raises(ConfigError, match="increase strictly"):
            run(SimParams(lam=20.0), InitialData.from_table(x, u))

    def test_table_initial_mirrored_and_stays_clean(self):
        # table data is sampled on the left half and mirrored, so it takes
        # the half-range step like the sine bump and stays bit-symmetric
        x = np.linspace(-1, 1, 333)
        u = 40.0 * np.cos(0.5 * np.pi * x)
        u[0] = u[-1] = 0.0
        data = InitialData.from_table(x, u)
        params = _fast_params(q=1.2, lam=40.0)
        outcome, _ = run(params, data)
        assert outcome.status is RunStatus.BLEW_UP
        u = outcome.final_state.u
        assert np.all(np.diff(u) >= 0.0) and u[0] == 0.0

    def test_every_state_is_a_left_half(self, monkeypatch):
        # make_initial, carry_to_grid and step hand on window states that
        # pad to the whole left half, and the history's plus columns are the
        # mirrors of the minus columns
        from cwblowup import simulator

        real_step = simulator.step
        seen, starts = [], []

        def checked_step(state, grid, params):
            full = mirrored(state, grid.mid)
            seen.append(
                window_ok(state, grid)
                and full.size == grid.interval_count + 1
                and np.array_equal(full, full[::-1])
            )
            starts.append(window_start(state, grid))
            return real_step(state, grid, params)

        monkeypatch.setattr(simulator, "step", checked_step)
        params = _fast_params(q=1.2, blow_threshold=1e9)
        outcome, history = run(params)
        assert outcome.status is RunStatus.BLEW_UP
        assert history.column("h_n")[-1] < history.column("h_n")[0]  # it regridded
        assert seen and all(seen)
        assert window_ok(outcome.final_state, outcome.final_grid)
        assert max(starts) > 0  # the carried run steps on a window
        for k in (1, 2):
            plus = history.column(f"u_m_plus_{k}")
            assert np.array_equal(plus, history.column(f"u_m_minus_{k}"))
            assert np.all(plus > 0.0)

    def test_offset_carry_builds_no_nodes(self):
        # only sampling the initial grid reads node coordinates
        outcome, history = run(_fast_params(q=1.2, blow_threshold=1e9))
        assert history.column("h_n")[-1] < history.column("h_n")[0]
        assert "nodes" not in vars(outcome.final_grid)

    def test_coarsest_grid_has_no_second_neighbour(self):
        # K = 2 (mid = 1): the left half is [u_0, peak], so a second
        # neighbour read from it must be 0, not a wrap-around to the peak
        outcome, history = run(_fast_params(p=2.0, h=2.0, blow_threshold=1e6))
        assert outcome.status is RunStatus.BLEW_UP
        assert np.all(history.column("h_n") == 1.0)  # 2 intervals of length 1
        assert np.all(history.column("u_m") > 0.0)
        for name in ("u_m_minus_1", "u_m_plus_1", "u_m_minus_2", "u_m_plus_2"):
            assert np.all(history.column(name) == 0.0), name

    def test_snapshots_list_every_node(self):
        params = _fast_params(q=1.2, blow_threshold=1e5)
        outcome, history = run(params, snapshot_every=5)
        for _, _, x, u in history.snapshots:
            assert x.size == u.size and x[0] == -1.0 and x[-1] == 1.0
            assert np.array_equal(u, u[::-1])
            assert u[0] == 0.0 and u[-1] == 0.0
        n, t, x, u = history.snapshots[-1]
        assert n == outcome.n_final
        assert u.size == outcome.final_grid.interval_count + 1
        grid = outcome.final_grid
        assert np.array_equal(u[: grid.mid + 1], padded_half(outcome.final_state, grid))

    def test_snapshots_of_a_huge_initial_grid_refused(self, monkeypatch):
        # lambda = 1e9 at q = 1.45 starts on K = 1.3e7, above the snapshot
        # limit, so the run is refused before the initial state is sampled
        from cwblowup import ConfigError, simulator

        def unreachable(*args):
            raise AssertionError("the initial state was sampled")

        monkeypatch.setattr(simulator, "make_initial", unreachable)
        with pytest.raises(ConfigError, match="K = 13102046 intervals"):
            run(SimParams(p=3.0, q=1.45, lam=1e9), snapshot_every=10)

    def test_window_snapshots_list_every_node(self):
        # on a carried run the state is a window far from the boundary, yet
        # every snapshot still lists all K+1 nodes
        outcome, history = run(_fast_params(q=1.36, blow_threshold=1e5), snapshot_every=10)
        grid, state = outcome.final_grid, outcome.final_state
        start = window_start(state, grid)
        assert start > 0
        n, _, x, u = history.snapshots[-1]
        assert n == outcome.n_final
        assert x.size == u.size == grid.interval_count + 1
        k = grid.interval_count
        assert np.array_equal(x, (2.0 * np.arange(k + 1) - k) / k)
        assert np.array_equal(u, u[::-1])
        assert np.all(u[: start + 1] == 0.0)
        assert np.array_equal(u[start : grid.mid + 1], state.u)


class TestErrorContract:
    """Every run ends with a RunStatus or raises ConfigError, nothing else."""

    def test_grid_never_coarsens(self):
        # on a coarse base grid the first regrid can shrink the peak, and the
        # spacing rule then asks for fewer intervals than the grid has; the
        # run keeps its finer grid and blows up
        params = SimParams(p=1.5, q=1.2, h=1.0, lam=10.0)
        outcome, history = run(params)
        assert outcome.status is RunStatus.BLEW_UP
        assert (outcome.n_final, outcome.final_grid.interval_count) == (627, 830)
        h, sup = history.column("h_n"), history.column("sup_norm")
        assert np.all(np.diff(h) <= 0.0)
        asked = [interval_count_for(compute_h(params, s)) for s in sup[:-1]]
        assert np.any(np.array(asked) < np.rint(2.0 / h[:-1]))

    def test_scan_of_admissible_parameters(self):
        # q = 1, 1.19 and q_max (None; 1.2 at p = 1.5, where a coarse base
        # grid once made the spacing rule coarsen), h from fine to the
        # coarsest grid, and lambda = 0.5, which decays from the start; first
        # grids too large to sample quickly are left out.  Any other
        # exception fails the test, and so does a blown-up draw whose ratio
        # or blow-up set report is not strict JSON.
        ends: dict[str, int] = {}
        for p, q, tau, h, lam in itertools.product(
            (1.5, 2.0, 3.0, 5.0), (1.0, 1.19, None), (0.1, 1.0), (0.05, 1.0, 2.0),
            (0.5, 5.0, 10.0, 30.0, 1e3),
        ):
            params = SimParams(p=p, tau=tau, h=h, lam=lam, max_steps=80)
            params = replace(params, q=q or params.q_max)
            if interval_count_for(compute_h(params, lam)) > 2**14:
                continue
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", ".*large amplitude", UserWarning)
                try:
                    outcome, history = run(params)
                    end = outcome.status.value
                except ConfigError:
                    end = "ConfigError"
            if end == "BlewUp":
                json.dumps(peak_ratio_diagnostics(history, params).to_dict(), allow_nan=False)
                if outcome.final_grid.mid < 3:  # offset 2 is no interior node
                    with pytest.raises(ValueError, match="not an interior node"):
                        classify_blowup_set(history, params)
                else:
                    json.dumps(classify_blowup_set(history, params).to_dict(), allow_nan=False)
            if lam == 0.5:
                assert end == "Decayed" and outcome.n_final == 0, params
            ends[end] = ends.get(end, 0) + 1
        assert ends["Decayed"] >= 4 * 3 * 2 * 3  # every lambda = 0.5 draw
        assert "ConfigError" not in ends and "SolverError" not in ends
        assert ends["BlewUp"] and ends["BudgetExhausted"]

    def test_scan_of_extreme_parameters(self):
        # extreme exponents, increments, amplitudes and thresholds at the
        # default h; any exception but ConfigError fails the test.  Once,
        # 1 - (1+tau)^(1-p) = 0 let a ZeroDivisionError out of the tail
        # estimate, and an infinite lambda or a spacing that underflows let
        # out a ValueError from the initial grid
        ends: dict[str, int] = {}
        for p, q, tau, lam, threshold in itertools.product(
            (math.nextafter(1.0, 2.0), 1.5, 3.0, 1000.0), (1.0, None),
            (1e-300, 1e-17, 1e-3, 1e300, math.inf), (10.0, 1e300, math.inf), (1.99, 1e12),
        ):
            params = SimParams(p=p, tau=tau, lam=lam, blow_threshold=threshold, max_steps=50)
            params = replace(params, q=q or params.q_max)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    end = run(params)[0].status.value
                except ConfigError:
                    end = "ConfigError"
            # 1 + tau rounds to 1 below tau = 1.1e-16, an infinity is refused,
            # and tau = 1e300 makes 1 + 2*lambda_n round to 2*lambda_n
            if tau < 1e-16 or tau == 1e300 or math.inf in (tau, lam):
                assert end == "ConfigError", params
            ends[end] = ends.get(end, 0) + 1
        assert set(ends) == {"ConfigError", "BlewUp", "BudgetExhausted"}


class TestCarriedSupNorm:
    """Every state a run builds carries sup_norm == u.max(), bit for bit."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=2.0, q=1.0),
            dict(p=3.0, q=1.36, tau=0.1, h=0.05, lam=10.0),
            dict(p=2.0, q=1.0, lam=2.0),
        ],
        ids=["q1", "regrid-q1.36", "decay"],
    )
    def test_no_stale_sup_norm(self, monkeypatch, kwargs):
        from cwblowup import simulator

        built = {"make_initial": [], "carry_to_grid": [], "record": []}

        def keep(name, fn, pick):
            def wrapper(*args):
                out = fn(*args)
                built[name].append(pick(args, out))
                return out

            return wrapper

        for name in ("make_initial", "carry_to_grid"):
            fn = getattr(simulator, name)
            monkeypatch.setattr(simulator, name, keep(name, fn, lambda args, out: out))
        record = keep("record", RunHistory.record, lambda args, out: args[1])
        monkeypatch.setattr(RunHistory, "record", record)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*large amplitude", UserWarning)
            outcome, history = run(SimParams(**kwargs))
        assert len(built["make_initial"]) == 1
        assert len(built["record"]) == len(history) == outcome.n_final + 1
        assert bool(built["carry_to_grid"]) == (kwargs["q"] > 1.0)
        states = [st for group in built.values() for st in group]
        for st in states:
            assert np.float64(st.sup_norm).tobytes() == st.u.max().tobytes()
        if kwargs.get("lam") == 2.0:
            # the run stops at its first state below phi_j = sin(pi*j*h/2)
            assert outcome.status is RunStatus.DECAYED
            grid = outcome.final_grid
            phi = np.sin(0.5 * np.pi * grid.h * np.arange(grid.mid + 1))
            assert np.all(padded_half(outcome.final_state, grid) <= phi)


class TestCarriedMinRise:
    """A state's ``min_rise`` is a lower bound of its smallest adjacent
    difference, and that difference itself where no step passed it."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=2.0, q=1.0, tau=0.001, h=0.05, lam=7.0, max_steps=3000),
            dict(p=3.0, q=1.36, tau=0.1, h=0.05, lam=10.0),
            dict(p=3.0, q=1.2, lam=10.0),
        ],
        ids=["fixed-q1", "refine-q136", "p3-q1.2"],
    )
    def test_recorded_rise_bounds_the_window(self, monkeypatch, kwargs):
        recorded = []
        real = RunHistory.record

        def keep(history, state, grid):
            recorded.append(state)
            real(history, state, grid)

        monkeypatch.setattr(RunHistory, "record", keep)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*large amplitude", UserWarning)
            outcome, history = run(SimParams(**kwargs))
        assert len(recorded) == len(history) == outcome.n_final + 1 > 100
        for st in recorded:
            rises = st.u[1:] - st.u[:-1]
            assert st.min_rise <= rises.min()
        initial = recorded[0]
        assert initial.min_rise == (initial.u[1:] - initial.u[:-1]).min()

    def test_state_computes_its_own(self):
        state = SolutionState(u=np.array([0.0, 1.0, 1.5, 4.0]), t=0.0, n=0, tau_last=0.0)
        assert state.min_rise == 0.5
        with_nan = SolutionState(u=np.array([0.0, 1.0, np.nan, 4.0]), t=0.0, n=0, tau_last=0.0)
        assert math.isnan(with_nan.min_rise)
        given = SolutionState(
            u=np.array([0.0, 1.0, 1.5, 4.0]), t=0.0, n=0, tau_last=0.0, min_rise=0.25
        )
        assert given.min_rise == 0.25
        # replace passes no min_rise, so the new window's is computed
        assert replace(given, u=np.array([0.0, 3.0, 2.0, 4.0])).min_rise == -1.0


class TestRecord:
    def test_one_node_spike_window(self):
        # a window far from the boundary: the peak and its neighbours are the
        # window's last three values, whatever the grid size
        grid = build_grid_by_count(2 * 10**9)
        state = SolutionState(u=np.array([0.0, 0.0, 0.0, 5.0]), t=0.5, n=7, tau_last=1e-3)
        history = RunHistory()
        history.record(state, grid)
        row = {name: history.rows[name][0] for name in HISTORY_COLUMNS}
        assert row["u_m"] == row["sup_norm"] == 5.0
        for name in ("u_m_minus_1", "u_m_minus_2", "u_m_plus_1", "u_m_plus_2"):
            assert row[name] == 0.0, name
        assert (row["n"], row["t"], row["tau_n"], row["h_n"]) == (7.0, 0.5, 1e-3, grid.h)

        history.record(replace(state, u=np.array([0.0, 1.0, 2.0, 5.0])), grid)
        assert [history.rows[name][1] for name in HISTORY_COLUMNS[5:]] == [
            5.0, 2.0, 1.0, 2.0, 1.0
        ]


class TestTailEstimate:
    def _outcome(self, tau_last):
        state = SolutionState(u=np.zeros(2), t=1.0, n=5, tau_last=tau_last)
        return RunOutcome(
            status=RunStatus.BLEW_UP, final_state=state, final_grid=build_grid_by_count(2)
        )

    def test_geometric_tail_value(self):
        params = SimParams(p=3.0, tau=0.1)
        tail = tail_estimate(self._outcome(1e-10), params)
        assert tail == pytest.approx(4.761904761904762e-10, rel=1e-12)

    def test_large_p_limit(self):
        params = SimParams(p=300.0, tau=0.1, q=1.0)
        assert tail_estimate(self._outcome(1e-10), params) < 1e-20

    def test_p_two_gives_ten_tau(self):
        params = SimParams(p=2.0, tau=0.1, q=1.0)
        tail = tail_estimate(self._outcome(2e-13), params)
        assert tail == pytest.approx(10 * 2e-13, rel=1e-12)


def _write_history_csv(history, path, params):
    """history.csv as the run and classify verbs write it."""
    _write_csv(path, params_header(params), HISTORY_COLUMNS, _history_columns(history))


class TestHistoryCsv:
    def test_format_and_stability(self, tmp_path):
        params = _fast_params(blow_threshold=1e4)
        outcome, history = run(params)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        _write_history_csv(history, path_a, params)
        _write_history_csv(history, path_b, params)
        text = path_a.read_text()
        lines = text.splitlines()
        assert lines[0].startswith("# p=")
        assert lines[1] == (
            "n,t,tau_n,h_n,sup_norm,u_m,u_m_minus_1,u_m_minus_2,u_m_plus_1,u_m_plus_2"
        )
        assert len(lines) == 2 + len(history)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_bytes_match_python_float_format(self, tmp_path):
        # the history is held as float64 columns; the file must still hold
        # int(n) and then repr of Python floats, never numpy scalar reprs
        params = _fast_params(blow_threshold=1e4)
        _, history = run(params)
        path = tmp_path / "h.csv"
        _write_history_csv(history, path, params)
        columns = [[float(v) for v in history.column(name)] for name in HISTORY_COLUMNS]
        lines = [params_header(params), ",".join(HISTORY_COLUMNS)]
        for row in zip(*columns):
            lines.append(str(int(row[0])) + "," + ",".join(repr(v) for v in row[1:]))
        expected = "\n".join(lines) + "\n"
        assert path.read_text() == expected
        assert "np.float64(" not in expected

    def test_figure_series_bytes(self, tmp_path):
        params = _fast_params(blow_threshold=1e4)
        _figure_series(params, tmp_path, "a.csv", "b.csv")
        outcome, history = run(params)
        columns = [[float(v) for v in history.column(name)] for name in _FIGURE_COLUMNS]
        lines = [
            params_header(params) + f" status={outcome.status.value}",
            ",".join(_FIGURE_COLUMNS),
        ]
        lines.extend(",".join(repr(v) for v in row) for row in zip(*columns))
        expected = "\n".join(lines) + "\n"
        assert (tmp_path / "a.csv").read_text() == expected
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        assert "np.float64(" not in expected


class TestRunHistoryBlock:
    def test_rows_survive_growth(self):
        # the block doubles its capacity when full; rows written before a
        # growth must read back unchanged, and views cover the filled rows only
        history = RunHistory()
        grid = build_grid_by_count(4)
        n_rows = 1000
        k = np.arange(n_rows) * 10.0
        for n in range(n_rows):
            u = np.array([0.0, k[n] + 2.0, k[n] + 5.0])
            history.record(SolutionState(u=u, t=k[n] + 1.0, n=n, tau_last=k[n] + 3.0), grid)
        assert len(history) == n_rows
        expected = {
            "n": np.arange(n_rows), "t": k + 1.0, "tau_n": k + 3.0, "h_n": grid.h,
            "sup_norm": k + 5.0, "u_m": k + 5.0, "u_m_minus_1": k + 2.0,
            "u_m_minus_2": 0.0, "u_m_plus_1": k + 2.0, "u_m_plus_2": 0.0,
        }
        for name in HISTORY_COLUMNS:
            col = history.column(name)
            assert col.dtype == np.float64 and col.shape == (n_rows,)
            assert np.array_equal(col, np.broadcast_to(expected[name], n_rows)), name
            assert np.array_equal(history.rows[name], col)
        # one side is stored: each mirror column is a view of its minus column
        for j in (1, 2):
            plus, minus = history.column(f"u_m_plus_{j}"), history.column(f"u_m_minus_{j}")
            assert np.shares_memory(plus, minus)

    def test_empty_history_columns(self):
        history = RunHistory()
        assert len(history) == 0
        assert history.column("t").size == 0
        assert set(history.rows) == set(HISTORY_COLUMNS)
