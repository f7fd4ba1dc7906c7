"""Parameter validation, config parsing, and initial data."""

import itertools
import math
import re
from dataclasses import fields

import numpy as np
import pytest

from cwblowup import (
    ConfigError,
    InitialData,
    InitialDataError,
    SimParams,
    build_grid,
    make_initial,
    validate,
)
from cwblowup.cli import _resolve_setup, build_parser
from cwblowup.params import apply_overrides, build_params, load_config, params_header
from cwblowup.state import mirrored


class TestValidate:
    def test_admissible_pair_passes(self):
        report = validate(SimParams(p=3.0, q=1.4))
        assert report.ok  # 2p/(p+1) = 1.5 >= 1.4

    def test_adjacent_blowup_flag(self):
        params = SimParams(p=2.0, q=1.0, tau=0.1, h=0.5)
        assert validate(params).ok  # h = 0.5 < 1/1.1: the neighbours diverge
        assert params.regime() == "multi-point"

    def test_q_beyond_admissible_fails(self):
        report = validate(SimParams(p=2.0, q=1.5))
        assert not report.ok  # 2p/(p+1) = 4/3 < 1.5
        assert any("q" in f for f in report.failures())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 1.0},
            {"p": 0.5},
            {"q": 0.9},
            {"tau": 0.0},
            {"tau": -0.1},
            {"h": 0.0},
            {"h": 2.5},
            {"lam": -1.0},
            {"blow_threshold": 0.5},
            {"max_steps": -1},
            {"tau": math.inf},
            {"lam": math.inf},
            {"tau": 1e-17},  # 1 + tau rounds to 1, so (1+tau)^(1-p) does
            {"p": math.nextafter(1.0, 2.0), "q": 1.0},  # (1+tau)^(1-p) rounds to 1
        ],
    )
    def test_rejections(self, kwargs):
        assert not validate(SimParams(**kwargs)).ok

    def test_total_on_any_float(self):
        # the tail ratio is not taken where it would be complex or overflow
        for p, tau in itertools.product((-1e3, 0.5, math.nan), (-2.0, math.nan, 1e300)):
            assert not validate(SimParams(p=p, tau=tau)).ok

    def test_blow_threshold_overflow_guard(self):
        assert not validate(SimParams(p=5.0, blow_threshold=1e70)).ok
        assert validate(SimParams(p=5.0, blow_threshold=1e12)).ok

    def test_regimes(self):
        assert SimParams(p=3.0, q=1.2).regime() == "single-point"
        assert SimParams(p=1.5, q=1.0).regime() == "open-theory"
        assert SimParams(p=3.0, q=1.45).regime() == "other"


class TestInitialData:
    def test_sine_peak_value(self):
        grid = build_grid(0.05)
        state = make_initial(SimParams(lam=10.0), grid)
        assert state.u[grid.mid] == 10.0
        assert state.t == 0.0 and state.n == 0

    def test_sine_boundary_zero(self):
        grid = build_grid(0.05)
        state = make_initial(SimParams(lam=10.0), grid)
        assert state.u[0] == 0.0
        assert mirrored(state, grid.mid)[-1] == 0.0

    def test_sine_direct_value(self):
        # u0(-0.5) = 10 sin(pi/4)
        grid = build_grid(0.5)
        state = make_initial(SimParams(lam=10.0), grid)
        assert state.u[1] == pytest.approx(7.0710678118654755, abs=1e-14)

    def test_sine_symmetry_bit_exact(self):
        # the state stores the left half; its mirror is the full profile
        grid = build_grid(0.3)
        state = make_initial(SimParams(lam=25.0), grid)
        assert state.u.size == grid.mid + 1
        full = mirrored(state, grid.mid)
        assert np.array_equal(full, full[::-1])
        # the grid's nodes are x_0..x_mid, where the sampled half lives
        assert np.allclose(state.u, 25.0 * np.cos(0.5 * np.pi * grid.nodes), atol=1e-13)

    def test_zero_profile_rejected(self):
        x = np.linspace(-1, 1, 11)
        with pytest.raises(InitialDataError):
            InitialData.from_table(x, np.zeros(11))

    def test_constant_interior_rejected(self):
        x = np.linspace(-1, 1, 11)
        u = np.full(11, 5.0)
        u[0] = u[-1] = 0.0
        with pytest.raises(InitialDataError, match="increas"):
            InitialData.from_table(x, u)

    def test_asymmetric_rejected(self):
        x = np.linspace(-1, 1, 11)
        u = 12.0 * np.cos(0.5 * np.pi * x) + np.linspace(0, 0.5, 11)
        u[0] = u[-1] = 0.0
        with pytest.raises(InitialDataError, match="symmetric"):
            InitialData.from_table(x, u)

    def test_negative_rejected(self):
        x = np.linspace(-1, 1, 11)
        u = -12.0 * np.cos(0.5 * np.pi * x)
        with pytest.raises(InitialDataError):
            InitialData.from_table(x, u)

    def test_nonzero_boundary_rejected(self):
        x = np.linspace(-1, 1, 11)
        u = 12.0 * np.cos(0.5 * np.pi * x) + 1.0
        with pytest.raises(InitialDataError, match="vanish"):
            InitialData.from_table(x, u)

    def test_small_amplitude_is_sampled(self):
        # a sup norm <= 1 is accepted (its run ends Decayed), with the
        # large-amplitude warning
        grid = build_grid(0.1)
        with pytest.warns(UserWarning, match="sup norm 0.5 < 10"):
            state = make_initial(SimParams(lam=0.5), grid)
        assert state.sup_norm == 0.5

    def test_moderate_amplitude_warns(self):
        grid = build_grid(0.1)
        with pytest.warns(UserWarning, match="sup norm"):
            make_initial(SimParams(lam=5.0), grid)

    def test_amplitude_ten_is_silent(self):
        import warnings

        grid = build_grid(0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_initial(SimParams(lam=10.0), grid)

    def test_table_sampled_on_grid(self):
        x = np.linspace(-1, 1, 201)
        u = 50.0 * np.cos(0.5 * np.pi * x)
        u[0] = u[-1] = 0.0
        data = InitialData.from_table(x, u)
        grid = build_grid(0.25)
        state = make_initial(SimParams(lam=50.0), grid, data)
        assert state.u[grid.mid] == pytest.approx(50.0, rel=1e-12)
        assert state.u[0] == 0.0
        # sampled on the left half only
        assert state.u.size == grid.mid + 1

    def test_flat_top_table_refused_on_a_grid_that_samples_the_top(self):
        # no row at x = 0, so the table is flat on (-1/9, 1/9): the grid
        # h = 0.25 has no node inside, h = 0.05 has -0.1, -0.05 and 0
        x = np.linspace(-1, 1, 10)
        u = 20.0 * np.cos(0.5 * np.pi * x)
        u[0] = u[-1] = 0.0
        data = InitialData.from_table(x, u)
        make_initial(SimParams(lam=20.0), build_grid(0.25), data)
        with pytest.raises(InitialDataError, match="increase strictly"):
            make_initial(SimParams(lam=20.0), build_grid(0.05), data)


    _BUMP = [0.0, 7.0, 20.0, 7.0, 0.0]

    @pytest.mark.parametrize(
        "x, u0, message",
        [
            ([-1.0, -0.5, 0.0, 0.5, 1.0], _BUMP[:4], "matching 1-d x and u0"),
            ([-1.0, 1.0], [0.0, 0.0], "matching 1-d x and u0 with >= 3 rows"),
            ([-1.0, -0.3, 0.0, 0.5, 1.0], _BUMP, "sample points are not symmetric"),
            ([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, np.nan, 20.0, np.nan, 0.0],
             "table: non-finite values"),
        ],
        ids=["shapes-differ", "two-rows", "x-not-symmetric", "nan-in-left-half"],
    )
    def test_malformed_table_refused(self, x, u0, message):
        with pytest.raises(InitialDataError, match=re.escape(message)):
            InitialData.from_table(np.array(x), np.array(u0))

    @pytest.mark.parametrize(
        "x",
        [[-0.999995, -0.5, 0.0, 0.5, 1.0], [-1.0, -0.5, 0.0, 0.5, 0.999995]],
        ids=["short-of-minus-1", "short-of-1"],
    )
    def test_table_short_of_an_end_refused(self, x):
        # the symmetry test lets both through (relative tolerance 1e-5), and
        # sampling reads x_K as -x_0 = 1, so both ends are checked
        data = InitialData.from_table(np.array(x), np.array(self._BUMP))
        with pytest.raises(InitialDataError, match=re.escape("must cover [-1, 1]")):
            make_initial(SimParams(lam=20.0), build_grid(0.25), data)


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "p = 3\nq= 1.2\ntau =0.1\nh=0.05\nlambda=10\n"
            "blow_threshold=1e9\nmax_steps=5000\ninitial=sine\n"
        )
        params, initial = build_params(load_config(cfg))
        assert params.p == 3.0 and params.lam == 10.0
        assert params.blow_threshold == 1e9 and params.max_steps == 5000
        assert initial.kind == "sine"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=3\nwibble=1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(cfg)

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            build_params({"p": "three"})

    def test_overrides(self):
        mapping = apply_overrides({"p": "3"}, ["lambda=20", "q=1.1"])
        params, _ = build_params(mapping)
        assert params.lam == 20.0 and params.q == 1.1

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError, match="override: unknown key"):
            apply_overrides({}, ["nope=1"])

    def test_inadmissible_combination_raises(self):
        with pytest.raises(ConfigError, match="q"):
            build_params({"p": "2", "q": "1.8"})

    def test_initial_from_file(self, tmp_path):
        table = tmp_path / "bump.csv"
        x = np.linspace(-1, 1, 81)
        u = 30.0 * np.cos(0.5 * np.pi * x)
        u[0] = u[-1] = 0.0
        table.write_text("x,u0\n" + "\n".join(f"{a},{b}" for a, b in zip(x, u)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("initial=file:bump.csv\n")
        params, initial = build_params(load_config(cfg), base_dir=tmp_path)
        assert initial.kind == "table"
        assert initial.sup_estimate(params) == pytest.approx(30.0)

    def test_header_records_everything(self):
        header = params_header(SimParams(), InitialData.sine())
        for key in ("p=", "q=", "tau=", "h=", "lambda=", "blow_threshold=", "initial=sine"):
            assert key in header
        assert header.startswith("# ")

    @pytest.mark.parametrize("field", fields(SimParams), ids=lambda f: f.name)
    def test_every_field_set_parses_back_and_prints(self, field):
        # a non-default value of the default's type, still admissible
        default = field.default
        value = default + 1 if isinstance(default, int) else default * 1.1
        key = "lambda" if field.name == "lam" else field.name
        args = build_parser().parse_args(["run", "--set", f"{key}={value!r}"])
        params, initial = _resolve_setup(args)
        parsed = getattr(params, field.name)
        assert parsed == value and type(parsed) is type(default)
        assert f"{key}={value!r}" in params_header(params, initial).split()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("max_steps", "inf"),
            ("max_steps", "nan"),
            ("max_steps", "2.7"),
            ("max_steps", "1e400"),
            ("max_steps", "-inf"),
        ],
    )
    def test_integer_key_refuses_non_whole_value(self, key, value):
        with pytest.raises(ConfigError, match="whole number"):
            build_params({key: value})

    def test_integer_key_accepts_exponent_form(self):
        for text in ("1e3", "1000.0"):
            params, _ = build_params({"max_steps": text})
            assert params.max_steps == 1000 and type(params.max_steps) is int

    def test_line_without_equals_refused(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=3\nlambda 10\n")
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}:2: expected key=value")):
            load_config(cfg)
        args = build_parser().parse_args(["run", "--set", "lambda"])
        with pytest.raises(ConfigError, match="override: expected key=value, got: 'lambda'"):
            _resolve_setup(args)

    def test_unknown_initial_refused(self):
        with pytest.raises(ConfigError, match="initial must be 'sine' or 'file:PATH', got 'foo'"):
            build_params({"initial": "foo"})

    def test_table_of_two_rows_refused(self, tmp_path):
        table = tmp_path / "bump.csv"
        table.write_text("x,u0\n-1,0\n1,0\n")
        with pytest.raises(InitialDataError, match="needs at least 3 rows"):
            InitialData.from_csv(table)

    def test_directory_refused(self, tmp_path):
        with pytest.raises(ConfigError, match="not a file"):
            load_config(tmp_path)
        with pytest.raises(InitialDataError, match="not a file"):
            InitialData.from_csv(tmp_path)
        with pytest.raises(InitialDataError, match="not a file"):
            build_params({"initial": "file:."}, base_dir=tmp_path)

    def test_undecodable_file_refused(self, tmp_path):
        binary = tmp_path / "binary.dat"
        binary.write_bytes(b"p=3\n\xff\xfe\n")
        with pytest.raises(ConfigError, match=re.escape(f"config file {binary} is not UTF-8")):
            load_config(binary)
        where = re.escape(f"initial data file {binary} is not UTF-8")
        with pytest.raises(InitialDataError, match=where):
            InitialData.from_csv(binary)

    def test_table_non_numeric_cell_names_path_and_line(self, tmp_path):
        table = tmp_path / "bump.csv"
        table.write_text("x,u0\n-1,0\n0,abc\n1,0\n")
        where = re.escape(f"{table}:3: non-numeric")
        with pytest.raises(InitialDataError, match=where):
            InitialData.from_csv(table)

    def test_table_wrong_column_count_names_path_and_line(self, tmp_path):
        table = tmp_path / "bump.csv"
        table.write_text("# x u0\n-1,0\n0,20,1\n1,0\n")
        where = re.escape(f"{table}:3: expected two columns")
        with pytest.raises(InitialDataError, match=where):
            InitialData.from_csv(table)
