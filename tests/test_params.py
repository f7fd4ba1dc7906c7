"""Parameter validation, config parsing, and initial data."""

import contextlib
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

_X5 = [-1.0, -0.5, 0.0, 0.5, 1.0]
_BUMP = [0.0, 7.0, 20.0, 7.0, 0.0]
_X11 = np.linspace(-1.0, 1.0, 11)
_COS11 = 12.0 * np.cos(0.5 * np.pi * _X11)
_X10 = np.linspace(-1.0, 1.0, 10)
_FLAT_TOP = np.r_[0.0, 20.0 * np.cos(0.5 * np.pi * _X10[1:-1]), 0.0]


class TestValidate:
    def test_adjacent_blowup_flag(self):
        # h = 0.5 < 1/1.1: the neighbours diverge
        assert SimParams(p=2.0, q=1.0, tau=0.1, h=0.5).regime() == "multi-point"

    # Each row pairs SimParams keyword arguments with the exact set of checks
    # that refuse them; admitted parameters fail none.
    @pytest.mark.parametrize(
        "kwargs",
        [
            ({"p": 1.0}, {"p_range", "q_range"}),
            ({"p": 0.5}, {"p_range", "q_range"}),
            ({"q": 0.9}, {"q_range"}),
            ({"tau": 0.0}, {"tau_positive"}),
            ({"tau": -0.1}, {"tau_positive"}),
            ({"h": 0.0}, {"h_range"}),
            ({"h": 2.5}, {"h_range"}),
            ({"lam": -1.0}, {"lambda_positive"}),
            ({"blow_threshold": 0.5}, {"blow_threshold_range"}),
            ({"max_steps": -1}, {"max_steps_nonnegative"}),
            ({"tau": math.inf}, {"tau_finite", "lambda_n_below_2**52"}),
            ({"lam": math.inf}, {"lambda_finite"}),
            ({"tau": 1e-17}, {"tail_ratio_below_1"}),  # 1 + tau rounds to 1, so (1+tau)^(1-p) does
            ({"p": math.nextafter(1.0, 2.0), "q": 1.0}, {"tail_ratio_below_1"}),
            ({"p": 3.0, "q": 1.4}, set()),  # 2p/(p+1) = 1.5 >= 1.4
            ({"p": 2.0, "q": 1.0, "tau": 0.1, "h": 0.5}, set()),
            ({"p": 2.0, "q": 1.5}, {"q_range"}),  # 2p/(p+1) = 4/3 < 1.5
            ({"p": 5.0, "blow_threshold": 1e70}, {"blow_threshold_representable"}),
            ({"p": 5.0, "blow_threshold": 1e12}, set()),
            # total on any float: the tail ratio is not taken where it would
            # be complex, overflow or compare a NaN
            ({"p": 0.5, "tau": -2.0}, {"p_range", "q_range", "tau_positive"}),
            ({"p": -1e3, "tau": 1e300}, {"p_range", "q_range", "lambda_n_below_2**52"}),
            (
                {"p": math.nan, "tau": math.nan},
                {"p_range", "q_range", "tau_positive", "tau_finite",
                 "blow_threshold_representable"},
            ),
        ],
    )
    def test_rejections(self, kwargs):
        settings, failing = kwargs
        report = validate(SimParams(**settings))
        assert {name for name, ok, _ in report.checks if not ok} == failing

    def test_regimes(self):
        assert SimParams(p=3.0, q=1.2).regime() == "single-point"
        assert SimParams(p=1.5, q=1.0).regime() == "open-theory"
        assert SimParams(p=3.0, q=1.45).regime() == "other"
        # q = 2(p-1)/p exactly: the first neighbour grows like ln sup
        assert SimParams(p=4.0, q=1.5).regime() == "other"


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

    @pytest.mark.parametrize(
        "x, u0, h, message",
        [
            (_X5, _BUMP[:4], None, "matching 1-d x and u0"),
            ([-1.0, 1.0], [0.0, 0.0], None, "matching 1-d x and u0 with >= 3 rows"),
            ([-1.0, -0.3, 0.0, 0.5, 1.0], _BUMP, None, "sample points are not symmetric"),
            (_X5, [0.0, np.nan, 20.0, np.nan, 0.0], None, "table: non-finite values"),
            (_X11, np.zeros(11), None, "table: profile must be nonconstant"),
            (_X11, np.r_[0.0, np.full(9, 5.0), 0.0], None,
             "table: profile must increase strictly"),
            (_X11, np.r_[0.0, (_COS11 + np.linspace(0, 0.5, 11))[1:-1], 0.0], None,
             "table: values are not symmetric about x = 0"),
            (_X11, -_COS11, None, "table: negative values"),
            (_X11, _COS11 + 1.0, None, "table: profile must vanish at x = -1 and x = 1"),
            # no row at x = 0, so the table is flat on (-1/9, 1/9): the grid
            # h = 0.05 has the nodes -0.1, -0.05 and 0 there, h = 0.25 none
            (_X10, _FLAT_TOP, 0.05, "table: profile must increase strictly"),
            (_X10, _FLAT_TOP, 0.25, None),
        ],
        ids=[
            "shapes-differ", "two-rows", "x-not-symmetric", "nan-in-left-half", "zero-profile",
            "constant-interior", "values-not-symmetric", "negative", "nonzero-boundary",
            "flat-top-sampled", "flat-top-between-nodes",
        ],
    )
    def test_malformed_table_refused(self, x, u0, h, message):
        # a table is refused when it is read (h None) or when it is sampled
        # on the grid of spacing h; a row without a message is admitted
        refused = (
            pytest.raises(InitialDataError, match=re.escape(message))
            if message else contextlib.nullcontext()
        )
        if h is None:
            with refused:
                InitialData.from_table(np.array(x), np.array(u0))
        else:
            data = InitialData.from_table(np.array(x), np.array(u0))
            with refused:
                make_initial(SimParams(lam=20.0), build_grid(h), data)

    @pytest.mark.parametrize(
        "x",
        [[-0.999995, -0.5, 0.0, 0.5, 1.0], [-1.0, -0.5, 0.0, 0.5, 0.999995]],
        ids=["short-of-minus-1", "short-of-1"],
    )
    def test_table_short_of_an_end_refused(self, x):
        # the symmetry test lets both through (relative tolerance 1e-5), and
        # sampling reads x_K as -x_0 = 1, so both ends are checked
        data = InitialData.from_table(np.array(x), np.array(_BUMP))
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

    def test_overrides(self):
        mapping = apply_overrides({"p": "3"}, ["lambda=20", "q=1.1"])
        params, _ = build_params(mapping)
        assert params.lam == 20.0 and params.q == 1.1

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
        with pytest.raises(ConfigError) as caught:
            build_params({key: value})
        assert type(caught.value) is ConfigError
        assert str(caught.value) == f"{key!r} must be a whole number, got {value!r}"

    def test_integer_key_accepts_exponent_form(self):
        for text in ("1e3", "1000.0"):
            params, _ = build_params({"max_steps": text})
            assert params.max_steps == 1000 and type(params.max_steps) is int

    # Each row reads one source and names the error class it must raise and
    # the start of its message, "{path}" standing for the file read.  A
    # source is a config file's text or a CSV table's text (bytes are
    # written raw, None writes no file), a --set item, or a config mapping
    # (read with the test's directory as its base).
    @pytest.mark.parametrize(
        "read, source, error, message",
        [
            ("config", None, ConfigError, "config file not found or not a file: {path}"),
            ("mapping", {"initial": "file:."}, InitialDataError,
             "initial data file not found or not a file: {tmp}"),
            ("config", b"p=3\n\xff\xfe\n", ConfigError, "config file {path} is not UTF-8 text"),
            ("csv", b"p=3\n\xff\xfe\n", InitialDataError,
             "initial data file {path} is not UTF-8 text"),
            ("config", "p=3\nlambda 10\n", ConfigError,
             "{path}:2: expected key=value, got: 'lambda 10'"),
            ("set", "lambda", ConfigError, "override: expected key=value, got: 'lambda'"),
            ("config", "p=3\nwibble=1\n", ConfigError, "{path}:2: unknown key 'wibble'"),
            ("set", "nope=1", ConfigError, "override: unknown key 'nope'"),
            ("mapping", {"p": "three"}, ConfigError, "bad value for 'p': 'three'"),
            ("mapping", {"p": "2", "q": "1.8"}, ConfigError,
             "q_range: q must lie in [1, 2p/(p+1)] = [1, 1.3333333333333333], got 1.8"),
            ("mapping", {"initial": "foo"}, ConfigError,
             "initial must be 'sine' or 'file:PATH', got 'foo'"),
            ("csv", "x,u0\n-1,0\n1,0\n", InitialDataError,
             "initial data table needs at least 3 rows"),
            ("csv", "x,u0\n-1,0\n0,abc\n1,0\n", InitialDataError,
             "{path}:3: non-numeric value in '0,abc'"),
            ("csv", "# x u0\n-1,0\n0,20,1\n1,0\n", InitialDataError,
             "{path}:3: expected two columns (x, u0), got: '0,20,1'"),
        ],
        ids=[
            "config-absent", "initial-directory", "config-undecodable", "csv-undecodable",
            "config-line-without-equals", "set-without-equals", "config-unknown-key",
            "set-unknown-key", "bad-value", "inadmissible", "unknown-initial",
            "csv-two-rows", "csv-non-numeric", "csv-three-columns",
        ],
    )
    def test_refused_source(self, read, source, error, message, tmp_path):
        path = tmp_path / "source"
        if read in ("config", "csv") and source is not None:
            path.write_bytes(source if isinstance(source, bytes) else source.encode())
        readers = {
            "config": lambda: load_config(path),
            "csv": lambda: InitialData.from_csv(path),
            "set": lambda: _resolve_setup(build_parser().parse_args(["run", "--set", source])),
            "mapping": lambda: build_params(source, base_dir=tmp_path),
        }
        with pytest.raises(ConfigError) as caught:
            readers[read]()
        assert type(caught.value) is error
        assert str(caught.value).startswith(message.format(path=path, tmp=tmp_path))
