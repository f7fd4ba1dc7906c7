"""Property-based checks of the scheme's structural invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwblowup import SimParams, build_grid, carry_to_grid, compute_h, compute_tau, step, validate
from cwblowup.analysis import amplitude_lower_bound
from cwblowup.grid import build_grid_by_count
from cwblowup.state import SolutionState
from cwblowup.stepper import StiffError, assemble

from conftest import (
    dominance_margin,
    norm_inf,
    padded_half,
    random_symmetric_monotone_state,
    row_norm_system,
    window_ok,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
anything = st.floats(allow_nan=True, allow_infinity=True)


@given(
    p=st.floats(1.01, 6.0),
    tau=st.floats(1e-4, 1.0),
    a=st.floats(1.0, 1e8),
    b=st.floats(1.0, 1e8),
)
def test_tau_rule_monotone_above_one(p, tau, a, b):
    params = SimParams(p=p, tau=tau)
    lo, hi = min(a, b), max(a, b)
    assert compute_tau(params, hi) <= compute_tau(params, lo)
    assert compute_tau(params, hi) > 0.0


@given(
    q=st.floats(1.0, 1.9),
    h=st.floats(1e-3, 2.0),
    a=st.floats(1.0, 1e8),
    b=st.floats(1.0, 1e8),
)
def test_h_rule_monotone_above_one(q, h, a, b):
    params = SimParams(p=6.0, q=q, h=h)
    lo, hi = min(a, b), max(a, b)
    assert compute_h(params, hi) <= compute_h(params, lo)
    assert 0.0 < compute_h(params, hi) <= h


@given(h_target=st.floats(1e-3, 2.0))
def test_grid_invariants(h_target):
    g = build_grid(h_target)
    assert g.interval_count % 2 == 0
    assert g.mid == g.interval_count // 2
    # nodes is the left half x_0..x_mid
    assert g.nodes.size == g.mid + 1
    assert g.nodes[0] == -1.0 and g.nodes[-1] == 0.0
    assert g.interval_count * g.h == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(np.diff(g.nodes) - g.h)) < 1e-14


@st.composite
def _left_half_profile(draw):
    k_half = draw(st.integers(2, 12))
    increments = draw(
        st.lists(st.floats(0.05, 3.0), min_size=k_half, max_size=k_half)
    )
    return np.concatenate([[0.0], np.cumsum(increments)])


@given(u=_left_half_profile(), k_extra=st.integers(1, 6))
def test_regrid_preserves_structure(u, k_extra):
    old = build_grid_by_count(2 * (u.size - 1))
    new = build_grid_by_count(2 * (u.size - 1 + k_extra))
    out = carry_to_grid(SolutionState(u=u, t=0.0, n=0, tau_last=0.0), old, new)
    assert window_ok(out, new)
    half = padded_half(out, new)
    assert half.size == new.mid + 1
    assert half[0] == 0.0
    assert np.all(np.diff(half) >= 0.0)
    assert np.max(half) == np.max(u)
    assert half[new.mid] == u[old.mid]


@given(
    p=anything,
    q=anything,
    tau=anything,
    h=anything,
    lam=anything,
    thr=anything,
)
def test_validation_is_total(p, q, tau, h, lam, thr):
    report = validate(
        SimParams(p=p, q=q, tau=tau, h=h, lam=lam, blow_threshold=thr)
    )
    assert isinstance(report.ok, bool)


@given(p=st.floats(1.1, 5.0), lam=st.floats(1.0, 1e4))
def test_lower_bound_scaling(p, lam):
    ratio = amplitude_lower_bound(p, 10.0 * lam) / amplitude_lower_bound(p, lam)
    assert ratio == pytest.approx(10.0 ** (1.0 - p), rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_step_invariants_on_random_states(seed):
    rng = np.random.default_rng(seed)
    state, grid, params = random_symmetric_monotone_state(rng)
    result = step(state, grid, params)
    u = result.next.u
    tau_n = result.next.tau_last
    lam = tau_n / grid.h**2
    m = grid.mid
    assert np.min(u) >= 0.0
    assert u.size == m + 1
    assert u[0] == 0.0
    # peak row identity, rearranged tridiagonal row at the middle node
    lhs = (1 + 2 * lam) * u[m] - 2 * lam * u[m - 1]
    rhs = (1 + tau_n * state.u[m] ** (params.p - 1)) * state.u[m]
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    # peak never drops faster than the diffusion floor
    assert u[m] >= state.u[m] / (1 + 2 * lam) * (1 - 1e-10)


def _row_oracle_system(rhs, lam, signed_gamma):
    """The step system built array by array, with the row-wise margin and norm."""
    m = rhs.size
    sub = np.full(m - 1, -2.0 * lam)
    sub[:-1] = -lam - signed_gamma[1:]
    return row_norm_system(
        sub=sub, diag=np.full(m, 1.0 + 2.0 * lam), sup=-lam + signed_gamma, rhs=rhs
    )


@st.composite
def _dominance_case(draw):
    """lam, a signed gamma for m = 1..64 rows, and the seed of a right-hand side."""
    lam = draw(st.floats(1e-3, 1e8))
    # gamma ranges past lam; at |gamma| = lam + 1/2 an interior row's margin
    # 1 + 2 lam - 2 |gamma| is 0
    edge = lam + 0.5
    gamma = st.one_of(
        st.floats(-3.0, 3.0).map(lambda r: r * lam),
        st.sampled_from([0.0, lam, -lam, edge, -edge]),
    )
    signed_gamma = np.array(draw(st.lists(gamma, max_size=63)), dtype=float)
    return lam, signed_gamma, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(case=_dominance_case())
def test_fused_dominance_matches_row_oracle(case):
    lam, signed_gamma, seed = case
    m = signed_gamma.size + 1
    rhs = np.random.default_rng(seed).uniform(0.0, 1e6, m)
    rhs_norm = float(np.abs(rhs).max())
    oracle = _row_oracle_system(rhs, lam, signed_gamma)
    margin = dominance_margin(oracle)
    # h = 1 makes tau_n / h^2 = lam exactly
    if margin <= 0.0:
        with pytest.raises(StiffError) as exc:
            assemble(rhs, rhs_norm, 1.0, lam, signed_gamma)
        assert f"(margin {margin:.3e})" in str(exc.value)
        return
    sys = assemble(rhs, rhs_norm, 1.0, lam, signed_gamma)
    for name in ("sub", "diag", "sup", "rhs"):
        assert getattr(sys, name).tobytes() == getattr(oracle, name).tobytes(), name
    assert sys.norm == norm_inf(oracle)
    assert sys.rhs_norm == rhs_norm
    assert dominance_margin(sys) == margin


_SPECIAL = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 2.5)


@st.composite
def _reduction_array(draw):
    """1..4000 entries from a small palette, so ties, NaN, +-inf and +-0 recur."""
    palette = draw(
        st.lists(st.one_of(st.sampled_from(_SPECIAL), finite), min_size=1, max_size=6)
    )
    n = draw(st.integers(1, 4000))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).choice(np.array(palette), n)


def _same_value(a, b):
    return (np.isnan(a) and np.isnan(b)) or a == b


@settings(max_examples=300, deadline=None)
@given(a=_reduction_array())
@example(a=np.array([0.0, -0.0, np.nan, -np.inf]))
@example(a=np.full(130, -0.0))
def test_index_read_matches_reduce(a):
    # the step reads maxima and minima as a[a.argmax()] / a[a.argmin()]; on
    # short and long arrays (both numpy SIMD paths) that is the ufunc
    # reduce's value, NaN included
    assert _same_value(a[a.argmax()], np.maximum.reduce(a))
    assert _same_value(a[a.argmin()], np.minimum.reduce(a))
    # of an abs'd array (norms, row sums, residuals), even a zero's sign agrees
    mag = np.abs(a)
    top = mag[mag.argmax()]
    if not np.isnan(top):
        assert top.tobytes() == np.maximum.reduce(mag).tobytes()
