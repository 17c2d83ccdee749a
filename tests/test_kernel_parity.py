"""Bitwise parity of the filter passes.

The QML objective runs a loglik-only pass; every other caller runs the full
kernel.  Both must give the same loglik bits and the same err_index on any
input, including a binding zero floor, a nonpositive innovation variance
and NaN data, and on either backend.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxaffine import FellerModel, RngStream, StateSpaceSpec, kalman_filter
from coxaffine import _backend, _filter_py, estimate

try:
    from coxaffine import _filter_core
except ImportError:
    _filter_core = None

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
nonneg = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)
obs = st.one_of(finite, st.just(math.nan), st.just(-1e6))
coeffs = st.tuples(
    st.floats(0.0, 1.0),  # a
    finite,  # b
    nonneg,  # q0
    nonneg,  # q1
    finite,  # d
    st.one_of(finite, st.just(0.0)),  # c
    st.one_of(nonneg, st.floats(-1.0, 0.0)),  # r2, nonpositive allowed
    finite,  # m0
    st.one_of(nonneg, st.just(math.nan)),  # p0
)


def same_bits(x, y):
    return (math.isnan(x) and math.isnan(y)) or float(x).hex() == float(y).hex()


def full_pass(kernel, y, args):
    y = np.ascontiguousarray(y, dtype=float)
    out = tuple(np.empty(y.size) for _ in range(6))
    return kernel(y, *args, *out)


def assert_parity(y, args):
    ll_full, err_full = full_pass(_filter_py.filter_kernel, y, args)
    for yy in (list(map(float, y)), np.asarray(y, dtype=float)):
        ll, err = _filter_py.filter_loglik(yy, *args)
        assert err == err_full
        assert same_bits(ll, ll_full)
    ll, err = _backend.bind_loglik(np.asarray(y, dtype=float))(*args)
    assert err == err_full
    assert same_bits(ll, ll_full)


@SETTINGS
@given(st.lists(obs, min_size=1, max_size=40), coeffs)
def test_loglik_pass_matches_full_kernel(y, args):
    assert_parity(y, args)


@pytest.mark.parametrize(
    "y, args, err",
    [
        # direct observation far below zero: the floor binds at every step
        ([-4.0, -4.0, -3.0], (0.6, 0.4, 0.01, 0.02, 0.0, 1.0, 0.1, 1.0, 0.5), -1),
        # c = 0 and r2 = 0: innovation variance exactly zero at step 0
        ([1.0, 2.0], (0.6, 0.4, 0.01, 0.02, 0.0, 0.0, 0.0, 1.0, 0.5), 0),
        # negative r2 takes s below zero once the state variance shrinks
        ([1.0, 1.0, 1.0], (0.1, 0.0, 0.0, 0.0, 0.0, 1.0, -0.3, 1.0, 1.0), 1),
        # NaN in the last observation: s stays positive, the loglik turns NaN
        ([1.0, 1.0, math.nan], (0.6, 0.4, 0.01, 0.02, 0.0, 1.0, 0.1, 1.0, 0.5), -1),
        # NaN earlier: the state turns NaN, so s is NaN one step later
        ([1.0, math.nan, 1.0], (0.6, 0.4, 0.01, 0.02, 0.0, 1.0, 0.1, 1.0, 0.5), 2),
        # NaN prior variance: s is NaN at step 0
        ([1.0, 1.0], (0.6, 0.4, 0.01, 0.02, 0.0, 1.0, 0.1, 1.0, math.nan), 0),
    ],
)
def test_edge_cases(y, args, err):
    assert full_pass(_filter_py.filter_kernel, y, args)[1] == err
    assert_parity(y, args)


def test_floor_binds_in_the_loglik_pass():
    y = [-4.0, 5.0]
    args = (0.6, 0.4, 0.01, 0.02, 0.0, 1.0, 0.1, 1.0, 0.5)
    out = tuple(np.empty(2) for _ in range(6))
    _filter_py.filter_kernel(np.array(y), *args, *out)
    assert out[2][0] == 0.0  # filtered mean floored at step 0
    assert_parity(y, args)


DESK = FellerModel(kappa=0.2, theta=0.04, sigma=0.05, lambda0=0.04)
SPECS = [
    StateSpaceSpec(delta=1.0, window=0.05),
    StateSpaceSpec(delta=10.0, window=10.0 / 60000.0),
    StateSpaceSpec(delta=2.0, window=0.5, mapping="prob_no_arrival", obs_scale=3.0),
    StateSpaceSpec(mapping="direct_state"),
]


@SETTINGS
@given(
    st.sampled_from(range(len(SPECS))),
    st.integers(1, 60),
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
)
def test_objective_is_minus_kalman_loglik(spec_index, T, shift):
    spec = SPECS[spec_index]
    y = estimate.simulate_observations(DESK, 1e-3, spec, T, RngStream(spec_index * 100 + T))
    x = np.log([DESK.kappa, DESK.theta, DESK.sigma, 1e-3]) + np.array(shift)
    value = estimate._objective(y, spec)(x)
    if value >= estimate._PENALTY:
        return
    kappa, theta, sigma, R = np.exp(x)
    params = FellerModel(kappa=kappa, theta=theta, sigma=sigma, lambda0=theta)
    assert same_bits(value, -kalman_filter(params, R, y, spec).loglik)


def test_objective_penalizes_outside_the_box_and_on_failure():
    y = np.array([1.0, math.nan, 2.0])
    objective = estimate._objective(y, SPECS[3])
    assert objective(np.array([0.0, 51.0, 0.0, 0.0])) == estimate._PENALTY
    assert objective(np.zeros(4)) == estimate._PENALTY  # NaN loglik


@pytest.mark.skipif(_filter_core is None, reason="compiled kernel not built")
@SETTINGS
@given(st.lists(obs, min_size=1, max_size=40), coeffs)
def test_compiled_kernel_matches(y, args):
    ll_c, err_c = full_pass(_filter_core.filter_kernel, y, args)
    ll_p, err_p = _filter_py.filter_loglik(list(map(float, y)), *args)
    assert err_c == err_p
    assert same_bits(ll_c, ll_p)
