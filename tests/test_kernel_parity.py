"""Bitwise parity of the filter kernel with and without per-step output.

The QML objective runs ``filter_kernel`` without ``steps``; ``kalman_filter``
passes a list to collect the per-step quantities.  Both must give the same
loglik bits and the same err_index on any input, including a binding zero
floor, a nonpositive innovation variance and NaN data.  The objective must
call the kernel through ``estimate.filter_kernel``, where a tracer can see it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxaffine import FellerModel, FitOptions, RngStream, StateSpaceSpec, kalman_filter
from coxaffine import estimate
from coxaffine._backend import filter_kernel

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


def full_pass(y, args):
    steps = []
    ll, err = filter_kernel([float(v) for v in y], *args, steps)
    assert len(steps) == (len(y) if err < 0 else err)
    return ll, err, steps


def assert_parity(y, args):
    ll_full, err_full, _ = full_pass(y, args)
    for yy in (list(map(float, y)), np.asarray(y, dtype=float)):
        ll, err = filter_kernel(yy, *args)
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
    assert full_pass(y, args)[1] == err
    assert_parity(y, args)


def test_floor_binds_in_the_loglik_pass():
    y = [-4.0, 5.0]
    args = (0.6, 0.4, 0.01, 0.02, 0.0, 1.0, 0.1, 1.0, 0.5)
    steps = full_pass(y, args)[2]
    assert steps[0][2] == 0.0  # filtered mean floored at step 0
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


class CountingKernel:
    """Stands in for ``estimate.filter_kernel`` and counts its two kinds of call."""

    def __init__(self):
        self.loglik_only = 0
        self.full = 0

    def __call__(self, *args):
        if len(args) > 10:
            self.full += 1
        else:
            self.loglik_only += 1
        return filter_kernel(*args)


def test_objective_calls_the_module_kernel(monkeypatch):
    spec = StateSpaceSpec(delta=1.0, window=1.0)
    y = estimate.simulate_observations(DESK, 1e-3, spec, 100, RngStream(5))
    counter = CountingKernel()
    monkeypatch.setattr(estimate, "filter_kernel", counter)
    estimate.std_errors(DESK, 1e-3, y, spec)
    # one central point, 2 per diagonal and 4 per off-diagonal Hessian entry
    assert (counter.loglik_only, counter.full) == (1 + 2 * 4 + 4 * 6, 0)

    counter = CountingKernel()
    monkeypatch.setattr(estimate, "filter_kernel", counter)
    estimate.fit(y, spec, init=DESK, options=FitOptions(n_restarts=0, maxiter=50))
    assert counter.loglik_only > 33  # optimizer and standard errors
    assert counter.full == 1  # the residuals of the final kalman_filter
