"""Bitwise parity of the filter kernel with and without per-step output.

The QML objective runs ``filter_kernel`` without ``steps``; ``kalman_filter``
passes a list to collect the per-step quantities.  Both must give the same
loglik bits and the same err_index on any input, including a binding zero
floor, a nonpositive innovation variance and NaN data.  The objective must
call the kernel through ``estimate.filter_kernel``, where a tracer can see it.
The kernel predicts each step at the end of the one before; it must give the
bits of the loop that predicted at the top of each step, kept here as
``reference_kernel``.  The loglik takes one log per pass, of the product of
the innovation variances carried as a mantissa and a binary exponent; it must
be at least as accurate as the sum of per-step logs against a 50-digit sum.

``filter_gradient`` runs the kernel's forward loop, so it must give the
kernel's loglik bits and err_index on the same inputs.  Its nine adjoints
must match central differences of the kernel and a 50-digit rerun of it, and
the coefficient tangents of the search point must match central differences
of ``_filter_coeffs``.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxaffine import FellerModel, FitOptions, RngStream, StateSpaceSpec, kalman_filter
from coxaffine import _backend, estimate
from coxaffine._backend import filter_gradient, filter_kernel
from coxaffine.affine_core import _closed_form_tangents, cir_transform_closed_form

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


def reference_kernel(y, a, b, q0, q1, d, c, r2, m0, p0, steps):
    """The filter loop that predicts at the top of each step, with a branch
    for the first; ``filter_kernel`` must give its bits.  The product of the
    s_t is a mantissa ``prod`` times 2**``exp2``: an s outside [2**-400,
    2**400] enters as its frexp mantissa, and ``prod`` is renormalised by
    frexp once it leaves that range."""
    lo, hi = 2.0**-400, 2.0**400
    prod, exp2, quad = 1.0, 0, 0.0
    m = m0
    p = p0
    for t, yt in enumerate(y):
        if t > 0:
            q = q0 + q1 * m
            mp = a * m + b
            pp = a * a * p + q
        else:
            mp = m0
            pp = p0
        v = yt - (d + c * mp)
        s = c * c * pp + r2
        if not (s > 0.0):
            return math.nan, t
        k = pp * c / s
        m = mp + k * v
        if m < 0.0:
            m = 0.0
        p = (1.0 - k * c) * pp
        steps.append((mp, pp, m, p, v, s))
        if lo <= s <= hi:
            prod = prod * s
        else:
            mantissa, e = math.frexp(s)
            prod = prod * mantissa
            exp2 = exp2 + e
        quad = quad + v * v / s
        if not (lo <= prod <= hi):
            prod, e = math.frexp(prod)
            exp2 = exp2 + e
    log_det = math.log(prod) + exp2 * math.log(2.0)
    return -0.5 * (len(y) * math.log(2.0 * math.pi) + log_det + quad), -1


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


@SETTINGS
@given(st.lists(obs, min_size=1, max_size=40), coeffs)
def test_kernel_matches_the_reference_loop(y, args):
    y = [float(v) for v in y]
    ref_steps = []
    ref_ll, ref_err = reference_kernel(y, *args, ref_steps)
    ll, err, steps = full_pass(y, args)
    assert err == ref_err
    assert same_bits(ll, ref_ll)
    assert len(steps) == len(ref_steps)
    for got, want in zip(steps, ref_steps):
        assert all(same_bits(g, w) for g, w in zip(got, want)), (got, want)


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
    StateSpaceSpec(delta=2.0, window=0.5, mapping="prob_no_arrival"),
    StateSpaceSpec(mapping="direct_state"),
]


def swing(c, q1):
    """Coefficients whose innovation variance s_t = c^2 (2 + q1 m_{t-1}) is
    2 c^2 after a floored step and about c^2 q1 after a rise."""
    return (0.0, 0.0, 1.0, q1, 0.0, c, c * c, 0.0, 1.0)


def swinging_observations(args, T, gen):
    """Observations that send s_t up from its low level or down to it at
    random, each with an innovation between 0.5 and 2 times sqrt(s_t)."""
    a, b, q0, q1, d, c, r2, m0, p0 = args
    y, pp = [], p0
    for _ in range(T):
        s = c * c * pp + r2
        up = s < 1.0 and gen.random() < 0.5
        yt = (1.0 if up else -1.0) * gen.uniform(0.5, 2.0) * math.sqrt(s)
        pp = q0 + q1 * max(0.0, pp * c / s * yt)
        y.append(yt)
    return y


def accuracy_passes(n):
    """``n`` seeded passes: every fourth swings s_t between 2**-499..2**-199
    and 2**200..2**500, the rest
    filter simulated series of random models, T from 10 to 5,000."""
    gen = np.random.default_rng(1717)
    for i in range(n):
        T = int(gen.choice([10, 30, 100, 300, 1000, 5000], p=[0.2, 0.2, 0.2, 0.2, 0.15, 0.05]))
        if i % 4 == 3:
            low, high = gen.uniform(100.0, 250.0), gen.uniform(200.0, 500.0)
            args = swing(2.0**-low, 2.0 ** (high + 2.0 * low))
            yield swinging_observations(args, T, gen), args
            continue
        kappa, theta, sigma = np.exp(gen.normal(np.log([0.2, 0.04, 0.05]), 0.5)).tolist()
        R = math.exp(gen.normal(math.log(1e-3), 1.0))
        model = FellerModel(kappa=kappa, theta=theta, sigma=sigma, lambda0=theta)
        spec = SPECS[i % 3]
        y = estimate.simulate_observations(model, R, spec, T, RngStream(i)).tolist()
        yield y, tuple(estimate._filter_coeffs(kappa, theta, sigma, R, spec))


def per_step_log_loglik(steps):
    """The loglik as a sum of per-step terms, one log each."""
    ll = 0.0
    for *_, v, s in steps:
        ll += -0.5 * (math.log(2.0 * math.pi) + math.log(s) + v * v / s)
    return ll


def exact_loglik(steps):
    """The loglik of a pass's own (v_t, s_t), summed at 50 digits."""
    with mpmath.workdps(50):
        log_2pi = mpmath.log(2 * mpmath.pi)
        terms = (
            log_2pi + mpmath.log(mpmath.mpf(s)) + mpmath.mpf(v) ** 2 / mpmath.mpf(s)
            for *_, v, s in steps
        )
        return -mpmath.fsum(terms) / 2


def test_one_log_is_no_less_accurate_than_per_step_logs():
    new_err, old_err, lengths, exponents = [], [], [], []
    for y, args in accuracy_passes(200):
        ll, err, steps = full_pass(y, args)
        assert err == -1
        assert same_bits(ll, reference_kernel(y, *args, [])[0])
        exact = exact_loglik(steps)
        new_err.append(float(abs((ll - exact) / exact)))
        old_err.append(float(abs((per_step_log_loglik(steps) - exact) / exact)))
        lengths.append(len(y))
        exponents.append(np.array([math.frexp(s)[1] for *_, s in steps]))
    # the passes reach T = 5,000, s_t beyond 2**±400 and products beyond 2**±400
    assert max(lengths) == 5000
    assert min(e.min() for e in exponents) < -400 and max(e.max() for e in exponents) > 400
    products = [np.cumsum(e) for e in exponents]
    assert min(p.min() for p in products) < -400 and max(p.max() for p in products) > 400
    assert max(new_err) <= max(old_err)
    assert np.median(new_err) <= np.median(old_err)


@pytest.mark.parametrize("T", [10, 1000])
@pytest.mark.parametrize("swinging", [False, True])
def test_one_log_call_per_pass(monkeypatch, T, swinging):
    if swinging:
        args = swing(2.0**-250, 2.0**950)
        y = swinging_observations(args, T, np.random.default_rng(T))
    else:
        spec = SPECS[0]
        y = estimate.simulate_observations(DESK, 1e-3, spec, T, RngStream(T)).tolist()
        args = tuple(estimate._filter_coeffs(DESK.kappa, DESK.theta, DESK.sigma, 1e-3, spec))
    calls = []
    log = math.log
    monkeypatch.setattr(_backend.math, "log", lambda x: calls.append(x) or log(x))
    for steps in (None, []):
        calls.clear()
        assert filter_kernel(y, *args, steps)[1] == -1
        assert len(calls) == 1


@SETTINGS
@given(
    st.sampled_from(range(len(SPECS))),
    st.integers(1, 60),
    st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
)
def test_objective_is_minus_kalman_loglik(spec_index, T, shift):
    # the search point is (log kappa, log theta, log sigma, R), R of either
    # sign: the objective is even in R, bit for bit
    spec = SPECS[spec_index]
    y = estimate.simulate_observations(DESK, 1e-3, spec, T, RngStream(spec_index * 100 + T))
    x = [*(np.log([DESK.kappa, DESK.theta, DESK.sigma]) + shift[:3]).tolist(), 1e-3 * shift[3]]
    objective = estimate._objective(y, spec)
    value = objective(x)
    assert same_bits(value, objective([*x[:3], -x[3]]))
    if value >= estimate._PENALTY:
        return
    kappa, theta, sigma = np.exp(x[:3])
    params = FellerModel(kappa=kappa, theta=theta, sigma=sigma, lambda0=theta)
    assert same_bits(value, -kalman_filter(params, abs(x[3]), y, spec).loglik)


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


def assert_gradient_parity(y, args):
    ll, err = filter_kernel(y, *args)
    ll_g, err_g, adjoints = filter_gradient(y, *args)
    assert err_g == err
    assert same_bits(ll_g, ll)
    assert (adjoints is None) == (err >= 0)


@SETTINGS
@given(st.lists(obs, min_size=1, max_size=40), coeffs)
def test_gradient_pass_gives_the_kernel_loglik(y, args):
    assert_gradient_parity([float(v) for v in y], args)


@pytest.mark.parametrize(
    "y, args, err",
    [
        # the floor binds at every step
        ([-4.0, -4.0, -3.0], (0.6, 0.4, 0.01, 0.02, 0.0, 1.0, 0.1, 1.0, 0.5), -1),
        # the floor binds at step 0 only
        ([-4.0, 5.0], (0.6, 0.4, 0.01, 0.02, 0.0, 1.0, 0.1, 1.0, 0.5), -1),
        # innovation variance exactly zero at step 0
        ([1.0, 2.0], (0.6, 0.4, 0.01, 0.02, 0.0, 0.0, 0.0, 1.0, 0.5), 0),
        # negative r2 takes s below zero at step 1
        ([1.0, 1.0, 1.0], (0.1, 0.0, 0.0, 0.0, 0.0, 1.0, -0.3, 1.0, 1.0), 1),
        # NaN data: s turns NaN one step later
        ([1.0, math.nan, 1.0], (0.6, 0.4, 0.01, 0.02, 0.0, 1.0, 0.1, 1.0, 0.5), 2),
    ],
)
def test_gradient_edge_cases(y, args, err):
    assert filter_gradient(y, *args)[1] == err
    assert_gradient_parity(y, args)


@pytest.mark.parametrize("T", [10, 1000])
def test_gradient_pass_renormalises_as_the_kernel_does(T):
    # s_t swings between 2**-499..2**-199 and 2**200..2**500, so the product
    # is renormalised by frexp and s_t enters as a mantissa
    args = swing(2.0**-250, 2.0**950)
    y = swinging_observations(args, T, np.random.default_rng(T))
    assert_gradient_parity(y, args)


def central_adjoints(y, args, rel=1e-6):
    """Central differences of the kernel's loglik in each coefficient, and
    the step of each."""
    out = []
    for i, v in enumerate(args):
        h = rel * max(abs(v), 1e-3)
        up, down = list(args), list(args)
        up[i] += h
        down[i] -= h
        out.append(((filter_kernel(y, *up)[0] - filter_kernel(y, *down)[0]) / (2.0 * h), h))
    return out


def gradient_cases():
    """A simulated series of 200 steps per mapping, filtered away from the fit."""
    for i, spec in enumerate(SPECS):
        y = estimate.simulate_observations(DESK, 1e-3, spec, 200, RngStream(40 + i)).tolist()
        yield y, tuple(estimate._filter_coeffs(0.25, 0.035, 0.06, 2e-3, spec))


def test_adjoints_match_central_differences():
    for y, args in gradient_cases():
        ll, err, adjoints = filter_gradient(y, *args)
        assert err == -1
        for adjoint, (cd, h) in zip(adjoints, central_adjoints(y, args)):
            # the differences' rounding: a few ulps of the loglik over the step
            assert abs(adjoint - cd) <= 1e-5 * abs(cd) + 10 * 2.0**-52 * abs(ll) / h


def mp_loglik(y, a, b, q0, q1, d, c, r2, m0, p0):
    """The kernel's recursion in mpmath arithmetic."""
    ll = 0
    mp, pp = m0, p0
    for yt in y:
        v = yt - (d + c * mp)
        s = c * c * pp + r2
        k = pp * c / s
        m = max(mp + k * v, 0)
        p = (1 - k * c) * pp
        ll -= (mpmath.log(2 * mpmath.pi) + mpmath.log(s) + v * v / s) / 2
        mp = a * m + b
        pp = a * a * p + (q0 + q1 * m)
    return ll


@pytest.mark.parametrize("case, floored", [(0, ()), (2, ()), (3, (5, 17, 18))])
def test_adjoints_match_a_50_digit_rerun(case, floored):
    y, args = list(gradient_cases())[case]
    y = y[:40]
    for t in floored:  # observed far below zero: the floor binds there
        y[t] = -1.0
    steps = []
    filter_kernel(y, *args, steps)
    assert [t for t, step in enumerate(steps) if step[2] == 0.0] == list(floored)
    adjoints = filter_gradient(y, *args)[2]
    with mpmath.workdps(50):
        ys = [mpmath.mpf(v) for v in y]
        point = [mpmath.mpf(v) for v in args]
        for i, adjoint in enumerate(adjoints):
            def loglik(z, i=i):
                return mp_loglik(ys, *point[:i], z, *point[i + 1:])

            exact = mpmath.diff(loglik, point[i])
            assert abs(adjoint - exact) <= 1e-12 * abs(exact), (i, adjoint, exact)


# fitted optima: criterion 9's first replication, and events_dense.csv at seed 1
OPTIMA = [
    ((0.1892238688972522, 0.040421537997617225, 0.04888550032164291, 3.5645566390446257e-09),
     1.0, 1.0),
    ((0.11897346407936835, 0.5053585457001785, 0.0955734381427286, 0.00011877433909429461),
     1.0, 1.0 / 6000.0),
]


# the closed form's long-horizon switch lies at g h / 2 = 26 ln 2, about 18.02:
# at kappa 1 and sigma 0.5 g h / 2 is 17.87 at window 159 and 22.47 at 200
LONG = [((1.0, 0.05, 0.5, 1e-3), 1.0, 159.0), ((1.0, 0.05, 0.5, 1e-3), 1.0, 200.0)]


def past_the_switch(kappa, sigma, window) -> bool:
    gamma = math.sqrt(kappa * kappa + 2.0 * sigma * sigma)
    return math.exp(-0.5 * (2.0 * sigma * sigma / (gamma + kappa)) * window) < 2.0**-26


def test_closed_form_tangents_carry_the_closed_form_bits():
    points = [(params[:3], window) for params, _, window in OPTIMA + LONG]
    points += [((0.3, 0.05, 0.2), window) for window in (1e-9, 1e3, 1e5)]
    assert {past_the_switch(r[0], r[2], w) for r, w in points} == {False, True}
    for rates, window in points:
        alpha, beta = _closed_form_tangents(*rates, window)[:2]
        tc = cir_transform_closed_form(estimate._Rates(*rates), 1.0, window)
        assert same_bits(alpha, tc.alpha) and same_bits(beta, tc.beta), (rates, window)


@pytest.mark.parametrize("mapping", estimate._MAPPINGS)
@pytest.mark.parametrize("point", range(len(OPTIMA + LONG)))
def test_coefficient_tangents_match_central_differences(point, mapping):
    params, delta, window = (OPTIMA + LONG)[point]
    assert past_the_switch(params[0], params[2], window) == (window == 200.0)
    spec = StateSpaceSpec(delta=delta, window=window, mapping=mapping)
    x = [*np.log(params[:3]).tolist(), params[3]]

    def coeffs_at(x):
        return estimate._filter_coeffs(*np.exp(x[:3]).tolist(), abs(x[3]), spec)

    rows = estimate._coeff_tangents(coeffs_at(x), *params[:3], x[3], spec)
    c = coeffs_at(x).c
    # just before the switch the log1p form carries about 1e-10 relative
    # error in alpha (ROADMAP Known defects), so the long windows take a
    # wider step, and the five-point stencil keeps its truncation small
    # where e^alpha has large derivatives
    rel = 1e-3 if window > 100.0 else 1e-5
    for j in range(4):
        h = rel * max(1.0, abs(x[j]))
        at = [coeffs_at([v + k * h if i == j else v for i, v in enumerate(x)]) for k in (-2, -1, 1, 2)]
        diffs = [(8.0 * (u - v) - (uu - vv)) / (12.0 * h) for vv, v, u, uu in zip(*at)]
        for i, (row, cd) in enumerate(zip(rows, diffs)):
            scale = max(abs(t) for t in row)
            if i == 4:
                # d enters the filter only beside c lam: at a window of 1/6000
                # alpha keeps about seven digits, so its differences are
                # judged on the scale of c theta, the measurement's level
                scale = max(scale, abs(c) * params[1])
            assert abs(row[j] - cd) <= 1e-6 * scale, (i, j, row[j], cd)
