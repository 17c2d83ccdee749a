"""Filtering, quasi-likelihood estimation, residual diagnostics, replication.

The filter oracle builds the joint Gaussian implied by one filter pass
(per-step transition variances frozen from that pass) and evaluates its
density directly; the prediction-error decomposition must reproduce it to
near machine precision.
"""

import dataclasses
import json
import math
import multiprocessing
import operator
import os
import time

import mpmath
import numpy as np
import pytest
from scipy import optimize, special, stats

from coxaffine import (
    EstimationError,
    EstimationResult,
    FellerModel,
    FitOptions,
    LjungBoxReport,
    PARAM_NAMES,
    RngStream,
    StateSpaceSpec,
    StdErrorReport,
    fit,
    kalman_filter,
    ljung_box,
    ljung_box_pvalue,
    replication_study,
    simulate_observations,
    std_errors,
)
from coxaffine import data_io, estimate
from coxaffine.estimate import (
    _FATOL,
    _LOOSE_SPREAD,
    _MIN_OBS,
    _PENALTY,
    _XATOL,
    _bfgs,
    _filter_coeffs,
    _nelder_mead,
    _objective,
    _objective_gradient,
    worker_map,
)

DESK = FellerModel(kappa=0.2, theta=0.04, sigma=0.05, lambda0=0.04)


# tasks for worker_map, at module level so that spawned workers import them
def _pid(_):
    return os.getpid()


def _log_run(task):
    """Log the task's index once ``procs`` processes have each begun a task."""
    k, folder, procs = task
    pids = os.path.join(folder, "pids")
    open(os.path.join(pids, str(os.getpid())), "w").close()
    deadline = time.monotonic() + 60.0
    while len(os.listdir(pids)) < procs and time.monotonic() < deadline:
        time.sleep(0.01)
    with open(os.path.join(folder, "runs"), "a") as fh:
        fh.write(f"{k}\n")
    return k


def _fail_in_caller(caller_pid):
    if os.getpid() == caller_pid:
        raise ArithmeticError("task failed in the calling process")


def _fail_in_worker(task):
    """Raise in a worker; in the calling process, wait until a worker has."""
    caller_pid, flag = task
    if os.getpid() != caller_pid:
        open(flag, "w").close()
        raise ArithmeticError("task failed in a worker")
    deadline = time.monotonic() + 60.0
    while not os.path.exists(flag) and time.monotonic() < deadline:
        time.sleep(0.01)


def measurement(params, spec):
    """(d, c) of y = d + c lam under the model and mapping."""
    coeffs = _filter_coeffs(params.kappa, params.theta, params.sigma, 0.0, spec)
    return coeffs.d, coeffs.c


def joint_gaussian_loglik(params, R, y, spec):
    """Density of y under the linear-Gaussian model with the per-step
    transition variances the filter actually used."""
    T = y.size
    coeffs = _filter_coeffs(params.kappa, params.theta, params.sigma, R, spec)
    a, d, c = coeffs.a, coeffs.d, coeffs.c
    out = kalman_filter(params, R, y, spec)
    # recover frozen Q_t from the variance recursion
    q = np.empty(T)
    q[0] = 0.0
    q[1:] = out.predicted_var[1:] - a * a * out.filtered_var[:-1]

    mean_state = np.empty(T)
    mean_state[0] = params.theta
    b = params.theta * (1.0 - a)
    for t in range(1, T):
        mean_state[t] = b + a * mean_state[t - 1]
    cov = np.empty((T, T))
    var_t = np.empty(T)
    var_t[0] = params.stationary_var()
    for t in range(1, T):
        var_t[t] = a * a * var_t[t - 1] + q[t]
    for s in range(T):
        for t in range(s, T):
            cov[s, t] = cov[t, s] = a ** (t - s) * var_t[s]
    obs_cov = c * c * cov + R * R * np.eye(T)
    return float(stats.multivariate_normal.logpdf(y, mean=d + c * mean_state, cov=obs_cov))


class TestFilterOracle:
    @pytest.mark.parametrize("T", [3, 5])
    def test_direct_state_density(self, T):
        params = FellerModel(kappa=0.8, theta=2.0, sigma=0.4, lambda0=2.0)
        spec = StateSpaceSpec(delta=1.0, window=1.0, mapping="direct_state")
        y = np.array([2.1, 1.85, 2.3, 2.02, 1.94])[:T]
        ll = kalman_filter(params, 0.3, y, spec).loglik
        assert ll == pytest.approx(joint_gaussian_loglik(params, 0.3, y, spec), abs=1e-8)

    @pytest.mark.parametrize("T", [3, 5])
    def test_log_mapping_density(self, T):
        params = FellerModel(kappa=0.3, theta=0.05, sigma=0.06, lambda0=0.05)
        spec = StateSpaceSpec(delta=1.0, window=0.01, mapping="log_prob_no_arrival")
        d, c = measurement(params, spec)
        gen = RngStream(551).generator()
        # perturbations ~ one innovation sd, far from the filter's floor at 0
        y = d + c * params.theta + 0.01 * abs(c) * gen.standard_normal(T)
        ll = kalman_filter(params, 1e-4, y, spec).loglik
        assert ll == pytest.approx(joint_gaussian_loglik(params, 1e-4, y, spec), abs=1e-8)


class TestFilterBehavior:
    def test_noise_free_direct_observation_is_exact(self):
        spec = StateSpaceSpec(mapping="direct_state")
        params = FellerModel(kappa=0.5, theta=1.0, sigma=0.3, lambda0=1.0)
        y = np.array([1.2, 0.8, 1.5, 1.1])
        out = kalman_filter(params, 0.0, y, spec)
        assert np.allclose(out.filtered_mean, y, atol=1e-12)
        assert np.all(out.filtered_var < 1e-12)

    def test_filtered_mean_floor(self):
        spec = StateSpaceSpec(mapping="direct_state")
        params = FellerModel(kappa=0.5, theta=1.0, sigma=0.3, lambda0=1.0)
        out = kalman_filter(params, 0.0, np.array([-4.0, -4.0]), spec)
        assert np.all(out.filtered_mean == 0.0)

    def test_step_identities(self):
        spec = StateSpaceSpec(delta=1.0, window=0.02)
        params = DESK
        y = simulate_observations(params, 1e-3, spec, 200, RngStream(552))
        out = kalman_filter(params, 1e-3, y, spec)
        d, c = measurement(params, spec)
        assert np.allclose(out.innovations, y - (d + c * out.predicted_mean), atol=1e-14)
        assert np.array_equal(out.one_step_fit, d + c * out.predicted_mean)
        assert np.allclose(
            out.standardized_residuals,
            out.innovations / np.sqrt(out.innovation_vars),
            atol=1e-14,
        )
        terms = -0.5 * (
            math.log(2.0 * math.pi)
            + np.log(out.innovation_vars)
            + out.innovations**2 / out.innovation_vars
        )
        assert out.loglik == pytest.approx(terms.sum(), abs=1e-10)
        assert kalman_filter(params, 1e-3, y, spec).loglik == out.loglik

    def test_residuals_calibrated_at_truth(self):
        spec = StateSpaceSpec(delta=1.0, window=0.02)
        y = simulate_observations(DESK, 1e-3, spec, 3000, RngStream(554))
        z = kalman_filter(DESK, 1e-3, y, spec).standardized_residuals
        assert abs(z.mean()) < 4.0 / math.sqrt(z.size)
        assert abs(z.var(ddof=1) - 1.0) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            kalman_filter(DESK, -0.1, np.ones(10))
        with pytest.raises(ValueError, match="empty"):
            kalman_filter(DESK, 0.1, np.empty(0))
        bad = np.ones(10)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="index 3"):
            kalman_filter(DESK, 0.1, bad)


class TestFit:
    def make_series(self, n, seed=601):
        spec = StateSpaceSpec(delta=1.0, window=1.0)
        y = simulate_observations(DESK, 1e-3, spec, n, RngStream(seed))
        return y, spec

    def test_recovers_desk_scale_parameters(self):
        y, spec = self.make_series(2000)
        res = fit(y, spec, init=DESK, rng=RngStream(602))
        assert res.converged
        assert res.params.theta == pytest.approx(DESK.theta, rel=0.15)
        assert res.params.sigma == pytest.approx(DESK.sigma, rel=0.4)
        assert 0.05 < res.params.kappa < 0.8
        # the optimizer may not beat the truth but must never end below it
        assert res.loglik >= kalman_filter(DESK, 1e-3, y, spec).loglik - 1e-6
        assert res.n_obs == 2000
        json.dumps(res.as_dict())

    def test_standard_errors_sane(self):
        y, spec = self.make_series(2000)
        res = fit(y, spec, init=DESK, rng=RngStream(603))
        se = res.std_errors
        assert math.isfinite(se.theta) and se.theta > 0.0
        assert abs(res.params.theta - DESK.theta) < 5.0 * se.theta
        assert set(se.as_dict()) == {"kappa", "theta", "sigma", "R", "hessian_warning"}

    def test_reproducible(self):
        y, spec = self.make_series(400)
        opts = FitOptions(n_restarts=1)
        a = fit(y, spec, init=DESK, options=opts, rng=RngStream(604))
        b = fit(y, spec, init=DESK, options=opts, rng=RngStream(604))
        assert (a.params, a.R, a.loglik) == (b.params, b.R, b.loglik)

    def test_heuristic_init_matches_scale(self):
        y, spec = self.make_series(1000)
        res = fit(y, spec, rng=RngStream(605), options=FitOptions(n_restarts=2))
        assert res.params.theta == pytest.approx(DESK.theta, rel=0.25)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="observations"):
            fit(np.full(10, -0.01), StateSpaceSpec(window=0.01))

    def test_non_finite_observation_named(self):
        y, spec = self.make_series(30)
        y[7] = np.nan
        for call in (
            lambda: fit(y, spec),
            lambda: fit(y, spec, init=DESK),
            lambda: std_errors(DESK, 1e-3, y, spec),
        ):
            with pytest.raises(ValueError, match="non-finite observation at index 7"):
                call()

    def test_result_dict_holds_only_results(self):
        # estimate.json is byte-identical across kernel backends, so the
        # result carries no execution details such as the backend name
        res = EstimationResult(
            params=DESK,
            R=1e-3,
            std_errors=StdErrorReport(kappa=0.1, theta=0.01, sigma=0.02, R=1e-4),
            loglik=1.0,
            converged=True,
            diagnostics=LjungBoxReport(
                lags=(5,), statistics=np.array([1.0]), p_values=np.array([0.9])
            ),
            n_obs=30,
            filter_output=kalman_filter(DESK, 1e-3, np.full(30, -0.04)),
        )
        doc = res.as_dict()
        assert "backend" not in doc
        assert set(doc) == {"estimates", "std_errors", "loglik", "converged", "ljung_box", "n_obs"}
        # every parameter record is keyed and ordered by PARAM_NAMES
        assert PARAM_NAMES == ("kappa", "theta", "sigma", "R")
        assert doc["estimates"] == dict(zip(PARAM_NAMES, res.estimates))
        assert res.estimates == (DESK.kappa, DESK.theta, DESK.sigma, 1e-3)
        assert list(doc["std_errors"]) == [*PARAM_NAMES, "hessian_warning"]
        assert list(doc["std_errors"].values())[:4] == [0.1, 0.01, 0.02, 1e-4]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StateSpaceSpec(delta=0.0)
        with pytest.raises(ValueError):
            StateSpaceSpec(window=-1.0)
        with pytest.raises(ValueError):
            StateSpaceSpec(mapping="identity")

    def test_starting_points_are_drawn_in_restart_order(self, monkeypatch):
        y, spec = self.make_series(100)
        opts = FitOptions(n_restarts=4, maxiter=20)
        calls = []

        def recorded(f, x0, maxiter, maxfev, abs_spread=None):
            calls.append((f, x0, maxiter, maxfev, abs_spread))
            return _nelder_mead(f, x0, maxiter, maxfev, abs_spread)

        monkeypatch.setattr(estimate, "_nelder_mead", recorded)
        fit(y, spec, init=DESK, R_init=2e-3, options=opts, rng=RngStream(607))
        # drawn in log space, then each start's log R mapped to R
        x0 = np.log([DESK.kappa, DESK.theta, DESK.sigma, 2e-3])
        gen = RngStream(607).generator()
        logs = [x0] + [x0 + 0.7 * gen.standard_normal(4) for _ in range(4)]
        expected = [[*x[:3].tolist(), float(np.exp(x[3]))] for x in logs]
        loose = [c for c in calls if c[4] == _LOOSE_SPREAD]
        assert [x for _, x, _, _, _ in loose] == expected
        assert all(c[2:4] == (20, 80) for c in calls)
        assert all(c[0] is calls[0][0] for c in calls)  # one objective serves every search

    def test_restarts_stop_loosely_and_the_winner_is_polished_once(self, monkeypatch):
        y, spec = self.make_series(100)
        searches, strict, polishes = [], [], []

        def recorded(f, x0, maxiter, maxfev, abs_spread=None):
            res = _nelder_mead(f, x0, maxiter, maxfev, abs_spread)
            (searches if abs_spread == _LOOSE_SPREAD else strict).append(res)
            return res

        def recorded_bfgs(fg, x0, maxiter, noise):
            res = _bfgs(fg, x0, maxiter, noise)
            polishes.append((x0, maxiter, noise, res))
            return res

        monkeypatch.setattr(estimate, "_nelder_mead", recorded)
        monkeypatch.setattr(estimate, "_bfgs", recorded_bfgs)
        res = fit(y, spec, init=DESK, rng=RngStream(606))
        assert len(searches) == 6 and len(polishes) == 1 and strict == []
        winner = min(searches, key=lambda s: s.fun)  # the first of a tie, as fit picks
        x0, maxiter, noise, polish = polishes[0]
        assert x0 == winner.x and maxiter == 2000
        assert noise == y.size * 2.0**-52 * abs(winner.fun)  # the objective's rounding level
        assert polish == _bfgs(_objective_gradient(y, spec), winner.x, 2000, noise)
        assert polish.converged and not polish.failed
        assert polish.fun <= winner.fun
        # the noise level sits at its boundary on this series: BFGS ends near
        # R = 0, and the fit takes R = 0, where the objective is no worse
        *log_rates, x_R = polish.x
        at_zero = _objective(y, spec)([*log_rates, 0.0])
        assert 0.0 < abs(x_R) < 1e-6 and at_zero <= polish.fun
        assert list(res.estimates) == [*np.exp(log_rates).tolist(), 0.0]
        assert res.loglik == -at_zero
        assert res.converged

    def test_a_failed_polish_falls_back_to_the_strict_simplex(self, monkeypatch):
        y, spec = self.make_series(100)
        searches, strict = [], []
        gradient = estimate.filter_gradient

        def recorded(f, x0, maxiter, maxfev, abs_spread=None):
            res = _nelder_mead(f, x0, maxiter, maxfev, abs_spread)
            (searches if abs_spread == _LOOSE_SPREAD else strict).append(res)
            return res

        def broken(*args):
            ll, err, adjoints = gradient(*args)
            return ll, err, (math.nan,) * 9

        monkeypatch.setattr(estimate, "_nelder_mead", recorded)
        monkeypatch.setattr(estimate, "filter_gradient", broken)
        res = fit(y, spec, init=DESK, rng=RngStream(606))
        winner = min(searches, key=lambda s: s.fun)
        polish = _nelder_mead(_objective(y, spec), winner.x, 2000, 8000)
        assert strict == [polish]
        *log_rates, x_R = polish.x
        assert list(res.estimates) == [*np.exp(log_rates).tolist(), abs(x_R)]
        assert res.loglik == -polish.fun
        diameter = max(abs(a - b) for v in polish.simplex for a, b in zip(v, polish.x))
        assert res.converged == (polish.success or diameter < _XATOL)

    def test_a_tie_goes_to_the_earlier_restart(self, monkeypatch):
        y, spec = self.make_series(100)
        # each search ends where it starts: restart 0 scores the penalty,
        # 2 and 4 tie for the best value
        values = (_PENALTY, 5.0, 3.0, 4.0, 3.0, 3.5)
        starts, polished_from = [], []

        def scripted(f, x0, maxiter, maxfev, abs_spread=None):
            if abs_spread == _LOOSE_SPREAD:
                starts.append(x0)
                return estimate._Search(x0, values[len(starts) - 1], 1, 1, True, [x0])
            polished_from.append(x0)
            return _nelder_mead(f, x0, maxiter, maxfev)

        def polish(fg, x0, maxiter, noise):
            polished_from.append(x0)
            return _bfgs(fg, x0, maxiter, noise)

        monkeypatch.setattr(estimate, "_nelder_mead", scripted)
        monkeypatch.setattr(estimate, "_bfgs", polish)
        fit(y, spec, init=DESK, rng=RngStream(606))
        assert len(starts) == len(values)
        assert polished_from == [starts[2]]

    def test_a_fit_makes_few_kernel_calls(self, monkeypatch):
        # six loose searches and one BFGS polish, each gradient counted as 4
        # kernel passes: 217 passes and 12 gradients, 265 in all, on this
        # series; with a strict simplex polish the fit made 559 passes, six
        # strict searches over log R 4,137, and a stop at 1e-6 relative
        # spread 1,461
        passes = []
        kernel, gradient = estimate.filter_kernel, estimate.filter_gradient

        def counted(*args, **kwargs):
            passes.append(1)
            return kernel(*args, **kwargs)

        def counted_gradient(*args):
            passes.append(4)
            return gradient(*args)

        monkeypatch.setattr(estimate, "filter_kernel", counted)
        monkeypatch.setattr(estimate, "filter_gradient", counted_gradient)
        y, spec = self.make_series(100)
        fit(y, spec, init=DESK, rng=RngStream(606))
        assert sum(passes) < 400

    def test_a_noise_level_at_its_boundary_reaches_zero(self):
        # on this series the noise level's estimate lies at its boundary: the
        # search reaches R near 0, which no longer moves the loglik, so the
        # Hessian leaves R no variance and its SE is written as null
        y, spec = self.make_series(100)
        res = fit(y, spec, init=DESK, rng=RngStream(606))
        assert 0.0 <= res.R < 1e-6
        doc = json.loads(json.dumps(res.as_dict()))
        assert doc["std_errors"]["R"] is None and doc["std_errors"]["hessian_warning"]
        assert all(doc["std_errors"][p] > 0.0 for p in PARAM_NAMES[:3])

    def test_std_errors_direct_call(self):
        y, spec = self.make_series(800)
        rep = std_errors(DESK, 1e-3, y, spec)
        assert all(math.isfinite(v) and v >= 0.0 for v in (rep.kappa, rep.theta, rep.sigma, rep.R))

    def test_a_rounding_level_variance_gets_no_standard_error(self, monkeypatch):
        # the negative Hessian of a perfbench fit_events log (seed 1902) at its
        # optimum, to four digits: log R has a zero second difference and
        # cross terms at rounding level, so the matrix is indefinite and the
        # pseudo-inverse leaves log R a variance of about 1e-21 against 7e-3
        A = np.array([
            [358.6, -22.37, -637.0, -2.55e-7],
            [-22.37, 3513.9, 462.8, 2.54e-7],
            [-637.0, 462.8, 1920.0, 5.86e-7],
            [-2.55e-7, 2.54e-7, 5.86e-7, 0.0],
        ])
        x_hat = np.log([DESK.kappa, DESK.theta, DESK.sigma, 1e-3])

        def quadratic(y, spec):
            def neg_loglik(x):  # at a search point, R in its fourth coordinate
                d = np.array([*x[:3], math.log(x[3])]) - x_hat
                return 0.5 * float(d @ A @ d)

            return neg_loglik

        monkeypatch.setattr(estimate, "_objective", quadratic)
        rep = std_errors(DESK, 1e-3, np.zeros(_MIN_OBS))
        assert rep.R is None and rep.hessian_warning
        assert all(v > 0.0 for v in (rep.kappa, rep.theta, rep.sigma))


class TestNelderMead:
    """The in-house simplex against scipy's, which it ports.

    The two differ only in how they order tied vertex values, so the
    comparisons use objectives whose evaluated values are all distinct.
    """

    @staticmethod
    def quadratic(x):
        return sum(w * (v - c) ** 2 for w, v, c in zip((1.0, 3.0, 0.5, 7.0), x, (0.3, -1.2, 2.0, 0.7)))

    @staticmethod
    def rosenbrock(x):
        return sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(x[:-1], x[1:]))

    @staticmethod
    def desk_objective():
        spec = StateSpaceSpec(delta=1.0, window=1.0)
        return _objective(simulate_observations(DESK, 1e-3, spec, 60, RngStream(611)), spec)

    @staticmethod
    def compare(f, x0, maxiter, maxfev, distinct=True):
        seen = []

        def recorded(x):
            seen.append(f(list(x)))
            return seen[-1]

        ours = _nelder_mead(recorded, list(x0), maxiter, maxfev)
        n_ours = len(seen)
        ref = optimize.minimize(
            lambda x: f(x.tolist()),
            np.array(x0, dtype=float),
            method="Nelder-Mead",
            options={"xatol": _XATOL, "fatol": _FATOL, "maxiter": maxiter, "maxfev": maxfev},
        )
        if distinct:
            assert len(set(seen)) == n_ours, "tied values: the two may order them differently"
        hexes = lambda values: [float(v).hex() for v in values]
        assert hexes(ours.x) == hexes(ref.x)
        assert float(ours.fun).hex() == float(ref.fun).hex()
        assert (ours.nfev, ours.nit, ours.success) == (ref.nfev, ref.nit, bool(ref.success))
        assert [hexes(v) for v in ours.simplex] == [hexes(v) for v in ref.final_simplex[0]]
        return ours

    @pytest.mark.parametrize("name", ["quadratic", "rosenbrock"])
    def test_matches_scipy_on_distinct_values(self, name):
        res = self.compare(getattr(self, name), [-1.2, 1.0, 0.0, 0.8], 2000, 8000)
        assert res.success and res.nit > 100

    def test_matches_scipy_on_the_qml_objective(self):
        # near its optimum the objective repeats values, so the run stops
        # after 150 iterations, well before the first repeat
        x0 = [*np.log([DESK.kappa, DESK.theta, DESK.sigma]).tolist(), 1e-3]
        res = self.compare(self.desk_objective(), x0, 150, 8000)
        assert res.nit == 150 and not res.success

    @pytest.mark.parametrize("maxiter", [1, 2, 7])
    def test_tiny_maxiter_stops_as_scipy_does(self, maxiter):
        res = self.compare(self.rosenbrock, [-1.2, 1.0, 0.0, 0.8], maxiter, 8000)
        assert res.nit == maxiter and not res.success

    @pytest.mark.parametrize("done", [0, 1, 2])
    def test_maxfev_inside_a_shrink_stops_as_scipy_does(self, done):
        x0 = [1.0, -2.0, 0.5]
        start = {tuple(x0)} | {
            tuple((1 + 0.05) * v if i == k else v for i, v in enumerate(x0)) for k in range(3)
        }

        def f(x):
            # every point off the initial simplex is worse than all of it, so
            # the first iteration reflects, contracts inside, then shrinks
            return sum(v * v for v in x) + (0.0 if tuple(x) in start else 1e3)

        # 4 initial values, the reflection and the contraction, then `done`
        # of the 3 shrink evaluations before the budget runs out
        res = self.compare(f, x0, 2000, 4 + 2 + done)
        assert res.nfev == 6 + done and res.nit == 1 and not res.success

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_the_loose_stop_ends_at_the_spread_of_its_tolerance(self, offset):
        # the spread is absolute: at |f| near 1e6 the search stops as it
        # does near 0, where a stop relative to |f| would have come sooner
        f = lambda x: offset + 100.0 * self.quadratic(x)
        x0 = [-1.2, 1.0, 0.0, 0.8]
        loose = _nelder_mead(f, x0, 2000, 8000, _LOOSE_SPREAD)
        spread = lambda s: max(map(f, s.simplex)) - min(map(f, s.simplex))
        # cut at the loose search's iteration count, the strict search holds
        # the same simplex: the loose one stopped there, not an iteration sooner
        assert _nelder_mead(f, x0, loose.nit, 8000).simplex == loose.simplex
        assert spread(loose) <= _LOOSE_SPREAD
        assert spread(_nelder_mead(f, x0, loose.nit - 1, 8000)) > _LOOSE_SPREAD
        strict = _nelder_mead(f, x0, 2000, 8000)
        assert strict.success and strict.nit > loose.nit and loose.success
        assert strict.fun < loose.fun

    def test_tied_values_keep_index_order(self):
        # initial values [0, P, P, P, 0]: numpy's argsort here orders them
        # [0, 4, 2, 1, 3]; the search must use [0, 4, 1, 2, 3] on any machine
        x0 = [1.0, 1.0, 1.0, -0.5]
        simplex = [list(x0)]
        for k in range(4):
            v = list(x0)
            v[k] = (1 + 0.05) * v[k]
            simplex.append(v)
        res = _nelder_mead(lambda x: _PENALTY if max(x) > 1.0 else 0.0, x0, 1, 8000)
        assert res.simplex == [simplex[i] for i in (0, 4, 1, 2, 3)]
        assert (res.x, res.fun, res.nfev, res.nit, res.success) == (x0, 0.0, 5, 1, False)


class TestLjungBox:
    def test_reference_pvalues(self):
        assert ljung_box_pvalue(8.36, 5) == pytest.approx(0.137, abs=0.005)
        assert ljung_box_pvalue(13.47, 10) == pytest.approx(0.198, abs=0.005)
        assert ljung_box_pvalue(17.0, 15) == pytest.approx(0.319, abs=0.005)

    def test_pvalue_matches_the_exact_tail(self):
        # the oracle is Q(lag/2, q/2) from mpmath at 50 digits; scipy's
        # chdtrc (what scipy.stats.chi2.sf evaluates) is held to the same grid
        grid = np.random.default_rng(48).uniform(0.0, 3.0, size=40)
        worst = {"ours": 0.0, "chdtrc": 0.0}
        with mpmath.workdps(50):
            for lag in (1, 2, 3, 5, 10, 15, 40, 101, 1000):
                for q in (0.0, 1e-300, float(lag), 1e5, *(grid * lag).tolist()):
                    exact = mpmath.gammainc(
                        mpmath.mpf(lag) / 2, mpmath.mpf(q) / 2, mpmath.inf, regularized=True
                    )
                    got = ljung_box_pvalue(q, lag)
                    if exact < 1e-300:
                        assert 0.0 <= got <= 1e-300, (q, lag, got)
                        continue
                    err = abs(mpmath.mpf(got) - exact)
                    rel = float(err / exact)
                    assert rel <= 1e-12, (q, lag, rel)
                    if exact >= 1e-6 and lag <= 101:
                        ulps = float(err) / math.ulp(float(exact))
                        assert ulps <= 16, (q, lag, ulps)
                    scipy_p = mpmath.mpf(float(special.chdtrc(lag, q)))
                    worst["ours"] = max(worst["ours"], rel)
                    worst["chdtrc"] = max(worst["chdtrc"], float(abs(scipy_p - exact) / exact))
        assert worst["ours"] <= worst["chdtrc"], worst

    @pytest.mark.parametrize("lag", [1, 2, 5, 15, 101, 1000])
    def test_pvalue_edges(self, lag):
        assert ljung_box_pvalue(0.0, lag) == 1.0
        assert ljung_box_pvalue(math.inf, lag) == 0.0
        assert math.isnan(ljung_box_pvalue(math.nan, lag))
        assert ljung_box_pvalue(7.5, float(lag)) == ljung_box_pvalue(7.5, lag)
        # the tail never rises as the statistic grows, across the switch
        # to log scaling at q = 1400 as well
        p = [ljung_box_pvalue(q, lag) for q in np.linspace(0.0, 3.0 * lag + 1500.0, 601)]
        assert all(b <= a for a, b in zip(p, p[1:]))

    @pytest.mark.parametrize("lag", [5.5, 0.5, math.inf, math.nan])
    def test_pvalue_needs_a_whole_lag(self, lag):
        with pytest.raises(ValueError, match=f"whole number, got {lag!r}"):
            ljung_box_pvalue(1.0, lag)

    def test_white_noise_passes(self):
        z = RngStream(701).generator().standard_normal(2000)
        rep = ljung_box(z)
        assert rep.passed()
        assert [r["lag"] for r in rep.rows()] == [5, 10, 15]

    def test_autocorrelation_detected(self):
        gen = RngStream(702).generator()
        e = gen.standard_normal(1000)
        y = np.empty(1000)
        y[0] = e[0]
        for t in range(1, 1000):
            y[t] = 0.6 * y[t - 1] + e[t]
        rep = ljung_box(y)
        assert not rep.passed()
        assert np.all(rep.p_values < 1e-6)

    def test_statistic_definition(self):
        # hand-computed Q at lag 2 for a short series
        r = np.array([1.0, -1.0, 2.0, 0.5, -0.5, 1.5, -2.0, 0.0, 1.0, -1.0])
        T = r.size
        x = r - r.mean()
        rho = [float(x[k:] @ x[:-k]) / float(x @ x) for k in (1, 2)]
        q_expect = T * (T + 2.0) * (rho[0] ** 2 / (T - 1) + rho[1] ** 2 / (T - 2))
        rep = ljung_box(r, lags=(2,))
        assert rep.statistics[0] == pytest.approx(q_expect, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="constant"):
            ljung_box(np.ones(100))
        with pytest.raises(ValueError, match="largest lag"):
            ljung_box(np.arange(10.0), lags=(15,))
        with pytest.raises(ValueError, match="positive"):
            ljung_box(np.arange(100.0), lags=(0,))
        with pytest.raises(ValueError):
            ljung_box_pvalue(-1.0, 5)
        with pytest.raises(ValueError):
            ljung_box_pvalue(1.0, 0)


class TestObservationModel:
    @staticmethod
    def series(mapping):
        counts = np.array([0.0, 3.0, 7.0, 12.0, 1.0])  # one interval above M
        raw = data_io.ObservationSeries(
            interval_start_ms=30_000 * np.arange(5), counts=counts, interval_seconds=30.0
        )
        return data_io.to_observable(raw, M=10, mapping=mapping)

    @pytest.mark.parametrize(
        "mapping, measurement",
        [
            ("no_arrival_log", "log_prob_no_arrival"),
            ("no_arrival_proxy", "prob_no_arrival"),
            ("frequency", "prob_no_arrival"),
        ],
    )
    def test_each_pipeline_mapping(self, mapping, measurement):
        series = self.series(mapping)
        y, spec = estimate.observation_model(series)
        # a frequency series is fitted on its complement
        expected = 1.0 - series.observable if mapping == "frequency" else series.observable
        assert y.tobytes() == expected.tobytes()
        assert spec == StateSpaceSpec(delta=0.5, window=0.05, mapping=measurement)

    def test_covers_every_data_io_observable(self):
        assert sorted(estimate._OBSERVABLE_MEASUREMENT) == sorted(data_io._OBS_MAPPINGS)
        assert set(estimate._OBSERVABLE_MEASUREMENT.values()) <= set(estimate._MAPPINGS)

    def test_series_without_observable_rejected(self):
        raw = self.series("frequency")
        for series in (
            dataclasses.replace(raw, observable=None, mapping=None),
            dataclasses.replace(raw, mapping=None),
        ):
            with pytest.raises(ValueError, match="to_observable"):
                estimate.observation_model(series)


class TestSimulateObservations:
    SPEC = StateSpaceSpec(delta=1.0, window=0.05)

    def test_reproducible(self):
        a = simulate_observations(DESK, 1e-3, self.SPEC, 50, RngStream(801))
        b = simulate_observations(DESK, 1e-3, self.SPEC, 50, RngStream(801))
        assert np.array_equal(a, b)

    def test_level_matches_measurement(self):
        y = simulate_observations(DESK, 1e-3, self.SPEC, 20_000, RngStream(802))
        d, c = measurement(DESK, self.SPEC)
        target = d + c * DESK.theta
        assert abs(y.mean() - target) < 4.0 * y.std(ddof=1) / math.sqrt(y.size)

    def test_fixed_start(self):
        model = dataclasses.replace(DESK, lambda0=0.4)
        spec = StateSpaceSpec(delta=1e-6, window=0.05, mapping="direct_state")
        y = simulate_observations(model, 0.0, spec, 2, RngStream(803), start="fixed")
        assert y[0] == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_observations(DESK, 1e-3, self.SPEC, 0, RngStream(0))
        with pytest.raises(ValueError):
            simulate_observations(DESK, 1e-3, self.SPEC, 5, RngStream(0), start="warm")


class TestWorkerMap:
    def test_every_map_returns_its_results_in_task_order(self):
        # a builtin task, so that the workers need not import this module
        for processes in (1, 2, 3):
            for n in (0, 1, 5, 40):
                got = worker_map(operator.neg, range(n), processes)
                assert got == [-k for k in range(n)], (processes, n)
        assert multiprocessing.active_children() == []

    def test_one_process_starts_no_pool(self, monkeypatch):
        def no_context(method=None):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_context)
        for processes in (1, 0):
            assert worker_map(operator.neg, range(5), processes) == [0, -1, -2, -3, -4]

    def test_this_process_runs_tasks_beside_the_workers(self):
        assert os.getpid() in worker_map(_pid, range(40), 2)

    def test_a_task_raising_here_propagates_and_leaves_no_process(self):
        with pytest.raises(ArithmeticError, match="calling process"):
            worker_map(_fail_in_caller, [os.getpid()] * 5, 2)
        assert multiprocessing.active_children() == []

    def test_each_task_runs_once_with_more_processes_than_cores(self, tmp_path):
        # all four processes claim at once; a claim that lost an update
        # would run some task twice
        (tmp_path / "pids").mkdir()
        tasks = [(k, str(tmp_path), 4) for k in range(400)]
        assert worker_map(_log_run, tasks, 4) == list(range(400))
        assert len(os.listdir(tmp_path / "pids")) == 4
        with open(tmp_path / "runs") as fh:
            assert sorted(int(line) for line in fh) == list(range(400))
        assert multiprocessing.active_children() == []

    def test_a_task_raising_in_a_worker_propagates_and_leaves_no_process(self, tmp_path):
        tasks = [(os.getpid(), str(tmp_path / "raised"))] * 5
        with pytest.raises(ArithmeticError, match="in a worker"):
            worker_map(_fail_in_worker, tasks, 2)
        assert multiprocessing.active_children() == []


class TestReplication:
    SPEC = StateSpaceSpec(delta=1.0, window=1.0)

    def test_single_rep_matches_manual_fit(self):
        stream = RngStream(901)
        summary = replication_study(DESK, 1, 300, stream, R=1e-3, spec=self.SPEC)
        child = stream.spawn(0)
        y = simulate_observations(DESK, 1e-3, self.SPEC, 300, child.spawn(0))
        manual = fit(y, self.SPEC, init=DESK, R_init=1e-3, rng=child.spawn(1))
        assert summary.estimates.shape == (1, 4)
        assert summary.estimates[0, 1] == manual.params.theta
        assert summary.estimates[0, 3] == manual.R
        assert summary.estimates[0].tolist() == list(manual.estimates)
        assert summary.converged[0] == manual.converged
        assert summary.true_values == dict(zip(PARAM_NAMES, (*dataclasses.astuple(DESK)[:3], 1e-3)))
        assert [row["parameter"] for row in summary.summary_rows()] == list(PARAM_NAMES)

    def test_jobs_do_not_change_results(self, monkeypatch):
        serial = replication_study(DESK, 4, 250, RngStream(902), spec=self.SPEC)

        def no_fork():
            raise AssertionError("replication_study forked this process")

        monkeypatch.setattr(os, "fork", no_fork)
        parallel = replication_study(DESK, 4, 250, RngStream(902), spec=self.SPEC, jobs=2)
        assert serial.estimates.tobytes() == parallel.estimates.tobytes()
        assert np.array_equal(serial.converged, parallel.converged)
        assert np.array_equal(serial.lb_passed, parallel.lb_passed)
        assert serial.failures == parallel.failures

    def test_aggregates(self):
        summary = replication_study(DESK, 3, 250, RngStream(903), spec=self.SPEC)
        assert summary.n_failed == 0
        est = summary.estimates[:, 1]
        bias = est.mean() - DESK.theta
        assert summary.mqe()[1] == pytest.approx(bias**2 + est.var(ddof=0), rel=1e-12)
        rows = summary.summary_rows()
        assert [r["parameter"] for r in rows] == ["kappa", "theta", "sigma", "R"]
        edges, counts = summary.histogram("theta", bins=8)
        assert counts.sum() == 3 and edges.size == 9
        with pytest.raises(ValueError):
            summary.histogram("lambda0")

    def test_failures_keep_their_replication_index(self, monkeypatch):
        full = replication_study(DESK, 3, 100, RngStream(905), spec=self.SPEC)
        calls = []
        real_fit = estimate.fit

        def fit_failing_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ArithmeticError("second fit fails")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(estimate, "fit", fit_failing_second)
        summary = replication_study(DESK, 3, 100, RngStream(905), spec=self.SPEC)
        assert summary.failures == ((1, "second fit fails"),)
        assert summary.n_failed == 1 and summary.n_requested == 3
        assert summary.estimates.tobytes() == full.estimates[[0, 2]].tobytes()

    def test_all_failures_raise(self, monkeypatch):
        def failing_fit(*args, **kwargs):
            raise ArithmeticError("fit fails")

        monkeypatch.setattr(estimate, "fit", failing_fit)
        with pytest.raises(EstimationError, match="every replication failed"):
            replication_study(DESK, 2, 100, RngStream(904), spec=self.SPEC)

    @pytest.mark.parametrize("n_reps, jobs, expected", [(2, 5, 2), (4, 3, 3)])
    def test_processes_are_the_fewer_of_jobs_and_replications(
        self, monkeypatch, n_reps, jobs, expected
    ):
        processes = []

        def serial(func, tasks, n):
            processes.append(n)
            return list(map(func, tasks))

        monkeypatch.setattr(estimate, "worker_map", serial)
        replication_study(DESK, n_reps, 100, RngStream(906), spec=self.SPEC, jobs=jobs)
        assert processes == [expected]

    def test_short_series_rejected_before_any_worker(self, monkeypatch):
        def no_pool(func, tasks, processes):
            raise AssertionError("a worker map was run")

        monkeypatch.setattr(estimate, "worker_map", no_pool)
        for series_len in (19, 10, 0):
            with pytest.raises(ValueError, match="series_len must be >= 20"):
                replication_study(DESK, 3, series_len, RngStream(904), jobs=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            replication_study(DESK, 0, 100, RngStream(0))
