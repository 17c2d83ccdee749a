"""Approximate Kalman filtering and QML estimation of the latent intensity.

The exact square-root transition density is replaced by a Gaussian with the
same conditional mean and variance, giving a linear state space

    lam_t = a lam_{t-1} + b + w_t,   Var(w_t) = q0 + q1 * lam_{t-1}
    y_t   = d + c lam_t + v_t,       Var(v_t) = R^2

where (a, b, q0, q1) come from the transition moments over the observation
spacing and (d, c) from the no-arrival probability over the measurement
window.  The transition variance is evaluated at the previous filtered mean,
and the filtered mean is floored at zero since the state is an intensity.
The quasi log-likelihood is the sum of Gaussian innovation terms over all
observations, which coincides with the joint Gaussian log-density of the
observation vector when the per-step variances are held fixed.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import optimize, stats

from ._backend import filter_kernel
from .affine_core import FellerModel, cir_transform_closed_form
from .cox_dist import stationary_intensity
from .simulate import RngStream

__all__ = [
    "StateSpaceSpec",
    "FilterOutput",
    "EstimationResult",
    "StdErrorReport",
    "LjungBoxReport",
    "FitOptions",
    "EstimationError",
    "kalman_filter",
    "qml_loglik",
    "fit",
    "std_errors",
    "ljung_box",
    "ljung_box_pvalue",
    "simulate_observations",
    "replication_study",
    "ReplicationSummary",
]

_MAPPINGS = ("log_prob_no_arrival", "prob_no_arrival", "direct_state")


class EstimationError(RuntimeError):
    """No optimizer run produced a finite quasi log-likelihood."""


@dataclass(frozen=True)
class StateSpaceSpec:
    """Geometry of the observation scheme.

    ``delta`` is the spacing between observations and ``window`` the horizon
    of the no-arrival probability behind each observation, both in internal
    time units (minutes).  They coincide when the observable summarizes the
    whole interval, but differ when the observable is a per-slot proxy (for
    example a count fraction over M latency slots, where the window is
    delta/M).  ``mapping`` selects the measurement transform:

    - ``log_prob_no_arrival``: y = alpha - beta lam + noise (log scale)
    - ``prob_no_arrival``: y = exp(alpha - beta lam) + noise, linearized
      around the long-run mean
    - ``direct_state``: y = lam + noise (for diagnostics and tests)

    ``obs_scale`` multiplies the model measurement, for observables recorded
    in rescaled units.
    """

    delta: float = 1.0
    window: float = 1.0
    mapping: str = "log_prob_no_arrival"
    obs_scale: float = 1.0

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not self.window > 0:
            raise ValueError(f"window must be > 0, got {self.window}")
        if self.mapping not in _MAPPINGS:
            raise ValueError(f"mapping must be one of {_MAPPINGS}, got {self.mapping!r}")
        if not self.obs_scale != 0:
            raise ValueError("obs_scale must be nonzero")


@dataclass(frozen=True)
class FilterOutput:
    """Per-step filter quantities and the quasi log-likelihood."""

    predicted_mean: np.ndarray
    predicted_var: np.ndarray
    filtered_mean: np.ndarray
    filtered_var: np.ndarray
    innovations: np.ndarray
    innovation_vars: np.ndarray
    standardized_residuals: np.ndarray
    loglik: float


@dataclass(frozen=True)
class LjungBoxReport:
    """Portmanteau autocorrelation statistics at several lags."""

    lags: tuple
    statistics: np.ndarray
    p_values: np.ndarray

    def passed(self, alpha: float = 0.05) -> bool:
        return bool(np.all(self.p_values > alpha))

    def rows(self):
        return [
            {"lag": int(l), "statistic": float(q), "p_value": float(p)}
            for l, q, p in zip(self.lags, self.statistics, self.p_values)
        ]


@dataclass(frozen=True)
class StdErrorReport:
    """Delta-method standard errors on the natural parameter scale."""

    kappa: float
    theta: float
    sigma: float
    R: float
    hessian_warning: bool = False

    def as_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "theta": self.theta,
            "sigma": self.sigma,
            "R": self.R,
            "hessian_warning": self.hessian_warning,
        }


@dataclass(frozen=True)
class EstimationResult:
    params: FellerModel
    R: float
    std_errors: StdErrorReport
    loglik: float
    converged: bool
    diagnostics: LjungBoxReport
    n_obs: int

    def as_dict(self) -> dict:
        return {
            "estimates": {
                "kappa": self.params.kappa,
                "theta": self.params.theta,
                "sigma": self.params.sigma,
                "R": self.R,
            },
            "std_errors": self.std_errors.as_dict(),
            "loglik": self.loglik,
            "converged": self.converged,
            "ljung_box": self.diagnostics.rows(),
            "n_obs": self.n_obs,
        }


@dataclass(frozen=True)
class FitOptions:
    n_restarts: int = 5
    perturb_scale: float = 0.7
    maxiter: int = 2000
    xatol: float = 1e-8
    fatol: float = 1e-10
    min_obs: int = 20


def _observable(obs) -> np.ndarray:
    """The observations as a float array; raises ValueError on a missing
    observable or on non-finite data, naming the first offending index."""
    y = getattr(obs, "observable", obs)
    if y is None:
        raise ValueError("observation series has no observable values; run to_observable first")
    y = np.ascontiguousarray(y, dtype=float)
    bad = ~np.isfinite(y)
    if bad.any():
        raise ValueError(f"non-finite observation at index {int(np.argmax(bad))}")
    return y


class _Rates(NamedTuple):
    """The three fields of a Feller model that ``cir_transform_closed_form``
    reads, without ``FellerModel``'s validation."""

    kappa: float
    theta: float
    sigma: float


class _Coeffs(NamedTuple):
    """The nine filter-kernel arguments that follow ``y``."""

    a: float
    b: float
    q0: float
    q1: float
    d: float
    c: float
    r2: float
    m0: float
    p0: float


def _filter_coeffs(kappa, theta, sigma, R, spec: StateSpaceSpec) -> _Coeffs:
    """The one map from parameters to filter coefficients.

    (a, b, q0, q1) are the transition moments over ``spec.delta``, (d, c) the
    measurement through ``spec.mapping``, r2 = R^2, and the prior (m0, p0) is
    the stationary mean and variance.  The parameters are plain numbers and
    are not validated: the QML objective calls this once per evaluation.
    """
    e = math.exp(-kappa * spec.delta)
    a = e
    b = theta * (1.0 - e)
    q1 = sigma**2 * (1.0 - e) * e / kappa
    q0 = sigma**2 * theta * (1.0 - e) ** 2 / (2.0 * kappa)
    if spec.mapping == "direct_state":
        d, c = 0.0, 1.0
    else:
        tc = cir_transform_closed_form(_Rates(kappa, theta, sigma), 1.0, spec.window)
        alpha, beta = float(tc.alpha), float(tc.beta)
        if spec.mapping == "log_prob_no_arrival":
            d, c = alpha, -beta
        else:
            # linearize exp(alpha - beta lam) around lam = theta
            base = math.exp(alpha - beta * theta)
            d = base * (1.0 + beta * theta)
            c = -base * beta
    p0 = sigma**2 * theta / (2.0 * kappa)  # FellerModel.stationary_var
    return _Coeffs(
        a, b, q0, q1, spec.obs_scale * d, spec.obs_scale * c, R * R, theta, p0
    )


def kalman_filter(
    params: FellerModel, R: float, obs, spec: StateSpaceSpec = StateSpaceSpec()
) -> FilterOutput:
    """Filter an observation series and return per-step quantities.

    ``obs`` may be an observation series object (its ``observable`` field is
    used) or a plain float array.  Raises ValueError on non-finite data (with
    the offending index) and ArithmeticError if an innovation variance fails
    to be positive.
    """
    if R < 0:
        raise ValueError(f"R must be >= 0, got {R}")
    y = _observable(obs)
    if y.size == 0:
        raise ValueError("observation series is empty")
    coeffs = _filter_coeffs(params.kappa, params.theta, params.sigma, R, spec)
    steps = []
    ll, err = filter_kernel(y.tolist(), *coeffs, steps)
    if err >= 0:
        raise ArithmeticError(f"innovation variance not positive at step {err}")
    # Fortran order keeps each of the six per-step columns contiguous
    pm, pv, fm, fv, innov, ivar = np.array(steps, order="F").T
    resid = innov / np.sqrt(ivar)
    return FilterOutput(
        predicted_mean=pm,
        predicted_var=pv,
        filtered_mean=fm,
        filtered_var=fv,
        innovations=innov,
        innovation_vars=ivar,
        standardized_residuals=resid,
        loglik=float(ll),
    )


def qml_loglik(
    params: FellerModel, R: float, obs, spec: StateSpaceSpec = StateSpaceSpec()
) -> float:
    """Quasi log-likelihood: sum of Gaussian innovation terms over all steps."""
    return kalman_filter(params, R, obs, spec).loglik


_PENALTY = 1e12


def _objective(y: np.ndarray, spec: StateSpaceSpec):
    """Negative quasi log-likelihood over log-parameters, bound to one series.

    Each evaluation maps x to coefficients as floats and runs the filter
    kernel over ``y.tolist()`` without per-step output; the value equals
    ``-kalman_filter(...).loglik`` bit for bit.  Points outside |x| <= 50, and
    points where the filter fails, score ``_PENALTY``.  Inside the box exp(x)
    is finite and positive, so the parameters need no ``FellerModel``
    validation.
    """
    ys = y.tolist()

    def neg_loglik(x: np.ndarray) -> float:
        if any(abs(v) > 50.0 for v in x.tolist()):
            return _PENALTY
        kappa, theta, sigma, R = np.exp(x).tolist()
        try:
            ll, err = filter_kernel(ys, *_filter_coeffs(kappa, theta, sigma, R, spec))
        except (ValueError, OverflowError):  # math domain and range errors
            return _PENALTY
        if err >= 0 or not math.isfinite(ll):
            return _PENALTY
        return -ll

    return neg_loglik


def fit(
    obs,
    spec: StateSpaceSpec = StateSpaceSpec(),
    init: Optional[FellerModel] = None,
    R_init: float = 1e-3,
    options: FitOptions = FitOptions(),
    rng: Optional[RngStream] = None,
) -> EstimationResult:
    """Maximize the quasi log-likelihood over (kappa, theta, sigma, R).

    Optimization runs in log-parameter space (so estimates stay positive)
    with a derivative-free simplex search and ``options.n_restarts`` random
    restarts around the initial point; the flooring in the filter makes the
    objective only piecewise smooth, which rules out gradient methods.
    Raises ValueError on non-finite data, with the offending index.
    """
    y = _observable(obs)
    if y.size < options.min_obs:
        raise ValueError(f"need at least {options.min_obs} observations, got {y.size}")
    if init is None:
        init = _heuristic_init(y, spec)
    if rng is None:
        rng = RngStream(0)
    x0 = np.log([init.kappa, init.theta, init.sigma, max(R_init, 1e-12)])

    objective = _objective(y, spec)
    best = None
    gen = rng.generator()
    for r in range(options.n_restarts + 1):
        xr = x0 if r == 0 else x0 + options.perturb_scale * gen.standard_normal(4)
        res = optimize.minimize(
            objective,
            xr,
            method="Nelder-Mead",
            options={
                "xatol": options.xatol,
                "fatol": options.fatol,
                "maxiter": options.maxiter,
                "maxfev": 4 * options.maxiter,
            },
        )
        if res.fun < _PENALTY and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise EstimationError("no optimizer run produced a finite quasi log-likelihood")

    kappa, theta, sigma, R = np.exp(best.x)
    params = FellerModel(kappa=kappa, theta=theta, sigma=sigma, lambda0=theta)
    simplex = best.final_simplex[0]
    diameter = float(np.max(np.abs(simplex - simplex[0])))
    converged = bool(best.success) or diameter < options.xatol

    se = std_errors(params, R, y, spec)
    filt = kalman_filter(params, R, y, spec)
    max_lag = max(5, min(15, y.size // 4))
    lags = tuple(l for l in (5, 10, 15) if l <= max_lag)
    diag = ljung_box(filt.standardized_residuals, lags)
    return EstimationResult(
        params=params,
        R=float(R),
        std_errors=se,
        loglik=float(filt.loglik),
        converged=converged,
        diagnostics=diag,
        n_obs=int(y.size),
    )


def _heuristic_init(y: np.ndarray, spec: StateSpaceSpec) -> FellerModel:
    """Rough starting point from the sample mean of the observable."""
    ybar = float(np.mean(y)) / spec.obs_scale
    if spec.mapping == "direct_state":
        theta0 = max(ybar, 1e-8)
    elif spec.mapping == "log_prob_no_arrival":
        # y ~ alpha - beta lam with beta ~ window for small windows
        theta0 = max(-ybar / spec.window, 1e-8)
    else:
        theta0 = max(-math.log(max(ybar, 1e-12)) / spec.window, 1e-8)
    kappa0 = 0.5
    sigma0 = 0.5 * math.sqrt(2.0 * kappa0 * theta0)
    return FellerModel(kappa=kappa0, theta=theta0, sigma=sigma0, lambda0=theta0)


def std_errors(
    params_hat: FellerModel,
    R_hat: float,
    obs,
    spec: StateSpaceSpec = StateSpaceSpec(),
    rel_step: float = 1e-4,
) -> StdErrorReport:
    """Standard errors from the inverse negative Hessian of the quasi
    log-likelihood at the optimum.

    The Hessian is computed by central differences in log-parameter space
    and mapped to the natural scale by the delta method.  A Hessian that is
    not positive definite is flagged and handled with a pseudo-inverse
    rather than treated as fatal.
    """
    y = _observable(obs)
    x = np.log([params_hat.kappa, params_hat.theta, params_hat.sigma, max(R_hat, 1e-300)])
    n = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    objective = _objective(y, spec)

    def f(xv):
        v = objective(xv)
        return math.nan if v >= _PENALTY else -v

    f0 = f(x)
    H = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h[i]
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])

    warning = bool(np.any(~np.isfinite(H)))
    A = -(H + H.T) / 2.0
    A = np.where(np.isfinite(A), A, 0.0)
    try:
        np.linalg.cholesky(A)
        cov = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(A)
        warning = True
    var_log = np.diag(cov).copy()
    if np.any(var_log < 0):
        warning = True
        var_log = np.clip(var_log, 0.0, None)
    se_log = np.sqrt(var_log)
    nat = np.exp(x) * se_log  # delta method: d(exp x)/dx = exp x
    return StdErrorReport(
        kappa=float(nat[0]),
        theta=float(nat[1]),
        sigma=float(nat[2]),
        R=float(nat[3]),
        hessian_warning=warning,
    )


def ljung_box_pvalue(statistic: float, lag: int) -> float:
    """Survival probability of the chi-square(lag) reference at the statistic."""
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if statistic < 0:
        raise ValueError(f"statistic must be >= 0, got {statistic}")
    return float(stats.chi2.sf(statistic, lag))


def ljung_box(residuals, lags: Sequence[int] = (5, 10, 15)) -> LjungBoxReport:
    """Portmanteau test: Q(L) = T(T+2) sum_{k<=L} rho_k^2/(T-k), chi-square(L)."""
    r = np.asarray(residuals, dtype=float)
    T = r.size
    lags = tuple(int(l) for l in lags)
    if not lags or min(lags) < 1:
        raise ValueError("lags must be positive integers")
    if T <= max(lags):
        raise ValueError(f"need more residuals ({T}) than the largest lag ({max(lags)})")
    x = r - r.mean()
    denom = float(x @ x)
    if denom == 0.0:
        raise ValueError("constant residual series: autocorrelation undefined")
    max_lag = max(lags)
    rho = np.array([float(x[k:] @ x[:-k]) / denom for k in range(1, max_lag + 1)])
    terms = rho**2 / (T - np.arange(1, max_lag + 1))
    stats_q = np.array([T * (T + 2.0) * terms[:L].sum() for L in lags])
    pvals = np.array([ljung_box_pvalue(q, L) for q, L in zip(stats_q, lags)])
    return LjungBoxReport(lags=lags, statistics=stats_q, p_values=pvals)


def simulate_observations(
    model: FellerModel,
    R: float,
    spec: StateSpaceSpec,
    n_obs: int,
    rng: RngStream,
    start: str = "stationary",
) -> np.ndarray:
    """Simulate an observable series from the state-space model itself.

    The latent intensity starts from its stationary law (or from
    ``model.lambda0`` with ``start="fixed"``), advances by exact transitions
    at the observation spacing, and is measured through the configured
    mapping with Gaussian noise of standard deviation R.
    """
    from .simulate import sample_cir_transition

    if n_obs < 1:
        raise ValueError(f"n_obs must be >= 1, got {n_obs}")
    gen = rng.generator()
    if start == "stationary":
        g = stationary_intensity(model)
        lam = float(g.sample(gen))
    elif start == "fixed":
        lam = model.lambda0
    else:
        raise ValueError(f"start must be 'stationary' or 'fixed', got {start!r}")
    coeffs = _filter_coeffs(model.kappa, model.theta, model.sigma, R, spec)
    lams = np.empty(n_obs)
    lams[0] = lam
    for t in range(1, n_obs):
        lams[t] = sample_cir_transition(model, lams[t - 1], spec.delta, gen)
    noise = gen.standard_normal(n_obs)
    return coeffs.d + coeffs.c * lams + R * noise


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregates of repeated simulate-and-fit experiments."""

    true_values: dict
    estimates: np.ndarray  # shape (n_ok, 4): kappa, theta, sigma, R
    converged: np.ndarray
    lb_passed: np.ndarray  # Ljung-Box clean residuals per replication
    n_requested: int
    n_failed: int
    failures: tuple
    param_names: tuple = ("kappa", "theta", "sigma", "R")

    def mean_estimates(self) -> np.ndarray:
        return self.estimates.mean(axis=0)

    def mqe(self) -> np.ndarray:
        truths = np.array([self.true_values[p] for p in self.param_names])
        return ((self.estimates - truths) ** 2).mean(axis=0)

    def std(self) -> np.ndarray:
        return self.estimates.std(axis=0, ddof=1)

    def summary_rows(self) -> list:
        means, mqes, stds = self.mean_estimates(), self.mqe(), self.std()
        return [
            {
                "parameter": p,
                "true_value": self.true_values[p],
                "mean_estimate": float(means[i]),
                "mqe": float(mqes[i]),
                "std_dev": float(stds[i]),
            }
            for i, p in enumerate(self.param_names)
        ]

    def histogram(self, param: str, bins: int = 20):
        i = self.param_names.index(param)
        counts, edges = np.histogram(self.estimates[:, i], bins=bins)
        return edges, counts


def _replicate_one(args) -> tuple:
    (model, R, spec, series_len, rep, rng, init, r_init, options) = args
    stream = rng.spawn(rep)
    y = simulate_observations(model, R, spec, series_len, stream.spawn(0))
    try:
        result = fit(y, spec, init=init, R_init=r_init, options=options, rng=stream.spawn(1))
    except (EstimationError, ValueError, ArithmeticError) as exc:
        return rep, None, str(exc)
    est = (result.params.kappa, result.params.theta, result.params.sigma, result.R)
    return rep, (est, result.converged, result.diagnostics.passed()), None


def replication_study(
    true_params: FellerModel,
    n_reps: int,
    series_len: int,
    rng: RngStream,
    R: float = 1e-3,
    spec: StateSpaceSpec = StateSpaceSpec(),
    init: Optional[FellerModel] = None,
    options: FitOptions = FitOptions(),
    jobs: int = 1,
) -> ReplicationSummary:
    """Simulate ``n_reps`` observable series from the model and refit each.

    Replications use independent child streams indexed by replication number
    and are aggregated in index order, so the summary is identical for any
    ``jobs``.  Individual replication failures are recorded and excluded.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    if init is None:
        init = true_params
    payloads = [
        (true_params, R, spec, series_len, rep, rng, init, R, options)
        for rep in range(n_reps)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            raw = list(ex.map(_replicate_one, payloads, chunksize=max(1, n_reps // (4 * jobs))))
    else:
        raw = [_replicate_one(p) for p in payloads]
    raw.sort(key=lambda r: r[0])

    rows = []
    conv = []
    lb = []
    failures = []
    for rep, ok, err in raw:
        if ok is None:
            failures.append((rep, err))
        else:
            rows.append(ok[0])
            conv.append(ok[1])
            lb.append(ok[2])
    if not rows:
        raise EstimationError("every replication failed")
    return ReplicationSummary(
        true_values={
            "kappa": true_params.kappa,
            "theta": true_params.theta,
            "sigma": true_params.sigma,
            "R": R,
        },
        estimates=np.asarray(rows, dtype=float),
        converged=np.asarray(conv, dtype=bool),
        lb_passed=np.asarray(lb, dtype=bool),
        n_requested=n_reps,
        n_failed=len(failures),
        failures=tuple(failures),
    )
