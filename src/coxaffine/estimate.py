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
observation vector when the per-step variances are held fixed.  With
innovations v_t and innovation variances s_t over n observations,

    loglik = -0.5 * (n log(2 pi) + log(prod_t s_t) + sum_t v_t^2 / s_t),

which ``_backend.filter_kernel`` takes with one log per pass.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from ._backend import filter_kernel
from ._inputs import check_real, check_size, is_real
from .affine_core import FellerModel, cir_transform_closed_form
from .cox_dist import stationary_intensity
from .simulate import RngStream, _cir_chain

__all__ = [
    "PARAM_NAMES",
    "StateSpaceSpec",
    "observation_model",
    "FilterOutput",
    "EstimationResult",
    "StdErrorReport",
    "LjungBoxReport",
    "FitOptions",
    "EstimationError",
    "kalman_filter",
    "fit",
    "std_errors",
    "ljung_box",
    "ljung_box_pvalue",
    "simulate_observations",
    "replication_study",
    "ReplicationSummary",
    "worker_map",
]

_MAPPINGS = ("log_prob_no_arrival", "prob_no_arrival", "direct_state")
# the measurement of each data_io observable; "frequency" is fitted on 1 - y
_OBSERVABLE_MEASUREMENT = {
    "no_arrival_log": "log_prob_no_arrival",
    "no_arrival_proxy": "prob_no_arrival",
    "frequency": "prob_no_arrival",
}
# the fitted parameters, in the order of every record that holds them:
# the intensity's three, then the measurement noise
PARAM_NAMES = ("kappa", "theta", "sigma", "R")
_MIN_OBS = 20
_PERTURB_SCALE = 0.7  # restart offsets in log-parameters, times a standard normal
_XATOL = 1e-8  # stopping tolerances of _nelder_mead, the in-house simplex (stable tie order)
_FATOL = 1e-10
_LOOSE_FRTOL = 1e-6  # a restart search also stops at this simplex spread, relative to max(1, |f|)
_REL_STEP = 1e-4  # Hessian step relative to max(1, |x|)
_LB_ALPHA = 0.05  # Ljung-Box level
_EXP_NORMAL = 700.0  # e^{-h} is a normal float, good to an ulp, for h below this
_NEGLIGIBLE = 2.0**-70  # a term ratio below this no longer moves a sum >= 1


class EstimationError(RuntimeError):
    """No optimizer run produced a finite quasi log-likelihood."""


@dataclass(frozen=True)
class StateSpaceSpec:
    """Geometry of the observation scheme.

    ``delta`` is the spacing between observations and ``window`` the horizon
    of the no-arrival probability behind each observation, both in minutes;
    ``observation_model`` sets window = delta/M for a count series with M
    latency slots per interval.  ``mapping`` selects the measurement transform:

    - ``log_prob_no_arrival``: y = alpha - beta lam + noise (log scale)
    - ``prob_no_arrival``: y = exp(alpha - beta lam) + noise, linearized
      around the long-run mean
    - ``direct_state``: y = lam + noise (for diagnostics and tests)
    """

    delta: float = 1.0
    window: float = 1.0
    mapping: str = "log_prob_no_arrival"

    def __post_init__(self):
        check_real("delta", self.delta, above=0)
        check_real("window", self.window, above=0)
        if self.mapping not in _MAPPINGS:
            raise ValueError(f"mapping must be one of {_MAPPINGS}, got {self.mapping!r}")


@dataclass(frozen=True)
class FilterOutput:
    """Per-step filter quantities, one_step_fit = d + c * predicted_mean, and the loglik."""

    predicted_mean: np.ndarray
    predicted_var: np.ndarray
    filtered_mean: np.ndarray
    filtered_var: np.ndarray
    innovations: np.ndarray
    innovation_vars: np.ndarray
    standardized_residuals: np.ndarray
    one_step_fit: np.ndarray
    loglik: float


@dataclass(frozen=True)
class LjungBoxReport:
    """Portmanteau autocorrelation statistics at several lags."""

    lags: tuple
    statistics: np.ndarray
    p_values: np.ndarray

    def passed(self) -> bool:
        return bool(np.all(self.p_values > _LB_ALPHA))

    def rows(self):
        return [
            {"lag": int(l), "statistic": float(q), "p_value": float(p)}
            for l, q, p in zip(self.lags, self.statistics, self.p_values)
        ]


@dataclass(frozen=True)
class StdErrorReport:
    """Delta-method standard errors on the natural parameter scale, or None."""

    kappa: Optional[float]
    theta: Optional[float]
    sigma: Optional[float]
    R: Optional[float]
    hessian_warning: bool = False

    def as_dict(self) -> dict:
        doc = {p: getattr(self, p) for p in PARAM_NAMES}
        doc["hessian_warning"] = self.hessian_warning
        return doc


@dataclass(frozen=True)
class EstimationResult:
    params: FellerModel
    R: float
    std_errors: StdErrorReport
    loglik: float
    converged: bool
    diagnostics: LjungBoxReport
    n_obs: int
    filter_output: FilterOutput  # the pass at the optimum; as_dict() leaves it out

    @property
    def estimates(self) -> tuple:
        """The fitted values in ``PARAM_NAMES`` order."""
        return _param_values(self.params, self.R)

    def as_dict(self) -> dict:
        return {
            "estimates": dict(zip(PARAM_NAMES, self.estimates)),
            "std_errors": self.std_errors.as_dict(),
            "loglik": self.loglik,
            "converged": self.converged,
            "ljung_box": self.diagnostics.rows(),
            "n_obs": self.n_obs,
        }


@dataclass(frozen=True)
class FitOptions:
    n_restarts: int = 5
    maxiter: int = 2000

    def __post_init__(self):
        check_size("n_restarts", self.n_restarts, least=0)
        check_size("maxiter", self.maxiter)


def observation_model(series) -> tuple:
    """The filter's inputs ``(y, spec)`` for a series from ``data_io.to_observable``.

    The observable is per latency slot, M to an interval, so ``window`` is
    delta/M; a ``frequency`` series is fitted on its complement 1 - y.
    Raises ValueError for a series without an observable.
    """
    measurement = _OBSERVABLE_MEASUREMENT.get(series.mapping)
    if series.observable is None or measurement is None:
        raise ValueError("observation series has no observable values; run to_observable first")
    y = 1.0 - series.observable if series.mapping == "frequency" else series.observable
    delta = series.delta_minutes
    return y, StateSpaceSpec(delta=delta, window=delta / series.M, mapping=measurement)


def _observable(obs) -> np.ndarray:
    """The observations as a float array; raises ValueError on non-finite
    data, naming the first offending index."""
    y = np.ascontiguousarray(obs, dtype=float)
    bad = ~np.isfinite(y)
    if bad.any():
        raise ValueError(f"non-finite observation at index {int(np.argmax(bad))}")
    return y


def _param_values(model: FellerModel, R: float) -> tuple:
    """A Feller model's rates and a noise R, in ``PARAM_NAMES`` order."""
    return tuple(getattr(model, p) for p in PARAM_NAMES[:-1]) + (R,)


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
    return _Coeffs(a, b, q0, q1, d, c, R * R, theta, p0)


def kalman_filter(
    params: FellerModel, R: float, obs, spec: StateSpaceSpec = StateSpaceSpec()
) -> FilterOutput:
    """Filter the float observations ``obs`` and return per-step quantities.

    Raises ValueError on non-finite data (with the offending index) and
    ArithmeticError if an innovation variance fails to be positive.
    """
    check_real("R", R, least=0)
    y = _observable(obs)
    if y.size == 0:
        raise ValueError("observation series is empty")
    coeffs = _filter_coeffs(params.kappa, params.theta, params.sigma, float(R), spec)
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
        one_step_fit=coeffs.d + coeffs.c * pm,
        loglik=float(ll),
    )


_PENALTY = 1e12


def _objective(y: np.ndarray, spec: StateSpaceSpec):
    """Negative quasi log-likelihood over log-parameters, bound to one series.

    Each evaluation takes x as a sequence of four floats, maps it to
    coefficients as floats and runs the filter kernel over ``y.tolist()``
    without per-step output; the value equals ``-kalman_filter(...).loglik``
    bit for bit.  Points outside |x| <= 50, and points where the filter fails,
    score ``_PENALTY``.  Inside the box exp(x) is finite and positive, so the
    parameters need no ``FellerModel`` validation.
    """
    ys = y.tolist()

    def neg_loglik(x: Sequence[float]) -> float:
        if any(abs(v) > 50.0 for v in x):
            return _PENALTY
        # numpy's exp, not math.exp: the two can differ in the last bit
        kappa, theta, sigma, R = np.exp(x).tolist()
        try:
            ll, err = filter_kernel(ys, *_filter_coeffs(kappa, theta, sigma, R, spec))
        except (ValueError, OverflowError):  # math domain and range errors
            return _PENALTY
        if err >= 0 or not math.isfinite(ll):
            return _PENALTY
        return -ll

    return neg_loglik


class _Exhausted(Exception):
    """The simplex search ran out of function evaluations."""


class _Search(NamedTuple):
    x: list
    fun: float
    nfev: int
    nit: int
    success: bool
    simplex: list  # the final vertices, best first


def _nelder_mead(
    f, x0: Sequence[float], maxiter: int, maxfev: int, frtol: Optional[float] = None
) -> _Search:
    """Minimize ``f`` over Python lists of floats with a Nelder-Mead simplex.

    This is the unbounded, non-adaptive recursion of scipy's Nelder-Mead
    (reflection 1, expansion 2, contraction and shrink 0.5), with its initial
    simplex (each coordinate of x0 scaled by 1.05, or set to 0.00025 where
    it is 0), its row-by-row centroid, its ``_XATOL``/``_FATOL`` test and its
    ``maxiter``/``maxfev`` accounting, an exhausted budget stopping the search
    even in the middle of a shrink.  Vertices are ordered by (value, index).

    With ``frtol`` the search also stops, at the same test point, once the
    simplex's values spread by at most ``frtol * max(1, |best|)``: a loose
    stop on the objective alone, which ``fit`` uses for its restarts.
    Without it the search is scipy's.
    """
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        v = list(x0)
        v[k] = (1 + 0.05) * v[k] if v[k] != 0 else 0.00025
        sim.append(v)
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return f(x)

    def line(xbar, worst, t):
        # the point xbar + t (xbar - worst), in scipy's operation order
        return [(1 + t) * a - t * b for a, b in zip(xbar, worst)]

    def ordered(sim, fsim):
        # a stable sort: tied values keep their index order on any machine
        order = sorted(range(n + 1), key=fsim.__getitem__)
        return [sim[i] for i in order], [fsim[i] for i in order]

    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _Exhausted:
        pass
    sim, fsim = ordered(sim, fsim)
    nit = 1
    while nfev < maxfev and nit < maxiter:
        best, fbest = sim[0], fsim[0]
        if all(abs(a - b) <= _XATOL for v in sim[1:] for a, b in zip(v, best)) and all(
            abs(fbest - fv) <= _FATOL for fv in fsim[1:]
        ):
            break
        if frtol is not None and fsim[-1] - fbest <= frtol * max(1.0, abs(fbest)):
            break
        try:
            xbar = list(best)
            for v in sim[1:-1]:
                xbar = [a + b for a, b in zip(xbar, v)]
            xbar = [a / n for a in xbar]
            worst = sim[-1]
            xr = line(xbar, worst, 1)
            fxr = evaluate(xr)
            if fxr < fbest:
                xe = line(xbar, worst, 2)
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = line(xbar, worst, 0.5)
                    fxc = evaluate(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = line(xbar, worst, -0.5)
                    fxc = evaluate(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = [a + 0.5 * (b - a) for a, b in zip(best, sim[j])]
                        fsim[j] = evaluate(sim[j])
            nit += 1
        except _Exhausted:
            pass
        sim, fsim = ordered(sim, fsim)
    success = not (nfev >= maxfev or nit >= maxiter)
    return _Search(sim[0], fsim[0], nfev, nit, success, sim)


_worker_counter = None  # a worker_map worker's task counter, set as the worker starts


def _join_counter(counter) -> None:
    global _worker_counter
    _worker_counter = counter


def _claim(func, items: list, counter=None) -> list:
    """Run ``func`` on every task this process claims, as (index, result).

    A process claims the next task number under the lock of ``counter``
    (by default the worker's) and stops at the first one past the tasks.
    """
    counter = _worker_counter if counter is None else counter
    done = []
    while True:
        with counter.get_lock():
            k = counter.value
            if k >= len(items):
                return done
            counter.value += 1
        done.append((k, func(items[k])))


def worker_map(func, tasks, processes: int) -> list:
    """``func`` over ``tasks`` on ``processes`` processes, this one
    included, with the results in task order.

    With ``processes <= 1`` it is ``list(map(func, tasks))``.  Otherwise
    it starts ``processes - 1`` workers with ``spawn`` (numpy has started
    threads in this process, so not ``fork``), and this process and the
    workers each take the next unclaimed task from one shared counter until
    none is left.  This process starts on the first task at once, while
    the workers are still importing.  A task that raises here propagates
    at once; one that raises in a worker propagates once this process has
    run out of tasks.  Either way, and on return, the workers are
    terminated.
    """
    items = list(tasks)
    if processes <= 1:
        return list(map(func, items))
    ctx = multiprocessing.get_context("spawn")
    counter = ctx.Value("q", 0)
    with ctx.Pool(processes - 1, initializer=_join_counter, initargs=(counter,)) as pool:
        jobs = [pool.apply_async(_claim, (func, items)) for _ in range(processes - 1)]
        done = _claim(func, items, counter)
        for job in jobs:
            done += job.get()
    results = [None] * len(items)
    for k, result in done:
        results[k] = result
    return results


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
    with ``_nelder_mead``, the package's own simplex search.  The searches
    are derivative-free; the floor on the filtered mean makes the objective
    only piecewise smooth.  The search orders tied vertex values by vertex
    index, so the fitted bits do not depend on the machine's sort.

    All starting points are drawn first, from one generator of ``rng``: the
    initial point and ``options.n_restarts`` random restarts around it.
    One objective, built once, serves every search.  The restart searches
    run one after another, in restart order, each stopping loosely, once
    the simplex's values agree to 1e-6 relative.  The best finite search is
    picked in restart order, the first of a tie winning.  One strict search
    from a fresh simplex at the winner then polishes it: the winner is that
    simplex's first vertex, so the polish can only improve on it, and it
    confirms that the loose search had not stalled.  ``converged`` is the
    polish's.

    Raises ValueError on fewer than 20 observations, and on non-finite data
    with the offending index.
    """
    check_real("R_init", R_init, least=0)
    y = _observable(obs)
    if y.size < _MIN_OBS:
        raise ValueError(f"need at least {_MIN_OBS} observations, got {y.size}")
    if init is None:
        init = _heuristic_init(y, spec)
    if rng is None:
        rng = RngStream(0)
    x0 = np.log([init.kappa, init.theta, init.sigma, max(R_init, 1e-12)])

    gen = rng.generator()
    starts = [x0]
    starts += [x0 + _PERTURB_SCALE * gen.standard_normal(4) for _ in range(options.n_restarts)]
    objective = _objective(y, spec)
    maxiter = options.maxiter
    best = None
    for x in starts:
        res = _nelder_mead(objective, x.tolist(), maxiter, 4 * maxiter, _LOOSE_FRTOL)
        if res.fun < _PENALTY and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise EstimationError("no optimizer run produced a finite quasi log-likelihood")
    best = _nelder_mead(objective, best.x, maxiter, 4 * maxiter)

    kappa, theta, sigma, R = np.exp(best.x)
    params = FellerModel(kappa=kappa, theta=theta, sigma=sigma, lambda0=theta)
    diameter = max(abs(a - b) for v in best.simplex for a, b in zip(v, best.x))
    converged = best.success or diameter < _XATOL

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
        filter_output=filt,
    )


def _heuristic_init(y: np.ndarray, spec: StateSpaceSpec) -> FellerModel:
    """Rough starting point from the sample mean of the observable."""
    ybar = float(np.mean(y))
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
) -> StdErrorReport:
    """Standard errors from the inverse negative Hessian of the quasi
    log-likelihood at the optimum.

    The Hessian is computed by central differences in log-parameter space,
    with step 1e-4 * max(1, |x|) per coordinate, and mapped to the natural
    scale by the delta method.  A Hessian that is not positive definite is
    flagged and handled with a pseudo-inverse rather than treated as fatal,
    and a parameter left without a finite positive variance gets SE None.
    Under the pseudo-inverse a log-variance at or below n * eps times the
    largest one is rounding, not a variance, and counts as not positive.
    """
    y = _observable(obs)
    x = np.log([params_hat.kappa, params_hat.theta, params_hat.sigma, max(R_hat, 1e-300)])
    n = x.size
    h = _REL_STEP * np.maximum(1.0, np.abs(x))
    objective = _objective(y, spec)

    def f(xv):
        v = objective(xv.tolist())
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
        tiny = 0.0
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(A)
        # a direction the pseudo-inverse cut off keeps a rounding-level variance
        tiny = max(n * np.finfo(float).eps * np.diag(cov).max(), 0.0)
        warning = True
    var_log = np.diag(cov)
    known = np.isfinite(var_log) & (var_log > tiny)
    nat = np.exp(x) * np.sqrt(np.where(known, var_log, 0.0))  # delta method: d(exp x)/dx = exp x
    se = {p: v if ok else None for p, v, ok in zip(PARAM_NAMES, nat.tolist(), known.tolist())}
    return StdErrorReport(**se, hessian_warning=warning or not known.all())


def _chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square law with integer ``df`` at ``x``.

    With h = x/2 this is Q(df/2, h), a finite sum (DLMF §8.4; Abramowitz &
    Stegun §26.4).  Let t_0 = 1 and a0 = 0 for even df, t_0 =
    h^{1/2}/Gamma(3/2) and a0 = 1/2 for odd df, and t_k = t_{k-1} h/(k + a0).
    With n = df // 2, Q = erfc(sqrt h)·[df odd] + e^{-h} sum_{k<n} t_k, and
    1 - Q = e^{-h} sum_{k>=n} t_k.  For h >= n + a0 the first sum is taken,
    else the second, so p-values near 1 do not carry the rounding of a sum
    near 1.  Each sum is its largest term e^{-h} t_top (t_{n-1}, resp. t_n)
    times an ``fsum`` of ratios to it.  That term is a running product
    times ``exp(-h)`` while e^{-h} is a normal float, and an ``fsum`` of
    logs beyond, so nothing under- or overflows at any df.
    """
    if math.isnan(x):
        return math.nan
    if x == math.inf:
        return 0.0
    h = 0.5 * x
    n, odd = divmod(df, 2)
    a0 = 0.5 * odd
    tail = math.erfc(math.sqrt(h)) if odd else 0.0
    if n == 0:
        return tail
    first = 2.0 / math.sqrt(math.pi) * math.sqrt(h) if odd else 1.0
    upper = h >= n + a0
    top = n - 1 if upper else n
    if h < _EXP_NORMAL:
        lead = first
        for k in range(1, top + 1):
            lead *= h / (k + a0)
        lead *= math.exp(-h)
    else:
        logs = [math.log(first), -h] + [math.log(h / (k + a0)) for k in range(1, top + 1)]
        lead = math.exp(math.fsum(logs))
    ratios = [1.0]
    if upper:
        for k in range(top, 0, -1):
            ratios.append(ratios[-1] * ((k + a0) / h))
        return tail + lead * math.fsum(ratios)
    k = top
    while ratios[-1] > _NEGLIGIBLE:
        k += 1
        ratios.append(ratios[-1] * (h / (k + a0)))
    return 1.0 - lead * math.fsum(ratios)


def ljung_box_pvalue(statistic: float, lag: int) -> float:
    """Survival probability of the chi-square(lag) reference at the statistic.

    ``lag`` is a whole number; an integral float such as 5.0 is accepted.
    A NaN statistic gives NaN.
    """
    if not float(lag).is_integer():
        raise ValueError(f"lag must be a whole number, got {lag!r}")
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if statistic < 0:
        raise ValueError(f"statistic must be >= 0, got {statistic}")
    return _chi2_sf(float(statistic), int(lag))


def ljung_box(residuals, lags: Sequence[int] = (5, 10, 15)) -> LjungBoxReport:
    """Portmanteau test: Q(L) = T(T+2) sum_{k<=L} rho_k^2/(T-k), chi-square(L).

    The sums of products behind each rho_k are correctly rounded (``fsum``).
    """
    r = np.asarray(residuals, dtype=float)
    T = r.size
    lags = tuple(int(l) for l in lags)
    if not lags or min(lags) < 1:
        raise ValueError("lags must be positive integers")
    if T <= max(lags):
        raise ValueError(f"need more residuals ({T}) than the largest lag ({max(lags)})")
    x = r - r.mean()
    denom = math.fsum((x * x).tolist())
    if denom == 0.0:
        raise ValueError("constant residual series: autocorrelation undefined")
    max_lag = max(lags)
    rho = np.array(
        [math.fsum((x[k:] * x[:-k]).tolist()) / denom for k in range(1, max_lag + 1)]
    )
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
    check_real("R", R, least=0)
    check_size("n_obs", n_obs)
    gen = rng.generator()
    if start == "stationary":
        g = stationary_intensity(model)
        lam = float(g.sample(gen))
    elif start == "fixed":
        lam = model.lambda0
    else:
        raise ValueError(f"start must be 'stationary' or 'fixed', got {start!r}")
    coeffs = _filter_coeffs(model.kappa, model.theta, model.sigma, R, spec)
    lams = _cir_chain(model, lam, spec.delta, n_obs, gen)
    noise = gen.standard_normal(n_obs)
    return coeffs.d + coeffs.c * lams + R * noise


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregates of repeated simulate-and-fit experiments."""

    true_values: dict
    estimates: np.ndarray  # shape (n_ok, 4), columns in PARAM_NAMES order
    converged: np.ndarray
    lb_passed: np.ndarray  # Ljung-Box clean residuals per replication
    n_requested: int
    n_failed: int
    failures: tuple

    def mean_estimates(self) -> np.ndarray:
        return self.estimates.mean(axis=0)

    def mqe(self) -> np.ndarray:
        truths = np.array([self.true_values[p] for p in PARAM_NAMES])
        return ((self.estimates - truths) ** 2).mean(axis=0)

    def std(self) -> np.ndarray:
        return self.estimates.std(axis=0, ddof=1)

    def summary_rows(self) -> list:
        """One dict per parameter; ``std_dev`` is None below two replications."""
        means, mqes = self.mean_estimates(), self.mqe()
        stds = self.std().tolist() if len(self.estimates) > 1 else [None] * len(PARAM_NAMES)
        return [
            {
                "parameter": p,
                "true_value": self.true_values[p],
                "mean_estimate": float(means[i]),
                "mqe": float(mqes[i]),
                "std_dev": stds[i],
            }
            for i, p in enumerate(PARAM_NAMES)
        ]

    def histogram(self, param: str, bins: int = 20):
        i = PARAM_NAMES.index(param)
        counts, edges = np.histogram(self.estimates[:, i], bins=bins)
        return edges, counts


def _replicate_one(args) -> tuple:
    (model, R, spec, series_len, rep, rng) = args
    stream = rng.spawn(rep)
    y = simulate_observations(model, R, spec, series_len, stream.spawn(0))
    try:
        result = fit(y, spec, init=model, R_init=R, rng=stream.spawn(1))
    except (EstimationError, ValueError, ArithmeticError) as exc:
        return None, str(exc)
    return (result.estimates, result.converged, result.diagnostics.passed()), None


def replication_study(
    true_params: FellerModel,
    n_reps: int,
    series_len: int,
    rng: RngStream,
    R: float = 1e-3,
    spec: StateSpaceSpec = StateSpaceSpec(),
    jobs: int = 1,
) -> ReplicationSummary:
    """Simulate ``n_reps`` observable series from the model and refit each.

    Replication ``rep`` uses the child stream ``rng.spawn(rep)``, and its fit
    starts from the true model with ``R_init = R``.  ``worker_map`` runs
    the replications on ``min(jobs, n_reps)`` processes, this one included,
    each taking the next replication not yet started, and returns them in
    replication order, so the summary is bit-identical for any ``jobs``.
    Each fit runs its restarts serially.  Individual replication failures
    are recorded and excluded; a ``series_len`` below 20 raises first.
    """
    check_size("n_reps", n_reps)
    if is_real(series_len) and series_len < _MIN_OBS:
        raise ValueError(f"series_len must be >= {_MIN_OBS} (the fit's minimum), got {series_len}")
    check_size("series_len", series_len, least=_MIN_OBS)
    check_size("jobs", jobs)
    payloads = [(true_params, R, spec, series_len, rep, rng) for rep in range(n_reps)]
    raw = worker_map(_replicate_one, payloads, min(jobs, n_reps))

    failures = tuple((rep, err) for rep, (ok, err) in enumerate(raw) if ok is None)
    done = [ok for ok, _ in raw if ok is not None]
    if not done:
        raise EstimationError("every replication failed")
    rows, conv, lb = zip(*done)
    return ReplicationSummary(
        true_values=dict(zip(PARAM_NAMES, _param_values(true_params, R))),
        estimates=np.asarray(rows, dtype=float),
        converged=np.asarray(conv, dtype=bool),
        lb_passed=np.asarray(lb, dtype=bool),
        n_requested=n_reps,
        n_failed=len(failures),
        failures=failures,
    )
