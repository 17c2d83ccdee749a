"""Affine intensity models and exponential-affine hazard transforms.

The central object is the transform

    L(mu) = E[ exp(-mu * integral_t^T lambda_u du) ] = exp(alpha - beta . x)

for an intensity lambda_u = rho0 + rho1 . X_u driven by an affine diffusion
dX = K(Theta - X) dt + Sigma sqrt(diag(a + b X)) dW.  ``alpha`` and ``beta``
solve a Riccati system; the square-root (one-factor) case has a closed form.
Both entry points accept ``mu`` as a float or as a :class:`~coxaffine.jets.Jet`,
so derivatives of L in mu (which generate count probabilities and moments)
come out of the same code path as plain evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Union

import numpy as np

from . import jets
from ._inputs import check_real, check_size, frozen, is_real
from .jets import Jet

__all__ = [
    "FellerModel",
    "AffineModel",
    "TransformCoeffs",
    "AdmissibilityReport",
    "ExplosionError",
    "cir_transform_closed_form",
    "solve_transform_ode",
    "laplace_hazard",
    "check_admissibility",
    "load_model",
    "save_model",
    "model_from_dict",
    "model_to_dict",
]

Scalar = Union[float, Jet]


class ExplosionError(RuntimeError):
    """Riccati solution blew up before the requested horizon."""

    def __init__(self, time: float, horizon: float):
        self.time = time
        self.horizon = horizon
        super().__init__(
            f"transform coefficients exploded at t={time:.6g} "
            f"before reaching horizon {horizon:.6g}"
        )


@dataclass(frozen=True)
class FellerModel:
    """Square-root (one-factor) intensity: d lambda = kappa(theta - lambda)dt + sigma sqrt(lambda) dW.

    Rates are per unit of internal time (minutes throughout this package).
    ``feller_condition`` (2 kappa theta >= sigma^2, boundary unattainable) is
    exposed for inspection but deliberately not enforced.
    """

    kappa: float
    theta: float
    sigma: float
    lambda0: float = 0.0

    def __post_init__(self):
        for name in ("kappa", "theta", "sigma"):
            check_real(name, getattr(self, name), above=0)
        check_real("lambda0", self.lambda0, least=0)
        for f in fields(self):  # a numpy float32 would carry its precision into the filter
            object.__setattr__(self, f.name, float(getattr(self, f.name)))

    @property
    def feller_condition(self) -> bool:
        return 2.0 * self.kappa * self.theta >= self.sigma**2

    def stationary_mean(self) -> float:
        return self.theta

    def stationary_var(self) -> float:
        return self.sigma**2 * self.theta / (2.0 * self.kappa)

    def as_affine(self) -> "AffineModel":
        """One-dimensional affine embedding (a=0, b=1, rho1=1)."""
        return AffineModel(
            dim=1,
            kappa=[[self.kappa]],
            theta=[self.theta],
            sigma_mat=[[self.sigma]],
            a=[0.0],
            b=[[1.0]],
            rho0=0.0,
            rho1=[1.0],
        )


@dataclass(frozen=True)
class AffineModel:
    """d-dimensional affine diffusion with affine intensity loading.

    dX = kappa (theta - X) dt + sigma_mat sqrt(diag(a + b X)) dW and
    lambda(x) = rho0 + rho1 . x.  Row i of ``b`` is the volatility loading
    b_i of factor i; the state domain is {x : a_i + b_i . x >= 0 for all i}.
    """

    dim: int
    kappa: np.ndarray
    theta: np.ndarray
    sigma_mat: np.ndarray
    a: np.ndarray
    b: np.ndarray
    rho0: float = 0.0
    rho1: np.ndarray = None

    def __post_init__(self):
        check_size("dim", self.dim)
        d = int(self.dim)
        object.__setattr__(self, "dim", d)
        if self.rho1 is None:
            object.__setattr__(self, "rho1", np.ones(d))
        check_real("rho0", self.rho0)
        object.__setattr__(self, "rho0", float(self.rho0))
        shapes = {"kappa": (d, d), "theta": (d,), "sigma_mat": (d, d),
                  "a": (d,), "b": (d, d), "rho1": (d,)}
        for name, want in shapes.items():
            arr = frozen(name, getattr(self, name), float)
            object.__setattr__(self, name, arr)
            if arr.shape != want:
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected {want} for dim={d}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    def vol_sq(self, x: np.ndarray) -> np.ndarray:
        """Squared volatility factors a_i + b_i . x at state x."""
        return self.a + self.b @ np.asarray(x, dtype=float)

    def intensity(self, x: np.ndarray) -> float:
        return self.rho0 + float(self.rho1 @ np.asarray(x, dtype=float))


def _finite_state(x0, d: int) -> np.ndarray:
    """The start state ``x0`` of a d-factor model as a vector of d finite
    floats, else ValueError; one factor's may be given as a number."""
    x = frozen("x0", x0, float)
    if x.ndim > 1 or x.size != d or not np.isfinite(x).all():
        raise ValueError(f"x0 must be a vector of {d} finite numbers, got {x.tolist()}")
    return x.reshape(d)


@dataclass(frozen=True)
class TransformCoeffs:
    """Coefficients of L(mu) = exp(alpha - beta . x) over a horizon.

    A float mu gives floats and a Jet mu gives Jets, by the same arithmetic:
    the order-0 coefficient of a jet run is the float run, bit for bit, in
    every dimension.  ``beta`` is one such value for a one-factor model and a
    tuple of d values for a d-factor model.  Both vanish at horizon 0, so
    L = 1.
    """

    alpha: Scalar
    beta: object

    def laplace(self, x0) -> Scalar:
        """L(mu) at initial state x0: one finite number per factor, given as
        a number or a length-1 sequence for one factor, else ValueError.

        No sign is required: the Gaussian factors of an ``AffineModel`` may
        be negative.  ``laplace_hazard`` holds a Feller state to >= 0.
        """
        betas = self.beta if isinstance(self.beta, tuple) else (self.beta,)
        acc = self.alpha
        for bj, xj in zip(betas, _finite_state(x0, len(betas))):
            acc = acc - bj * float(xj)
        return jets.exp(acc)


_LONG_HORIZON = 2.0**-26  # alpha's long-horizon form holds once e^{-g h/2} is below this


def cir_transform_closed_form(model: FellerModel, mu: Scalar, horizon: float) -> TransformCoeffs:
    """Closed-form (alpha, beta) for the square-root intensity.

    Evaluated in a cancellation-free arrangement: with
    gamma = sqrt(kappa^2 + 2 sigma^2 mu) and g = gamma - kappa computed as
    2 sigma^2 mu / (gamma + kappa), all differences go through expm1/log1p.
    This keeps full precision in sigma -> 0 and horizon -> 0, and it is the
    single code path for float and jet arguments alike.  The log1p argument
    tends to -1 as the horizon grows (1 + resid/denom = 2 gamma e^{-g h/2} /
    denom), so once e^{-g h/2} falls below 2^-26 alpha is taken as
    log(2 gamma/denom) - g h/2 instead, which holds at every horizon and
    has no cancellation there.  Just before that switch the log1p form
    carries about 1e-10 relative error in alpha.
    """
    check_real("horizon", horizon, least=0)
    check_real("mu", mu.value if isinstance(mu, Jet) else mu, least=0)
    kappa, theta, sigma = model.kappa, model.theta, model.sigma

    two_s2_mu = (2.0 * sigma * sigma) * mu
    gamma = jets.sqrt(kappa * kappa + two_s2_mu)
    g = two_s2_mu / (gamma + kappa)  # gamma - kappa without cancellation
    emg = jets.exp(-gamma * horizon)
    denom = (gamma + kappa) + g * emg
    beta = (-2.0 * mu) * jets.expm1(-gamma * horizon) / denom
    eh = jets.exp(-0.5 * g * horizon)
    if (eh.value if isinstance(eh, Jet) else eh) < _LONG_HORIZON:
        log_ratio = jets.log((2.0 * gamma) / denom) - 0.5 * g * horizon
    else:
        # numerator - denominator, arranged so every term is O(g) or O(kappa*dt)
        resid = (2.0 * kappa) * jets.expm1(-0.5 * g * horizon) + g * (2.0 * eh - 1.0 - emg)
        log_ratio = jets.log1p(resid / denom)
    alpha = (2.0 * kappa * theta / (sigma * sigma)) * log_ratio
    return TransformCoeffs(alpha=alpha, beta=beta)


def _closed_form_tangents(kappa, theta, sigma, horizon) -> tuple:
    """alpha and beta of ``cir_transform_closed_form`` at mu = 1 for float
    rates, with the closed form's bits, and their derivatives in (log kappa,
    log theta, log sigma), as (alpha, beta, d alpha, d beta).

    Each line of the closed form is differentiated by hand, on both sides of
    its long-horizon switch ``_LONG_HORIZON``; ``_k`` and ``_s`` name a
    line's derivatives in kappa and sigma.  alpha is linear in theta and
    beta does not depend on it.  The QML gradient's coefficient tangents
    use this; an edit to the closed form's lines needs its twin here.
    """
    two_s2 = 2.0 * sigma * sigma
    gamma = math.sqrt(kappa * kappa + two_s2)
    gamma_k, gamma_s = kappa / gamma, 2.0 * sigma / gamma
    gpk = gamma + kappa
    g = two_s2 / gpk
    g_k, g_s = -g * (gamma_k + 1.0) / gpk, (4.0 * sigma - g * gamma_s) / gpk
    emg = math.exp(-gamma * horizon)
    emg_k, emg_s = -horizon * emg * gamma_k, -horizon * emg * gamma_s
    denom = gpk + g * emg
    denom_k = gamma_k + 1.0 + g_k * emg + g * emg_k
    denom_s = gamma_s + g_s * emg + g * emg_s
    beta = -2.0 * math.expm1(-gamma * horizon) / denom
    beta_k = -(2.0 * emg_k + beta * denom_k) / denom
    beta_s = -(2.0 * emg_s + beta * denom_s) / denom
    eh = math.exp(-0.5 * g * horizon)
    eh_k, eh_s = -0.5 * horizon * eh * g_k, -0.5 * horizon * eh * g_s
    if eh < _LONG_HORIZON:
        log_ratio = math.log((2.0 * gamma) / denom) - 0.5 * g * horizon
        log_ratio_k = gamma_k / gamma - denom_k / denom - 0.5 * horizon * g_k
        log_ratio_s = gamma_s / gamma - denom_s / denom - 0.5 * horizon * g_s
    else:
        ehm1 = math.expm1(-0.5 * g * horizon)
        tail = 2.0 * eh - 1.0 - emg
        resid = (2.0 * kappa) * ehm1 + g * tail
        resid_k = 2.0 * ehm1 + 2.0 * kappa * eh_k + g_k * tail + g * (2.0 * eh_k - emg_k)
        resid_s = 2.0 * kappa * eh_s + g_s * tail + g * (2.0 * eh_s - emg_s)
        ratio = resid / denom
        log_ratio = math.log1p(ratio)
        log_ratio_k = (resid_k - ratio * denom_k) / (denom + resid)
        log_ratio_s = (resid_s - ratio * denom_s) / (denom + resid)
    scale = 2.0 * kappa * theta / (sigma * sigma)
    alpha = scale * log_ratio
    d_alpha = (
        alpha + scale * kappa * log_ratio_k,
        alpha,
        -2.0 * alpha + scale * sigma * log_ratio_s,
    )
    return alpha, beta, d_alpha, (kappa * beta_k, 0.0, sigma * beta_s)


# Dormand-Prince RK45 tableau (same pair as the classical adaptive 4(5) solver)
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

_EXPLOSION_LIMIT = 1e8


def _combine(weights, terms):
    """sum_j weights[j] * terms[j], accumulated elementwise in index order.

    A weight is a number or, for the matrix product M^T X, the column
    M[j][:, None].  Unlike a BLAS product, each output element is rounded
    the same way however many columns ride along, so a jet run's order-0
    column repeats the float run's arithmetic exactly.
    """
    acc = weights[0] * terms[0]
    for w, t in zip(weights[1:], terms[1:]):
        acc = acc + w * t
    return acc


def _integrate_riccati(rhs, y0: np.ndarray, horizon: float, tol: float):
    """Adaptive embedded RK4(5) with error control on the first and last columns.

    The first column is the order-0 solution and the last the pacer (see
    ``solve_transform_ode``), so the accepted step sequence does not depend
    on the jet order carried alongside.  With ``_combine`` summing the stages
    and the right-hand side, every column's arithmetic is the same in any
    run, so a jet run's order-0 column equals the float run bit for bit.  Jet
    coefficients of the smooth Riccati flow ride the same steps unchecked;
    the test suite compares them with the closed form at short horizons,
    and their error grows with the horizon.
    """
    t = 0.0
    y = y0.copy()
    h = min(horizon, 0.1)
    k = [None] * 7
    while t < horizon:
        h = min(h, horizon - t)
        k[0] = rhs(y)
        for i in range(1, 7):
            yi = y + h * _combine(_DP_A[i], k[:i])
            k[i] = rhs(yi)
        y5 = y + h * _combine(_DP_B5, k)
        y4 = y + h * _combine(_DP_B4, k)
        e5 = y5[:, [0, -1]]
        scale = tol * (1.0 + np.abs(y[:, [0, -1]]))
        err = np.max(np.abs(e5 - y4[:, [0, -1]]) / scale)
        if not np.isfinite(err):
            raise ExplosionError(t, horizon)
        if err <= 1.0:
            t += h
            y = y5
            if np.max(np.abs(e5)) > _EXPLOSION_LIMIT:
                raise ExplosionError(t, horizon)
        factor = 2.0 if err == 0.0 else min(2.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor
        if h < 1e-14 * max(1.0, horizon):
            raise ExplosionError(t, horizon)
    return y


def solve_transform_ode(
    model: Union[AffineModel, FellerModel],
    mu: Scalar,
    horizon: float,
    tol: float = 1e-10,
) -> TransformCoeffs:
    """Numerical (alpha, beta) for a general affine model.

    Integrates, from alpha(0) = 0 and beta(0) = 0,

        beta' = mu rho1 - kappa^T beta - 1/2 sum_i (Sigma^T beta)_i^2 b_i
        alpha' = -mu rho0 - (kappa theta) . beta + 1/2 sum_i (Sigma^T beta)_i^2 a_i

    which makes L = exp(alpha - beta . x) the Laplace transform of the
    integrated intensity.  A float mu is carried as an order-0 jet: each
    unknown is a row of Taylor coefficients, and every matrix product of
    the right-hand side is summed by ``_combine``, so a jet run's order-0
    coefficients equal the float run bit for bit in every dimension.  The
    rows come back as floats for a float mu and as Jets of mu's order for a
    Jet mu.

    Step-size control must not depend on the jet order, yet the order-0
    solution alone can be degenerate (it vanishes identically when the
    expansion point is mu = 0, starving the controller of any error signal).
    The integrator therefore carries a pacer column, the same scalar system
    at a fixed reference mu, identical in every run, and controls error on
    the order-0 and pacer columns together.
    """
    check_real("horizon", horizon, least=0)
    check_real("tol", tol, above=0)
    jet = isinstance(mu, Jet)
    check_real("mu", mu.value if jet else mu)
    if isinstance(model, FellerModel):
        model = model.as_affine()
    d = model.dim

    mu_row = mu.coeffs if jet else np.array([float(mu)])

    K1 = mu_row.size
    # column weights: _combine(M[:, :, None], X) is the matrix product M^T X
    kT, sT, bT = (m[:, :, None] for m in (model.kappa, model.sigma_mat, model.b))
    ktheta = _combine(model.theta, model.kappa.T)  # kappa theta
    a = model.a
    rho1 = model.rho1
    rho0 = model.rho0

    mu_ref = max(1.0, abs(mu_row[0]))
    mu_ext = np.append(mu_row, mu_ref)

    def rhs(y: np.ndarray) -> np.ndarray:
        # y rows 0..d-1 are jet coefficients of beta_i, row d is alpha;
        # the final column is the pacer (scalar system at mu_ref)
        B = y[:d]
        sb = _combine(sT, B)
        # jet square of each row: full convolution truncated to order K;
        # the pacer column squares on its own
        q = np.empty_like(sb)
        for i in range(d):
            q[i, :K1] = np.convolve(sb[i, :K1], sb[i, :K1])[:K1]
            q[i, K1] = sb[i, K1] * sb[i, K1]
        dB = np.outer(rho1, mu_ext) - _combine(kT, B) - 0.5 * _combine(bT, q)
        dalpha = -rho0 * mu_ext - _combine(ktheta, B) + 0.5 * _combine(a, q)
        return np.vstack([dB, dalpha[None, :]])

    yT = np.zeros((d + 1, K1 + 1))
    if horizon > 0:
        yT = _integrate_riccati(rhs, yT, float(horizon), tol)

    value = Jet if jet else (lambda row: float(row[0]))
    rows = [value(row[:K1]) for row in yT]  # the pacer column is dropped
    beta = rows[0] if d == 1 else tuple(rows[:d])
    return TransformCoeffs(alpha=rows[d], beta=beta)


def laplace_hazard(
    model: Union[FellerModel, AffineModel],
    mu: Scalar,
    horizon: float,
    x0=None,
) -> Scalar:
    """L(mu) = E[exp(-mu * integrated intensity)] over the horizon.

    Dispatches to the closed form for one-factor square-root models and to
    the Riccati integrator otherwise.  ``x0`` defaults to ``model.lambda0``
    (square-root case) or to the long-run mean ``theta`` (general case).  A
    given ``x0`` must be a finite number >= 0 for a square-root model and a
    vector of ``dim`` finite numbers otherwise, else ValueError.
    """
    if isinstance(model, FellerModel):
        if x0 is not None:
            check_real("x0", x0, least=0)
        tc = cir_transform_closed_form(model, mu, horizon)
        start = model.lambda0
    else:
        if x0 is not None:
            x0 = _finite_state(x0, model.dim)  # checked before the Riccati solve
        tc = solve_transform_ode(model, mu, horizon)
        start = model.theta
    return tc.laplace(start if x0 is None else x0)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

_GAMMA_THRESHOLD = 6.0


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the volatility-positivity and nonnegativity checks."""

    condition_a_ok: tuple
    condition_b_gamma: float
    condition_b_ok: bool
    domain_description: tuple
    messages: tuple
    tested_points: tuple

    @property
    def ok(self) -> bool:
        return all(self.condition_a_ok) and self.condition_b_ok


def _gaussian_factor_indices(model: AffineModel) -> list:
    """Factors whose diffusion does not depend on the state."""
    out = []
    for i in range(model.dim):
        cols = np.nonzero(model.sigma_mat[i])[0]
        if all(not model.b[j].any() for j in cols):
            out.append(i)
    return out


def check_admissibility(model: AffineModel) -> AdmissibilityReport:
    """Check drift-domination at volatility boundaries and state positivity.

    Part 1 requires, at every tested point x with a_i + b_i . x = 0, that
    b_i^T kappa (theta - x) > 1/2 b_i^T sigma_mat sigma_mat^T b_i, so the
    drift pushes the squared volatility back into the positive region.
    Part 2 requires proportional volatility factors wherever they are
    coupled through sigma_mat.  The tested point of each boundary hyperplane
    is the projection of theta onto it.

    Factors with constant volatility are Gaussian; their stationary law
    (mean from theta, covariance from the Lyapunov equation) gives the
    nonnegativity margin gamma = mean/sd, reported together with the
    Gaussian lower-tail mass it leaves below zero.  A margin of at least 6
    passes: it is treated as numerically certain (Phi(6) = 1 - 1e-9).
    """
    if isinstance(model, FellerModel):
        model = model.as_affine()
    d = model.dim
    sst = model.sigma_mat @ model.sigma_mat.T
    a_ok = []
    messages = []
    domain = []
    tested = []

    for i in range(d):
        b_i = model.b[i]
        domain.append(f"a[{i}] + b[{i}].x >= 0")
        if not b_i.any():
            a_ok.append(True)
            messages.append(f"factor {i}: constant volatility, no boundary to check")
            continue
        # part 1 at the projection of theta onto {a_i + b_i.x = 0}
        nrm = float(b_i @ b_i)
        x = model.theta - ((model.a[i] + b_i @ model.theta) / nrm) * b_i
        rhs_bound = 0.5 * float(b_i @ sst @ b_i)
        lhs = float(b_i @ (model.kappa @ (model.theta - x)))
        tested.append((i, tuple(np.round(x, 12))))
        part1 = lhs > rhs_bound
        if not part1:
            messages.append(
                f"factor {i}: drift condition fails at boundary point "
                f"{np.round(x, 6).tolist()} ({lhs:.6g} <= {rhs_bound:.6g})"
            )
        # part 2: coupled factors must have proportional volatility
        part2 = True
        row_i = np.concatenate([[model.a[i]], b_i])
        bsig = b_i @ model.sigma_mat
        for j in range(d):
            if j == i or bsig[j] == 0.0:
                continue
            row_j = np.concatenate([[model.a[j]], model.b[j]])
            # sigma_i = k sigma_j with k > 0
            nz = np.nonzero(row_j)[0]
            if nz.size == 0:
                ratio_ok = not row_i.any()
            else:
                k = row_i[nz[0]] / row_j[nz[0]]
                ratio_ok = k > 0 and np.allclose(row_i, k * row_j, rtol=1e-12, atol=1e-12)
            if not ratio_ok:
                part2 = False
                messages.append(
                    f"factor {i}: coupled to factor {j} through sigma_mat but "
                    "volatility factors are not positively proportional"
                )
        ok = part1 and part2
        a_ok.append(ok)
        if ok:
            messages.append(f"factor {i}: boundary drift and proportionality hold")

    # Gaussian-factor nonnegativity margin
    gauss = _gaussian_factor_indices(model)
    gauss = [i for i in gauss if model.rho1[i] != 0.0]
    b_gamma = math.inf
    b_ok = True
    if gauss:
        sbar = np.clip(model.vol_sq(model.theta), 0.0, None)
        diff = model.sigma_mat @ np.diag(sbar) @ model.sigma_mat.T
        # the Lyapunov equation kappa C + C kappa^T = diff, as one d^2 x d^2 system
        eye = np.eye(d)
        try:
            cov = np.linalg.solve(np.kron(model.kappa, eye) + np.kron(eye, model.kappa),
                                  diff.ravel()).reshape(d, d)
        except np.linalg.LinAlgError:
            cov = None
        for i in gauss:
            mu_d = float(model.theta[i])
            if mu_d <= 0:
                b_ok = False
                messages.append(f"factor {i}: stationary mean {mu_d:.6g} not positive")
                continue
            if cov is None or cov[i, i] <= 0:
                b_ok = False
                messages.append(f"factor {i}: stationary variance unavailable")
                continue
            sd = math.sqrt(cov[i, i])
            gamma = mu_d / sd
            b_gamma = min(b_gamma, gamma)
            below = 0.5 * math.erfc(gamma / math.sqrt(2.0))
            if gamma >= _GAMMA_THRESHOLD:
                messages.append(
                    f"factor {i}: Gaussian margin gamma={gamma:.3f} "
                    f"(mass below zero {below:.3g})"
                )
            else:
                b_ok = False
                messages.append(
                    f"factor {i}: Gaussian margin gamma={gamma:.3f} below "
                    f"threshold {_GAMMA_THRESHOLD} (mass below zero {below:.3g})"
                )
    return AdmissibilityReport(
        condition_a_ok=tuple(a_ok),
        condition_b_gamma=b_gamma,
        condition_b_ok=b_ok,
        domain_description=tuple(domain),
        messages=tuple(messages),
        tested_points=tuple(tested),
    )


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------


_KINDS = {"feller": FellerModel, "affine": AffineModel}


def model_to_dict(model: Union[FellerModel, AffineModel]) -> dict:
    """The model-file form: ``kind``, then every field in declaration order,
    arrays as nested lists."""
    for kind, cls in _KINDS.items():
        if isinstance(model, cls):
            doc = {"kind": kind}
            for f in fields(model):
                value = getattr(model, f.name)
                doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
            return doc
    raise TypeError(f"not a model: {type(model).__name__}")


def _model_value(key: str, value, kind: str):
    """A model-file value for a field annotated ``kind``: a JSON number, whole
    for ``dim``, or nested lists of numbers for an array field."""
    if kind == "np.ndarray" and isinstance(value, list):
        return [_model_value(key, v, kind) for v in value]
    whole = kind == "int"
    if not is_real(value) or (whole and value % 1 != 0):
        what = "a whole number" if whole else "a number"
        raise ValueError(f"model file: {key} must be {what}, got {value!r}")
    return int(value) if whole else float(value)


def model_from_dict(doc: dict):
    """The model that ``doc``, a model-file object, describes.  A field with a
    default may be left out; any other missing key, or a value that is not
    a number, raises ValueError naming its key."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    cls = _KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown model kind {kind!r} (expected 'feller' or 'affine')")
    args = {}
    for f in fields(cls):
        if f.name in doc:
            args[f.name] = _model_value(f.name, doc[f.name], f.type)
        elif f.default is MISSING:
            raise ValueError(f"model file: missing key {f.name!r}")
    return cls(**args)


def save_model(model, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))
