"""Count distributions, moments, stationary laws and the convergence rate.

Conditional on the integrated intensity Lambda, counts are Poisson(Lambda),
so every count quantity is a functional of the hazard transform L(mu):
probabilities come from derivatives of L at mu = 1, moments from derivatives
at mu = 0.  Derivatives are computed by jet evaluation of the transform, not
finite differences; coefficient magnitudes grow factorially and differencing
loses all digits past k of about 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from ._inputs import check_real, check_size
from .affine_core import AffineModel, FellerModel, laplace_hazard
from .jets import Jet

__all__ = [
    "CountPmf",
    "GammaLaw",
    "NegBinLaw",
    "PrecisionError",
    "prob_no_arrival",
    "pmf",
    "hazard_moments",
    "mean_count",
    "var_count",
    "stationary_intensity",
    "stationary_count",
    "convergence_rate",
]

Model = Union[FellerModel, AffineModel]


class PrecisionError(ArithmeticError):
    """Jet evaluation lost enough precision to produce negative or non-finite
    probabilities."""


@dataclass(frozen=True)
class CountPmf:
    """Probabilities p_k, k = 0..k_max, over a window, plus a tail bound.

    ``tail_bound`` is an upper bound on the probability mass beyond k_max,
    so probs together with the tail always account for total mass 1 up to
    numerical tolerance.
    """

    probs: np.ndarray
    horizon: float
    tail_bound: float

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a nonempty 1-d array")
        ok = np.isfinite(p) & (p >= -1e-10)
        if not ok.all():
            i = int(np.argmin(ok))
            what = "negative beyond roundoff" if np.isfinite(p[i]) else "not finite"
            raise PrecisionError(f"pmf coefficient p_{i} = {p[i]:.3e} is {what}; "
                                 "reduce k_max or the horizon")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        total = float(p.sum())
        if total > 1.0 + 1e-12:
            raise PrecisionError(f"pmf mass {total} exceeds 1 beyond tolerance")

    @property
    def k_max(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "probs": self.probs.tolist(),
            "tail_bound": self.tail_bound,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CountPmf":
        return cls(
            probs=np.asarray(doc["probs"], dtype=float),
            horizon=float(doc["horizon"]),
            tail_bound=float(doc["tail_bound"]),
        )


def prob_no_arrival(model: Model, horizon: float, x0=None) -> float:
    """P(no arrivals in the window) = L(1)."""
    return float(laplace_hazard(model, 1.0, horizon, x0=x0))


def pmf(model: Model, horizon: float, k_max: int = 50, x0=None) -> CountPmf:
    """Count probabilities p_k = ((-1)^k / k!) d^k L / d mu^k at mu = 1.

    One jet evaluation of order k_max at expansion point 1 produces all the
    derivatives at once.  ``k_max`` is an integer >= 0, numpy's included,
    and not a bool.
    """
    check_size("k_max", k_max, least=0)
    mu = Jet.variable(1.0, k_max)
    L = laplace_hazard(model, mu, horizon, x0=x0)
    signs = np.where(np.arange(k_max + 1) % 2 == 0, 1.0, -1.0)
    probs = signs * L.coeffs
    total = float(probs.sum())
    return CountPmf(probs=probs, horizon=float(horizon), tail_bound=max(0.0, 1.0 - total))


def hazard_moments(model: Model, t: float, x0=None) -> tuple:
    """(E[Lambda], Var(Lambda)) from the order-2 jet of L at mu = 0."""
    check_real("t", t, least=0)
    mu = Jet.variable(0.0, 2)
    L = laplace_hazard(model, mu, t, x0=x0)
    c1, c2 = float(L.coeffs[1]), float(L.coeffs[2])
    mean = -c1
    var = 2.0 * c2 - c1 * c1
    return mean, var


def mean_count(model: FellerModel, t: float) -> float:
    """E[N_t] = theta t + (1 - e^{-kappa t})/kappa (lambda0 - theta)."""
    check_real("t", t, least=0)
    k = model.kappa
    return model.theta * t + (-math.expm1(-k * t) / k) * (model.lambda0 - model.theta)


def var_count(model: FellerModel, t: float) -> float:
    """Var(N_t) = E[Lambda_t] + Var(Lambda_t), with both taken from the transform.

    Computed from jet coefficients of L at mu = 0.  The transform route is
    self-consistent with the pmf and the Laplace transform at machine
    precision, which direct closed-form expansions of Var(Lambda_t) are not
    guaranteed to be once exponential near-cancellations enter.
    """
    mean, var = hazard_moments(model, t)
    return mean + var


@dataclass(frozen=True)
class GammaLaw:
    """Stationary law of the square-root intensity."""

    shape: float
    rate: float

    def __post_init__(self):
        check_real("shape", self.shape, above=0)
        check_real("rate", self.rate, above=0)
        for f in fields(self):  # a numpy float32 would carry its rounding into pdf
            object.__setattr__(self, f.name, float(getattr(self, f.name)))

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def var(self) -> float:
        return self.shape / self.rate**2

    def pdf(self, x):
        """The density at x, 0 below 0 and at infinity: a float for a number,
        an array for an array."""
        y = self.rate * np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            power = (self.shape - 1.0) * np.log(y) if self.shape != 1.0 else 0.0
            dens = self.rate * np.exp(power - y - math.lgamma(self.shape))
        return np.where((y < 0) | (y == math.inf), 0.0, dens)[()]

    def sample(self, rng: np.random.Generator, size=None):
        return rng.standard_gamma(self.shape, size=size) / self.rate


@dataclass(frozen=True)
class NegBinLaw:
    """Gamma-mixed Poisson count law: size successes, success probability p."""

    size: float
    p: float

    def __post_init__(self):
        check_real("size", self.size, above=0)
        check_real("p", self.p, above=0)
        if not self.p < 1:
            raise ValueError(f"p must be below 1, got {self.p!r}")
        for f in fields(self):  # a numpy float32 would carry its rounding into 1 - p
            object.__setattr__(self, f.name, float(getattr(self, f.name)))

    @property
    def mean(self) -> float:
        return self.size * (1.0 - self.p) / self.p

    @property
    def var(self) -> float:
        return self.size * (1.0 - self.p) / self.p**2

    def _log_term(self, k):
        """log p_k, from lgamma."""
        r, p = self.size, self.p
        return (math.lgamma(k + r) - math.lgamma(r) - math.lgamma(k + 1)
                + r * math.log(p) + k * math.log1p(-p))

    def pmf(self, k):
        """P(N = k), 0 unless k is a whole number >= 0."""
        return _each(lambda j: math.exp(self._log_term(j)) if j >= 0 and j % 1 == 0 else 0.0, k)

    def sf(self, k):
        """P(N > k): the regularized incomplete beta I_q(a, size) at
        a = floor(k) + 1 and q = 1 - p, from its continued fraction where
        q < (a + 1)/(a + size + 2), about the mean and beyond.  Below that
        point it is 1 - I_p(size, a), the fraction with the roles swapped;
        the tail there is far above 1e-12 unless size is that small, though
        it loses about log10(1/size) digits for size below 1.  The work does
        not grow with the mean count."""
        r, p = self.size, self.p

        def tail(j):
            if not 0 <= j < math.inf:
                return 1.0 if j < 0 else 0.0 if j > 0 else math.nan
            a = math.floor(j) + 1
            front = math.exp(self._log_term(a))  # p_a = q^a p^size / (a B(a, size))
            if (1.0 - p) * (a + r + 2.0) < a + 1.0:
                return front * _beta_fraction(a, r, 1.0 - p)
            return 1.0 - front * a / r * _beta_fraction(r, a, p)

        return _each(tail, k)

    def sample(self, rng: np.random.Generator, size=None):
        lam = rng.standard_gamma(self.size, size=size) * (1.0 - self.p) / self.p
        return rng.poisson(lam)


def _beta_fraction(a, b, x):
    """The continued fraction of I_x(a, b) / (x^a (1 - x)^b / (a B(a, b))),
    by the modified Lentz method.  For x < (a + 1)/(a + b + 2) it converges
    in O(sqrt(max(a, b))) steps: 92 at most over sizes 1e-8 to 1e15 and
    counts to 1e15."""
    tiny = 1e-300  # keeps a zero denominator from stopping the recursion

    def guard(v):
        return v if abs(v) > tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1001):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / guard(1.0 + num * d)
            c = guard(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) <= 2.0**-53:
            break
    return h


def _each(func, k):
    """func at each entry of k: a float for a number, an array for an array."""
    k = np.asarray(k, dtype=float)
    return np.array([func(j) for j in k.flat]).reshape(k.shape)[()]


def stationary_intensity(model: FellerModel) -> GammaLaw:
    """Long-run law of the intensity: Gamma(2 kappa theta / sigma^2, 2 kappa / sigma^2)."""
    s2 = model.sigma**2
    return GammaLaw(shape=2.0 * model.kappa * model.theta / s2, rate=2.0 * model.kappa / s2)


def stationary_count(model: FellerModel, window: float) -> NegBinLaw:
    """Stationary count law over a window: Poisson mixed over the Gamma
    stationary intensity.

    The mixing identity treats the intensity as constant at its stationary
    draw across the window, which is exact in the slowly-varying regime
    (kappa * window small) and accurate to O(kappa * window) otherwise.
    """
    check_real("window", window, above=0)
    g = stationary_intensity(model)
    return NegBinLaw(size=g.shape, p=g.rate / (g.rate + window))


def convergence_rate(model: FellerModel) -> float:
    """Exponential rate at which count laws approach stationarity (2 kappa)."""
    return 2.0 * model.kappa
