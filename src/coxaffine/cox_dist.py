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
from dataclasses import dataclass
from typing import Union

import numpy as np

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
    """Jet evaluation lost enough precision to produce negative probabilities."""


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
        if np.min(p) < -1e-10:
            raise PrecisionError(
                f"pmf coefficient p_{int(np.argmin(p))} = {np.min(p):.3e} is "
                "negative beyond roundoff; reduce k_max or the horizon"
            )
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
    if not horizon >= 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return float(laplace_hazard(model, 1.0, horizon, x0=x0))


def pmf(model: Model, horizon: float, k_max: int = 50, x0=None) -> CountPmf:
    """Count probabilities p_k = ((-1)^k / k!) d^k L / d mu^k at mu = 1.

    One jet evaluation of order k_max at expansion point 1 produces all the
    derivatives at once.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if not horizon >= 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    mu = Jet.variable(1.0, k_max)
    L = laplace_hazard(model, mu, horizon, x0=x0)
    signs = np.where(np.arange(k_max + 1) % 2 == 0, 1.0, -1.0)
    probs = signs * L.coeffs
    total = float(probs.sum())
    return CountPmf(probs=probs, horizon=float(horizon), tail_bound=max(0.0, 1.0 - total))


def hazard_moments(model: Model, t: float, x0=None) -> tuple:
    """(E[Lambda], Var(Lambda)) from the order-2 jet of L at mu = 0."""
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
    mu = Jet.variable(0.0, 2)
    L = laplace_hazard(model, mu, t, x0=x0)
    c1, c2 = float(L.coeffs[1]), float(L.coeffs[2])
    mean = -c1
    var = 2.0 * c2 - c1 * c1
    return mean, var


def mean_count(model: FellerModel, t: float) -> float:
    """E[N_t] = theta t + (1 - e^{-kappa t})/kappa (lambda0 - theta)."""
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t}")
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
        if not (self.shape > 0 and self.rate > 0):
            raise ValueError("shape and rate must be positive")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def var(self) -> float:
        return self.shape / self.rate**2

    def pdf(self, x):
        from scipy import stats

        return stats.gamma.pdf(x, a=self.shape, scale=1.0 / self.rate)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.standard_gamma(self.shape, size=size) / self.rate


@dataclass(frozen=True)
class NegBinLaw:
    """Gamma-mixed Poisson count law: size successes, success probability p."""

    size: float
    p: float

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        if not self.size > 0:
            raise ValueError(f"size must be positive, got {self.size}")

    @property
    def mean(self) -> float:
        return self.size * (1.0 - self.p) / self.p

    @property
    def var(self) -> float:
        return self.size * (1.0 - self.p) / self.p**2

    def pmf(self, k):
        from scipy import stats

        return stats.nbinom.pmf(k, self.size, self.p)

    def sf(self, k):
        from scipy import stats

        return stats.nbinom.sf(k, self.size, self.p)

    def sample(self, rng: np.random.Generator, size=None):
        lam = rng.standard_gamma(self.size, size=size) * (1.0 - self.p) / self.p
        return rng.poisson(lam)


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
    if not window > 0:
        raise ValueError(f"window must be > 0, got {window}")
    g = stationary_intensity(model)
    return NegBinLaw(size=g.shape, p=g.rate / (g.rate + window))


def convergence_rate(model: FellerModel) -> float:
    """Exponential rate at which count laws approach stationarity (2 kappa)."""
    return 2.0 * model.kappa
