"""Exact simulation of the square-root intensity and Cox arrival generation.

The square-root transition over any step length is sampled exactly through
its noncentral chi-square law (a Poisson-mixed Gamma draw, valid for all
degrees of freedom including d < 1), so simulated intensities carry no
discretization bias and are nonnegative by construction.  Only the cumulative
hazard keeps a trapezoid-rule bias of order (step)^2.  Arrivals come from the
time-change construction: level crossings of the cumulative hazard by unit
exponential partial sums.

Two Monte Carlo estimators average the conditional Poisson pmf over
simulated hazards: ``monte_carlo_pmf`` for the count law over one horizon,
and ``distance_to_stationary``, the convergence diagnostic, for the
total-variation distance of window counts to their stationary law and its
exponential decay slope.

Randomness is organized around :class:`RngStream`: a (seed, stream_id) pair
plus an internal spawn key.  Monte Carlo work is split into fixed-size
blocks, each with its own child stream.  The blocks run on up to one thread
per usable CPU in this process and are reduced in block order, so results
are bit-identical on any number of CPUs.
"""

from __future__ import annotations

import bisect
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from ._inputs import check_choice, check_real, check_size, frozen
from .affine_core import AffineModel, FellerModel
from .cox_dist import CountPmf, stationary_count, stationary_intensity

__all__ = [
    "RngStream",
    "PathSample",
    "MonteCarloPmf",
    "DistanceReport",
    "sample_cir_transition",
    "default_n_steps",
    "simulate_path",
    "simulate_arrivals",
    "monte_carlo_pmf",
    "distance_to_stationary",
    "euler_affine_path",
]

# paths per vectorized block; results depend on it, as each block has its own stream
BLOCK_SIZE = 16384
_STEPS_PER_WINDOW = 64  # trapezoid steps of a simulated hazard over one window


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream.

    Identical (seed, stream_id, key) reproduce identical draws on any
    machine and under any thread or process schedule.  ``spawn(i)`` derives
    statistically independent child streams; distinct indices never collide.
    """

    seed: int
    stream_id: int = 0
    key: tuple = None

    def __post_init__(self):
        if self.key is None:
            object.__setattr__(self, "key", (int(self.stream_id),))
        object.__setattr__(self, "key", tuple(int(k) for k in self.key))

    def spawn(self, i: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.key + (int(i),))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(int(self.seed), spawn_key=self.key)
        return np.random.Generator(np.random.PCG64(ss))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"rng must be RngStream or numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True)
class PathSample:
    """Intensity path on a uniform grid with its cumulative hazard.

    ``arrivals`` is None until generated.  For multivariate models,
    ``states`` holds the factor paths and ``intensity`` the resulting scalar
    intensity.  The other arrays hold numbers, read-only; a writable one is copied.
    """

    grid: np.ndarray
    intensity: np.ndarray
    cum_hazard: np.ndarray
    arrivals: Optional[np.ndarray] = None
    states: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("grid", "intensity", "cum_hazard", "arrivals"):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, frozen(name, values, float))
        grid, ch, arr = self.grid, self.cum_hazard, self.arrivals
        if not (grid.shape == self.intensity.shape == ch.shape):
            raise ValueError("grid, intensity and cum_hazard must have equal shapes")
        if grid.size and ch[0] != 0.0:
            raise ValueError("cum_hazard must start at 0")
        if np.any(np.diff(ch) < 0):
            raise ValueError("cum_hazard must be nondecreasing")
        if arr is not None and arr.size and grid.size:
            if arr.min() < grid[0] or arr.max() > grid[-1]:
                raise ValueError("arrivals must lie within the path grid")

    @property
    def horizon(self) -> float:
        return float(self.grid[-1]) if self.grid.size else 0.0

    def with_arrivals(self, arrivals: np.ndarray) -> "PathSample":
        return replace(self, arrivals=arrivals)


def _transition_constants(model: FellerModel, dt: float):
    e = math.exp(-model.kappa * dt)
    s2 = model.sigma**2
    c = s2 * (1.0 - e) / (4.0 * model.kappa)
    dfree = 4.0 * model.kappa * model.theta / s2 if s2 > 0.0 else math.inf
    return e, c, dfree


def sample_cir_transition(model: FellerModel, lambda_s, dt: float, rng):
    """Exact draw of the square-root process at time s + dt given lambda_s.

    With c = sigma^2 (1 - e^{-kappa dt})/(4 kappa), d = 4 kappa theta/sigma^2
    and noncentrality l = lambda_s e^{-kappa dt}/c, the new value is c times
    a noncentral chi-square(d, l) variate, drawn as 2 Gamma(d/2 + J) with
    J ~ Poisson(l/2).  The Gamma route is valid for every d > 0, including
    d < 1 where half-integer chi-square recipes break down.

    The route is chosen per element.  For vanishing volatility the mixing
    parameters overflow the discrete samplers (Poisson breaks past ~9e18), so
    an element whose d or l exceeds 1e12 is drawn instead from a Normal with
    the exact conditional mean and variance, floored at zero; the
    distributional error is O((d + 2l)^{-1/2}), below 1e-6 at the switch
    point.  A block with no such element draws Poisson then Gamma over the
    whole block.  A block with some draws Poisson then Gamma over the other
    elements, in order, and then one standard Normal per routed element, so
    a large element never changes how its neighbours are drawn.  The route
    depends on lambda_s, never on the draws, so reproducibility across
    schedules is unaffected.

    A float ``lambda_s`` on the chi-square route makes the same two draws on
    Python floats, without the array round trip, so a path advanced one
    scalar at a time gets the bits and the draws of the array route.
    """
    check_real("dt", dt, above=0)
    e, c, dfree = _transition_constants(model, dt)
    if isinstance(lambda_s, float) and lambda_s >= 0.0 and c > 0.0 and dfree <= 1e12:
        noncent = lambda_s * (e / c)
        if noncent <= 1e12:
            gen = _as_generator(rng)
            return float(c * 2.0 * gen.standard_gamma(0.5 * dfree + gen.poisson(0.5 * noncent)))
    lam = np.asarray(lambda_s, dtype=float)
    if np.any(lam < 0):
        raise ValueError("lambda_s must be >= 0")
    gen = _as_generator(rng)
    mean = model.theta + (lam - model.theta) * e
    if c <= 0.0 or not math.isfinite(dfree):
        # sigma^2 (or the step) underflowed: the transition is deterministic
        out = mean
    else:
        noncent = lam * (e / c)
        normal = (noncent > 1e12) | (dfree > 1e12)
        if not normal.any():
            j = gen.poisson(0.5 * noncent)
            out = c * 2.0 * gen.standard_gamma(0.5 * dfree + j)
        else:
            out = np.empty(lam.shape)
            chi2 = ~normal
            j = gen.poisson(0.5 * noncent[chi2])
            out[chi2] = c * 2.0 * gen.standard_gamma(0.5 * dfree + j)
            var = lam[normal] * (model.sigma**2 * (e - e * e) / model.kappa) + model.theta * (
                model.sigma**2 * (1.0 - e) ** 2 / (2.0 * model.kappa)
            )
            draws = gen.standard_normal(var.shape)
            out[normal] = np.maximum(0.0, mean[normal] + np.sqrt(var) * draws)
    if np.isscalar(lambda_s):
        return float(out)
    return out


def _cir_chain(model: FellerModel, start: float, dt: float, n: int, gen) -> np.ndarray:
    """``n`` values of one square-root path at spacing ``dt`` from ``start``,
    advanced by exact scalar transitions drawn from ``gen`` in order."""
    lam = np.empty(n)
    lam[0] = start
    for i in range(1, n):
        lam[i] = sample_cir_transition(model, lam[i - 1], dt, gen)
    return lam


def default_n_steps(model: FellerModel, horizon: float) -> int:
    """Grid resolution for simulated hazards: dt <= min(0.01, 1/(10 kappa)).

    The trapezoid hazard carries an O(dt^2) bias that no standard error
    includes.  It is small against Monte Carlo error in the bulk of the
    count law, not in its far tail: for kappa 1.343, theta 0.792, sigma
    0.586 over horizon 2 (200 steps), 1e5 paths put p(20) 6.1 standard
    errors below the exact value; with 800 steps every k <= 20 is within
    1.4.
    """
    check_real("horizon", horizon, least=0)
    dt_max = min(0.01, 1.0 / (10.0 * model.kappa))
    return max(1, int(math.ceil(horizon / dt_max)))


def simulate_path(
    model: FellerModel,
    horizon: float,
    n_steps: Optional[int] = None,
    rng=None,
) -> PathSample:
    """Exact-transition intensity path with trapezoid cumulative hazard.

    The intensity values are exact draws of the square-root diffusion on the
    grid; only the hazard integral carries the O((horizon/n_steps)^2)
    trapezoid bias.
    """
    check_real("horizon", horizon, least=0)
    if horizon == 0:
        return PathSample(
            grid=np.zeros(1), intensity=np.array([model.lambda0]), cum_hazard=np.zeros(1)
        )
    if n_steps is None:
        n_steps = default_n_steps(model, horizon)
    check_size("n_steps", n_steps)
    gen = _as_generator(rng if rng is not None else RngStream(0))
    h = horizon / n_steps
    grid = np.linspace(0.0, horizon, n_steps + 1)
    lam = _cir_chain(model, model.lambda0, h, n_steps + 1, gen)
    ch = np.concatenate([[0.0], np.cumsum(0.5 * h * (lam[1:] + lam[:-1]))])
    for arr in (grid, lam, ch):  # handed over as they are, not copied
        arr.setflags(write=False)
    return PathSample(grid=grid, intensity=lam, cum_hazard=ch)


def simulate_arrivals(path: PathSample, rng) -> np.ndarray:
    """Arrival times by the time change: invert the piecewise-linear cumulative
    hazard at cumulative unit-exponential levels."""
    gen = _as_generator(rng)
    total = float(path.cum_hazard[-1]) if path.cum_hazard.size else 0.0
    if total <= 0.0:
        return np.empty(0)
    levels = []
    acc = 0.0
    # draw exponentials in chunks until the cumulative level exceeds the
    # total hazard; expected count is `total`
    chunk = max(16, int(total + 10.0 * math.sqrt(total) + 10))
    while acc <= total:
        draws = gen.standard_exponential(chunk)
        cum = acc + np.cumsum(draws)
        levels.append(cum)
        acc = float(cum[-1])
    levels = np.concatenate(levels)
    levels = levels[levels <= total]
    if levels.size == 0:
        return np.empty(0)
    idx = np.searchsorted(path.cum_hazard, levels, side="left")
    idx = np.clip(idx, 1, path.cum_hazard.size - 1)
    ch0 = path.cum_hazard[idx - 1]
    ch1 = path.cum_hazard[idx]
    t0 = path.grid[idx - 1]
    t1 = path.grid[idx]
    frac = (levels - ch0) / np.maximum(ch1 - ch0, 1e-300)
    return t0 + frac * (t1 - t0)


def _window_hazard(
    model: FellerModel, lam0: np.ndarray, window: float, n_steps: int, gen: np.random.Generator
) -> np.ndarray:
    """Trapezoid hazard over a window for a vector of paths starting at lam0.

    Advances every path with exact transitions; returns the integrated
    intensity per path.
    """
    h = window / n_steps
    lam = np.asarray(lam0, dtype=float).copy()
    hazard = np.zeros_like(lam)
    for _ in range(n_steps):
        nxt = sample_cir_transition(model, lam, h, gen)
        hazard += 0.5 * h * (lam + nxt)
        lam = nxt
    return hazard


def _averaged_conditional_pmf(
    model: FellerModel,
    launch: Callable[[np.random.Generator, int], np.ndarray],
    n_paths: int,
    window: float,
    n_steps: int,
    k_max: int,
    rng: RngStream,
):
    """Mean and standard error of the conditional Poisson pmf, k = 0..k_max,
    over ``n_paths`` simulated window hazards.

    Block ``i`` of ``BLOCK_SIZE`` paths draws from ``rng.spawn(i)``:
    ``launch(gen, nb)`` returns its ``nb`` starting intensities, then
    ``_window_hazard`` advances them across the window on the same
    generator.  The blocks run on up to one thread per usable CPU in this
    process (numpy's draws and array loops release the GIL, and no two
    blocks share a generator), and their sums are reduced in block order,
    so the result is bit-identical on any number of CPUs.
    """

    def block(i):
        nb = min(BLOCK_SIZE, n_paths - i * BLOCK_SIZE)
        gen = rng.spawn(i).generator()
        hazard = _window_hazard(model, launch(gen, nb), window, n_steps, gen)
        pk = np.exp(-hazard)
        sums = np.empty(k_max + 1)
        sumsq = np.empty(k_max + 1)
        for k in range(k_max + 1):
            sums[k] = pk.sum()
            sumsq[k] = (pk * pk).sum()
            pk = pk * hazard / (k + 1)
        return sums, sumsq

    n_blocks = -(-n_paths // BLOCK_SIZE)
    workers = min(n_blocks, _usable_cpus())
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(block, range(n_blocks)))
    else:
        parts = map(block, range(n_blocks))
    sums = np.zeros(k_max + 1)
    sumsq = np.zeros(k_max + 1)
    for block_sums, block_sumsq in parts:
        sums += block_sums
        sumsq += block_sumsq
    phat = sums / n_paths
    var_hat = np.clip(sumsq / n_paths - phat**2, 0.0, None)
    return phat, np.sqrt(var_hat / n_paths)


@dataclass(frozen=True)
class MonteCarloPmf:
    """Monte Carlo count pmf with per-k standard errors."""

    pmf: CountPmf
    std_errors: np.ndarray
    n_paths: int


def monte_carlo_pmf(
    model: FellerModel,
    horizon: float,
    n_paths: int,
    k_max: int,
    rng: RngStream,
    n_steps: Optional[int] = None,
) -> MonteCarloPmf:
    """Estimate count probabilities by averaging the conditional Poisson pmf
    over simulated hazards.

    Conditioning on the hazard (rather than sampling counts) removes the
    multinomial noise layer, so standard errors reflect only hazard
    variability.  They leave out the bias of the trapezoid hazard on the
    ``n_steps`` grid (``default_n_steps`` by default), which can exceed
    them in the far tail of the count law.  Blocks of ``BLOCK_SIZE`` paths
    each use their own child stream, run on up to one thread per usable CPU
    in this process and are reduced in block order, so the result is
    bit-identical on any number of CPUs.
    """
    check_size("n_paths", n_paths)
    check_size("k_max", k_max, least=0)
    if n_steps is not None:
        check_size("n_steps", n_steps)
    check_real("horizon", horizon, least=0)
    if not isinstance(rng, RngStream):
        raise TypeError("monte_carlo_pmf requires an RngStream for reproducibility")
    if horizon == 0:
        probs = np.zeros(k_max + 1)
        probs[0] = 1.0
        return MonteCarloPmf(
            pmf=CountPmf(probs=probs, horizon=0.0, tail_bound=0.0),
            std_errors=np.zeros(k_max + 1),
            n_paths=n_paths,
        )
    if n_steps is None:
        n_steps = default_n_steps(model, horizon)

    phat, se = _averaged_conditional_pmf(
        model, lambda gen, nb: np.full(nb, model.lambda0), n_paths, horizon, n_steps, k_max, rng
    )
    pmf_est = CountPmf(
        probs=phat, horizon=float(horizon), tail_bound=max(0.0, 1.0 - float(phat.sum()))
    )
    return MonteCarloPmf(pmf=pmf_est, std_errors=se, n_paths=n_paths)


@dataclass(frozen=True)
class DistanceReport:
    """Total-variation distances to the stationary count law over time."""

    t_grid: np.ndarray
    distances: np.ndarray
    noise_floor: float
    slope: float
    intercept: float
    used_points: np.ndarray

    def to_rows(self):
        return list(zip(self.t_grid.tolist(), self.distances.tolist()))


def distance_to_stationary(
    model: FellerModel,
    t_grid: Sequence,
    n_paths: int,
    rng,
    start: str = "fixed",
    window: float = 1.0,
) -> DistanceReport:
    """Estimate TV distance between window counts at each start time and the
    stationary window-count law, and fit an exponential decay slope.

    The count pmf at each time is estimated by averaging the conditional
    Poisson pmf over simulated hazards, each integrated over the window in
    64 trapezoid steps (no count sampling, which removes the multinomial
    noise layer).  The stationary reference is estimated the same way from
    stationary starts at twice the path count, not taken from
    ``stationary_count``: the closed-form mixed law freezes the intensity
    across the window, and the resulting O(kappa * window) offset would put a
    floor under the distances and mask the decay this diagnostic measures.
    The NegBin law only picks the truncation point.  The slope is least
    squares on log-distance, restricted to points at least 10x above the
    Monte Carlo noise floor (which accounts for noise in both estimates).

    ``start="fixed"`` launches every path at ``model.lambda0``;
    ``start="stationary"`` draws initial intensities from the stationary law,
    in which case distances should be statistically indistinguishable from 0.
    """
    check_choice("start", start, ("fixed", "stationary"))
    check_size("n_paths", n_paths)
    if not isinstance(rng, RngStream):
        raise TypeError("distance_to_stationary requires an RngStream for reproducibility")
    for j, t in enumerate(t_grid):
        check_real(f"t_grid[{j}]", t, least=0)
    t_grid = np.asarray(sorted(float(t) for t in t_grid))
    nb = stationary_count(model, window)
    # truncation point: the 1 - 1e-12 quantile plus 5, within [10, 400]
    k = bisect.bisect_left(range(395), True, key=lambda j: 1.0 - nb.sf(j) >= 1.0 - 1e-12)
    k_max = max(k + 5, 10)

    gamma_law = stationary_intensity(model)

    def launch_at(t, origin):
        # n starting intensities at time t after a fixed or stationary origin
        def launch(gen, n):
            if origin == "fixed":
                lam = np.full(n, model.lambda0)
            else:
                lam = gamma_law.sample(gen, size=n)
            if t > 0:
                lam = sample_cir_transition(model, lam, float(t), gen)
            return lam

        return launch

    ref_probs, ref_se = _averaged_conditional_pmf(
        model,
        launch_at(0.0, "stationary"),
        2 * n_paths,
        window,
        _STEPS_PER_WINDOW,
        k_max,
        rng.spawn(t_grid.size),
    )
    ref_tail = max(0.0, 1.0 - float(ref_probs.sum()))

    distances = np.empty(t_grid.size)
    noise = np.empty(t_grid.size)
    for j, t in enumerate(t_grid):
        phat, se = _averaged_conditional_pmf(
            model, launch_at(t, start), n_paths, window, _STEPS_PER_WINDOW, k_max, rng.spawn(j)
        )
        tail_hat = max(0.0, 1.0 - float(phat.sum()))
        distances[j] = 0.5 * (np.abs(phat - ref_probs).sum() + abs(tail_hat - ref_tail))
        noise[j] = 0.5 * np.sqrt(se**2 + ref_se**2).sum()

    noise_floor = float(np.max(noise))
    usable = distances > 10.0 * noise_floor
    if usable.sum() < 2:
        usable = distances > noise_floor
    if usable.sum() >= 2:
        x = t_grid[usable]
        ylog = np.log(distances[usable])
        slope, intercept = np.polyfit(x, ylog, 1)
    else:
        slope, intercept = math.nan, math.nan
        warnings.warn("all distances within Monte Carlo noise; no decay slope fitted")
    return DistanceReport(
        t_grid=t_grid,
        distances=distances,
        noise_floor=noise_floor,
        slope=float(slope),
        intercept=float(intercept),
        used_points=usable,
    )


def euler_affine_path(
    model: AffineModel,
    x0,
    horizon: float,
    n_steps: int,
    rng,
) -> PathSample:
    """Euler-Maruyama path of a general affine model (full truncation).

    Unlike the square-root exact scheme, this is discretization-biased: the
    state law is accurate only to O(horizon/n_steps), and negative squared
    volatilities are truncated at zero.  Intended for models without an
    exact transition.
    """
    check_real("horizon", horizon, least=0)
    check_size("n_steps", n_steps)
    gen = _as_generator(rng)
    d = model.dim
    x = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (d,)), dtype=float)
    h = horizon / n_steps
    sqh = math.sqrt(h)
    grid = np.linspace(0.0, horizon, n_steps + 1)
    states = np.empty((n_steps + 1, d))
    lam = np.empty(n_steps + 1)
    states[0] = x
    lam[0] = model.intensity(x)
    for i in range(n_steps):
        vol2 = np.clip(model.vol_sq(x), 0.0, None)
        z = gen.standard_normal(d)
        x = x + model.kappa @ (model.theta - x) * h + model.sigma_mat @ (np.sqrt(vol2) * z) * sqh
        states[i + 1] = x
        lam[i + 1] = model.intensity(x)
    lam_pos = np.clip(lam, 0.0, None)
    ch = np.concatenate([[0.0], np.cumsum(0.5 * h * (lam_pos[1:] + lam_pos[:-1]))])
    for arr in (grid, lam_pos, ch):  # handed over as they are, not copied
        arr.setflags(write=False)
    return PathSample(grid=grid, intensity=lam_pos, cum_hazard=ch, states=states)
