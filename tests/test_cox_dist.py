"""Count distribution, moments, and stationary laws.

Monte Carlo oracles here are built from the exact transition sampler with
hand-rolled trapezoid accumulation, so the pmf/moment code under test and
the oracle share no transform or jet machinery.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from coxaffine import (
    CountPmf,
    FellerModel,
    GammaLaw,
    NegBinLaw,
    PrecisionError,
    RngStream,
    convergence_rate,
    distance_to_stationary,
    hazard_moments,
    mean_count,
    monte_carlo_pmf,
    pmf,
    prob_no_arrival,
    sample_cir_transition,
    stationary_count,
    stationary_intensity,
    var_count,
)

BASE = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=1.0)


def trapezoid_hazards(model, n_paths, horizon, n_steps, gen, lam0=None):
    # independent oracle: exact transitions + trapezoid, no transform code
    lam = np.full(n_paths, model.lambda0 if lam0 is None else lam0, dtype=float)
    hazard = np.zeros(n_paths)
    h = horizon / n_steps
    for _ in range(n_steps):
        nxt = sample_cir_transition(model, lam, h, gen)
        hazard += 0.5 * h * (lam + nxt)
        lam = nxt
    return hazard


class TestPmf:
    def test_matches_monte_carlo(self):
        mc = monte_carlo_pmf(BASE, 1.0, 40_000, 12, RngStream(717))
        exact = pmf(BASE, 1.0, k_max=12)
        se = np.maximum(mc.std_errors, 1e-7)
        z = np.abs(exact.probs - mc.pmf.probs) / se
        assert np.max(z) < 3.0, f"worst z = {np.max(z):.2f} at k = {np.argmax(z)}"

    def test_zero_horizon_is_point_mass_at_zero(self):
        p = pmf(BASE, 0.0, k_max=6)
        assert p.probs[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.abs(p.probs[1:]) < 1e-14)
        assert p.tail_bound < 1e-12

    def test_vanishing_volatility_recovers_poisson(self):
        model = FellerModel(kappa=1.0, theta=1.0, sigma=1e-8, lambda0=1.0)
        p = pmf(model, 2.0, k_max=10)
        ref = stats.poisson.pmf(np.arange(11), 2.0)
        assert np.max(np.abs(p.probs - ref)) < 1e-5

    def test_mass_accounting(self):
        p = pmf(BASE, 1.0, k_max=30)
        assert p.probs.sum() + p.tail_bound == pytest.approx(1.0, abs=1e-12)
        assert np.all(p.probs >= 0.0)

    def test_partial_mean_matches_mean_count(self):
        p = pmf(BASE, 1.0, k_max=60)
        assert p.tail_bound < 1e-12
        assert p.mean() == pytest.approx(mean_count(BASE, 1.0), rel=1e-8)

    def test_order_zero_on_the_riccati_route(self):
        # an order-0 jet stays a jet through the Riccati integrator
        riccati = pmf(BASE.as_affine(), 1.0, k_max=0, x0=[1.0])
        closed = pmf(BASE, 1.0, k_max=0)
        assert riccati.probs.shape == (1,)
        assert riccati.probs[0] == pytest.approx(closed.probs[0], rel=0, abs=1e-11)

    def test_argument_validation(self):
        for horizon in (-1.0, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                pmf(BASE, horizon)
        with pytest.raises(ValueError):
            pmf(BASE, 1.0, k_max=-1)


class TestCountPmfContainer:
    def test_negative_probability_rejected(self):
        with pytest.raises(PrecisionError, match="negative"):
            CountPmf(probs=np.array([0.5, -0.1, 0.3]), horizon=1.0, tail_bound=0.0)

    def test_excess_mass_rejected(self):
        with pytest.raises(PrecisionError, match="exceeds"):
            CountPmf(probs=np.array([0.7, 0.7]), horizon=1.0, tail_bound=0.0)

    def test_roundoff_negatives_clipped(self):
        p = CountPmf(probs=np.array([1.0, -1e-12]), horizon=1.0, tail_bound=0.0)
        assert p.probs[1] == 0.0

    def test_dict_roundtrip(self):
        p = pmf(BASE, 1.0, k_max=8)
        q = CountPmf.from_dict(p.to_dict())
        assert np.array_equal(q.probs, p.probs)
        assert q.horizon == p.horizon
        assert q.tail_bound == p.tail_bound
        assert q.k_max == 8


class TestHazardMoments:
    def test_mean_matches_closed_form(self):
        for model in (
            BASE,
            FellerModel(kappa=0.2, theta=0.04, sigma=0.05, lambda0=0.1),
            FellerModel(kappa=2.0, theta=0.5, sigma=0.3, lambda0=1.5),
        ):
            for t in (0.1, 1.0, 10.0):
                m, _ = hazard_moments(model, t)
                assert m == pytest.approx(mean_count(model, t), rel=1e-10)

    def test_variance_matches_monte_carlo(self):
        gen = RngStream(9041).generator()
        hz = trapezoid_hazards(BASE, 200_000, 1.0, 256, gen)
        m, v = hazard_moments(BASE, 1.0)
        se_mean = hz.std(ddof=1) / math.sqrt(hz.size)
        assert abs(hz.mean() - m) < 3.0 * se_mean
        # SE of a sample variance: sqrt((m4 - v^2)/n)
        c = hz - hz.mean()
        se_var = math.sqrt(max(np.mean(c**4) - v * v, 0.0) / hz.size)
        assert abs(hz.var(ddof=1) - v) < 3.0 * se_var + 1e-4

    def test_zero_time(self):
        m, v = hazard_moments(BASE, 0.0)
        assert m == 0.0
        assert abs(v) < 1e-14

    def test_time_validation(self):
        for t in (-1.0, math.nan):
            with pytest.raises(ValueError, match="t must be"):
                hazard_moments(BASE, t)
            with pytest.raises(ValueError, match="t must be"):
                mean_count(BASE, t)


class TestCountMoments:
    def test_mean_examples(self):
        model = FellerModel(kappa=1.0, theta=2.0, sigma=0.5, lambda0=0.0)
        assert mean_count(model, 1.0) == pytest.approx(2.0 - 2.0 * (1.0 - math.exp(-1.0)), rel=1e-12)
        assert mean_count(BASE, 3.7) == pytest.approx(BASE.theta * 3.7, rel=1e-12)
        assert mean_count(BASE, 0.0) == 0.0

    def test_overdispersion(self):
        for t in (0.1, 0.5, 1.0, 5.0, 20.0):
            assert var_count(BASE, t) >= mean_count(BASE, t) - 1e-12

    def test_variance_collapses_to_mean_without_volatility(self):
        model = FellerModel(kappa=1.0, theta=1.0, sigma=1e-6, lambda0=1.0)
        for t in (0.5, 2.0):
            m = mean_count(model, t)
            assert abs(var_count(model, t) - m) / m < 1e-4

    def test_direct_expansion_candidate_is_inconsistent(self):
        # A candidate closed form for Var(N_t) assembled by expanding the
        # double integral term by term.  It fails two sanity checks that the
        # transform-based value passes, which is why the implementation
        # differentiates the transform instead of hand-expanding.
        def candidate(model, t):
            k, th, s2, l0 = model.kappa, model.theta, model.sigma**2, model.lambda0
            e = math.exp(-k * t)
            term1 = (2.0 * th * t / k) * ((e + 1.0) * (l0 - th) - 2.0 * (th + l0))
            term2 = (s2 / k**3) * (
                th * e / 2.0 + (4.0 * math.exp(-k) - 5.0) / 2.0 - l0 * math.exp(-2.0 * k * t)
            )
            term3 = (s2 * t / k) * ((3.0 * th - 2.0 * l0) / k)
            return term1 + term2 + term3

        # variance at t = 0 must be 0; the candidate is not even zero there
        assert abs(candidate(BASE, 0.0)) > 0.1
        assert var_count(BASE, 0.0) == pytest.approx(0.0, abs=1e-14)
        # the candidate goes negative where the true variance is ~ its mean
        assert candidate(BASE, 1.0) < 0.0
        assert var_count(BASE, 1.0) > mean_count(BASE, 1.0)


class TestNoArrival:
    def test_deterministic_limit(self):
        model = FellerModel(kappa=1.0, theta=1.0, sigma=1e-10, lambda0=1.0)
        assert prob_no_arrival(model, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_zero_horizon(self):
        assert prob_no_arrival(BASE, 0.0) == 1.0

    def test_negative_horizon_rejected(self):
        for horizon in (-0.5, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                prob_no_arrival(BASE, horizon)

    def test_equals_pmf_at_zero(self):
        p = pmf(BASE, 2.0, k_max=0)
        assert prob_no_arrival(BASE, 2.0) == pytest.approx(float(p.probs[0]), abs=1e-14)


class TestStationaryLaws:
    def test_gamma_parameters(self):
        g = stationary_intensity(FellerModel(kappa=0.2, theta=0.04, sigma=0.05, lambda0=0.04))
        assert g.shape == pytest.approx(6.4, rel=1e-12)
        assert g.rate == pytest.approx(160.0, rel=1e-12)
        assert g.mean == pytest.approx(0.04, rel=1e-12)

    def test_gamma_pdf_normalizes_and_samples_agree(self):
        g = stationary_intensity(BASE)
        x = np.linspace(0.0, 12.0, 40_001)
        assert np.trapezoid(g.pdf(x), x) == pytest.approx(1.0, abs=1e-6)
        draws = g.sample(RngStream(5150).generator(), size=100_000)
        assert abs(draws.mean() - g.mean) < 4.0 * math.sqrt(g.var / draws.size)

    def test_geometric_special_case(self):
        model = FellerModel(kappa=1.0, theta=1.0, sigma=math.sqrt(2.0), lambda0=1.0)
        nb = stationary_count(model, 1.0)
        assert nb.size == pytest.approx(1.0, rel=1e-12)
        assert nb.p == pytest.approx(0.5, rel=1e-12)
        k = np.arange(12)
        assert np.allclose(nb.pmf(k), 0.5 ** (k + 1), rtol=1e-12)

    def test_stationary_count_mean_is_theta_times_window(self):
        for window in (0.25, 1.0, 7.0):
            nb = stationary_count(BASE, window)
            assert nb.mean == pytest.approx(BASE.theta * window, rel=1e-12)

    def test_short_window_concentrates_at_zero(self):
        nb = stationary_count(BASE, 1e-10)
        assert nb.pmf(0) > 1.0 - 1e-9

    def test_negbin_mass_accounting(self):
        nb = stationary_count(BASE, 1.0)
        k = np.arange(200)
        assert nb.pmf(k).sum() + nb.sf(199) == pytest.approx(1.0, abs=1e-12)
        draws = nb.sample(RngStream(88).generator(), size=50_000)
        assert abs(draws.mean() - nb.mean) < 4.0 * math.sqrt(nb.var / draws.size)

    def test_validation(self):
        with pytest.raises(ValueError):
            stationary_count(BASE, 0.0)
        with pytest.raises(ValueError):
            NegBinLaw(size=1.0, p=1.0)
        with pytest.raises(ValueError):
            NegBinLaw(size=0.0, p=0.5)
        with pytest.raises(ValueError):
            GammaLaw(shape=-1.0, rate=2.0)

    def test_slow_mixing_identity(self):
        # with kappa * window tiny, the window count given a stationary start
        # is Poisson mixed over the Gamma law, so averaging the conditional
        # pmf over stationary draws of lambda0 reproduces the mixed law
        model = FellerModel(kappa=0.002, theta=1.0, sigma=0.06, lambda0=1.0)
        g = stationary_intensity(model)
        nb = stationary_count(model, 1.0)
        draws = g.sample(RngStream(20_08).generator(), size=4000)
        k_max = 12
        acc = np.zeros((draws.size, k_max + 1))
        for i, lam in enumerate(draws):
            acc[i] = pmf(dataclasses.replace(model, lambda0=float(lam)), 1.0, k_max=k_max).probs
        avg = acc.mean(axis=0)
        se = acc.std(axis=0, ddof=1) / math.sqrt(draws.size)
        ref = nb.pmf(np.arange(k_max + 1))
        assert np.all(np.abs(avg - ref) < 3.0 * se + 5e-4)


class TestApproachToStationarity:
    def test_rate_is_twice_kappa(self):
        assert convergence_rate(FellerModel(0.2, 1.0, 0.3, 1.0)) == pytest.approx(0.4)

    def test_stationary_start_is_indistinguishable(self):
        model = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=1.0)
        rep = distance_to_stationary(
            model, [0.0, 0.5, 1.0], 16_384, RngStream(3), start="stationary"
        )
        # every distance stays at Monte Carlo noise scale; a fixed start at
        # t = 0 would sit orders of magnitude above the floor
        assert np.all(rep.distances < 2.5 * rep.noise_floor)
        assert not np.any(rep.distances > 10.0 * rep.noise_floor)

    def test_fixed_start_decays(self):
        # distinct start (lambda0 = 3 theta): distances must fall over time
        model = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=3.0)
        rep = distance_to_stationary(
            model, [0.05, 0.6, 1.2], 30_000, RngStream(11), start="fixed"
        )
        assert rep.distances[0] > 10.0 * rep.noise_floor
        assert rep.distances[0] > rep.distances[-1]
        assert rep.slope < 0.0
        rows = rep.to_rows()
        assert len(rows) == 3 and rows[0][0] == 0.05

    def test_start_validation(self):
        with pytest.raises(ValueError):
            distance_to_stationary(BASE, [0.0], 100, RngStream(0), start="warm")

    def test_rng_must_be_a_stream(self):
        with pytest.raises(TypeError, match="requires an RngStream"):
            distance_to_stationary(BASE, [0.0], 100, np.random.default_rng(0))
