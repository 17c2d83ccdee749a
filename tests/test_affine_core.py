"""Transform coefficients: closed form, Riccati integration, admissibility.

Oracles used here:
  - Gaussian quadrature of the exact law of the integrated Vasicek state
    (the hazard is Gaussian with known mean and variance, so E[exp(-mu L)]
    is a one-dimensional integral).
  - The closed form itself, as the oracle for the numerical integrator on
    square-root models.
  - Small Monte Carlo for the hazard transform.
"""

import dataclasses
import math

import numpy as np
import pytest

from coxaffine import (
    AffineModel,
    ExplosionError,
    FellerModel,
    Jet,
    RngStream,
    TransformCoeffs,
    check_admissibility,
    cir_transform_closed_form,
    laplace_hazard,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    simulate_path,
    solve_transform_ode,
)


def vasicek_model(kappa=1.0, theta=0.05, sigma=0.01, rho0=0.0):
    return AffineModel(
        dim=1,
        kappa=[[kappa]],
        theta=[theta],
        sigma_mat=[[sigma]],
        a=[1.0],
        b=[[0.0]],
        rho0=rho0,
    )


def vasicek_hazard_law(kappa, theta, sigma, x0, horizon):
    """Exact Gaussian law (mean, variance) of the integrated Vasicek state."""
    em = math.expm1(-kappa * horizon)
    m = theta * horizon - (x0 - theta) * em / kappa
    v = (sigma**2 / kappa**2) * (
        horizon + 2.0 * em / kappa - math.expm1(-2.0 * kappa * horizon) / (2.0 * kappa)
    )
    return m, v


def gaussian_laplace_quadrature(mu, m, v):
    """Brute-force E[exp(-mu Z)], Z ~ N(m, v), on a fine grid."""
    sd = math.sqrt(v)
    z = np.linspace(m - 12.0 * sd, m + 12.0 * sd, 200_001)
    dens = np.exp(-0.5 * ((z - m) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))
    return float(np.trapezoid(np.exp(-mu * z) * dens, z))


def random_affine(rng, d):
    """Square-root factors with an intensity that sums them; for d > 1 the
    mean-reversion matrix couples the factors off its diagonal."""
    kappa = np.diag(rng.uniform(0.5, 2.0, d)) + rng.uniform(-0.2, 0.2, (d, d)) * (1 - np.eye(d))
    return AffineModel(
        dim=d,
        kappa=kappa,
        theta=rng.uniform(0.5, 1.5, d),
        sigma_mat=np.diag(rng.uniform(0.1, 0.6, d)),
        a=np.zeros(d),
        b=np.eye(d),
        rho1=np.ones(d),
    )


class TestClosedForm:
    def test_zero_horizon_is_identity(self):
        tc = cir_transform_closed_form(FellerModel(1.0, 1.0, 0.5, 1.0), 1.0, 0.0)
        assert tc.alpha == 0.0
        assert tc.beta == 0.0
        assert tc.laplace(1.0) == 1.0

    def test_zero_mu_is_identity(self):
        tc = cir_transform_closed_form(FellerModel(0.3, 2.0, 0.4, 1.0), 0.0, 5.0)
        assert tc.alpha == 0.0
        assert tc.beta == 0.0

    def test_deterministic_limit(self):
        # sigma -> 0 with lambda0 = theta: L -> exp(-mu theta horizon)
        m = FellerModel(kappa=1.0, theta=1.0, sigma=1e-8, lambda0=1.0)
        for mu in (0.5, 1.0, 2.0):
            L = laplace_hazard(m, mu, 2.0)
            assert L == pytest.approx(math.exp(-mu * 2.0), abs=1e-6)

    def test_monotone_and_bounded(self):
        m = FellerModel(kappa=0.5, theta=1.0, sigma=0.5, lambda0=0.7)
        mus = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
        values = [laplace_hazard(m, mu, 1.5) for mu in mus]
        assert values[0] == 1.0
        for lo, hi in zip(values[1:], values):
            assert 0.0 < lo < hi <= 1.0

    def test_jet_order_zero_matches_scalar_bitwise(self):
        m = FellerModel(kappa=0.7, theta=1.3, sigma=0.4, lambda0=0.9)
        scalar = cir_transform_closed_form(m, 1.0, 2.5)
        jet = cir_transform_closed_form(m, Jet.variable(1.0, 6), 2.5)
        assert jet.alpha.value == scalar.alpha
        assert jet.beta.value == scalar.beta
        assert jet.laplace(0.9).value == scalar.laplace(0.9)

    def test_short_horizon_continuity(self):
        # no special-casing near zero: alpha, beta scale smoothly
        m = FellerModel(kappa=2.0, theta=0.05, sigma=0.5, lambda0=0.05)
        for h in (1e-12, 1e-8, 1e-4):
            tc = cir_transform_closed_form(m, 1.0, h)
            assert tc.beta == pytest.approx(h, rel=1e-3)
            assert abs(tc.alpha) <= h

    def test_long_horizon_matches_riccati(self):
        # past e^{-g h/2} < 2^-26 (h > 160.4 here) alpha switches from the
        # log1p form, whose argument rounds to -1 by h = 400, to the log form
        m = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=1.0)
        for h in (200.0, 400.0, 1000.0):
            exact = cir_transform_closed_form(m, 1.0, h)
            ode = solve_transform_ode(m, 1.0, h)
            assert exact.alpha == pytest.approx(ode.alpha, rel=1e-12)
            assert exact.beta == pytest.approx(ode.beta, rel=1e-10)
            jet = cir_transform_closed_form(m, Jet.variable(1.0, 4), h)
            assert jet.alpha.value == exact.alpha
            assert jet.laplace(1.0).value == exact.laplace(1.0)

    def test_negative_horizon_rejected(self):
        m = FellerModel(1, 1, 0.5, 1)
        for horizon in (-1.0, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                cir_transform_closed_form(m, 1.0, horizon)
            with pytest.raises(ValueError, match="horizon"):
                solve_transform_ode(m, 1.0, horizon)


class TestRiccatiIntegrator:
    def test_zero_horizon(self):
        tc = solve_transform_ode(FellerModel(1, 1, 0.5, 1), 1.0, 0.0)
        assert tc.alpha == 0.0
        assert tc.beta == 0.0

    def test_feller_matches_closed_form(self):
        m = FellerModel(kappa=1.0, theta=1.0, sigma=1.0, lambda0=1.0)
        ode = solve_transform_ode(m, 1.0, 1.0)
        exact = cir_transform_closed_form(m, 1.0, 1.0)
        assert ode.alpha == pytest.approx(exact.alpha, abs=1e-8)
        assert ode.beta == pytest.approx(exact.beta, abs=1e-8)

    def test_fitted_scale_parameters(self):
        # desk-scale rates: slow mean reversion, tiny volatility
        m = FellerModel(kappa=0.0043, theta=0.065, sigma=0.00267, lambda0=0.065)
        ode = solve_transform_ode(m, 1.0, 1.0)
        exact = cir_transform_closed_form(m, 1.0, 1.0)
        assert ode.alpha == pytest.approx(exact.alpha, abs=1e-8)
        assert ode.beta == pytest.approx(exact.beta, abs=1e-8)

    def test_vasicek_against_gaussian_quadrature(self):
        kappa, theta, sigma, x0, mu, horizon = 1.0, 0.05, 0.01, 0.05, 1.0, 1.0
        tc = solve_transform_ode(vasicek_model(kappa, theta, sigma), mu, horizon)
        L = tc.laplace([x0])
        m, v = vasicek_hazard_law(kappa, theta, sigma, x0, horizon)
        oracle = gaussian_laplace_quadrature(mu, m, v)
        assert L == pytest.approx(oracle, abs=1e-9)
        # and the analytic Gaussian Laplace transform
        assert L == pytest.approx(math.exp(-mu * m + 0.5 * mu**2 * v), rel=1e-10)

    def test_vasicek_jet_derivatives_against_moments(self):
        # d/dmu of exp(-mu m + mu^2 v/2) at mu has closed form; check the
        # first two jet coefficients carried through the integrator
        kappa, theta, sigma, x0 = 0.8, 0.1, 0.02, 0.07
        m, v = vasicek_hazard_law(kappa, theta, sigma, x0, 2.0)
        tc = solve_transform_ode(vasicek_model(kappa, theta, sigma), Jet.variable(0.0, 2), 2.0)
        L = tc.laplace([x0])
        # L(mu) = exp(-mu m + mu^2 v / 2): L'(0) = -m, L''(0) = m^2 + v
        assert L.coeffs[0] == pytest.approx(1.0, rel=1e-12)
        assert L.derivative(1) == pytest.approx(-m, rel=1e-9)
        assert L.derivative(2) == pytest.approx(m * m + v, rel=1e-9)

    def test_jet_coefficients_match_closed_form_jets(self):
        m = FellerModel(kappa=0.5, theta=1.2, sigma=0.6, lambda0=1.0)
        mu = Jet.variable(1.0, 8)
        ode = solve_transform_ode(m, mu, 1.5, tol=1e-12)
        exact = cir_transform_closed_form(m, mu, 1.5)
        assert np.allclose(ode.alpha.coeffs, exact.alpha.coeffs, rtol=0, atol=1e-9)
        assert np.allclose(ode.beta.coeffs, exact.beta.coeffs, rtol=0, atol=1e-9)

    def test_jet_order_zero_matches_scalar_bitwise(self):
        # step-size control looks only at the order-0 slots, so the jet run
        # takes the identical step sequence as the scalar run
        m = FellerModel(kappa=0.9, theta=0.8, sigma=0.7, lambda0=1.1)
        scalar = solve_transform_ode(m, 1.0, 2.0)
        jet = solve_transform_ode(m, Jet.variable(1.0, 5), 2.0)
        assert jet.alpha.value == scalar.alpha
        assert jet.beta.value == scalar.beta

    def test_rho0_shifts_alpha_linearly(self):
        # adding a constant rho0 multiplies L by exp(-mu rho0 horizon)
        base = FellerModel(1.0, 1.0, 0.5, 1.0).as_affine()
        shifted = AffineModel(
            dim=1,
            kappa=base.kappa,
            theta=base.theta,
            sigma_mat=base.sigma_mat,
            a=base.a,
            b=base.b,
            rho0=0.3,
        )
        mu, horizon = 1.3, 1.7
        t0 = solve_transform_ode(base, mu, horizon)
        t1 = solve_transform_ode(shifted, mu, horizon)
        assert t1.beta == pytest.approx(t0.beta, rel=1e-10)
        assert t1.alpha == pytest.approx(t0.alpha - mu * 0.3 * horizon, rel=1e-10)

    def test_explosion_reported_with_time(self):
        # negative mu drives beta to -infinity in finite time
        m = FellerModel(kappa=0.1, theta=1.0, sigma=2.0, lambda0=1.0)
        with pytest.raises(ExplosionError) as exc:
            solve_transform_ode(m, -5.0, 10.0)
        assert 0.0 < exc.value.time < 10.0
        assert "exploded" in str(exc.value)

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            solve_transform_ode(FellerModel(1, 1, 0.5, 1), 1.0, 1.0, tol=0.0)


class TestOnePath:
    """A float mu runs as an order-0 jet: same arithmetic, same bits."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_float_run_is_the_jet_runs_order_zero(self, d):
        rng = np.random.default_rng(1500 + d)
        for order in (1, 2, 3, 5, 8, 13, 21, 30):
            m = random_affine(rng, d)
            mu0, h = rng.uniform(0.0, 2.0), rng.uniform(0.2, 3.0)
            x = rng.uniform(0.2, 2.0, d)
            flt = solve_transform_ode(m, mu0, h)
            jet = solve_transform_ode(m, Jet.variable(mu0, order), h)
            assert type(flt.alpha) is float and jet.alpha.order == order
            assert jet.alpha.value == flt.alpha
            fb = flt.beta if d > 1 else (flt.beta,)
            jb = jet.beta if d > 1 else (jet.beta,)
            assert [b.value for b in jb] == list(fb)
            assert jet.laplace(x).value == flt.laplace(x)

    def test_prob_no_arrival_is_pmf_order_zero(self):
        from coxaffine import pmf, prob_no_arrival

        rng = np.random.default_rng(77)
        for m in (FellerModel(0.8, 1.1, 0.45, 0.9), random_affine(rng, 2)):
            for h in (0.4, 1.3, 2.9):
                assert prob_no_arrival(m, h) == pmf(m, h, k_max=12).probs[0]

    @pytest.mark.parametrize("mu", [1.0, Jet.variable(1.0, 3)], ids=["float", "jet"])
    def test_state_of_the_wrong_length_rejected(self, mu):
        one = solve_transform_ode(FellerModel(1.0, 1.0, 0.5, 1.0), mu, 1.0)
        two = solve_transform_ode(random_affine(np.random.default_rng(5), 2), mu, 1.0)
        for tc, bad in ((one, [1.0, 2.0]), (two, [1.0]), (two, [1.0, 1.0, 5.0])):
            with pytest.raises(ValueError, match="state of length"):
                tc.laplace(bad)

    def test_state_must_be_finite_numbers_of_either_sign(self):
        one = cir_transform_closed_form(FellerModel(1.0, 1.0, 0.5, 1.0), 1.0, 1.0)
        two = solve_transform_ode(random_affine(np.random.default_rng(5), 2), 1.0, 1.0)
        for tc, bad in ((one, math.nan), (one, [math.inf]), (two, np.array([1.0, -math.inf]))):
            with pytest.raises(ValueError, match="^x0 must be a vector of .* finite numbers"):
                tc.laplace(bad)
        for tc, bad in ((one, True), (one, "1"), (two, [1.0, True])):
            with pytest.raises(ValueError, match="^x0 must hold numbers"):
                tc.laplace(bad)
        # a Gaussian factor's state may be negative: only laplace_hazard's
        # Feller branch asks for >= 0
        assert one.laplace(-5.0) == math.exp(one.alpha + 5.0 * one.beta)
        assert two.laplace([-5.0, 0.0]) == math.exp(two.alpha + 5.0 * two.beta[0])

    def test_a_bad_affine_state_fails_before_the_riccati_solve(self, monkeypatch):
        from coxaffine import affine_core

        def solve(*args):
            raise AssertionError("the Riccati solve ran")

        monkeypatch.setattr(affine_core, "solve_transform_ode", solve)
        two = random_affine(np.random.default_rng(5), 2)
        for bad in ([1.0, math.nan], [math.inf, 0.5], [1.0, True]):
            with pytest.raises(ValueError, match="^x0 must "):
                laplace_hazard(two, 1.0, 1.0, x0=bad)

    def test_coeffs_hold_alpha_and_a_beta_tuple(self):
        assert [f.name for f in dataclasses.fields(TransformCoeffs)] == ["alpha", "beta"]
        m = random_affine(np.random.default_rng(6), 2)
        for mu in (1.0, Jet.variable(1.0, 2)):
            tc = solve_transform_ode(m, mu, 1.0)
            assert isinstance(tc.beta, tuple) and len(tc.beta) == 2


class TestLaplaceHazard:
    def test_mu_zero_is_one(self):
        assert laplace_hazard(FellerModel(1, 1, 0.5, 1), 0.0, 3.0) == 1.0

    def test_against_monte_carlo(self):
        m = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=1.0)
        n = 20_000
        gen = RngStream(78).generator()
        from coxaffine.simulate import _window_hazard

        hz = _window_hazard(m, np.full(n, m.lambda0), 1.0, 200, gen)
        est = np.exp(-hz)
        se = est.std(ddof=1) / math.sqrt(n)
        assert laplace_hazard(m, 1.0, 1.0) == pytest.approx(est.mean(), abs=3 * se)

    def test_mean_count_consistency(self):
        # -dL/dmu at mu=0 equals E[hazard] = E[count]
        from coxaffine import mean_count

        m = FellerModel(kappa=0.5, theta=2.0, sigma=0.4, lambda0=1.0)
        L = laplace_hazard(m, Jet.variable(0.0, 1), 2.0)
        assert -L.derivative(1) == pytest.approx(mean_count(m, 2.0), rel=1e-6)

    def test_x0_override(self):
        m = FellerModel(1.0, 1.0, 0.5, 1.0)
        assert laplace_hazard(m, 1.0, 1.0, x0=0.0) > laplace_hazard(m, 1.0, 1.0, x0=2.0)


class TestAdmissibility:
    def test_feller_passes_condition_a(self):
        report = check_admissibility(FellerModel(1.0, 1.0, 1.0, 1.0).as_affine())
        assert report.condition_a_ok == (True,)
        assert report.ok

    def test_feller_drift_domination_fails(self):
        # kappa theta < sigma^2 / 2 violates the boundary drift requirement
        report = check_admissibility(FellerModel(1.0, 0.1, 1.0, 0.1).as_affine())
        assert report.condition_a_ok == (False,)
        assert not report.ok

    def test_vasicek_gaussian_margin(self):
        good = check_admissibility(vasicek_model(1.0, 0.05, 0.01))
        # stationary sd = sigma / sqrt(2 kappa) ~ 0.00707, margin ~ 7.07
        assert good.condition_b_ok
        assert good.condition_b_gamma == pytest.approx(0.05 / (0.01 / math.sqrt(2.0)), rel=1e-12)
        bad = check_admissibility(vasicek_model(1.0, 0.01, 0.01))
        assert not bad.condition_b_ok
        assert not bad.ok

    def test_two_factor_square_root(self):
        model = AffineModel(
            dim=2,
            kappa=[[1.0, 0.0], [0.0, 1.0]],
            theta=[1.0, 1.0],
            sigma_mat=[[1.0, 0.0], [0.0, 1.0]],
            a=[0.0, 0.0],
            b=[[1.0, 0.0], [0.0, 1.0]],
        )
        report = check_admissibility(model)
        assert report.condition_a_ok == (True, True)
        assert report.ok
        assert report.tested_points

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AffineModel(
                dim=2,
                kappa=[[1.0]],
                theta=[1.0, 1.0],
                sigma_mat=[[1.0, 0.0], [0.0, 1.0]],
                a=[0.0, 0.0],
                b=[[1.0, 0.0], [0.0, 1.0]],
            )


class TestModelSerialization:
    def test_feller_roundtrip(self, tmp_path):
        m = FellerModel(kappa=0.0043, theta=0.065, sigma=0.00267, lambda0=0.065)
        path = tmp_path / "m.json"
        save_model(m, path)
        back = load_model(path)
        assert back == m

    def test_affine_roundtrip(self, tmp_path):
        m = vasicek_model(0.8, 0.1, 0.02, rho0=0.05)
        path = tmp_path / "m.json"
        save_model(m, path)
        back = load_model(path)
        assert isinstance(back, AffineModel)
        assert np.array_equal(back.kappa, m.kappa)
        assert np.array_equal(back.a, m.a)
        assert back.rho0 == m.rho0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"kind": "heston"})
        with pytest.raises(ValueError):
            model_from_dict([{"kind": "feller"}])

    def test_dict_follows_the_fields(self):
        for m in (FellerModel(1, 1, 0.5, 1), vasicek_model(0.8, 0.1, 0.02, rho0=0.05)):
            doc = model_to_dict(m)
            assert list(doc) == ["kind"] + [f.name for f in dataclasses.fields(m)]
            assert model_to_dict(model_from_dict(doc)) == doc

    FELLER = {"kind": "feller", "kappa": 1.0, "theta": 1.0, "sigma": 0.5, "lambda0": 1.0}
    AFFINE = {"kind": "affine", "dim": 1, "kappa": [[1.0]], "theta": [1.0],
              "sigma_mat": [[0.5]], "a": [0.0], "b": [[1.0]], "rho0": 0.0, "rho1": [1.0]}

    @pytest.mark.parametrize(
        "base, key, value",
        [
            (FELLER, "kappa", True),
            (FELLER, "kappa", "0.5"),
            (FELLER, "theta", None),
            (FELLER, "sigma", [0.5]),
            (FELLER, "lambda0", False),
            (AFFINE, "dim", 1.5),
            (AFFINE, "dim", True),
            (AFFINE, "dim", "1"),
            (AFFINE, "rho0", True),
            (AFFINE, "theta", ["1.0"]),
            (AFFINE, "kappa", [[True]]),
        ],
    )
    def test_values_must_be_numbers(self, base, key, value):
        with pytest.raises(ValueError, match=key):
            model_from_dict({**base, key: value})

    def test_whole_and_integer_values_read_as_numbers(self):
        m = model_from_dict({**self.FELLER, "kappa": 2, "lambda0": 0})
        assert m.kappa == 2.0 and type(m.kappa) is float and type(m.lambda0) is float
        a = model_from_dict({**self.AFFINE, "dim": 1.0, "kappa": [[2]]})
        assert a.dim == 1 and type(a.dim) is int and a.kappa[0, 0] == 2.0
        with pytest.raises(ValueError, match="missing key 'sigma'"):
            model_from_dict({k: v for k, v in self.FELLER.items() if k != "sigma"})
        assert model_from_dict({k: v for k, v in self.FELLER.items() if k != "lambda0"}).lambda0 == 0.0

    def test_dict_is_json_ready(self):
        import json

        doc = model_to_dict(FellerModel(1, 1, 0.5, 1))
        json.dumps(doc)

    def test_feller_validation(self):
        with pytest.raises(ValueError):
            FellerModel(kappa=-1.0, theta=1.0, sigma=0.5, lambda0=1.0)
        with pytest.raises(ValueError):
            FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=-0.1)

    def test_bools_are_not_numbers(self):
        with pytest.raises(ValueError, match="kappa"):
            FellerModel(True, 1.0, 0.5, lambda0=1.0)
        with pytest.raises(ValueError, match="lambda0"):
            FellerModel(1.0, 1.0, 0.5, lambda0=False)
        with pytest.raises(ValueError, match="lambda0"):
            FellerModel(1.0, 1.0, 0.5, lambda0="1")
        for dim in (True, 1.0, np.bool_(True)):
            with pytest.raises(ValueError, match="dim"):
                AffineModel(dim=dim, kappa=[[1.0]], theta=[1.0], sigma_mat=[[0.5]],
                            a=[0.0], b=[[1.0]])

    def test_numpy_scalars_are_numbers(self):
        m = FellerModel(np.int64(1), np.float64(1.0), np.float32(0.5), lambda0=np.int32(0))
        assert m.kappa == 1 and m.sigma == 0.5
        a = AffineModel(dim=np.int64(1), kappa=[[1.0]], theta=[1.0], sigma_mat=[[0.5]],
                        a=[0.0], b=[[1.0]])
        assert a.dim == 1 and type(a.dim) is int

    def test_feller_condition_flag(self):
        assert FellerModel(1.0, 1.0, 1.0, 1.0).feller_condition
        assert not FellerModel(1.0, 0.1, 1.0, 1.0).feller_condition
