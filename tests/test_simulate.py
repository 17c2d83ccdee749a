"""Exact transitions, path simulation, time-change arrivals, reproducibility."""

import math
import os
import threading

import numpy as np
import pytest

from coxaffine import (
    AffineModel,
    FellerModel,
    PathSample,
    RngStream,
    distance_to_stationary,
    euler_affine_path,
    mean_count,
    monte_carlo_pmf,
    prob_no_arrival,
    sample_cir_transition,
    simulate_arrivals,
    simulate_path,
)
from coxaffine import simulate
from coxaffine.simulate import BLOCK_SIZE, _window_hazard, default_n_steps

BASE = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=1.0)


def transition_moments(model, lam0, dt):
    e = math.exp(-model.kappa * dt)
    s2 = model.sigma**2
    mean = model.theta + (lam0 - model.theta) * e
    var = lam0 * s2 * (e - e * e) / model.kappa + model.theta * s2 * (1.0 - e) ** 2 / (
        2.0 * model.kappa
    )
    return mean, var


def assert_moments_match(model, lam0, dt, n, seed, var_slack=1.0):
    gen = RngStream(seed).generator()
    draws = sample_cir_transition(model, np.full(n, lam0), dt, gen)
    mean, var = transition_moments(model, lam0, dt)
    assert np.all(draws >= 0.0)
    z_mean = abs(draws.mean() - mean) / (draws.std(ddof=1) / math.sqrt(n))
    assert z_mean < 4.0, f"mean z = {z_mean:.2f}"
    # SE of the sample variance via the fourth central moment
    c = draws - draws.mean()
    se_var = math.sqrt(max(np.mean(c**4) - var * var, 0.0) / n) * var_slack
    assert abs(draws.var(ddof=1) - var) < 4.0 * se_var, (
        f"var {draws.var(ddof=1):.6g} vs {var:.6g}"
    )


class TestTransition:
    def test_moments(self):
        assert_moments_match(BASE, 1.7, 0.7, 400_000, 2201)

    def test_moments_low_degrees_of_freedom(self):
        # 4 kappa theta / sigma^2 = 0.5 < 1: the boundary is attainable and
        # the Gamma route must still produce the exact law
        model = FellerModel(kappa=0.02, theta=1.0, sigma=0.4, lambda0=0.5)
        assert not model.feller_condition
        assert_moments_match(model, 0.5, 5.0, 400_000, 2202)

    def test_start_at_zero_boundary(self):
        gen = RngStream(2203).generator()
        draws = sample_cir_transition(BASE, np.zeros(200_000), 0.5, gen)
        mean, _ = transition_moments(BASE, 0.0, 0.5)
        assert np.all(draws >= 0.0)
        z = abs(draws.mean() - mean) / (draws.std(ddof=1) / math.sqrt(draws.size))
        assert z < 4.0

    def test_normal_fallback_regime(self):
        # tiny sigma overflows the Poisson mixing parameter; the fallback
        # must keep the exact conditional mean and variance
        model = FellerModel(kappa=1.0, theta=1.0, sigma=1e-7, lambda0=1.3)
        assert_moments_match(model, 1.3, 0.4, 200_000, 2204)

    def test_mixed_block_routes_only_the_large_element(self):
        # noncentrality lam e/c crosses 1e12 only for the last element
        small = np.array([0.3, 1.0, 2.5])
        mixed = np.append(small, 1e9)
        alone = sample_cir_transition(BASE, small, 0.01, RngStream(2205).generator())
        gen = RngStream(2205).generator()
        out = sample_cir_transition(BASE, mixed, 0.01, gen)
        assert np.array_equal(out[:3], alone)
        # the large element takes exactly one standard Normal after the others
        replay = RngStream(2205).generator()
        sample_cir_transition(BASE, small, 0.01, replay)
        z = replay.standard_normal()
        mean, var = transition_moments(BASE, 1e9, 0.01)
        assert out[3] == pytest.approx(mean + math.sqrt(var) * z, rel=1e-12)
        assert gen.random() == replay.random()

    def test_underflow_is_deterministic(self):
        model = FellerModel(kappa=1.0, theta=1.0, sigma=1e-300, lambda0=1.3)
        mean, _ = transition_moments(model, 1.3, 0.4)
        out = sample_cir_transition(model, np.full(5, 1.3), 0.4, RngStream(0).generator())
        assert np.all(out == mean)

    def test_scalar_in_scalar_out(self):
        out = sample_cir_transition(BASE, 1.0, 0.5, RngStream(1).generator())
        assert isinstance(out, float) and out >= 0.0

    def test_validation(self):
        gen = RngStream(0).generator()
        with pytest.raises(ValueError):
            sample_cir_transition(BASE, 1.0, 0.0, gen)
        with pytest.raises(ValueError):
            sample_cir_transition(BASE, -0.1, 0.5, gen)


def array_route_chain(model, start, dt, n, gen):
    """A chain advanced through the array route of ``sample_cir_transition``,
    one single-element array per step: what the scalar route must equal."""
    lam = np.empty(n)
    lam[0] = start
    for i in range(1, n):
        lam[i] = sample_cir_transition(model, lam[i - 1 : i], dt, gen)[0]
    return lam


class TestCirChain:
    @pytest.mark.parametrize(
        "model, start, dt",
        [
            # chi-square route at every step, from the boundary and from 1
            (BASE, 1.0, 0.01),
            (FellerModel(kappa=0.02, theta=1.0, sigma=0.4, lambda0=0.5), 0.0, 5.0),
            # Normal route at every step: degrees of freedom above 1e12
            (FellerModel(kappa=1.0, theta=1.0, sigma=1e-7, lambda0=1.3), 1.3, 0.4),
            # ... and with a noncentrality near 2e8, far below it
            (FellerModel(kappa=1.0, theta=1.0, sigma=1e-6, lambda0=1.0), 1.0, 10.0),
            # noncentrality above 1e12 for the first steps, chi-square after
            (FellerModel(kappa=1.0, theta=1.0, sigma=1e-5, lambda0=100.0), 100.0, 1.0),
            # sigma^2 underflows: the deterministic route
            (FellerModel(kappa=1.0, theta=1.0, sigma=1e-300, lambda0=1.3), 1.3, 0.4),
        ],
    )
    def test_bits_and_draws_match_the_array_route(self, model, start, dt):
        gen = RngStream(2301).generator()
        replay = RngStream(2301).generator()
        got = simulate._cir_chain(model, start, dt, 3000, gen)
        want = array_route_chain(model, start, dt, 3000, replay)
        assert got.tobytes() == want.tobytes()
        assert gen.random() == replay.random()  # the same draws were taken

    def test_mixed_case_takes_both_routes(self):
        model = FellerModel(kappa=1.0, theta=1.0, sigma=1e-5, lambda0=100.0)
        e, c, _ = simulate._transition_constants(model, 1.0)
        lam = simulate._cir_chain(model, 100.0, 1.0, 50, RngStream(2301).generator())
        noncent = lam[:-1] * (e / c)
        assert (noncent > 1e12).any() and (noncent <= 1e12).any()

    def test_bad_input_raises_as_the_sampler_does(self):
        gen = RngStream(0).generator()
        with pytest.raises(ValueError, match="lambda_s"):
            simulate._cir_chain(BASE, -0.1, 0.5, 3, gen)
        with pytest.raises(ValueError, match="dt"):
            simulate._cir_chain(BASE, 1.0, 0.0, 3, gen)
        # exp(-kappa dt) underflows to 0, so the noncentrality of a negative
        # lambda is -0.0: the float route must still reject it
        with pytest.raises(ValueError, match="lambda_s"):
            sample_cir_transition(BASE, -0.1, 1e4, gen)


class TestPathSimulation:
    def test_hazard_mean_matches_count_mean(self):
        model = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=2.0)
        gen = RngStream(3001).generator()
        hz = _window_hazard(model, np.full(100_000, model.lambda0), 1.0, 64, gen)
        target = mean_count(model, 1.0)
        z = abs(hz.mean() - target) / (hz.std(ddof=1) / math.sqrt(hz.size))
        assert z < 4.0

    def test_trapezoid_bias_is_second_order(self):
        # effectively deterministic relaxation: refining the grid 4x must
        # shrink the hazard error ~16x
        model = FellerModel(kappa=2.0, theta=1.0, sigma=1e-12, lambda0=5.0)
        exact = mean_count(model, 1.0)
        errs = []
        for n in (200, 800):
            p = simulate_path(model, 1.0, n_steps=n, rng=RngStream(5))
            errs.append(abs(p.cum_hazard[-1] - exact))
        assert errs[0] < 1e-4
        assert errs[1] < errs[0] / 10.0

    def test_constant_intensity_hazard_exact(self):
        model = FellerModel(kappa=1.0, theta=0.8, sigma=1e-300, lambda0=0.8)
        p = simulate_path(model, 3.0, n_steps=7, rng=RngStream(5))
        assert p.cum_hazard[-1] == pytest.approx(0.8 * 3.0, rel=1e-12)
        assert p.horizon == 3.0

    def test_zero_horizon(self):
        p = simulate_path(BASE, 0.0)
        assert p.grid.size == 1 and p.cum_hazard[0] == 0.0
        assert p.intensity[0] == BASE.lambda0

    def test_default_steps_track_kappa(self):
        assert default_n_steps(BASE, 1.0) == 100
        fast = FellerModel(kappa=50.0, theta=1.0, sigma=0.5, lambda0=1.0)
        assert default_n_steps(fast, 1.0) == 500

    def test_reproducible_and_streams_distinct(self):
        a = simulate_path(BASE, 1.0, rng=RngStream(77))
        b = simulate_path(BASE, 1.0, rng=RngStream(77))
        c = simulate_path(BASE, 1.0, rng=RngStream(77, stream_id=1))
        assert np.array_equal(a.intensity, b.intensity)
        assert not np.array_equal(a.intensity, c.intensity)

    def test_validation(self):
        for horizon in (-1.0, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                simulate_path(BASE, horizon)
        with pytest.raises(ValueError):
            simulate_path(BASE, 1.0, n_steps=0)


class TestPathContainer:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="start at 0"):
            PathSample(grid=np.array([0.0, 1.0]), intensity=np.ones(2), cum_hazard=np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="nondecreasing"):
            PathSample(grid=np.array([0.0, 1.0]), intensity=np.ones(2), cum_hazard=np.array([0.0, -0.2]))
        with pytest.raises(ValueError, match="equal shapes"):
            PathSample(grid=np.zeros(3), intensity=np.ones(2), cum_hazard=np.zeros(3))
        with pytest.raises(ValueError, match="within the path grid"):
            PathSample(
                grid=np.array([0.0, 1.0]),
                intensity=np.ones(2),
                cum_hazard=np.array([0.0, 1.0]),
                arrivals=np.array([1.5]),
            )

    def test_with_arrivals(self):
        p = simulate_path(BASE, 1.0, rng=RngStream(4))
        q = p.with_arrivals(np.array([0.25, 0.75]))
        assert q.arrivals.size == 2 and p.arrivals is None

    def test_caller_arrays_stay_writable(self):
        fields = {
            "grid": np.array([0.0, 1.0]),
            "intensity": np.ones(2),
            "cum_hazard": np.array([0.0, 1.0]),
            "arrivals": np.array([0.5]),
        }
        p = PathSample(**fields)
        for name, given in fields.items():
            assert given.flags.writeable, name
            held = getattr(p, name)
            assert not held.flags.writeable and held.tobytes() == given.tobytes(), name
            given[0] = 7.0
            assert held[0] != 7.0, name
        assert PathSample(grid=[0.0, 1.0], intensity=[1, 1], cum_hazard=(0, 1)).grid.dtype == float

    def test_read_only_arrays_are_kept(self):
        # the simulators hand over read-only arrays, which are not copied
        for path in (
            simulate_path(BASE, 1.0, rng=RngStream(4)),
            euler_affine_path(BASE.as_affine(), 1.0, 1.0, 10, RngStream(4)),
        ):
            for name in ("grid", "intensity", "cum_hazard"):
                arr = getattr(path, name)
                assert not arr.flags.writeable, name
                assert getattr(PathSample(path.grid, path.intensity, path.cum_hazard), name) is arr


class TestArrivals:
    def test_homogeneous_rate(self):
        # flat path: counts are Poisson(rate * horizon)
        path = PathSample(
            grid=np.array([0.0, 10_000.0]),
            intensity=np.array([0.7, 0.7]),
            cum_hazard=np.array([0.0, 7000.0]),
        )
        arr = simulate_arrivals(path, RngStream(41))
        assert abs(arr.size - 7000.0) < 4.0 * math.sqrt(7000.0)
        assert arr.min() >= 0.0 and arr.max() <= 10_000.0
        assert np.all(np.diff(arr) >= 0.0)
        # uniform conditional spread: mean arrival near the midpoint
        assert abs(arr.mean() - 5000.0) < 4.0 * 10_000.0 / math.sqrt(12.0 * arr.size)

    def test_zero_hazard_gives_no_arrivals(self):
        path = PathSample(
            grid=np.array([0.0, 1.0]), intensity=np.zeros(2), cum_hazard=np.zeros(2)
        )
        assert simulate_arrivals(path, RngStream(1)).size == 0

    def test_no_arrival_fraction(self):
        # first-arrival logic: no arrival in the window iff a unit
        # exponential exceeds the total hazard
        gen = RngStream(3002).generator()
        hz = _window_hazard(BASE, np.full(100_000, BASE.lambda0), 1.0, 64, gen)
        frac = float(np.mean(gen.standard_exponential(hz.size) > hz))
        p0 = prob_no_arrival(BASE, 1.0)
        se = math.sqrt(p0 * (1.0 - p0) / hz.size)
        assert abs(frac - p0) < 3.5 * se

    def test_conditional_counts_are_poisson(self):
        path = simulate_path(BASE, 50.0, n_steps=5000, rng=RngStream(90))
        total = float(path.cum_hazard[-1])
        counts = np.array(
            [simulate_arrivals(path, RngStream(91, stream_id=i)).size for i in range(3000)]
        )
        z = abs(counts.mean() - total) / (counts.std(ddof=1) / math.sqrt(counts.size))
        assert z < 4.0
        dispersion = counts.var(ddof=1) / counts.mean()
        assert abs(dispersion - 1.0) < 4.0 * math.sqrt(2.0 / (counts.size - 1))


class TestMonteCarloPmf:
    def test_zero_horizon(self):
        mc = monte_carlo_pmf(BASE, 0.0, 1000, 3, RngStream(6))
        assert mc.pmf.probs[0] == 1.0
        assert np.all(mc.std_errors == 0.0)

    def test_validation(self):
        for horizon in (-1.0, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                monte_carlo_pmf(BASE, horizon, 1000, 3, RngStream(6))

    def test_reproducible_and_block_boundary(self):
        # n_paths straddling a block boundary exercises the per-block
        # stream accounting
        a = monte_carlo_pmf(BASE, 1.0, 16_384 + 7, 5, RngStream(8))
        b = monte_carlo_pmf(BASE, 1.0, 16_384 + 7, 5, RngStream(8))
        assert np.array_equal(a.pmf.probs, b.pmf.probs)
        assert a.n_paths == 16_384 + 7
        assert a.pmf.probs.sum() + a.pmf.tail_bound == pytest.approx(1.0, abs=1e-12)

    def test_sizes_checked_before_any_block(self):
        for n_steps in (-1, 0, 2.5):
            with pytest.raises(ValueError, match="n_steps"):
                monte_carlo_pmf(BASE, 1.0, 100, 3, RngStream(0), n_steps=n_steps)
        for n_paths in (0, 2.5):
            with pytest.raises(ValueError, match="n_paths"):
                monte_carlo_pmf(BASE, 1.0, n_paths, 3, RngStream(0))

    def test_bool_sizes_rejected(self):
        # bool is an int subclass; True must not pass as one path or one step
        for kwargs in ({"n_steps": True}, {"n_steps": False}):
            with pytest.raises(ValueError, match="n_steps"):
                monte_carlo_pmf(BASE, 1.0, 100, 3, RngStream(0), **kwargs)
        with pytest.raises(ValueError, match="n_paths"):
            monte_carlo_pmf(BASE, 1.0, True, 3, RngStream(0), n_steps=True)
        with pytest.raises(ValueError, match="k_max"):
            monte_carlo_pmf(BASE, 1.0, 100, False, RngStream(0))
        with pytest.raises(ValueError, match="n_steps"):
            simulate_path(BASE, 1.0, n_steps=True, rng=RngStream(0))
        with pytest.raises(ValueError, match="n_paths"):
            distance_to_stationary(BASE, [0.0], True, RngStream(0))

    def test_distance_path_count_checked(self):
        for n_paths in (0, -5):
            with pytest.raises(ValueError, match="n_paths"):
                distance_to_stationary(BASE, [0.0, 0.5], n_paths, RngStream(0))


def reference_averaged_pmf(model, launch, n_paths, window, n_steps, k_max, rng):
    """The block loop that runs one block after another in index order and
    adds each block's sums as it goes; ``_averaged_conditional_pmf`` must
    give its bits at any thread count."""
    sums = np.zeros(k_max + 1)
    sumsq = np.zeros(k_max + 1)
    n_done = 0
    block_id = 0
    while n_done < n_paths:
        nb = min(BLOCK_SIZE, n_paths - n_done)
        gen = rng.spawn(block_id).generator()
        hazard = _window_hazard(model, launch(gen, nb), window, n_steps, gen)
        pk = np.exp(-hazard)
        for k in range(k_max + 1):
            sums[k] += pk.sum()
            sumsq[k] += (pk * pk).sum()
            pk = pk * hazard / (k + 1)
        n_done += nb
        block_id += 1
    phat = sums / n_paths
    var_hat = np.clip(sumsq / n_paths - phat**2, 0.0, None)
    return phat, np.sqrt(var_hat / n_paths)


N_PARTIAL = 2 * BLOCK_SIZE + 7  # the last block is partial
T_GRID = [0.0, 0.5]


@pytest.fixture(scope="module")
def reference_runs():
    """``monte_carlo_pmf`` and ``distance_to_stationary`` through the reference loop."""
    patch = pytest.MonkeyPatch()
    try:
        patch.setattr(simulate, "_averaged_conditional_pmf", reference_averaged_pmf)
        mc = monte_carlo_pmf(BASE, 1.0, N_PARTIAL, 8, RngStream(31), n_steps=20)
        dist = distance_to_stationary(BASE, T_GRID, N_PARTIAL, RngStream(32))
    finally:
        patch.undo()
    return mc, dist


@pytest.fixture
def thread_starts(monkeypatch):
    """The names of the threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


class TestBlockThreads:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_thread_count_changes_no_bits(self, cpus, monkeypatch, reference_runs, thread_starts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        ref_mc, ref_dist = reference_runs
        before = threading.active_count()
        mc = monte_carlo_pmf(BASE, 1.0, N_PARTIAL, 8, RngStream(31), n_steps=20)
        dist = distance_to_stationary(BASE, T_GRID, N_PARTIAL, RngStream(32))
        assert threading.active_count() == before
        assert mc.pmf.probs.tobytes() == ref_mc.pmf.probs.tobytes()
        assert mc.std_errors.tobytes() == ref_mc.std_errors.tobytes()
        assert dist.distances.tobytes() == ref_dist.distances.tobytes()
        # four estimates of three to five blocks each, on at most `cpus` threads
        if cpus == 1:
            assert thread_starts == []
        else:
            assert 4 <= len(thread_starts) <= 4 * cpus

    def test_one_block_starts_no_thread(self, monkeypatch, thread_starts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monte_carlo_pmf(BASE, 1.0, BLOCK_SIZE, 8, RngStream(33), n_steps=5)
        assert thread_starts == []


class TestEulerPath:
    def make_vasicek(self, kappa, theta, sigma):
        return AffineModel(
            dim=1,
            kappa=np.array([[kappa]]),
            theta=np.array([theta]),
            sigma_mat=np.array([[sigma]]),
            a=np.array([1.0]),
            b=np.zeros((1, 1)),
        )

    def test_deterministic_drift(self):
        model = self.make_vasicek(2.0, 1.0, 1e-12)
        p = euler_affine_path(model, np.array([5.0]), 1.0, 4000, RngStream(12))
        exact_end = 1.0 + 4.0 * math.exp(-2.0)
        exact_hazard = 1.0 + 4.0 * (1.0 - math.exp(-2.0)) / 2.0
        assert p.intensity[-1] == pytest.approx(exact_end, abs=2e-3)
        assert p.cum_hazard[-1] == pytest.approx(exact_hazard, abs=2e-3)
        assert p.states.shape == (4001, 1)

    def test_ou_moments(self):
        model = self.make_vasicek(1.0, 1.0, 0.4)
        ends = np.array(
            [
                euler_affine_path(model, np.array([1.0]), 1.0, 200, RngStream(13, stream_id=i)).states[-1, 0]
                for i in range(400)
            ]
        )
        var = 0.4**2 * (1.0 - math.exp(-2.0)) / 2.0
        z = abs(ends.mean() - 1.0) / (ends.std(ddof=1) / math.sqrt(ends.size))
        assert z < 4.0
        assert abs(ends.var(ddof=1) - var) / var < 4.0 * math.sqrt(2.0 / (ends.size - 1)) + 0.02

    def test_negative_intensity_clipped(self):
        model = AffineModel(
            dim=1,
            kappa=np.array([[1.0]]),
            theta=np.array([-2.0]),
            sigma_mat=np.array([[1e-12]]),
            a=np.array([1.0]),
            b=np.zeros((1, 1)),
        )
        p = euler_affine_path(model, np.array([1.0]), 2.0, 500, RngStream(14))
        assert np.all(p.intensity >= 0.0)
        assert np.all(np.diff(p.cum_hazard) >= 0.0)
