"""Acceptance gate: one test per shipped quality criterion.

Each test measures the quantity its criterion gates, records a PASS/FAIL
line with the measured values through the conftest reporter (printed as a
summary block at the end of the pytest run), and asserts.  Monte Carlo
sizes and seeds are frozen so every line reproduces bit for bit; stated
runtime budgets are asserted alongside the tolerances.
"""

import json
import math
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy import stats

from conftest import record_criterion
from test_estimate import joint_gaussian_loglik

from coxaffine import (
    FellerModel,
    Jet,
    RngStream,
    StateSpaceSpec,
    cir_transform_closed_form,
    distance_to_stationary,
    kalman_filter,
    laplace_hazard,
    ljung_box_pvalue,
    mean_count,
    monte_carlo_pmf,
    pmf,
    replication_study,
    sample_cir_transition,
    simulate_observations,
    solve_transform_ode,
    stationary_count,
    var_count,
)
from coxaffine import simulate as sim
from coxaffine.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

# shared parameter grid for the transform and moment criteria
GRID_KAPPA = (0.01, 0.5, 2.0)
GRID_THETA = (0.05, 1.0)
GRID_SIGMA = (0.05, 0.5)
GRID_MU = (0.5, 1.0, 2.0)
GRID_T = (0.1, 1.0, 10.0)


@contextmanager
def criterion(num, desc):
    """Record one acceptance line; unexpected errors record a FAIL too."""
    state = {"recorded": False}

    def finish(passed, detail):
        state["recorded"] = True
        record_criterion(num, desc, passed, detail)
        assert passed, f"criterion {num} ({desc}): {detail}"

    try:
        yield finish
    except BaseException as exc:
        if not state["recorded"]:
            record_criterion(num, desc, False, f"{type(exc).__name__}: {exc}")
        raise


def test_criterion_01_closed_form_matches_riccati_ode():
    with criterion(1, "closed-form transform vs Riccati ODE on the full grid") as finish:
        t0 = time.perf_counter()
        worst = 0.0
        n_points = 0
        for kappa in GRID_KAPPA:
            for theta in GRID_THETA:
                for sigma in GRID_SIGMA:
                    model = FellerModel(kappa, theta, sigma, theta)
                    for mu in GRID_MU:
                        for horizon in GRID_T:
                            cf = cir_transform_closed_form(model, mu, horizon)
                            ode = solve_transform_ode(model, mu, horizon)
                            worst = max(
                                worst,
                                abs(cf.alpha - ode.alpha),
                                abs(cf.beta - ode.beta),
                            )
                            n_points += 1
        elapsed = time.perf_counter() - t0
        finish(
            worst < 1e-8 and elapsed < 10.0,
            f"max |alpha, beta| error {worst:.2e} (tol 1e-8) over {n_points} points, "
            f"{elapsed:.2f}s (budget 10s)",
        )


def test_criterion_02_pmf_within_monte_carlo_error():
    with criterion(2, "count pmf within 3 SE of a 1e6-path Monte Carlo") as finish:
        t0 = time.perf_counter()
        model = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=1.0)
        exact = pmf(model, 1.0, k_max=20)
        # at 1e6 paths the standard errors are small enough that the trapezoid
        # hazard bias at the default step count would show; refine until the
        # discretization floor sits below the Monte Carlo noise floor
        mc = monte_carlo_pmf(model, 1.0, 1_000_000, 20, RngStream(2), n_steps=400)
        z = np.abs(exact.probs - mc.pmf.probs) / mc.std_errors
        mass_err = abs(float(exact.probs.sum() + exact.tail_bound) - 1.0)
        elapsed = time.perf_counter() - t0
        finish(
            float(z.max()) <= 3.0 and mass_err <= 1e-12 and elapsed < 120.0,
            f"worst |z| {z.max():.2f} (gate 3) for k <= 20, mass error {mass_err:.1e} "
            f"(tol 1e-12), {elapsed:.1f}s (budget 120s)",
        )


def test_criterion_03_poisson_limit():
    with criterion(3, "vanishing volatility recovers the Poisson pmf") as finish:
        probs = pmf(FellerModel(1.0, 1.0, 1e-8, 1.0), 2.0, k_max=10).probs
        ref = stats.poisson.pmf(np.arange(11), 2.0)
        worst = float(np.abs(probs - ref).max())
        finish(worst < 1e-5, f"max |p_k - Poisson(2)_k| {worst:.2e} (tol 1e-5) for k <= 10")


def mc_count_variance(model, horizon, n_paths, n_steps, stream):
    # exact transitions on a fine grid, trapezoid hazard, Poisson counts
    gen = stream.generator()
    dt = horizon / n_steps
    lam = np.full(n_paths, model.lambda0)
    hazard = np.zeros(n_paths)
    for _ in range(n_steps):
        nxt = sample_cir_transition(model, lam, dt, gen)
        hazard += 0.5 * dt * (lam + nxt)
        lam = nxt
    counts = gen.poisson(hazard).astype(float)
    v = float(counts.var(ddof=1))
    m4 = float(((counts - counts.mean()) ** 4).mean())
    se = math.sqrt(max(m4 - v * v, 0.0) / n_paths)
    return v, se


def test_criterion_04_count_moments():
    with criterion(4, "mean identity, MC variance match, overdispersion") as finish:
        worst_rel = 0.0
        overdispersed = True
        n_points = 0
        for kappa in GRID_KAPPA:
            for theta in GRID_THETA:
                for sigma in GRID_SIGMA:
                    for lam0 in (0.0, theta, 2.0 * theta):
                        model = FellerModel(kappa, theta, sigma, lam0)
                        for horizon in GRID_T:
                            jet = laplace_hazard(model, Jet.variable(0.0, 1), horizon)
                            m_jet = -jet.derivative(1)
                            m_closed = mean_count(model, horizon)
                            worst_rel = max(worst_rel, abs(m_jet - m_closed) / m_closed)
                            if var_count(model, horizon) < m_closed * (1.0 - 1e-12):
                                overdispersed = False
                            n_points += 1
        mc_points = [
            (FellerModel(0.5, 1.0, 0.5, 1.0), 1.0),
            (FellerModel(2.0, 0.05, 0.05, 0.1), 1.0),
            (FellerModel(0.01, 1.0, 0.5, 0.0), 1.0),
            (FellerModel(0.5, 0.05, 0.05, 0.05), 10.0),
            (FellerModel(2.0, 1.0, 0.5, 2.0), 0.1),
            (FellerModel(0.01, 0.05, 0.05, 0.05), 10.0),
        ]
        worst_z = 0.0
        for i, (model, horizon) in enumerate(mc_points):
            n_steps = max(128, min(512, int(64 * model.kappa * horizon)))
            v_hat, se = mc_count_variance(
                model, horizon, 60_000, n_steps, RngStream(4, stream_id=i)
            )
            worst_z = max(worst_z, abs(var_count(model, horizon) - v_hat) / se)
        finish(
            worst_rel < 1e-6 and overdispersed and worst_z <= 3.0,
            f"mean vs transform derivative worst rel err {worst_rel:.1e} (tol 1e-6) over "
            f"{n_points} points, var >= mean everywhere: {overdispersed}, "
            f"MC variance worst |z| {worst_z:.2f} (gate 3) at 6 points",
        )


def test_criterion_05_stationary_window_counts_negbin():
    with criterion(5, "stationary unit-window counts match the mixed NegBin law") as finish:
        model = FellerModel(kappa=0.01, theta=1.0, sigma=math.sqrt(0.02), lambda0=1.0)
        n = 100_000
        rng = RngStream(55)
        burn_in = 4.0 / model.kappa
        counts = np.empty(n, dtype=np.int64)
        done = 0
        block_id = 0
        while done < n:
            nb = min(sim.BLOCK_SIZE, n - done)
            gen = rng.spawn(block_id).generator()
            lam = np.full(nb, model.theta)
            lam = sample_cir_transition(model, lam, burn_in, gen)
            hazard = sim._window_hazard(model, lam, 1.0, 64, gen)
            counts[done:done + nb] = gen.poisson(hazard)
            done += nb
            block_id += 1
        law = stationary_count(model, 1.0)
        # individual bins while every expected count stays >= 5, then one tail bin
        k_cut = 0
        while n * law.pmf(k_cut + 1) >= 5.0 and n * law.sf(k_cut + 1) >= 5.0:
            k_cut += 1
        expected = np.append(n * law.pmf(np.arange(k_cut + 1)), n * law.sf(k_cut))
        observed = np.bincount(np.minimum(counts, k_cut + 1), minlength=k_cut + 2)
        q = float(((observed - expected) ** 2 / expected).sum())
        p_value = float(stats.chi2.sf(q, expected.size - 1))
        finish(
            p_value > 0.01,
            f"chi-square GOF p {p_value:.3f} (gate > 0.01), {expected.size} bins, "
            f"min expected {expected.min():.1f}, {n} samples",
        )


def test_criterion_06_convergence_slope():
    with criterion(6, "distance-to-stationarity decays at the predicted rate") as finish:
        model = FellerModel(kappa=1.0, theta=1.0, sigma=0.5, lambda0=1.0)
        t_grid = np.round(np.arange(0.05, 0.66, 0.1), 3)
        report = distance_to_stationary(model, t_grid, 100_000, RngStream(62), start="fixed")
        finish(
            -3.0 <= report.slope <= -1.0,
            f"fitted log-distance slope {report.slope:.3f} (band [-3, -1], target -2), "
            f"{int(report.used_points.sum())} of {t_grid.size} grid points used",
        )


def test_criterion_07_ljung_box_reference_values():
    with criterion(7, "Ljung-Box p-values match reference table") as finish:
        cases = [(8.36, 5, 0.137), (13.47, 10, 0.198), (17.0, 15, 0.319)]
        measured = [ljung_box_pvalue(q, lag) for q, lag, _ in cases]
        worst = max(abs(m - ref) for m, (_, _, ref) in zip(measured, cases))
        finish(
            worst <= 0.005,
            f"p(8.36, 5)={measured[0]:.3f}, p(13.47, 10)={measured[1]:.3f}, "
            f"p(17, 15)={measured[2]:.3f}; worst deviation {worst:.4f} (tol 0.005)",
        )


def test_criterion_08_filter_matches_joint_gaussian():
    with criterion(8, "prediction-error loglik equals the joint-Gaussian density") as finish:
        direct = StateSpaceSpec(delta=1.0, window=1.0, mapping="direct_state")
        params_d = FellerModel(0.8, 2.0, 0.4, 2.0)
        y_d = np.array([2.1, 1.85, 2.3, 2.02, 1.94])
        log_spec = StateSpaceSpec(delta=1.0, window=0.01, mapping="log_prob_no_arrival")
        params_l = FellerModel(0.3, 0.05, 0.06, 0.05)
        y_l = simulate_observations(params_l, 1e-4, log_spec, 5, RngStream(551))
        worst = 0.0
        for T in (3, 5):
            worst = max(
                worst,
                abs(kalman_filter(params_d, 0.3, y_d[:T], direct).loglik
                    - joint_gaussian_loglik(params_d, 0.3, y_d[:T], direct)),
                abs(kalman_filter(params_l, 1e-4, y_l[:T], log_spec).loglik
                    - joint_gaussian_loglik(params_l, 1e-4, y_l[:T], log_spec)),
            )
        finish(
            worst < 1e-8,
            f"worst |loglik difference| {worst:.2e} (tol 1e-8), T in (3, 5), both mappings",
        )


_REPLICATION_CACHE = {}


def desk_scale_replication():
    """Run the 100-rep study once; criteria 9 and 10 both read it."""
    if "summary" not in _REPLICATION_CACHE:
        t0 = time.perf_counter()
        summary = replication_study(
            FellerModel(kappa=0.2, theta=0.04, sigma=0.05, lambda0=0.04),
            n_reps=100,
            series_len=500,
            rng=RngStream(909),
            R=1e-3,
            spec=StateSpaceSpec(delta=1.0, window=1.0),
            jobs=2,
        )
        _REPLICATION_CACHE["summary"] = summary
        _REPLICATION_CACHE["elapsed"] = time.perf_counter() - t0
    return _REPLICATION_CACHE["summary"], _REPLICATION_CACHE["elapsed"]


def test_criterion_09_replication_study_at_desk_scale():
    with criterion(9, "100-rep simulate-and-refit study recovers theta and sigma") as finish:
        summary, elapsed = desk_scale_replication()
        means = summary.mean_estimates()
        kappa_hat, theta_hat, sigma_hat = means[0], means[1], means[2]
        kappa_mqe = float(summary.mqe()[0])
        edges, hist_counts = summary.histogram("kappa")
        finish(
            abs(theta_hat - 0.04) <= 0.01
            and 0.035 <= sigma_hat <= 0.055
            and elapsed < 900.0,
            f"mean theta_hat {theta_hat:.5f} (gate 0.04 +- 0.01), mean sigma_hat "
            f"{sigma_hat:.5f} (gate [0.035, 0.055]), kappa_hat {kappa_hat:.4f} with MQE "
            f"{kappa_mqe:.4f} and histogram over [{edges[0]:.3f}, {edges[-1]:.3f}]: "
            f"{hist_counts.tolist()}, n_failed {summary.n_failed}, "
            f"{elapsed:.0f}s (budget 900s)",
        )


def test_criterion_10_fit_on_simulated_data(tmp_path):
    with criterion(10, "end-to-end fit on a simulated fixture, white residuals") as finish:
        out = tmp_path / "fit"
        code = main([
            "fit", "--data", str(FIXTURES / "events_dense.csv"),
            "--out", str(out), "--seed", "1",
        ])
        doc = json.loads((out / "estimate.json").read_text())
        theta_hat = float(doc["estimates"]["theta"])
        summary, _ = desk_scale_replication()
        lb_rate = float(summary.lb_passed.mean())
        finish(
            code == 0 and abs(theta_hat - 0.5) <= 0.25 * 0.5 and lb_rate >= 0.9,
            f"fit exit code {code}, theta_hat {theta_hat:.3f} (true 0.5, tol 25%), "
            f"Ljung-Box pass rate {lb_rate:.2f} (gate >= 0.90)",
        )


def test_criterion_11_byte_identical_reruns(tmp_path):
    with criterion(11, "reruns byte-identical under any parallelism degree") as finish:
        unit = tmp_path / "unit.json"
        unit.write_text(json.dumps(
            {"kind": "feller", "kappa": 1.0, "theta": 1.0, "sigma": 0.5, "lambda0": 1.0}
        ))
        desk = tmp_path / "desk.json"
        desk.write_text(json.dumps(
            {"kind": "feller", "kappa": 0.2, "theta": 0.04, "sigma": 0.05, "lambda0": 0.04}
        ))

        sim_out, sim_snap = tmp_path / "sim", tmp_path / "sim_snap"
        assert main(["simulate", "--model", str(unit), "--out", str(sim_out), "--seed", "3"]) == 0
        shutil.copytree(sim_out, sim_snap)
        assert main(["simulate", "--model", str(unit), "--out", str(sim_out), "--seed", "3"]) == 0
        sim_same = all(
            (sim_out / name).read_bytes() == (sim_snap / name).read_bytes()
            for name in ("path.csv", "arrivals.csv", "summary.json")
        )

        fit_out, fit_snap = tmp_path / "fit", tmp_path / "fit_snap"
        data = str(FIXTURES / "events_dense.csv")
        fit_cmd = ["fit", "--data", data, "--out", str(fit_out), "--seed", "1"]
        assert main(fit_cmd) == 0
        shutil.copytree(fit_out, fit_snap)
        assert main(fit_cmd) == 0
        fit_same = all(
            (fit_out / name).read_bytes() == (fit_snap / name).read_bytes()
            for name in (
                "estimate.json", "params.csv", "residuals.csv",
                "fitted_vs_observed.csv", "ljung_box.csv",
            )
        )

        val_out, val_snap = tmp_path / "val", tmp_path / "val_snap"
        base = ["validate", "--model", str(desk), "--out", str(val_out),
                "--seed", "5", "--reps", "6", "--len", "250"]
        assert main(base + ["--jobs", "1"]) == 0
        shutil.copytree(val_out, val_snap)
        assert main(base + ["--jobs", "2"]) == 0
        val_same = all(
            (val_out / name).read_bytes() == (val_snap / name).read_bytes()
            for name in (
                "replication_summary.csv", "hist_kappa.csv", "hist_theta.csv",
                "hist_sigma.csv", "estimates.csv", "summary.json",
            )
        )

        finish(
            sim_same and fit_same and val_same,
            f"simulate rerun identical: {sim_same}, fit rerun identical: {fit_same}, "
            f"validate jobs 1 vs 2 identical: {val_same}",
        )
