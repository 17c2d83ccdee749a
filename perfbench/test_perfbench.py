"""Tests of the benchmark itself, at reduced sizes:

    python3 -m pytest perfbench
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402

# the layers each workload must exercise, and those it must leave alone
EXERCISED = {
    "fit_events": [
        "estimate.fit.s", "estimate.filter_kernel.calls", "estimate.filter_kernel.s",
        "estimate.filter_kernel.ns_per_step", "estimate.filter_kernel.finite_ratio",
        "estimate.objective_overhead_us", "estimate.std_errors.s",
        "estimate.std_errors.kernel_calls", "data_io.load_events.s",
        "data_io.load_events.us_per_row", "data_io.load_events.rejected",
        "data_io.aggregate.s", "data_io.to_observable.s",
        "affine_core.cir_transform_closed_form.calls", "affine_core.cir_transform_closed_form.s",
        "cli.import_s", "cli.self_s", "cli.bytes_written",
    ],
    "validate_desk": [
        "estimate.replication_study.s", "estimate.simulate_observations.s", "estimate.fit.s",
        "estimate.filter_kernel.calls", "simulate.sample_cir_transition.calls",
        "simulate.sample_cir_transition.s",
    ],
    "count_law": [
        "cox_dist.pmf.calls", "cox_dist.pmf.s", "cox_dist.pmf.us_per_coeff",
        "affine_core.solve_transform_ode.calls", "affine_core.solve_transform_ode.s",
        "simulate.monte_carlo_pmf.s", "simulate.simulate_path.s",
        "simulate.simulate_arrivals.s", "jets.ops",
    ],
}
BYPASSED = {
    "validate_desk": ["data_io."],
    "count_law": ["data_io.", "estimate."],
}


@pytest.fixture
def small_log(monkeypatch):
    monkeypatch.setattr(inputs, "EVENT_SESSIONS", 2)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(bench.SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Each workload at reduced size with tracing on: op 0 plain, op 1 traced."""
    results = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inputs, "EVENT_SESSIONS", 2)
        mp.setattr(bench, "SETUPS", 1)
        mp.setattr(bench, "REPS", 2)
        mp.setattr(bench, "SERIES_LEN", 100)
        mp.setattr(bench, "MC_PATHS", 2000)
        mp.setattr(bench, "SIM_LEN", 2.0)
        for name, workload in bench.WORKLOADS.items():
            run = bench.Run(5, 0.0, True, tmp_path_factory.mktemp(name), _env())
            setup_s, ops, _ = workload(run)
            metrics, _ = bench.metrics_of(run, setup_s, ops)
            results[name] = (run, {k: v for k, (v, _) in metrics.items()})
    return results


def test_generator_is_deterministic_for_a_seed(tmp_path, small_log):
    a = inputs.write_event_inputs(7, tmp_path / "a")
    b = inputs.write_event_inputs(7, tmp_path / "b")
    c = inputs.write_event_inputs(8, tmp_path / "c")
    d = inputs.write_event_inputs(7, tmp_path / "d", variant=1)
    assert a.events.read_bytes() == b.events.read_bytes()
    assert a.config.read_bytes() == b.config.read_bytes()
    assert a.malformed_lines == b.malformed_lines
    assert np.array_equal(a.counts, b.counts)
    assert a.events.read_bytes() != c.events.read_bytes()
    assert a.events.read_bytes() != d.events.read_bytes()
    assert inputs.count_law_models(7) == inputs.count_law_models(7)
    assert inputs.count_law_models(7) != inputs.count_law_models(8)


def test_ingest_rejects_exactly_the_injected_rows(tmp_path, small_log):
    from coxaffine import data_io

    ins = inputs.write_event_inputs(3, tmp_path)
    log = data_io.load_events(ins.events)
    assert log.rejected_lines == ins.malformed_lines
    assert len(log) + log.n_rejected == ins.n_rows
    assert 0 < ins.n_offset < ins.n_rows
    cfg = data_io.load_pipeline_config(ins.config)
    series = data_io.aggregate(log, cfg.interval_seconds, cfg.sessions)
    series = data_io.to_observable(series, M=cfg.M, mapping=cfg.mapping)
    np.testing.assert_allclose(series.observable, ins.expected_observable(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_every_named_layer_fires_on_its_workload(traced_runs, workload):
    run, metrics = traced_runs[workload]
    assert run.tally.failed == 0, run.tally.problems
    assert set(metrics) == set(tracer.PER_LAYER)
    (processes,) = run.traces  # one traced operation, its run id is 1
    assert {s.run_id for spans, _, _ in processes for s in spans} == {1}
    silent = [name for name in EXERCISED[workload] if not metrics[name] > 0]
    assert not silent, f"{workload} never reached {silent}"
    for prefix in BYPASSED.get(workload, ()):
        touched = [k for k, v in metrics.items() if k.startswith(prefix) and v != 0]
        assert not touched, f"{workload} should bypass {prefix} but reported {touched}"


def test_benchmark_json_names_what_the_runs_report():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(doc) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"
    ]
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracer.PER_LAYER.items()
    ]


def test_the_layer_lists_cover_every_per_layer_metric():
    named = {name for names in EXERCISED.values() for name in names}
    assert set(tracer.PER_LAYER) - named == {"trace.overhead_s"}


def test_self_times_are_nonnegative_and_fit_in_the_wall_time(tmp_path, small_log):
    from coxaffine import cli, estimate

    ins = inputs.write_event_inputs(4, tmp_path / "in")
    original_kernel = estimate.filter_kernel
    trace = tracer.Tracer()
    trace.install()
    try:
        t0 = time.perf_counter()
        code = cli.main(["fit", "--data", str(ins.events), "--config", str(ins.config),
                         "--out", str(tmp_path / "out")])
        wall = time.perf_counter() - t0
    finally:
        trace.uninstall()
    assert code == 0
    assert estimate.filter_kernel is original_kernel
    own, outside = tracer.self_times(trace.spans, wall)
    assert min(own) >= 0.0 and outside >= 0.0
    assert sum(own) <= wall
    names = {s.name for s in trace.spans}
    assert {"cli.main", "cli.cmd_fit", "estimate.filter_kernel",
            "affine_core.cir_transform_closed_form"} <= names


def test_union_counts_overlaps_once():
    assert tracer._union([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    spans = [tracer.Span("a", 0.0, 10.0, -1, 0, 0, True),
             tracer.Span("b", 1.0, 4.0, 0, 0, 0, True),
             tracer.Span("c", 2.0, 3.0, 1, 0, 0, True)]
    own, outside = tracer.self_times(spans, 12.0)
    assert own == [7.0, 2.0, 1.0] and outside == 2.0


def _fit_artifacts(ins, theta=100.0, observed=None):
    observed = ins.expected_observable() if observed is None else observed
    rows = "".join(f"{t},{float(y)!r},0.0,0.0\n" for t, y in enumerate(observed))
    return {
        "estimate.json": json.dumps({"estimates": {"theta": theta}}).encode(),
        "params.csv": b"# config: {}\nparameter,estimate,std_error\ntheta,100.0,1.0\n",
        "fitted_vs_observed.csv": (
            "# config: {}\nindex,observed,one_step_fit,filtered_intensity\n" + rows
        ).encode(),
    }


def test_a_corrupted_output_raises_the_failed_ratio(tmp_path, small_log):
    ins = inputs.write_event_inputs(2, tmp_path)
    good = _fit_artifacts(ins)
    tally, first = bench.Tally(), {}
    tally.record(bench.check_fit(0, good, ins, first, rejected=ins.n_malformed))
    assert tally.failed_ratio == 0.0
    tally.record(bench.check_fit(0, good, ins, first, rejected=ins.n_malformed - 1))
    assert tally.failed_ratio == 0.5

    skewed = ins.expected_observable()
    skewed[3] += 1e-5  # one event more or less in one interval
    assert bench.check_fit(0, _fit_artifacts(ins, observed=skewed), ins, {})
    assert bench.check_fit(0, _fit_artifacts(ins, theta=130.0), ins, {})
    assert bench.check_fit(1, good, ins, {})
    changed = dict(good, **{"params.csv": good["params.csv"] + b"R,1.0,1.0\n"})
    assert bench.check_fit(0, changed, ins, first)

    summary = {"summary.json": json.dumps({"n_failed": 1}).encode()}
    assert bench.check_validate(0, summary, {})
