"""End-to-end command-line runs: artifacts, exit codes, byte determinism."""

import csv
import json
import multiprocessing
import os
import shutil
import warnings

import numpy as np
import pytest

from coxaffine import (
    FellerModel,
    RngStream,
    default_n_steps,
    load_model,
    simulate_arrivals,
    simulate_path,
)
from coxaffine import data_io, estimate
from coxaffine.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
DENSE = os.path.join(FIXTURES, "events_dense.csv")
SPARSE = os.path.join(FIXTURES, "events_sparse_535.csv")

DESK_MODEL = {"kind": "feller", "kappa": 0.2, "theta": 0.04, "sigma": 0.05, "lambda0": 0.04}
UNIT_MODEL = {"kind": "feller", "kappa": 1.0, "theta": 1.0, "sigma": 0.5, "lambda0": 1.0}


def write_model(tmp_path, doc, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def contexts(monkeypatch):
    """The start methods of every ``multiprocessing.get_context`` call."""
    calls = []
    get_context = multiprocessing.get_context

    def recorded(method=None):
        calls.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", recorded)
    return calls


def read_config_line(path):
    with open(path) as fh:
        first = fh.readline()
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


class TestSimulate:
    def test_artifacts(self, tmp_path):
        model = write_model(tmp_path, UNIT_MODEL)
        out = str(tmp_path / "run")
        code = main(["simulate", "--model", model, "--out", out, "--seed", "7", "--len", "5"])
        assert code == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"]["seed"] == 7
        assert summary["config"]["model_params"]["theta"] == 1.0
        assert summary["total_hazard"] > 0.0
        with open(tmp_path / "run" / "path.csv") as fh:
            fh.readline()
            assert fh.readline().strip() == "t,lambda,cum_hazard"
        n_rows = len((tmp_path / "run" / "arrivals.csv").read_text().splitlines()) - 2
        assert n_rows == summary["n_arrivals"]
        cfg = read_config_line(str(tmp_path / "run" / "path.csv"))
        assert cfg == read_config_line(str(tmp_path / "run" / "arrivals.csv"))
        assert "jobs" not in cfg

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        model = write_model(tmp_path, UNIT_MODEL)
        out = tmp_path / "run"
        assert main(["simulate", "--model", model, "--out", str(out), "--seed", "7", "--len", "5"]) == 0
        rng = RngStream(7)
        m = load_model(model)
        path = simulate_path(m, 5.0, default_n_steps(m, 5.0), rng.spawn(0))
        arrivals = simulate_arrivals(path, rng.spawn(1))

        def body(name):
            lines = (out / name).read_text().splitlines()[2:]
            return np.array([[float(x) for x in ln.split(",")] for ln in lines]).reshape(len(lines), -1)

        columns = body("path.csv")
        for j, expected in enumerate((path.grid, path.intensity, path.cum_hazard)):
            assert columns[:, j].tobytes() == expected.tobytes()
        assert arrivals.size > 0
        assert body("arrivals.csv")[:, 0].tobytes() == arrivals.tobytes()

    def test_rerun_byte_identical(self, tmp_path):
        model = write_model(tmp_path, UNIT_MODEL)
        out = tmp_path / "run"
        snap = tmp_path / "snap"
        assert main(["simulate", "--model", model, "--out", str(out), "--seed", "3"]) == 0
        shutil.copytree(out, snap)
        assert main(["simulate", "--model", model, "--out", str(out), "--seed", "3"]) == 0
        for name in ("path.csv", "arrivals.csv", "summary.json"):
            assert (out / name).read_bytes() == (snap / name).read_bytes(), name

    def test_seed_changes_output(self, tmp_path):
        model = write_model(tmp_path, UNIT_MODEL)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["simulate", "--model", model, "--out", a, "--seed", "1"])
        main(["simulate", "--model", model, "--out", b, "--seed", "2"])
        na = json.loads((tmp_path / "a" / "summary.json").read_text())["n_arrivals"]
        nb = json.loads((tmp_path / "b" / "summary.json").read_text())["n_arrivals"]
        assert na != nb


class TestPmf:
    def test_artifacts_and_mass(self, tmp_path):
        model = write_model(tmp_path, UNIT_MODEL)
        out = tmp_path / "run"
        code = main(["pmf", "--model", model, "--out", str(out), "--kmax", "12"])
        assert code == 0
        doc = json.loads((out / "pmf.json").read_text())
        assert len(doc["probs"]) == 13
        assert doc["probs"][0] > 0.0
        assert sum(doc["probs"]) + doc["tail_bound"] == pytest.approx(1.0, abs=1e-12)
        rows = [ln for ln in (out / "pmf.csv").read_text().splitlines() if ln and not ln.startswith("#")]
        assert rows[0] == "k,p_k" and len(rows) == 14

    def test_long_horizons(self, tmp_path):
        # the closed form's log1p argument rounds to -1 from about --len 400
        model = write_model(tmp_path, UNIT_MODEL)
        for length in ("400", "700", "1000"):
            out = tmp_path / f"run{length}"
            assert main(["pmf", "--model", model, "--out", str(out), "--kmax", "50",
                         "--len", length]) == 0
            doc = json.loads((out / "pmf.json").read_text())
            assert sum(doc["probs"]) + doc["tail_bound"] == pytest.approx(1.0, abs=1e-12)


class TestFit:
    def test_dense_fixture_recovers_theta(self, tmp_path, monkeypatch):
        calls = []
        kalman_filter = estimate.kalman_filter

        def counted(*args, **kwargs):
            calls.append(1)
            return kalman_filter(*args, **kwargs)

        monkeypatch.setattr(estimate, "kalman_filter", counted)
        out = tmp_path / "run"
        code = main(["fit", "--data", DENSE, "--out", str(out), "--seed", "1"])
        assert code == 0
        assert len(calls) == 1  # the fit's own pass at the optimum
        doc = json.loads((out / "estimate.json").read_text())
        # the fixture's generating intensity has long-run mean 0.5 per minute
        assert doc["estimates"]["theta"] == pytest.approx(0.5, rel=0.25)
        assert doc["config"]["pipeline"]["mapping"] == "no_arrival_log"
        assert doc["config"]["n_obs"] == 4800
        for name in ("params.csv", "residuals.csv", "fitted_vs_observed.csv", "ljung_box.csv"):
            assert (out / name).exists(), name
        params_rows = (out / "params.csv").read_text().splitlines()
        assert params_rows[1] == "parameter,estimate,std_error"
        assert [r.split(",")[0] for r in params_rows[2:]] == ["kappa", "theta", "sigma", "R"]

    def test_fit_starts_no_pool_and_writes_the_same_bytes_on_any_cpus(
        self, tmp_path, monkeypatch, contexts
    ):
        out = tmp_path / "run"
        argv = ["fit", "--data", DENSE, "--out", str(out), "--seed", "1"]
        written = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            assert main(argv) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert contexts == []  # the restart searches run in this process
        assert written[0] == written[1]
        assert multiprocessing.active_children() == []

    def test_echoed_config_reproduces_the_run(self, tmp_path):
        # a sub-minute session bound must survive the echo, or the rerun bins
        # its events at other times
        model = write_model(tmp_path, {"kind": "feller", "kappa": 0.3, "theta": 0.5,
                                       "sigma": 0.2, "lambda0": 0.5})
        pipeline = tmp_path / "pipeline.json"
        pipeline.write_text(json.dumps({"session_start": "10:00:30",
                                        "session_end": "17:59:59.5",
                                        "interval_seconds": 60}))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["fit", "--data", DENSE, "--model", model, "--config", str(pipeline),
                     "--out", str(first), "--seed", "4"]) == 0
        echoed = json.loads((first / "estimate.json").read_text())["config"]
        model2 = write_model(tmp_path, echoed["model_params"], name="echoed_model.json")
        pipeline2 = tmp_path / "echoed_pipeline.json"
        pipeline2.write_text(json.dumps(echoed["pipeline"]))
        assert main(["fit", "--data", DENSE, "--model", model2, "--config", str(pipeline2),
                     "--out", str(second), "--seed", "4"]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            a, b = (first / name).read_text(), (second / name).read_text()
            if name.endswith(".json"):
                a, b = json.loads(a), json.loads(b)
                a_cfg, b_cfg = a.pop("config"), b.pop("config")
                for key in ("model_params", "pipeline", "n_obs", "spec", "seed"):
                    assert a_cfg[key] == b_cfg[key], key
            else:
                assert a.startswith("# config: ") and b.startswith("# config: ")
                a, b = a.split("\n", 1)[1], b.split("\n", 1)[1]
            assert a == b, name

    def test_frequency_pipeline(self, tmp_path):
        # a frequency series is fitted on its complement, which is the proxy
        # observable: the two fits differ in their config alone
        runs = {}
        for mapping in ("frequency", "no_arrival_proxy"):
            cfg = tmp_path / f"{mapping}.json"
            cfg.write_text(json.dumps({"mapping": mapping}))
            out = tmp_path / mapping
            code = main(["fit", "--data", DENSE, "--config", str(cfg), "--out", str(out)])
            assert code == 0
            runs[mapping] = {p.name: p.read_text() for p in sorted(out.iterdir())}
        freq, proxy = runs["frequency"], runs["no_arrival_proxy"]
        doc = json.loads(freq["estimate.json"])
        assert doc["config"]["pipeline"]["mapping"] == "frequency"
        assert doc["estimates"]["theta"] == pytest.approx(0.5, rel=0.3)
        proxy_doc = json.loads(proxy["estimate.json"])
        assert doc.pop("config")["spec"] == proxy_doc.pop("config")["spec"]
        assert doc == proxy_doc
        assert sorted(freq) == sorted(proxy)
        for name in freq:
            if name.endswith(".csv"):  # equal bodies below the config line
                assert freq[name].split("\n", 1)[1] == proxy[name].split("\n", 1)[1], name


    def test_unidentified_parameters_get_no_standard_error(self, tmp_path):
        # the sparse fixture does not pin down kappa and sigma, so whether the
        # Hessian leaves them a positive variance depends on the seed: each SE
        # is either positive and written, or None, left empty and flagged
        for seed in (1, 3):
            out = tmp_path / f"seed{seed}"
            assert main(["fit", "--data", SPARSE, "--out", str(out), "--seed", str(seed)]) == 0
            se = json.loads((out / "estimate.json").read_text())["std_errors"]
            rows = list(csv.reader((out / "params.csv").read_text().splitlines()[2:]))
            for (name, _, written), value in zip(rows, (se[p] for p in estimate.PARAM_NAMES)):
                if value is None:
                    assert written == "" and se["hessian_warning"] is True, (seed, name)
                else:
                    assert value > 0 and float(written) == value, (seed, name)

    def test_no_positive_variance_at_an_unidentified_optimum(self):
        # an optimum of the sparse fixture (seed 1 under the strict search
        # from all six starts) where the Hessian leaves kappa and sigma no
        # positive variance
        pipeline = data_io.PipelineConfig()
        series = data_io.aggregate(data_io.load_events(SPARSE), interval=pipeline.interval_seconds,
                                   sessions=pipeline.sessions)
        y, spec = estimate.observation_model(
            data_io.to_observable(series, M=pipeline.M, mapping=pipeline.mapping))
        theta = float.fromhex("0x1.9f1144b0bbda2p-5")
        optimum = FellerModel(kappa=float.fromhex("0x1.8a49295c92b51p+0"), theta=theta,
                              sigma=float.fromhex("0x1.d50acb1dd6e47p-17"), lambda0=theta)
        se = estimate.std_errors(optimum, float.fromhex("0x1.3e7da310f2b1ep-15"), y, spec)
        assert se.kappa is None and se.sigma is None and se.hessian_warning
        assert se.theta > 0 and se.R > 0

    def test_a_missing_standard_error_is_written_empty_and_null(self, tmp_path, monkeypatch):
        report = estimate.StdErrorReport(kappa=None, theta=0.01, sigma=None, R=1e-4,
                                         hessian_warning=True)
        monkeypatch.setattr(estimate, "std_errors", lambda *args: report)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        out = tmp_path / "run"
        assert main(["fit", "--data", DENSE, "--out", str(out), "--seed", "1"]) == 0
        se = json.loads((out / "estimate.json").read_text())["std_errors"]
        assert se == {"kappa": None, "theta": 0.01, "sigma": None, "R": 1e-4,
                      "hessian_warning": True}
        rows = list(csv.reader((out / "params.csv").read_text().splitlines()[2:]))
        assert [(name, written) for name, _, written in rows] == [
            ("kappa", ""), ("theta", "0.01"), ("sigma", ""), ("R", "0.0001")]


class TestValidate:
    def test_artifacts_and_parallel_determinism(self, tmp_path):
        model = write_model(tmp_path, DESK_MODEL)
        out = tmp_path / "run"
        snap = tmp_path / "snap"
        base = ["validate", "--model", model, "--out", str(out), "--seed", "5",
                "--reps", "6", "--len", "250"]
        assert main(base + ["--jobs", "1"]) == 0
        names = [
            "replication_summary.csv",
            "hist_kappa.csv",
            "hist_theta.csv",
            "hist_sigma.csv",
            "estimates.csv",
            "summary.json",
        ]
        for name in names:
            assert (out / name).exists(), name
        shutil.copytree(out, snap)
        for jobs in ("2", "3"):
            assert main(base + ["--jobs", jobs]) == 0
            for name in names:
                assert (out / name).read_bytes() == (snap / name).read_bytes(), (jobs, name)
            assert multiprocessing.active_children() == []
        doc = json.loads((out / "summary.json").read_text())
        assert doc["n_requested"] == 6 and doc["n_failed"] == 0
        est_rows = [
            ln for ln in (out / "estimates.csv").read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        assert est_rows[0] == "kappa,theta,sigma,R,converged,ljung_box_clean"
        assert len(est_rows) == 7

    def test_one_replication_starts_no_pool(self, tmp_path, contexts):
        model = write_model(tmp_path, DESK_MODEL)
        argv = ["validate", "--model", model, "--out", str(tmp_path / "run"),
                "--reps", "1", "--len", "100", "--jobs", "2"]
        assert main(argv) == 0
        assert contexts == []

    def test_one_replication_writes_no_std_dev(self, tmp_path):
        model = write_model(tmp_path, DESK_MODEL)
        out = tmp_path / "run"
        argv = ["validate", "--model", model, "--out", str(out), "--reps", "1", "--len", "100"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

        def strict(token):
            raise ValueError(f"non-JSON constant {token}")

        doc = json.loads((out / "summary.json").read_text(), parse_constant=strict)
        assert [row["std_dev"] for row in doc["summary"]] == [None] * 4
        rows = (out / "replication_summary.csv").read_text().splitlines()[2:]
        assert len(rows) == 4 and all(row.endswith(",") for row in rows)


class TestExitCodes:
    def test_missing_data_file(self, tmp_path, contexts):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert contexts == []  # no worker started for a log that cannot be read

    def test_field_over_csv_limit(self, tmp_path, capsys):
        data = tmp_path / "events.csv"
        data.write_text(
            "timestamp,side,instrument\n"
            f"2024-01-03T10:00:00.000,buy,{'X' * (csv.field_size_limit() + 1)}\n"
            "2024-01-03T10:00:01.000,sell,SIM\n"
        )
        code = main(["fit", "--data", str(data), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{data}: line 2: field larger than field limit" in capsys.readouterr().err

    def test_malformed_model_json(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text("{not json")
        code = main(["pmf", "--model", str(p), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_model_values_must_be_numbers(self, tmp_path, capsys):
        for value in (True, "0.5", None):
            model = write_model(tmp_path, {**UNIT_MODEL, "kappa": value})
            out = tmp_path / "o"
            assert main(["pmf", "--model", model, "--out", str(out)]) == 2, value
            assert "kappa" in capsys.readouterr().err
            assert not (out / "pmf.json").exists()
        affine = {"kind": "affine", "dim": 1, "kappa": [[1.0]], "theta": [1.0],
                  "sigma_mat": [[0.5]], "a": [0.0], "b": [[1.0]]}
        for dim in (1.5, True):
            model = write_model(tmp_path, {**affine, "dim": dim})
            assert main(["pmf", "--model", model, "--out", str(tmp_path / "o")]) == 2, dim
            assert "dim" in capsys.readouterr().err

    def test_wrong_model_kind(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"kind": "hawkes"}))
        code = main(["pmf", "--model", str(p), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_bad_pipeline_config(self, tmp_path, capsys):
        bad = [
            ({"window": 5}, "window"),
            ({"session_start": 5}, "session_start"),
            ({"session_end": "25:00"}, "session_end"),
            ({"interval_seconds": "60"}, "interval_seconds"),
            ({"interval_seconds": True}, "interval_seconds"),
            ({"interval_seconds": -60}, "interval_seconds"),
            ({"M": 6000.5}, "M"),
            ({"M": 0}, "M"),
            ({"mapping": "log"}, "mapping"),
            ({"average_days": "no"}, "average_days"),
        ]
        for doc, key in bad:
            cfg = tmp_path / "pipeline.json"
            cfg.write_text(json.dumps(doc))
            code = main(
                ["fit", "--data", DENSE, "--config", str(cfg), "--out", str(tmp_path / "o")]
            )
            assert code == 2, doc
            err = capsys.readouterr().err
            assert str(cfg) in err and key in err, err

    def test_session_bound_with_an_offset(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"session_start": "10:00+02:00"}))
        out = tmp_path / "o"
        code = main(["fit", "--data", DENSE, "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "session_start" in err and "UTC offset" in err, err
        assert not (out / "estimate.json").exists()

    def test_model_file_missing_a_key(self, tmp_path, capsys):
        model = write_model(tmp_path, {"kind": "feller", "theta": 1, "sigma": 0.5})
        assert main(["pmf", "--model", model, "--out", str(tmp_path / "o")]) == 2
        assert "model file: missing key 'kappa'" in capsys.readouterr().err

    def test_sub_millisecond_interval(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps({"interval_seconds": 0.0001}))
        code = main(["fit", "--data", DENSE, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "interval 0.0001 s" in capsys.readouterr().err

    def test_usage_error(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "o")]) == 2
        assert main(["frobnicate"]) == 2
        model = write_model(tmp_path, UNIT_MODEL)
        # only validate runs replications in parallel
        assert main(["fit", "--data", DENSE, "--out", str(tmp_path / "o"), "--jobs", "2"]) == 2
        assert main(["simulate", "--model", model, "--out", str(tmp_path / "o"),
                     "--jobs", "2"]) == 2
        for jobs in ("0", "-3"):
            assert main(["validate", "--model", model, "--out", str(tmp_path / "o"),
                         "--reps", "2", "--len", "30", "--jobs", jobs]) == 2

    def test_numeric_failure(self, tmp_path, monkeypatch):
        # every replication's fit fails: estimation error
        def failing_fit(*args, **kwargs):
            raise ArithmeticError("fit fails")

        monkeypatch.setattr(estimate, "fit", failing_fit)
        model = write_model(tmp_path, DESK_MODEL)
        code = main(
            ["validate", "--model", model, "--out", str(tmp_path / "o"),
             "--reps", "2", "--len", "30"]
        )
        assert code == 1

    def test_len_must_be_finite(self, tmp_path, capsys):
        model = write_model(tmp_path, UNIT_MODEL)
        for command in ("simulate", "pmf", "validate"):
            for value in ("nan", "inf", "-inf"):
                out = tmp_path / f"{command}{value}"
                argv = [command, "--model", model, "--out", str(out), f"--len={value}"]
                assert main(argv) == 2, (command, value)
                assert "--len must be finite" in capsys.readouterr().err
                assert not out.exists()

    def test_validate_len_must_be_whole(self, tmp_path, capsys, contexts):
        model = write_model(tmp_path, DESK_MODEL)
        argv = ["validate", "--model", model, "--out", str(tmp_path / "o"),
                "--reps", "2", "--len", "25.9", "--jobs", "2"]
        assert main(argv) == 2
        assert "--len must be a whole number" in capsys.readouterr().err
        assert contexts == []

    def test_validate_len_below_fit_minimum(self, tmp_path, capsys, contexts):
        model = write_model(tmp_path, DESK_MODEL)
        argv = ["validate", "--model", model, "--out", str(tmp_path / "o"),
                "--reps", "3", "--len", "10", "--jobs", "2"]
        assert main(argv) == 2
        assert "series_len must be >= 20" in capsys.readouterr().err
        assert contexts == []  # no worker started
