"""Command-line interface: simulate, pmf, fit, and validate subcommands.

Every output file embeds the resolved run configuration (including the
seed), JSON outputs under a ``config`` key and CSV outputs as a leading
``# config: {...}`` comment line, so any run can be reproduced from its
artifacts alone.  All content is a pure function of the configuration;
reruns are byte-identical at any parallelism degree.

Exit codes: 0 success, 1 numeric failure (explosion, precision loss,
estimation failure), 2 usage or data errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import data_io, estimate
from .affine_core import ExplosionError, FellerModel, load_model, model_to_dict
from .cox_dist import PrecisionError, mean_count, pmf, var_count
from .simulate import (
    RngStream,
    default_n_steps,
    simulate_arrivals,
    simulate_path,
)

__all__ = ["main", "cmd_simulate", "cmd_pmf", "cmd_fit", "cmd_validate"]


def _config_dict(args: argparse.Namespace, model=None, pipeline=None) -> dict:
    cfg = {
        "command": args.command,
        "seed": args.seed,
        "out": args.out,
    }
    # --jobs is execution infrastructure, not a numeric input: outputs are
    # byte-identical at any parallelism degree, so it must not be embedded
    for key in ("model", "data", "config", "kmax", "reps", "len"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if model is not None:
        cfg["model_params"] = model_to_dict(model)
    if pipeline is not None:
        cfg["pipeline"] = pipeline.to_dict()
    return cfg


def _config_line(cfg: dict) -> str:
    return "config: " + json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, cfg: dict, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {_config_line(cfg)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) for v in row) + "\n")


def _write_records(path: str, cfg: dict, records: list) -> None:
    """A CSV of dict records, its header the keys of the first."""
    _write_csv(path, cfg, records[0].keys(), (r.values() for r in records))


def _require_feller(model, what: str) -> FellerModel:
    if not isinstance(model, FellerModel):
        raise ValueError(f"{what} requires a one-factor square-root model file")
    return model


def cmd_simulate(args: argparse.Namespace) -> int:
    model = _require_feller(load_model(args.model), "simulate")
    horizon = args.len if args.len is not None else 10.0
    cfg = _config_dict(args, model=model)
    cfg["horizon"] = horizon
    rng = RngStream(args.seed)
    path = simulate_path(model, horizon, default_n_steps(model, horizon), rng.spawn(0))
    path = path.with_arrivals(simulate_arrivals(path, rng.spawn(1)))
    _write_csv(
        os.path.join(args.out, "path.csv"),
        cfg,
        ["t", "lambda", "cum_hazard"],
        zip(path.grid, path.intensity, path.cum_hazard),
    )
    _write_csv(
        os.path.join(args.out, "arrivals.csv"),
        cfg,
        ["arrival_time"],
        ([t] for t in path.arrivals),
    )
    summary = {
        "config": cfg,
        "n_arrivals": int(path.arrivals.size),
        "total_hazard": float(path.cum_hazard[-1]),
        "mean_intensity": float(np.mean(path.intensity)),
        "expected_count": mean_count(model, horizon),
        "count_variance": var_count(model, horizon),
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    return 0


def cmd_pmf(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    horizon = args.len if args.len is not None else 1.0
    cfg = _config_dict(args, model=model)
    cfg["horizon"] = horizon
    cfg["k_max"] = args.kmax
    dist = pmf(model, horizon, k_max=args.kmax)
    payload = dict(dist.to_dict())
    payload["config"] = cfg
    _write_json(os.path.join(args.out, "pmf.json"), payload)
    _write_csv(
        os.path.join(args.out, "pmf.csv"),
        cfg,
        ["k", "p_k"],
        ((k, p) for k, p in enumerate(dist.probs)),
    )
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    if args.data is None:
        raise ValueError("fit requires --data <events csv>")
    pipeline = (
        data_io.load_pipeline_config(args.config)
        if args.config
        else data_io.PipelineConfig()
    )
    init = None
    if args.model:
        init = _require_feller(load_model(args.model), "fit initialization")
    log = data_io.load_events(args.data)
    series = data_io.aggregate(
        log,
        interval=pipeline.interval_seconds,
        sessions=pipeline.sessions,
        average_days=pipeline.average_days,
    )
    series = data_io.to_observable(series, M=pipeline.M, mapping=pipeline.mapping)
    y, spec = estimate.observation_model(series)
    cfg = _config_dict(args, model=init, pipeline=pipeline)
    cfg["n_obs"] = int(y.size)
    cfg["spec"] = dataclasses.asdict(spec)

    result = estimate.fit(
        y,
        spec,
        init=init,
        R_init=max(0.5 * float(np.std(y)), 1e-6),
        rng=RngStream(args.seed),
    )
    filt = result.filter_output

    payload = result.as_dict()
    payload["config"] = cfg
    _write_json(os.path.join(args.out, "estimate.json"), payload)
    se = result.std_errors.as_dict()
    _write_csv(
        os.path.join(args.out, "params.csv"),
        cfg,
        ["parameter", "estimate", "std_error"],
        ((p, v, se[p]) for p, v in zip(estimate.PARAM_NAMES, result.estimates)),
    )
    _write_csv(
        os.path.join(args.out, "residuals.csv"),
        cfg,
        ["index", "standardized_residual"],
        enumerate(filt.standardized_residuals),
    )
    _write_csv(
        os.path.join(args.out, "fitted_vs_observed.csv"),
        cfg,
        ["index", "observed", "one_step_fit", "filtered_intensity"],
        zip(range(y.size), y, filt.one_step_fit, filt.filtered_mean),
    )
    _write_records(os.path.join(args.out, "ljung_box.csv"), cfg, result.diagnostics.rows())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    model = _require_feller(load_model(args.model), "validate")
    n_reps = args.reps if args.reps is not None else 100
    series_len = int(args.len) if args.len is not None else 500
    if args.len is not None and series_len != args.len:
        raise ValueError(f"--len must be a whole number of observations, got {args.len}")
    cfg = _config_dict(args, model=model)
    cfg["n_reps"] = n_reps
    cfg["series_len"] = series_len
    summary = estimate.replication_study(
        model,
        n_reps=n_reps,
        series_len=series_len,
        rng=RngStream(args.seed),
        jobs=args.jobs,
    )
    rows = summary.summary_rows()
    _write_records(os.path.join(args.out, "replication_summary.csv"), cfg, rows)
    for param in estimate.PARAM_NAMES[:-1]:  # the intensity's rates, not R
        edges, counts = summary.histogram(param, bins=20)
        _write_csv(
            os.path.join(args.out, f"hist_{param}.csv"),
            cfg,
            ["bin_left", "bin_right", "count"],
            (
                (edges[i], edges[i + 1], int(counts[i]))
                for i in range(counts.size)
            ),
        )
    _write_csv(
        os.path.join(args.out, "estimates.csv"),
        cfg,
        [*estimate.PARAM_NAMES, "converged", "ljung_box_clean"],
        (
            (*row, int(conv), int(lb))
            for row, conv, lb in zip(summary.estimates, summary.converged, summary.lb_passed)
        ),
    )
    payload = {
        "config": cfg,
        "summary": rows,
        "n_requested": summary.n_requested,
        "n_failed": summary.n_failed,
        "failures": [{"replication": rep, "error": err} for rep, err in summary.failures],
        "n_converged": int(summary.converged.sum()),
        "ljung_box_pass_rate": float(summary.lb_passed.mean()),
    }
    _write_json(os.path.join(args.out, "summary.json"), payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxaffine",
        description="Cox processes with square-root stochastic intensity: "
        "simulation, count distributions, and filter-based estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_model: bool):
        p.add_argument(
            "--model",
            required=needs_model,
            help="model parameter JSON file" + ("" if needs_model else " (optional initial guess)"),
        )
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")

    p_sim = sub.add_parser("simulate", help="simulate an intensity path and its arrivals")
    common(p_sim, needs_model=True)
    p_sim.add_argument("--len", type=float, default=None, help="horizon in minutes (default 10)")

    p_pmf = sub.add_parser("pmf", help="count distribution over a horizon")
    common(p_pmf, needs_model=True)
    p_pmf.add_argument("--kmax", type=int, default=50, help="largest count evaluated (default 50)")
    p_pmf.add_argument("--len", type=float, default=None, help="horizon in minutes (default 1)")

    p_fit = sub.add_parser("fit", help="estimate parameters from an event file")
    common(p_fit, needs_model=False)
    p_fit.add_argument("--data", required=True, help="event CSV (timestamp,side,instrument)")
    p_fit.add_argument("--config", default=None, help="pipeline config JSON (sessions, interval, M)")

    p_val = sub.add_parser("validate", help="replicated simulate-and-refit study")
    common(p_val, needs_model=True)
    p_val.add_argument("--reps", type=int, default=None, help="number of replications (default 100)")
    p_val.add_argument("--len", type=float, default=None, help="series length (default 500)")
    p_val.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes that run replications, this one included (default 1)",
    )
    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "pmf": cmd_pmf,
    "fit": cmd_fit,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "len", None) is not None and not math.isfinite(args.len):
            raise ValueError(f"--len must be finite, got {args.len}")
        os.makedirs(args.out, exist_ok=True)
        return _DISPATCH[args.command](args)
    except (ExplosionError, PrecisionError, estimate.EstimationError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
