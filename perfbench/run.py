"""The coxaffine benchmark: three seeded workloads, checked outputs, per-layer traces.

    python3 perfbench/run.py --workload fit_events --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout; it uses the package under ``src/``
and exits with code 2 when there is none.  Each workload makes its inputs
from ``--seed`` in several set-ups (timing the median as ``setup_s``), then
repeats its operation until ``--seconds`` have passed, at least twice, and
checks every result.  ``fit_events`` and ``validate_desk`` give each
operation its own input (``Run.variant``).  Commands run as child processes,
exactly as a user runs them.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before
it give the run record and each headline figure by name
(``fit_wall_s``, ``validate_reps_per_s``, ``pmf_per_s``, ...).

Workloads (closed loop, one client, one operation at a time):

- ``fit_events``: ``coxaffine fit`` on a generated log of about 1e6 Cox
  arrivals over 20 sessions, with 1% ``+02:00`` rows and 200 malformed rows,
  binned at 10 minutes (960 observations), started from the generating
  model.  The only workload that ingests.
- ``validate_desk``: ``coxaffine validate`` of the desk-scale model, 16
  replications of 100 observations at ``--jobs 2``: many short fits, no
  ingest.
- ``count_law``: in process, a closed-form pmf sweep, a two-factor Riccati
  pmf and a 1e5-path Monte Carlo pmf; then ``coxaffine simulate --len 30``.
  No estimation and no ingest.

With ``--trace 0`` the metrics are ``setup_s``, ``wall_s`` (median wall time
of one operation: one command for the first two workloads, one round of all
four parts for ``count_law``) and ``peak_rss_mb`` (peak resident set of the
benchmark process or any command it ran).  With ``--trace 1`` operations
alternate untraced and traced, and the metrics are the per-layer figures of
``tracer.PER_LAYER``: medians over the traced operations, plus the tracing
overhead (traced minus untraced median wall time).  ``validate_desk`` runs
at ``--jobs 1`` in a traced run, untraced baseline included, so that one
process holds every span.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_spans"  # every span of a traced run, written at its end

SETUPS = 3
MIN_OPS = 2  # the repeat is what the byte-identity checks compare against
CMD_TIMEOUT_S = 150

# Each replication's optimizer needs a seed-dependent number of evaluations
# (about 20% spread between replications), so a study of 4 x 500 points
# swings by a quarter from seed to seed; 16 x 100 points takes the same wall
# time and averages four times as many fits.
REPS, SERIES_LEN, JOBS = 16, 100, 2
SWEEP_HORIZONS = (0.5, 2.0, 10.0)
SWEEP_KMAX = (30, 100, 300)
RICCATI_HORIZON, RICCATI_KMAX = 2.0, 30
MC_PATHS, MC_STEPS, MC_HORIZON, MC_KMAX = 100_000, 200, 2.0, 20
SIM_LEN = 30.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import coxaffine.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Tally:
    """Operations attempted and failed; an operation fails on any problem."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Op:
    wall: float
    traced: bool
    problems: list
    layers: dict = None
    parts: dict = None


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool
    work: Path
    env: dict
    tally: Tally = field(default_factory=Tally)
    imports: list = field(default_factory=list)
    traces: list = field(default_factory=list)  # per traced operation, per process

    def variant(self, i: int) -> int:
        """Which input operation ``i`` gets.

        Untraced runs give every operation an input of its own, so that the
        median averages over inputs: the number of objective evaluations a fit
        needs differs by up to a half between logs of one model.  Traced runs give each input to
        an untraced and then a traced operation, which checks that the repeat
        is byte-identical and that tracing changes no output.
        """
        return i // 2 if self.trace else i


def _median(values) -> float:
    return float(statistics.median(values))


def describe(values, unit: str) -> str:
    """Median with its sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    if not values:
        return "no samples"
    text = f"median {_median(values):.6g} {unit}, n={len(values)}"
    if len(values) >= 20:
        p = int(100 * (1 - 10 / len(values)))
        text += f", p{p} {float(np.percentile(values, p)):.6g} {unit}"
    return text


def import_probe(run: Run) -> float:
    """Seconds to import ``coxaffine.cli`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=run.env, capture_output=True,
        text=True, timeout=CMD_TIMEOUT_S, check=True,
    )
    value = float(proc.stdout.strip())
    run.imports.append(value)
    return value


def timed_setups(make) -> tuple:
    """Call ``make(k)`` for k < SETUPS; return the results and the median time."""
    results, times = [], []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        results.append(make(k))
        times.append(time.perf_counter() - t0)
    return results, _median(times)


def run_cli(run: Run, argv: list, run_id=None):
    """Run one coxaffine command as a child process.

    Returns (exit code, wall seconds from start to exit, artifacts by file
    name, trace or None).  A trace is (spans, counts, seconds from start to
    the end of the command's last span).  The output directory is the same
    on every call, because commands embed it in their artifacts.
    """
    out = run.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    if run_id is None:
        cmd = [sys.executable, "-m", "coxaffine.cli", *argv, "--out", str(out)]
    else:
        spans = run.work / f"spans-{run_id}.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), str(run_id),
               *argv, "--out", str(out)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=run.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CMD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, time.perf_counter() - t0, {}, None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
    artifacts = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
    trace = None
    if run_id is not None and spans.is_file():
        spans, counts = tracer.load(spans)
        # up to the end of the command, before the child writes its spans;
        # perf_counter is the system-wide monotonic clock, shared with the child
        last = max((s.end for s in spans if s.parent < 0), default=t0 + wall)
        trace = (spans, counts, last - t0)
    return proc.returncode, wall, artifacts, trace


def layer_figures(run: Run, trace_list: list, artifacts: dict) -> dict:
    run.traces.append(trace_list)
    figures = tracer.op_metrics(trace_list)
    figures["cli.bytes_written"] = sum(len(b) for b in artifacts.values())
    return figures


def measure(run: Run, op) -> list:
    """Repeat ``op(i, traced)`` until run.seconds pass, at least MIN_OPS times.

    In a traced run the odd-numbered operations are traced and the even ones
    form the untraced baseline.  Every operation is checked and counted.
    """
    ops = []
    deadline = time.perf_counter() + run.seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        i = len(ops)
        result = op(i, run.trace and i % 2 == 1)
        run.tally.record(result.problems)
        ops.append(result)
    return ops


def _csv_column(blob: bytes, column: str) -> list:
    lines = [ln for ln in blob.decode().splitlines() if not ln.startswith("#")]
    return [float(row[column]) for row in csv.DictReader(io.StringIO("\n".join(lines)))]


def _same_as_first(first: dict, artifacts: dict, names) -> list:
    problems = []
    for name in names:
        if first.setdefault(name, artifacts[name]) != artifacts[name]:
            problems.append(f"{name} differs from an earlier run on the same input")
    return problems


# ---------------------------------------------------------------------------
# fit_events


THETA_TOLERANCE = 0.25  # acceptance criterion 10's recovery rule
# The seed of the optimizer's random restarts is part of the command, as in
# criterion 10, and the fit starts from the generating model: with the
# heuristic start and a restart sequence that changes with every log, the
# number of objective evaluations varies too much between logs.
FIT_SEED = 1


def check_fit(rc: int, artifacts: dict, ins: inputs.EventInputs, first: dict,
              rejected=None) -> list:
    """Problems with one ``fit`` run; ``rejected`` is known only when traced."""
    if rc != 0:
        return [f"fit exited with code {rc}"]
    problems = []
    try:
        theta = json.loads(artifacts["estimate.json"])["estimates"]["theta"]
        true_theta = inputs.EVENT_MODEL["theta"]
        if not abs(theta - true_theta) <= THETA_TOLERANCE * true_theta:
            problems.append(f"theta_hat {theta:.4g} not within 25% of {true_theta}")
        observed = np.asarray(_csv_column(artifacts["fitted_vs_observed.csv"], "observed"))
        expected = ins.expected_observable()
        if observed.shape != expected.shape or np.max(np.abs(observed - expected)) > 1e-9:
            problems.append("observed series does not match the generated per-interval counts")
        problems += _same_as_first(first, artifacts, ("estimate.json", "params.csv"))
    except (KeyError, ValueError) as exc:
        problems.append(f"fit artifacts unreadable: {exc!r}")
    if rejected is not None and rejected != ins.n_malformed:
        problems.append(f"ingest rejected {rejected} rows, {ins.n_malformed} were malformed")
    return problems


def fit_events(run: Run):
    init = inputs.write_model(inputs.EVENT_MODEL, run.work / "init.json")

    def setup(k):
        import_probe(run)
        return inputs.write_event_inputs(run.seed, run.work / f"log{k}", variant=k)

    logs, setup_s = timed_setups(setup)
    firsts = [{} for _ in logs]

    def op(i, traced):
        k = run.variant(i) % len(logs)
        ins = logs[k]
        argv = ["fit", "--data", str(ins.events), "--config", str(ins.config),
                "--model", str(init), "--seed", str(FIT_SEED)]
        rc, wall, artifacts, trace = run_cli(run, argv, i if traced else None)
        layers = layer_figures(run, [trace], artifacts) if trace else None
        rejected = layers["data_io.load_events.rejected"] if layers else None
        return Op(wall, traced, check_fit(rc, artifacts, ins, firsts[k], rejected), layers)

    ops = measure(run, op)
    walls = [o.wall for o in ops if not o.traced]
    lines = [
        f"events: {ins.n_rows} rows, {ins.n_offset} with +02:00, {ins.n_malformed} malformed, "
        f"{ins.counts.size} intervals in log {k}"
        for k, ins in enumerate(logs)
    ]
    return setup_s, ops, lines + [f"fit_wall_s: {describe(walls, 's')}"]


# ---------------------------------------------------------------------------
# validate_desk


def check_validate(rc: int, artifacts: dict, first: dict) -> list:
    if rc != 0:
        return [f"validate exited with code {rc}"]
    try:
        summary = json.loads(artifacts["summary.json"])
        problems = _same_as_first(first, artifacts, ("summary.json",))
        if summary["n_failed"] != 0:
            problems.append(f"{summary['n_failed']} replications failed")
        return problems
    except (KeyError, ValueError) as exc:
        return [f"validate artifacts unreadable: {exc!r}"]


def validate_desk(run: Run):
    def setup(k):
        import_probe(run)
        return inputs.write_model(inputs.DESK_MODEL, run.work / "desk.json")

    (model, *_), setup_s = timed_setups(setup)
    jobs = 1 if run.trace else JOBS
    firsts = defaultdict(dict)

    def op(i, traced):
        # the study's seed is its input: one per operation, as for fit_events
        seed = run.seed * 1000 + run.variant(i)
        argv = ["validate", "--model", str(model), "--seed", str(seed), "--reps", str(REPS),
                "--len", str(SERIES_LEN), "--jobs", str(jobs)]
        rc, wall, artifacts, trace = run_cli(run, argv, i if traced else None)
        layers = layer_figures(run, [trace], artifacts) if trace else None
        return Op(wall, traced, check_validate(rc, artifacts, firsts[seed]), layers)

    ops = measure(run, op)
    walls = [o.wall for o in ops if not o.traced]
    lines = [
        f"validate: {REPS} replications of {SERIES_LEN} observations at --jobs {jobs}",
        f"validate_reps_per_s: {describe([REPS / w for w in walls], '1/s')}",
    ]
    return setup_s, ops, lines


# ---------------------------------------------------------------------------
# count_law


def _feller(doc: dict):
    from coxaffine import FellerModel

    return FellerModel(doc["kappa"], doc["theta"], doc["sigma"], doc["lambda0"])


def _pair(one: dict, two: dict):
    """Two independent square-root factors; the intensity is their sum."""
    from coxaffine import AffineModel

    return AffineModel(
        dim=2,
        kappa=[[one["kappa"], 0.0], [0.0, two["kappa"]]],
        theta=[one["theta"], two["theta"]],
        sigma_mat=[[one["sigma"], 0.0], [0.0, two["sigma"]]],
        a=[0.0, 0.0],
        b=[[1.0, 0.0], [0.0, 1.0]],
        rho1=[1.0, 1.0],
    )


def mc_z(mc, exact: np.ndarray) -> float:
    """Largest |Monte Carlo - exact| in standard errors over k <= MC_KMAX."""
    diff = np.abs(mc.pmf.probs - exact)
    se = mc.std_errors
    z = np.divide(diff, se, out=np.where(diff > 0, np.inf, 0.0), where=se > 0)
    return float(z.max())


def count_law(run: Run):
    from coxaffine import RngStream, cox_dist, simulate

    one_doc, two_doc = inputs.count_law_models(run.seed)
    one, two, pair = _feller(one_doc), _feller(two_doc), _pair(one_doc, two_doc)
    mc_stream = RngStream(run.seed, stream_id=1)

    def sweep():
        return [cox_dist.pmf(one, h, k) for h in SWEEP_HORIZONS for k in SWEEP_KMAX]

    def setup(k):
        import_probe(run)
        path = inputs.write_model(one_doc, run.work / "model.json")
        sweep()
        conv = np.convolve(cox_dist.pmf(one, RICCATI_HORIZON, RICCATI_KMAX).probs,
                           cox_dist.pmf(two, RICCATI_HORIZON, RICCATI_KMAX).probs)
        cox_dist.pmf(pair, RICCATI_HORIZON, RICCATI_KMAX)
        simulate.monte_carlo_pmf(one, MC_HORIZON, 1000, MC_KMAX, mc_stream, n_steps=MC_STEPS)
        return path, conv[: RICCATI_KMAX + 1], cox_dist.pmf(one, MC_HORIZON, MC_KMAX).probs

    ((model, pair_ref, mc_ref), *_), setup_s = timed_setups(setup)
    argv = ["simulate", "--model", str(model), "--seed", str(run.seed), "--len", str(SIM_LEN)]
    first = {}
    inproc = tracer.Tracer()

    def op(i, traced):
        if not traced:
            return one_round(i, traced)
        inproc.reset(i)
        inproc.install()
        try:
            return one_round(i, traced)
        finally:
            inproc.uninstall()

    def one_round(i, traced):
        problems = []
        t0 = time.perf_counter()
        try:
            sweep()
            t1 = time.perf_counter()
            pair_pmf = cox_dist.pmf(pair, RICCATI_HORIZON, RICCATI_KMAX)
            t2 = time.perf_counter()
            mc = simulate.monte_carlo_pmf(one, MC_HORIZON, MC_PATHS, MC_KMAX, mc_stream,
                                          n_steps=MC_STEPS)
            t3 = time.perf_counter()
        except ArithmeticError as exc:
            return Op(time.perf_counter() - t0, traced, [f"count law failed: {exc!r}"])
        rc, sim_wall, artifacts, trace = run_cli(run, argv, i if traced else None)
        parts = {"sweep": t1 - t0, "riccati": t2 - t1, "mc": t3 - t2, "simulate": sim_wall}

        gap = float(np.max(np.abs(pair_pmf.probs - pair_ref)))
        if not gap <= 1e-8:
            problems.append(f"two-factor Riccati pmf off the factor convolution by {gap:.2e}")
        z = mc_z(mc, mc_ref)
        if not z <= 4.0:
            problems.append(f"Monte Carlo pmf {z:.2f} SE from the closed form")
        if rc != 0:
            problems.append(f"simulate exited with code {rc}")
        else:
            problems += _same_as_first(first, artifacts, ("summary.json",))
        if i == 0:
            affine = cox_dist.pmf(one.as_affine(), RICCATI_HORIZON, RICCATI_KMAX, x0=[one.lambda0])
            closed = cox_dist.pmf(one, RICCATI_HORIZON, RICCATI_KMAX)
            gap = float(np.max(np.abs(affine.probs - closed.probs)))
            if not gap <= 1e-8:
                problems.append(f"closed-form and Riccati pmf differ by {gap:.2e}")
        layers = None
        if traced and trace:
            layers = layer_figures(run, [(inproc.spans, inproc.counts, None), trace], artifacts)
        return Op(sum(parts.values()), traced, problems, layers, parts)

    ops = measure(run, op)
    plain = [o for o in ops if not o.traced and o.parts]
    n_sweep = len(SWEEP_HORIZONS) * len(SWEEP_KMAX)
    lines = [
        f"count_law: sweep {SWEEP_HORIZONS} x k_max {SWEEP_KMAX}; Riccati k_max "
        f"{RICCATI_KMAX}; Monte Carlo {MC_PATHS} paths x {MC_STEPS} steps",
        f"pmf_per_s: {describe([n_sweep / o.parts['sweep'] for o in plain], '1/s')}",
        f"riccati_pmf_per_s: {describe([1 / o.parts['riccati'] for o in plain], '1/s')}",
        f"mc_path_steps_per_s: "
        f"{describe([MC_PATHS * MC_STEPS / o.parts['mc'] for o in plain], '1/s')}",
        f"simulate_wall_s: {describe([o.parts['simulate'] for o in plain], 's')}",
    ]
    return setup_s, ops, lines


WORKLOADS = {"fit_events": fit_events, "validate_desk": validate_desk, "count_law": count_law}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_record(args) -> dict:
    import coxaffine
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": coxaffine.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "COXAFFINE_PURE_PYTHON": os.environ.get("COXAFFINE_PURE_PYTHON"),
    }


def metrics_of(run: Run, setup_s: float, ops: list) -> tuple:
    """The result's metrics and the human-readable lines that go with them."""
    plain = [o.wall for o in ops if not o.traced]
    if not run.trace:
        values = {"setup_s": setup_s, "wall_s": _median(plain), "peak_rss_mb": peak_rss_mb()}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        return metrics, [f"wall_s: {describe(plain, 's')}"]
    traced = [o for o in ops if o.traced and o.layers]
    metrics = {}
    for name, (unit, _) in tracer.PER_LAYER.items():
        if name == "cli.import_s":
            value = _median(run.imports)
        elif name == "trace.overhead_s":
            value = _median([o.wall for o in traced]) - _median(plain)
        else:
            value = _median([o.layers[name] for o in traced])
        metrics[name] = (value, unit)
    return metrics, [f"traced operations: {len(traced)}, untraced baseline: {len(plain)}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coxaffine" / "__init__.py").is_file():
        print(f"error: no coxaffine package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coxaffine

    if Path(coxaffine.__file__).resolve().parent != (SRC / "coxaffine").resolve():
        print(f"error: imported coxaffine from {coxaffine.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.seed, args.seconds, bool(args.trace), work, env)
    try:
        setup_s, ops, lines = WORKLOADS[args.workload](run)
        metrics, more = metrics_of(run, setup_s, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if run.trace:
        SPANS.mkdir(exist_ok=True)
        with open(SPANS / f"{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(run.traces, fh)
    tally = run.tally
    print("run: " + json.dumps(run_record(args), sort_keys=True))
    for line in lines + more + [f"setup_s: {setup_s:.6g} s (median of {SETUPS} set-ups)",
                                f"failed_ratio: {tally.failed_ratio:.6g} "
                                f"({tally.failed}/{tally.attempted})"]:
        print(line)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
