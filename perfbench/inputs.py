"""Seeded inputs for the benchmark workloads.

Everything here is pure numpy plus the standard library and never imports
coxaffine, so the inputs for a seed stay the same whatever the package under
test does to its own samplers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DAY_MS = 86_400_000
FIRST_DAY = 19632  # 2023-10-02 as a day index since the epoch
SESSION_START_MS = 10 * 3_600_000  # 10:00, the pipeline's default session
SESSION_MIN = 480  # 10:00-18:00

# fit_events: about 1e6 arrivals over 20 sessions at 10-minute bins
EVENT_MODEL = {"kind": "feller", "kappa": 0.2, "theta": 100.0, "sigma": 3.0, "lambda0": 100.0}
EVENT_SESSIONS = 20
EVENT_PATH_STEP_MIN = 0.05
INTERVAL_SECONDS = 600
# one arrival opportunity per 10 ms slot of a 10-minute interval
CAPACITY_M = 60_000
OFFSET_SHARE = 0.01
N_MALFORMED = 200
CHUNK_ROWS = 100_000

# validate_desk: the desk-scale model of the replication study
DESK_MODEL = {"kind": "feller", "kappa": 0.2, "theta": 0.04, "sigma": 0.05, "lambda0": 0.04}

# each malformed row fails ingest for a different reason
_MALFORMED = (
    "not-a-time,buy,SIM",
    "2023-10-02T25:61:00.000,sell,SIM",
    ",buy,SIM",
    "{stamp},hold,SIM",
)


def _generator(seed: int, variant: int, stream: int) -> np.random.Generator:
    key = (variant, stream)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class EventInputs:
    """Files for one ``fit`` workload and what a correct run must report."""

    events: Path
    config: Path
    n_rows: int  # data rows in the file, malformed included
    n_offset: int
    malformed_lines: tuple  # 1-based file line numbers (the header is line 1)
    counts: np.ndarray  # expected pooled per-interval counts

    @property
    def n_malformed(self) -> int:
        return len(self.malformed_lines)

    def expected_observable(self) -> np.ndarray:
        """The ``no_arrival_log`` observable of the expected counts."""
        freq = np.minimum(self.counts, CAPACITY_M) / CAPACITY_M
        return np.log(np.maximum(1.0 - freq, 1.0 / (2.0 * CAPACITY_M)))


def intensity_path(seed: int, variant: int = 0) -> np.ndarray:
    """Square-root intensity (per minute) on a 3-second grid across all sessions.

    One continuous path chopped into sessions, as in the repository's dense
    fixture, so the pooled series carries no day-boundary misspecification.
    Full-truncation Euler steps: at kappa * step = 0.01 the scheme bias is far
    below the 25% recovery tolerance the fit check uses.
    """
    m = EVENT_MODEL
    n = int(round(EVENT_SESSIONS * SESSION_MIN / EVENT_PATH_STEP_MIN))
    z = _generator(seed, variant, 0).standard_normal(n).tolist()
    kd = m["kappa"] * EVENT_PATH_STEP_MIN
    vol = m["sigma"] * math.sqrt(EVENT_PATH_STEP_MIN)
    theta = m["theta"]
    lam = m["lambda0"]
    out = [lam]
    for zi in z:
        lam += kd * (theta - lam) + vol * math.sqrt(lam) * zi
        if lam < 0.0:
            lam = 0.0
        out.append(lam)
    return np.asarray(out)


def arrival_ms(seed: int, variant: int = 0) -> np.ndarray:
    """Sorted Cox arrival timestamps (ms since the epoch), all inside sessions."""
    lam = intensity_path(seed, variant)
    gen = _generator(seed, variant, 1)
    dt = EVENT_PATH_STEP_MIN
    counts = gen.poisson(0.5 * dt * (lam[1:] + lam[:-1]))
    cell = np.repeat(np.arange(counts.size), counts)
    t_min = np.sort((cell + gen.random(cell.size)) * dt)
    day = (t_min // SESSION_MIN).astype(np.int64)
    within_ms = np.floor((t_min - day * SESSION_MIN) * 60_000.0).astype(np.int64)
    return np.sort((FIRST_DAY + day) * DAY_MS + SESSION_START_MS + within_ms)


def _stamps(ms: np.ndarray) -> list:
    return np.datetime_as_string(ms.astype("datetime64[ms]"), unit="ms").tolist()


def write_event_inputs(seed: int, directory: Path, variant: int = 0) -> EventInputs:
    """Write ``events.csv`` and ``pipeline.json`` for the ``fit_events`` workload.

    About 1% of rows carry a ``+02:00`` offset (same instant, local clock) and
    exactly ``N_MALFORMED`` rows are malformed, inserted at seeded positions.
    Each ``variant`` is an independent log for the same seed.
    """
    directory.mkdir(parents=True, exist_ok=True)
    ms = arrival_ms(seed, variant)
    n = ms.size
    gen = _generator(seed, variant, 2)
    offset = gen.random(n) < OFFSET_SHARE
    side = np.where(gen.integers(0, 2, n) == 0, "buy", "sell").tolist()
    bad_before = np.sort(gen.choice(n, size=N_MALFORMED, replace=False))
    bad_kind = gen.integers(0, len(_MALFORMED), N_MALFORMED)

    malformed_lines = []
    events = directory / "events.csv"
    with open(events, "w", newline="") as fh:
        fh.write("timestamp,side,instrument\n")
        line = 1
        b = 0
        for start in range(0, n, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n)
            plain = _stamps(ms[start:stop])
            shifted = _stamps(ms[start:stop] + 2 * 3_600_000)
            rows = []
            for i in range(start, stop):
                while b < N_MALFORMED and bad_before[b] == i:
                    line += 1
                    malformed_lines.append(line)
                    rows.append(_MALFORMED[bad_kind[b]].format(stamp=plain[i - start]))
                    b += 1
                line += 1
                j = i - start
                stamp = shifted[j] + "+02:00" if offset[i] else plain[j]
                rows.append(f"{stamp},{side[i]},SIM")
            fh.write("\n".join(rows))
            fh.write("\n")

    config = directory / "pipeline.json"
    config.write_text(json.dumps({
        "session_start": "10:00",
        "session_end": "18:00",
        "interval_seconds": INTERVAL_SECONDS,
        "M": CAPACITY_M,
        "mapping": "no_arrival_log",
    }, sort_keys=True) + "\n")

    bins_per_day = SESSION_MIN * 60 // INTERVAL_SECONDS
    day = ms // DAY_MS - FIRST_DAY
    slot = (ms % DAY_MS - SESSION_START_MS) // (INTERVAL_SECONDS * 1000)
    counts = np.bincount(day * bins_per_day + slot, minlength=EVENT_SESSIONS * bins_per_day)
    return EventInputs(
        events=events,
        config=config,
        n_rows=n + N_MALFORMED,
        n_offset=int(offset.sum()),
        malformed_lines=tuple(malformed_lines),
        counts=counts.astype(float),
    )


def write_model(doc: dict, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def count_law_models(seed: int) -> tuple:
    """A one-factor model and the second factor of a two-factor model.

    Drawn from ranges where every pmf of the sweep keeps its precision and the
    Feller condition holds (2 kappa theta >= 0.5 > sigma^2).
    """
    gen = _generator(seed, 0, 3)

    def draw() -> dict:
        kappa, theta = (float(v) for v in gen.uniform(0.5, 2.0, 2))
        sigma = float(gen.uniform(0.2, 0.6))
        return {"kind": "feller", "kappa": kappa, "theta": theta, "sigma": sigma, "lambda0": theta}

    return draw(), draw()
