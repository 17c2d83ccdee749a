"""Regenerate the bundled event fixtures. Run from the repo root:

    python3 tests/fixtures/make_fixtures.py

events_dense.csv: arrivals of a square-root-intensity Cox process with
per-minute parameters kappa=0.2, theta=0.5, sigma=0.15, simulated as one
continuous intensity path chopped into ten 10:00-18:00 sessions, so the
pooled minute series matches the generating model with no day-boundary
misspecification.  Used by the fit-recovery test (target theta within 25%).

events_sparse_535.csv: exactly 535 sell events over a month of sessions at
a sparse desk-scale rate, exercising millisecond round-trips.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from coxaffine import (  # noqa: E402
    EventLog,
    FellerModel,
    RngStream,
    save_events,
    simulate_arrivals,
    simulate_path,
)

HERE = pathlib.Path(__file__).resolve().parent
DAY_MS = 86_400_000
SESSION_START_MS = 10 * 3_600_000
SESSION_MIN = 480
SELL = 2  # EventLog.side code of "sell"

DENSE = FellerModel(kappa=0.2, theta=0.5, sigma=0.15, lambda0=0.5)
DENSE_DAYS = 10
# first business day of a month, as ms-epoch day index
FIRST_DAY = 19632  # 2023-10-02


def minutes_to_ms(t_min: np.ndarray) -> np.ndarray:
    day = (t_min // SESSION_MIN).astype(np.int64)
    within = t_min - day * SESSION_MIN
    ms = (FIRST_DAY + day) * DAY_MS + SESSION_START_MS + np.round(within * 60_000.0).astype(np.int64)
    return ms


def make_dense():
    horizon = float(DENSE_DAYS * SESSION_MIN)
    rng = RngStream(20231002)
    path = simulate_path(DENSE, horizon, int(horizon * 20), rng.spawn(0))
    arrivals = simulate_arrivals(path, rng.spawn(1))
    ms = np.sort(minutes_to_ms(arrivals))
    log = EventLog(timestamps_ms=ms, side=np.full(ms.size, SELL), instrument="SIM")
    save_events(log, HERE / "events_dense.csv")
    print(f"events_dense.csv: {ms.size} events over {DENSE_DAYS} sessions")


def make_sparse():
    gen = RngStream(535, stream_id=1).generator()
    days = [FIRST_DAY + d for d in range(30) if (FIRST_DAY + d + 4) % 7 not in (0, 6)]
    session_ms = SESSION_MIN * 60_000
    stamps = []
    while len(stamps) < 535:
        d = days[gen.integers(len(days))]
        stamps.append(d * DAY_MS + SESSION_START_MS + int(gen.integers(session_ms)))
    ms = np.sort(np.asarray(stamps[:535], dtype=np.int64))
    log = EventLog(timestamps_ms=ms, side=np.full(ms.size, SELL), instrument="SIM")
    save_events(log, HERE / "events_sparse_535.csv")
    print(f"events_sparse_535.csv: {ms.size} events over {len(days)} weekdays")


if __name__ == "__main__":
    make_dense()
    make_sparse()
