"""Order-event ingestion, interval aggregation, and observable construction.

Events carry millisecond timestamps which are preserved exactly as integer
milliseconds since the epoch; all round-trips through CSV are lossless.
Aggregation restricts to daily session hours, bins arrivals into fixed
intervals (default one minute), and either pools days one after another or
averages counts at matching intra-day minutes across days.  The observable
is the count normalized by the per-interval capacity M (default 6000, one
arrival opportunity per 10 ms slot of a minute), or its no-arrival
complement, optionally on the log scale.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, time, timedelta, timezone
from typing import Optional

import numpy as np

__all__ = [
    "EventLog",
    "ObservationSeries",
    "PipelineConfig",
    "load_events",
    "save_events",
    "aggregate",
    "to_observable",
    "load_pipeline_config",
]

_EPOCH = datetime(1970, 1, 1)
_MS = timedelta(milliseconds=1)
_DAY_MS = 86_400_000
_SIDES = ("", "buy", "sell")
_OBS_MAPPINGS = ("frequency", "no_arrival_proxy", "no_arrival_log")


def _parse_timestamp_ms(text: str) -> int:
    dt = datetime.fromisoformat(text.strip())
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return (dt - _EPOCH) // _MS


def _format_timestamp_ms(ms: int) -> str:
    return (_EPOCH + int(ms) * _MS).isoformat(timespec="milliseconds")


def _time_to_ms(t: time) -> int:
    return ((t.hour * 60 + t.minute) * 60 + t.second) * 1000 + t.microsecond // 1000


def _coerce_time(value) -> time:
    if isinstance(value, time):
        return value
    if isinstance(value, str):
        return time.fromisoformat(value)
    raise TypeError(f"session bound must be datetime.time or 'HH:MM' string, got {value!r}")


@dataclass(frozen=True)
class EventLog:
    """Validated, time-ordered arrival events at millisecond resolution.

    ``side`` holds one tag per event ("buy", "sell", or "" when absent).
    ``n_rejected``/``rejected_lines`` record rows the loader could not parse.
    Read-only after construction; safe for concurrent reads.
    """

    timestamps_ms: np.ndarray
    side: tuple = ()
    instrument: str = ""
    n_rejected: int = 0
    rejected_lines: tuple = ()

    def __post_init__(self):
        ts = np.ascontiguousarray(self.timestamps_ms, dtype=np.int64)
        ts.setflags(write=False)
        object.__setattr__(self, "timestamps_ms", ts)
        side = tuple(self.side) if self.side else ("",) * ts.size
        object.__setattr__(self, "side", side)
        if len(side) != ts.size:
            raise ValueError(f"side has {len(side)} entries for {ts.size} timestamps")
        bad = set(side) - set(_SIDES)
        if bad:
            raise ValueError(f"side tags must be in {_SIDES}, got {sorted(bad)}")
        if ts.size > 1 and np.any(np.diff(ts) < 0):
            raise ValueError("timestamps must be nondecreasing")

    def __len__(self) -> int:
        return int(self.timestamps_ms.size)


def load_events(path, format: str = "csv") -> EventLog:
    """Read an event file with header ``timestamp,side,instrument``.

    Rows whose timestamp does not parse as ISO-8601, or whose side tag is
    not buy/sell/empty, are rejected and reported by line number.  Out of
    order rows are sorted with a warning.  An empty file yields an empty log.
    """
    if format != "csv":
        raise ValueError(f"unsupported event format {format!r}")
    stamps = []
    sides = []
    instrument = ""
    rejected = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            return EventLog(np.empty(0, dtype=np.int64))
        if "timestamp" not in reader.fieldnames:
            raise ValueError(f"{path}: missing required 'timestamp' column")
        for row in reader:
            line = reader.line_num
            raw = row.get("timestamp") or ""
            side = (row.get("side") or "").strip().lower()
            try:
                ms = _parse_timestamp_ms(raw)
            except ValueError:
                rejected.append(line)
                continue
            if side not in _SIDES:
                rejected.append(line)
                continue
            stamps.append(ms)
            sides.append(side)
            if not instrument:
                instrument = (row.get("instrument") or "").strip()
    ts = np.asarray(stamps, dtype=np.int64)
    if ts.size > 1 and np.any(np.diff(ts) < 0):
        warnings.warn(f"{path}: events out of order; sorting", stacklevel=2)
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        sides = [sides[i] for i in order]
    return EventLog(
        timestamps_ms=ts,
        side=tuple(sides),
        instrument=instrument,
        n_rejected=len(rejected),
        rejected_lines=tuple(rejected),
    )


def save_events(log: EventLog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "side", "instrument"])
        for ms, side in zip(log.timestamps_ms, log.side):
            writer.writerow([_format_timestamp_ms(ms), side, log.instrument])


@dataclass(frozen=True)
class ObservationSeries:
    """Fixed-interval counts with an optional constructed observable.

    ``counts`` are integers per interval (stored as floats) unless
    ``counts_are_averaged`` marks cross-day averages.  ``flagged`` lists
    interval indices whose count exceeds the capacity M.
    """

    interval_start_ms: np.ndarray
    counts: np.ndarray
    interval_seconds: float = 60.0
    M: int = 6000
    observable: Optional[np.ndarray] = None
    mapping: Optional[str] = None
    counts_are_averaged: bool = False
    n_dropped: int = 0
    flagged: tuple = ()

    def __post_init__(self):
        starts = np.ascontiguousarray(self.interval_start_ms, dtype=np.int64)
        counts = np.ascontiguousarray(self.counts, dtype=float)
        if starts.shape != counts.shape:
            raise ValueError("interval_start_ms and counts must have equal length")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if not self.interval_seconds > 0:
            raise ValueError(f"interval_seconds must be > 0, got {self.interval_seconds}")
        if not self.M > 0:
            raise ValueError(f"M must be > 0, got {self.M}")
        obs = self.observable
        if obs is not None:
            obs = np.ascontiguousarray(obs, dtype=float)
            if obs.shape != counts.shape:
                raise ValueError("observable must have the same length as counts")
            obs.setflags(write=False)
        for name, arr in (("interval_start_ms", starts), ("counts", counts), ("observable", obs)):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "flagged", tuple(int(i) for i in self.flagged))

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def delta_minutes(self) -> float:
        return self.interval_seconds / 60.0


def aggregate(
    log: EventLog,
    interval: float = 60.0,
    sessions=(time(10, 0), time(18, 0)),
    average_days: bool = False,
) -> ObservationSeries:
    """Bin in-session events into fixed intervals.

    ``interval`` is in seconds; ``sessions`` gives the daily (start, end)
    bounds, end exclusive.  Only full intervals are kept, so a session not
    divisible by the interval drops its trailing remainder.  With
    ``average_days`` the counts at matching intra-day intervals are averaged
    across days (flagged, since averaged counts are not integers); otherwise
    days are pooled in chronological order.  Events outside sessions are
    counted in ``n_dropped``.
    """
    if not interval > 0:
        raise ValueError(f"interval must be > 0, got {interval}")
    start, end = (_coerce_time(s) for s in sessions)
    start_ms, end_ms = _time_to_ms(start), _time_to_ms(end)
    if not start_ms < end_ms:
        raise ValueError(f"session start {start} must precede end {end}")
    interval_ms = int(round(interval * 1000))
    n_bins = (end_ms - start_ms) // interval_ms
    if n_bins == 0:
        raise ValueError("interval longer than the session")

    ts = log.timestamps_ms
    day = ts // _DAY_MS
    tod = ts - day * _DAY_MS
    offset = tod - start_ms
    in_session = (offset >= 0) & (offset < n_bins * interval_ms)
    n_dropped = int(ts.size - in_session.sum())
    if not in_session.any():
        warnings.warn("no events inside session bounds: empty series", stacklevel=2)
        empty = np.empty(0)
        return ObservationSeries(
            interval_start_ms=empty.astype(np.int64),
            counts=empty,
            interval_seconds=interval,
            counts_are_averaged=average_days,
            n_dropped=n_dropped,
        )

    day = day[in_session]
    days = np.unique(day)
    # one flat day-major bin index per event; searchsorted on the few days
    # keeps peak memory below np.unique(..., return_inverse=True), whose
    # sort temporaries are each as long as the event log
    key = np.searchsorted(days, day) * n_bins
    key += offset[in_session] // interval_ms
    per_day = (
        np.bincount(key, minlength=days.size * n_bins).reshape(days.size, n_bins).astype(float)
    )

    bin_starts = start_ms + interval_ms * np.arange(n_bins, dtype=np.int64)
    if average_days:
        counts = per_day.mean(axis=0)
        starts = days[0] * _DAY_MS + bin_starts
    else:
        counts = per_day.reshape(-1)
        starts = (days[:, None] * _DAY_MS + bin_starts[None, :]).reshape(-1)
    return ObservationSeries(
        interval_start_ms=starts,
        counts=counts,
        interval_seconds=interval,
        counts_are_averaged=average_days,
        n_dropped=n_dropped,
    )


def to_observable(
    series: ObservationSeries, M: Optional[int] = None, mapping: str = "frequency"
) -> ObservationSeries:
    """Fill the observable from counts and the per-interval capacity M.

    Mappings: ``frequency`` is counts/M; ``no_arrival_proxy`` is
    1 - counts/M; ``no_arrival_log`` is the log of the proxy with the proxy
    floored at 1/(2M) so saturated counts stay finite (zero counts give
    exactly 0).  Intervals with counts above M are flagged, and the
    frequency mappings clamp them at capacity.
    """
    if M is None:
        M = series.M
    if not (isinstance(M, (int, np.integer)) and M > 0):
        raise ValueError(f"M must be a positive integer, got {M!r}")
    if mapping not in _OBS_MAPPINGS:
        raise ValueError(f"mapping must be one of {_OBS_MAPPINGS}, got {mapping!r}")
    counts = series.counts
    flagged = tuple(int(i) for i in np.nonzero(counts > M)[0])
    freq = np.minimum(counts, M) / M
    if mapping == "frequency":
        obs = freq
    elif mapping == "no_arrival_proxy":
        obs = 1.0 - freq
    else:
        half = 1.0 / (2.0 * M)
        obs = np.log(np.maximum(1.0 - freq, half))
    return replace(series, observable=obs, mapping=mapping, M=int(M), flagged=flagged)


@dataclass(frozen=True)
class PipelineConfig:
    """Session hours, interval, and capacity for the ingestion pipeline."""

    session_start: time = time(10, 0)
    session_end: time = time(18, 0)
    interval_seconds: float = 60.0
    M: int = 6000
    mapping: str = "no_arrival_log"
    average_days: bool = False

    @property
    def sessions(self):
        return (self.session_start, self.session_end)


_CONFIG_KEYS = {
    "session_start",
    "session_end",
    "interval_seconds",
    "M",
    "mapping",
    "average_days",
}


def load_pipeline_config(path) -> PipelineConfig:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: pipeline config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    kwargs = dict(raw)
    for key in ("session_start", "session_end"):
        if key in kwargs:
            kwargs[key] = _coerce_time(kwargs[key])
    return PipelineConfig(**kwargs)
