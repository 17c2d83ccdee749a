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
import math
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, time, timedelta, timezone
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
_SIDES = ("", "buy", "sell")  # EventLog.side codes index this tuple
_BLOCK_LINES = 65_536
# the canonical timestamp YYYY-MM-DDTHH:MM:SS.mmm, by byte offset
_TS_WIDTH = 23
_TS_SEP_AT = [4, 7, 10, 13, 16, 19]
_TS_SEP = np.frombuffer(b"--T::.", dtype=np.uint8)
_TS_DIGIT_AT = [j for j in range(_TS_WIDTH) if j not in _TS_SEP_AT]
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
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


def _read_only(values, dtype) -> np.ndarray:
    """``values`` as a read-only C-contiguous array of ``dtype``.

    A writable array is copied, so the caller's stays writable; a read-only
    one that already fits, as the loader and ``aggregate`` pass, is kept.
    """
    if isinstance(values, np.ndarray) and values.flags.writeable:
        arr = np.array(values, dtype=dtype, order="C")
    else:
        arr = np.ascontiguousarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _coerce_time(value) -> time:
    if isinstance(value, time):
        return value
    if isinstance(value, str):
        return time.fromisoformat(value)
    raise TypeError(f"session bound must be datetime.time or 'HH:MM' string, got {value!r}")


@dataclass(frozen=True)
class EventLog:
    """Validated, time-ordered arrival events at millisecond resolution.

    ``side`` holds one ``int8`` code per event indexing ``("", "buy", "sell")``:
    0 no side, 1 buy, 2 sell.  Any integer array of such codes is accepted;
    an empty one means all 0.
    ``n_rejected``/``rejected_lines`` record rows the loader could not parse.
    Read-only after construction; safe for concurrent reads.
    """

    timestamps_ms: np.ndarray
    side: np.ndarray = ()
    instrument: str = ""
    n_rejected: int = 0
    rejected_lines: tuple = ()

    def __post_init__(self):
        ts = _read_only(self.timestamps_ms, np.int64)
        object.__setattr__(self, "timestamps_ms", ts)
        side = np.asarray(self.side)
        if side.size == 0:
            side = np.zeros(ts.size, dtype=np.int8)
        # checked before narrowing, so a wide code such as 258 cannot wrap into range
        elif side.dtype.kind not in "iu" or side.min() < 0 or side.max() >= len(_SIDES):
            raise ValueError(f"side must hold integer codes 0-2 indexing {_SIDES}")
        if side.ndim != 1 or side.size != ts.size:
            raise ValueError(f"side has {side.size} entries for {ts.size} timestamps")
        object.__setattr__(self, "side", _read_only(side, np.int8))
        if ts.size > 1 and np.any(np.diff(ts) < 0):
            raise ValueError("timestamps must be nondecreasing")

    def __len__(self) -> int:
        return int(self.timestamps_ms.size)


def load_events(path) -> EventLog:
    """Read a CSV event file with header ``timestamp,side,instrument``.

    The file is UTF-8; a leading byte order mark is skipped.  Rows whose
    timestamp does not parse, or falls outside years 1-9999 once converted
    to UTC, or whose side tag is not buy/sell/empty after stripping and
    lower-casing, are rejected and reported by line number.  The accepted
    timestamp forms are those of the running Python's
    ``datetime.fromisoformat``: Python 3.10 rejects a ``Z`` suffix, 3.11
    accepts it.  ``instrument`` is taken from the first accepted row that
    names one.  Out of order rows are sorted with a warning.  An empty file
    yields an empty log.

    The file is read whole, so memory grows with its size.  A row whose
    timestamp is exactly ``YYYY-MM-DDTHH:MM:SS.mmm`` with calendar fields in
    range and whose side is exactly ``buy``, ``sell`` or empty is parsed in
    vectorized blocks; every other row goes through the row rules above.
    A file that holds a ``"``, a non-ASCII or NUL byte, a lone carriage
    return or a line longer than ``csv.field_size_limit()`` cannot be split
    at newline bytes, and is read row by row with ``csv.DictReader``; a
    row that ``csv`` cannot split raises ValueError naming its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        return EventLog(np.empty(0, dtype=np.int64))
    lines = _line_bounds(data)
    if lines is None:
        del data
        ts, codes, instrument, rejected = _read_rows(path)
    else:
        ts, codes, instrument, rejected = _read_lines(path, data, *lines)
    if ts.size > 1 and np.any(np.diff(ts) < 0):
        warnings.warn(f"{path}: events out of order; sorting", stacklevel=2)
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        codes = codes[order]
    ts.setflags(write=False)  # handed over as they are, not copied
    codes.setflags(write=False)
    return EventLog(
        timestamps_ms=ts,
        side=codes,
        instrument=instrument,
        n_rejected=len(rejected),
        rejected_lines=tuple(rejected),
    )


def _parse_row(stamp, side):
    """The row rules: ``(ms, side code)`` for an accepted row, None for a reject.

    ``stamp`` and ``side`` are the raw field texts, None where the row has
    no such column.
    """
    side = (side or "").strip().lower()
    try:
        ms = _parse_timestamp_ms(stamp or "")
    except (ValueError, OverflowError):  # OverflowError: UTC is outside years 1-9999
        return None
    if side not in _SIDES:
        return None
    return ms, _SIDES.index(side)


def _check_header(path, fieldnames) -> None:
    if "timestamp" not in fieldnames:
        raise ValueError(f"{path}: missing required 'timestamp' column")


def _read_rows(path):
    """Apply the row rules to every row, as split by ``csv.DictReader``."""
    stamps = []
    codes = []
    instrument = ""
    rejected = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is not None:  # None: the file is only a byte order mark
                _check_header(path, reader.fieldnames)
            for row in reader:
                parsed = _parse_row(row.get("timestamp"), row.get("side"))
                if parsed is None:
                    rejected.append(reader.line_num)
                    continue
                stamps.append(parsed[0])
                codes.append(parsed[1])
                if not instrument:
                    instrument = (row.get("instrument") or "").strip()
        except csv.Error as exc:  # DictReader.line_num would omit the row that failed
            raise ValueError(f"{path}: line {reader.reader.line_num}: {exc}") from None
    return np.array(stamps, dtype=np.int64), np.array(codes, dtype=np.int8), instrument, rejected


def _line_bounds(data: bytes):
    """Start and end byte offsets of each line, or None if ``csv`` must split the file.

    A quoted field may hold a newline, a lone carriage return ends a line
    for ``csv``, non-ASCII bytes need UTF-8 decoding, NUL bytes parse
    differently by Python version, and ``csv`` raises on a field longer than
    its limit.  Ends exclude the newline and the carriage return of CRLF.
    """
    if (
        not data.isascii()
        or b'"' in data
        or b"\0" in data
        or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n"))
    ):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends + 1))
    if data.endswith(b"\n"):
        starts = starts[:-1]
    else:
        ends = np.append(ends, buf.size)
    ends -= (ends > starts) & (buf[ends - 1] == ord("\r"))
    if (ends - starts).max() > csv.field_size_limit():
        return None
    return starts, ends


def _read_lines(path, data: bytes, starts: np.ndarray, ends: np.ndarray):
    """Parse canonical rows in vectorized blocks and the rest by the row rules.

    Field bounds come from the comma offsets of each block.  A column a row
    lacks has empty bounds at the line end; the row rules read an empty
    field as they read a missing one.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    header = data[starts[0] : ends[0]].decode("ascii")
    fieldnames = header.split(",") if header else []
    _check_header(path, fieldnames)
    # a repeated name reads its last column, as in csv.DictReader
    column = {name: k for k, name in enumerate(fieldnames)}
    stamps = [np.empty(0, dtype=np.int64)]
    codes = [np.empty(0, dtype=np.int8)]
    instrument = ""
    rejected = []
    for lo in range(1, starts.size, _BLOCK_LINES):
        s = starts[lo : lo + _BLOCK_LINES]
        e = ends[lo : lo + _BLOCK_LINES]
        commas = np.flatnonzero(buf[s[0] : e[-1]] == ord(",")) + s[0]
        # the sentinel lies past every line, so take() never runs off the end
        commas = np.append(commas, buf.size)
        first = np.searchsorted(commas, s)
        n_commas = np.searchsorted(commas, e) - first

        def field(name):
            k = column.get(name)
            if k is None:
                return e, e
            fs = s if k == 0 else np.minimum(commas.take(first + k - 1, mode="clip") + 1, e)
            return fs, np.where(n_commas > k, commas.take(first + k, mode="clip"), e)

        ts_s, ts_e = field("timestamp")
        side_s, side_e = field("side")
        ms = np.zeros(s.size, dtype=np.int64)
        ok = np.zeros(s.size, dtype=bool)
        at = np.flatnonzero(ts_e - ts_s == _TS_WIDTH)
        if at.size:
            ok[at], ms[at] = _canonical_ms(sliding_window_view(buf, _TS_WIDTH)[ts_s[at]])
        code = _canonical_side(buf, side_s, side_e)
        ok &= code >= 0
        for i in np.flatnonzero(~ok & (e > s)).tolist():
            parsed = _parse_row(
                data[ts_s[i] : ts_e[i]].decode("ascii"),
                data[side_s[i] : side_e[i]].decode("ascii"),
            )
            if parsed is None:
                rejected.append(lo + i + 1)
                continue
            ms[i] = parsed[0]
            code[i] = parsed[1]
            ok[i] = True
        if not instrument:
            in_s, in_e = field("instrument")
            for i in np.flatnonzero(ok & (in_e > in_s)).tolist():
                instrument = data[in_s[i] : in_e[i]].decode("ascii").strip()
                if instrument:
                    break
        stamps.append(ms[ok])
        codes.append(code[ok])
    return np.concatenate(stamps), np.concatenate(codes), instrument, rejected


def _canonical_side(buf, fs, fe) -> np.ndarray:
    """Side code of fields that are exactly a tag of ``_SIDES``, -1 for the rest."""
    n = fe - fs
    code = np.where(n == 0, 0, -1).astype(np.int8)
    for c, tag in enumerate(_SIDES[1:], start=1):
        at = np.flatnonzero(n == len(tag))
        if at.size:
            want = np.frombuffer(tag.encode("ascii"), dtype=np.uint8)
            code[at[(sliding_window_view(buf, len(tag))[fs[at]] == want).all(axis=1)]] = c
    return code


def _canonical_ms(rows: np.ndarray):
    """``(ok, ms)`` for timestamps given as rows of ``_TS_WIDTH`` bytes.

    ``ok`` marks rows of the exact form ``YYYY-MM-DDTHH:MM:SS.mmm`` whose
    year is at least 1, day exists in its month (leap years included), and
    hour, minute and second are below 24, 60 and 60.  Their milliseconds
    since the epoch come from integer days-from-civil arithmetic, equal to
    what ``datetime.fromisoformat`` gives; ``ms`` is meaningless elsewhere.
    """
    ok = (rows[:, _TS_SEP_AT] == _TS_SEP).all(axis=1)
    ok &= (rows[:, _TS_DIGIT_AT] - np.uint8(ord("0")) <= 9).all(axis=1)

    def number(lo, hi):
        v = np.zeros(rows.shape[0], dtype=np.int64)
        for j in range(lo, hi):
            v = v * 10 + (rows[:, j] - np.uint8(ord("0")))
        return v

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second, milli = number(11, 13), number(14, 16), number(17, 19), number(20, 23)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month, 0, 12)] + (leap & (month == 2))
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    # days from 1970-01-01 in the proleptic Gregorian calendar, years from March
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146_097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719_468
    return ok, (((days * 24 + hour) * 60 + minute) * 60 + second) * 1000 + milli


def save_events(log: EventLog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "side", "instrument"])
        for ms, code in zip(log.timestamps_ms.tolist(), log.side.tolist()):
            writer.writerow([_format_timestamp_ms(ms), _SIDES[code], log.instrument])


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
        starts = _read_only(self.interval_start_ms, np.int64)
        counts = _read_only(self.counts, float)
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
            obs = _read_only(obs, float)
            if obs.shape != counts.shape:
                raise ValueError("observable must have the same length as counts")
        for name, arr in (("interval_start_ms", starts), ("counts", counts), ("observable", obs)):
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

    ``interval`` is in seconds, rounded to whole milliseconds (at least one);
    ``sessions`` gives the daily (start, end) bounds, end exclusive.  Only
    full intervals are kept, so a session not divisible by the interval
    drops its trailing remainder.  With ``average_days`` the counts at
    matching intra-day intervals are averaged across days (flagged, since
    averaged counts are not integers); otherwise days are pooled in
    chronological order.  Events outside sessions are counted in
    ``n_dropped``.
    """
    if not interval > 0:
        raise ValueError(f"interval must be > 0, got {interval}")
    start, end = (_coerce_time(s) for s in sessions)
    start_ms, end_ms = _time_to_ms(start), _time_to_ms(end)
    if not start_ms < end_ms:
        raise ValueError(f"session start {start} must precede end {end}")
    interval_ms = int(round(interval * 1000))
    if interval_ms < 1:
        raise ValueError(f"interval {interval} s rounds to {interval_ms} ms; need at least 1 ms")
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
    counts.setflags(write=False)  # handed over as they are, not copied
    starts.setflags(write=False)
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
    obs.setflags(write=False)  # handed over as it is, not copied
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


_CONFIG_RULES = {
    "session_start": "an 'HH:MM' string",
    "session_end": "an 'HH:MM' string",
    "interval_seconds": "a positive finite number",
    "M": "a positive integer",
    "mapping": f"one of {_OBS_MAPPINGS}",
    "average_days": "true or false",
}


def _config_value(key: str, value):
    """``value`` as the PipelineConfig field ``key``; ValueError if it is not one."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if key in ("session_start", "session_end") and isinstance(value, str):
        return time.fromisoformat(value)
    if key == "interval_seconds" and number and 0 < value < math.inf:
        return value
    if key == "M" and number and isinstance(value, int) and value > 0:
        return value
    if key == "mapping" and value in _OBS_MAPPINGS:
        return value
    if key == "average_days" and isinstance(value, bool):
        return value
    raise ValueError(key)


def load_pipeline_config(path) -> PipelineConfig:
    """Read a pipeline config: a JSON object holding any of the PipelineConfig
    fields.  An unknown key, or a value of the wrong type or range, raises
    ValueError naming the file and the key."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: pipeline config must be a JSON object")
    unknown = set(raw) - _CONFIG_RULES.keys()
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        try:
            kwargs[key] = _config_value(key, value)
        except ValueError:
            raise ValueError(
                f"{path}: {key} must be {_CONFIG_RULES[key]}, got {value!r}"
            ) from None
    return PipelineConfig(**kwargs)
