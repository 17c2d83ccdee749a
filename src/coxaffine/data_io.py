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
import io
import json
import warnings
from dataclasses import dataclass, fields, replace
from datetime import datetime, time, timedelta, timezone
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._inputs import check_choice, check_flag, check_real, check_size, frozen

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
# the UTC instants of years 1-9999, in milliseconds since the epoch
_FIRST_MS = (datetime.min - _EPOCH) // _MS
_END_MS = (datetime.max - _EPOCH) // _MS + 1
_SIDES = ("", "buy", "sell")  # EventLog.side codes index this tuple
_BLOCK_LINES = 65_536
_SCAN_BYTES = 1 << 18  # bytes per step of the separator pass
# The timestamps parsed in vectorized blocks, byte by byte: "0" is a digit and
# "+" the sign of the UTC offset, "+" or "-".
_STAMP = "0000-00-00T00:00:00.000"
_OFFSET_STAMP = _STAMP + "+00:00"
# days in each month, February's 29th checked against the year, and the days
# before each month in a year that starts on March 1
_MONTH_DAYS = np.array([0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31], dtype=np.int32)
_MARCH_DAYS = np.array([0, 306, 337, 0, 31, 61, 92, 122, 153, 184, 214, 245, 275], dtype=np.int32)
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


def _coerce_time(value, name: str) -> time:
    """The session bound ``name``: a ``datetime.time`` or an ISO
    'HH:MM[:SS[.fff]]' string, on the log's clock.  Anything else, a bound
    with a UTC offset included, raises ValueError naming ``name``."""
    try:
        bound = time.fromisoformat(value) if isinstance(value, str) else value
    except ValueError:
        bound = None
    if not isinstance(bound, time) or bound.tzinfo is not None:
        raise ValueError(
            f"{name} must be a datetime.time or an 'HH:MM[:SS]' string without a UTC offset,"
            f" got {value!r}"
        )
    return bound


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
        ts = frozen("timestamps_ms", self.timestamps_ms, np.int64)
        object.__setattr__(self, "timestamps_ms", ts)
        side = np.asarray(self.side)
        if side.size == 0:
            side = np.zeros(ts.size, dtype=np.int8)
        # checked before narrowing, so a wide code such as 258 cannot wrap into range
        elif side.dtype.kind not in "iu" or side.min() < 0 or side.max() >= len(_SIDES):
            raise ValueError(f"side must hold integer codes 0-2 indexing {_SIDES}")
        if side.ndim != 1 or side.size != ts.size:
            raise ValueError(f"side has {side.size} entries for {ts.size} timestamps")
        object.__setattr__(self, "side", frozen("side", side, np.int8))
        # neighbours compared, not differenced: a difference can wrap in int64
        if np.any(ts[1:] < ts[:-1]):
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
    names one.  Out of order rows are sorted with a warning.  An empty file,
    or one that holds only a byte order mark or its first bytes, yields an
    empty log.

    The file is read whole, so memory grows with its size.  A row is parsed
    in vectorized blocks when its side is exactly ``buy``, ``sell`` or empty
    and its timestamp is exactly ``YYYY-MM-DDTHH:MM:SS.mmm`` with calendar
    fields in range, or that followed by a UTC offset ``+HH:MM`` or
    ``-HH:MM`` with HH at most 23 and MM at most 59 whose UTC instant lies
    in years 1-9999.  Every other row goes through the row rules above,
    which decide it as they decide every row.
    A file that holds, past a leading byte order mark, a ``"``, a non-ASCII
    or NUL byte, a lone carriage return or a line longer than
    ``csv.field_size_limit()`` cannot be split at newline bytes, and is read
    row by row with ``csv.DictReader``; a row that ``csv`` cannot split
    raises ValueError naming its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # a byte order mark is skipped, and so is a file cut inside one, which
    # the utf-8-sig codec also reads as empty
    if b"\xef\xbb\xbf".startswith(data[:3]):
        data = data[3:]
    if not data:
        return EventLog(np.empty(0, dtype=np.int64))
    lines = _line_bounds(data)
    if lines is None:
        ts, codes, instrument, rejected = _read_rows(path, data)
    else:
        ts, codes, instrument, rejected = _read_lines(path, data, *lines)
    if np.any(ts[1:] < ts[:-1]):
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


def _read_rows(path, data: bytes):
    """Apply the row rules to every row of ``data``, the file's bytes past a
    byte order mark, as split by ``csv.DictReader``; ``path`` only names
    the file in messages.  The bytes are decoded in chunks as they are
    read, as ``open`` does, without a copy of the whole text; bytes that are
    not UTF-8 raise UnicodeDecodeError."""
    stamps = []
    codes = []
    instrument = ""
    rejected = []
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as fh:
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
    """The separators and line ends of ``data``, or None if ``csv`` must split it.

    A quoted field may hold a newline, a lone carriage return ends a line
    for ``csv``, non-ASCII bytes need UTF-8 decoding, NUL bytes parse
    differently by Python version, and ``csv`` raises on a field longer than
    its limit.  Returns ``_separators``' two arrays and the byte offset
    where each line ends, before its newline and the carriage return of CRLF.
    """
    has_cr = b"\r" in data
    if (
        not data.isascii()
        or b'"' in data
        or b"\0" in data
        or (has_cr and data.count(b"\r") != data.count(b"\r\n"))
    ):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    seps, line_seps = _separators(buf)
    ends = seps[line_seps]
    # the longest line, its carriage return counted
    if max(ends[0], np.diff(ends).max(initial=0) - 1) > csv.field_size_limit():
        return None
    if has_cr:
        # no lone carriage return is left, so one before a newline ends that
        # newline's line; an empty line reads the newline before it instead
        ends -= buf[ends - 1] == ord("\r")
    return seps, line_seps, ends


def _separators(buf: np.ndarray):
    """Byte offsets of every comma and line end, and the indices of the line ends.

    One pass over the bytes, ``_SCAN_BYTES`` at a time.  A file that does not
    end in a newline gets a last line end at its size.  Both arrays are
    int32 when the file allows, which halves their memory.
    """
    dtype = np.int32 if buf.size < np.iinfo(np.int32).max else np.int64
    seps, line_seps = [], []
    n_seps = 0
    newline_at, sep_at = np.empty(_SCAN_BYTES, dtype=bool), np.empty(_SCAN_BYTES, dtype=bool)
    for lo in range(0, buf.size, _SCAN_BYTES):
        chunk = buf[lo : lo + _SCAN_BYTES]
        # the masks reuse two buffers: fresh ones cost more than the compares
        newline = np.equal(chunk, ord("\n"), out=newline_at[: chunk.size])
        sep = np.equal(chunk, ord(","), out=sep_at[: chunk.size])
        sep |= newline
        at = np.flatnonzero(sep)
        line_seps.append((np.flatnonzero(newline[at]) + n_seps).astype(dtype))
        seps.append((at + lo).astype(dtype))
        n_seps += at.size
    if buf[-1] != ord("\n"):
        seps.append(np.array([buf.size], dtype=dtype))
        line_seps.append(np.array([n_seps], dtype=dtype))
    return np.concatenate(seps), np.concatenate(line_seps)


def _read_lines(path, data: bytes, seps, line_seps, ends):
    """Parse the rows ``_stamp_ms`` and ``_side_codes`` accept in vectorized
    blocks, and the rest by the row rules.

    A line starts past the end separator of the line before it, and its
    commas sit in ``seps`` between the two end separators.  A column a row
    lacks has empty bounds at the line end; the row rules read an empty
    field as they read a missing one.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    header = data[: ends[0]].decode("ascii")
    fieldnames = header.split(",") if header else []
    _check_header(path, fieldnames)
    # a repeated name reads its last column, as in csv.DictReader
    column = {name: k for k, name in enumerate(fieldnames)}
    # filled block by block, so no block list is joined at the end
    stamps = np.empty(ends.size - 1, dtype=np.int64)
    codes = np.empty(ends.size - 1, dtype=np.int8)
    n_kept = 0
    instrument = ""
    rejected = []
    for lo in range(1, ends.size, _BLOCK_LINES):
        hi = min(lo + _BLOCK_LINES, ends.size)
        e = ends[lo:hi]
        first = line_seps[lo - 1 : hi - 1] + 1  # each line's first comma in seps
        s = seps[first - 1] + 1
        n_commas = line_seps[lo:hi] - first

        def field(name):
            k = column.get(name)
            if k is None:
                return e, e
            # past a line's last comma, take() reads its end or a later
            # separator, and clip keeps it inside seps
            fs = s if k == 0 else np.minimum(seps.take(first + (k - 1), mode="clip") + 1, e)
            return fs, np.where(n_commas > k, seps.take(first + k, mode="clip"), e)

        ts_s, ts_e = field("timestamp")
        side_s, side_e = field("side")
        width = ts_e - ts_s
        ok, ms = _stamp_ms(buf, ts_s, _STAMP)
        ok &= width == len(_STAMP)
        at = np.flatnonzero(width == len(_OFFSET_STAMP))
        if at.size:
            ok[at], ms[at] = _stamp_ms(buf, ts_s[at], _OFFSET_STAMP)
        code = _side_codes(buf, side_s, side_e)
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
        n = n_kept + np.count_nonzero(ok)
        stamps[n_kept:n] = ms[ok]
        codes[n_kept:n] = code[ok]
        n_kept = n
    return stamps[:n_kept], codes[:n_kept], instrument, rejected


# "buy" and "sell" as little-endian uint32 words; a 3-byte tag is compared
# under a mask that drops the byte after it
_BUY, _SELL = (int.from_bytes(tag.ljust(4, b"\0"), "little") for tag in (b"buy", b"sell"))


def _side_codes(buf, fs, fe) -> np.ndarray:
    """Side code of fields that are exactly a tag of ``_SIDES``, -1 for the rest.

    Each field's first four bytes are read as one uint32 word.  A word that
    would run past the end of the file is read from a byte earlier, so it
    starts with the separator before the field and matches no tag.
    """
    n = fe - fs
    last = buf.size - 4
    # fancy indexing reads the unaligned words in place; take() would copy the file
    word = np.ndarray((last + 1,), "<u4", buf, 0, (1,))[np.minimum(fs, last)]
    buy = (n == 3) & (word & 0xFFFFFF == _BUY)
    sell = (n == 4) & (word == _SELL)
    other = (n != 0) & ~(buy | sell)
    return buy.view(np.int8) + 2 * sell.view(np.int8) - other.view(np.int8)


def _stamp_words(form: str):
    """The uint64 words that check a timestamp form in ``_stamp_ms``.

    ``key`` XORs each byte: a digit becomes its value, a separator 0.
    Adding ``carry`` then sets a byte's high bit exactly where the value is
    above its limit (9 for a digit, 0 for a separator), and ``high`` keeps
    the high bits of the bytes that are checked.  The sign and the padding
    up to a whole word are not.
    """
    size = -(-len(form) // 8) * 8
    key, carry, high = bytearray(size), bytearray(size), bytearray(size)
    for j, c in enumerate(form):
        key[j] = ord(c)
        if c != "+":
            carry[j] = 0x80 - (10 if c == "0" else 1)
            high[j] = 0x80
    return tuple(np.frombuffer(bytes(b), dtype="<u8") for b in (key, carry, high))


_STAMP_WORDS = {form: _stamp_words(form) for form in (_STAMP, _OFFSET_STAMP)}


def _stamp_ms(buf, fs, form: str):
    """``(ok, ms)`` for the timestamp fields at byte offsets ``fs`` read as
    ``form``, ``_STAMP`` or ``_OFFSET_STAMP``; the caller drops the fields
    whose width is not the form's.

    ``ok`` marks fields of exactly that form whose year is at least 1, day
    exists in its month (leap years included), hour, minute and second are
    below 24, 60 and 60, and, with an offset, whose offset hours and minutes
    are below 24 and 60 and whose UTC instant lies in years 1-9999.  Their
    UTC milliseconds since the epoch come from integer days-from-civil
    arithmetic, equal to what ``_parse_timestamp_ms`` gives; ``ms`` is
    meaningless elsewhere.  Each field is read as whole uint64 words.  Words
    that would run past the end of the file are read from up to 7 bytes
    earlier; for a field of the form's width they then hold the separator
    before it where the form has a digit or a "-", and fail.
    """
    key, carry, high = _STAMP_WORDS[form]
    size = key.size * 8
    if buf.size < size:
        return np.zeros(fs.size, dtype=bool), np.zeros(fs.size, dtype=np.int64)
    words = sliding_window_view(buf, size)[np.minimum(fs, buf.size - size)].view("<u8")
    # ASCII bytes stay below 0x80 under the key, so no byte carries into the next
    flags = np.zeros(fs.size, dtype=np.uint64)
    for j in range(key.size):  # column by column: a row of words is too short a loop
        word = words[:, j]
        word ^= key[j]
        over = word + carry[j]
        over |= word
        over &= high[j]
        flags |= over
    ok = flags == 0
    digits = words.view(np.uint8)

    def number(lo, hi):  # garbage where ok is False; int32 may wrap there
        v = digits[:, lo].astype(np.int32)
        for j in range(lo + 1, hi):
            v *= 10
            v += digits[:, j]
        return v

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second, milli = number(11, 13), number(14, 16), number(17, 19), number(20, 23)
    m = np.minimum(month, 12)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= _MONTH_DAYS[m])
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    feb29 = np.flatnonzero(ok & (month == 2) & (day == 29))
    y = year[feb29]
    ok[feb29] = (y % 4 == 0) & ((y % 100 != 0) | (y % 400 == 0))
    # days from 1970-01-01 in the proleptic Gregorian calendar, years from March
    y = year - (month <= 2)
    days = y * 365 + y // 4 - y // 100 + y // 400 + _MARCH_DAYS[m] + day - 719_469
    ms = days.astype(np.int64)
    ms *= _DAY_MS
    ms += ((hour * 60 + minute) * 60 + second) * 1000 + milli
    if form == _OFFSET_STAMP:
        sign = digits[:, len(_STAMP)]  # 0 for "+", 6 for "-" under the key
        off_hour, off_minute = number(24, 26), number(27, 29)
        ok &= ((sign == 0) | (sign == 6)) & (off_hour < 24) & (off_minute < 60)
        shift = (off_hour * 60 + off_minute) * 60_000
        np.negative(shift, out=shift, where=sign == 6)
        ms -= shift
        ok &= (ms >= _FIRST_MS) & (ms < _END_MS)
    return ok, ms


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
        starts = frozen("interval_start_ms", self.interval_start_ms, np.int64)
        counts = frozen("counts", self.counts, float)
        if starts.shape != counts.shape:
            raise ValueError("interval_start_ms and counts must have equal length")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        check_real("interval_seconds", self.interval_seconds, above=0)
        check_size("M", self.M)
        check_flag("counts_are_averaged", self.counts_are_averaged)
        obs = self.observable
        if obs is not None:
            obs = frozen("observable", obs, float)
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
    check_real("interval", interval, above=0)
    check_flag("average_days", average_days)
    start, end = (_coerce_time(s, f"sessions[{i}]") for i, s in enumerate(sessions))
    start_ms, end_ms = _time_to_ms(start), _time_to_ms(end)
    if not start_ms < end_ms:
        raise ValueError(f"session start {start} must precede end {end}")
    interval_ms = int(round(interval * 1000))
    if interval_ms < 1:
        raise ValueError(f"interval {interval} s rounds to {interval_ms} ms; need at least 1 ms")
    n_bins = (end_ms - start_ms) // interval_ms
    if n_bins == 0:
        raise ValueError("interval longer than the session")

    day, offset = np.divmod(log.timestamps_ms, _DAY_MS)
    offset -= start_ms
    in_session = (offset >= 0) & (offset < n_bins * interval_ms)
    n_dropped = int(day.size - in_session.sum())
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
    # one flat day-major bin index per event; the log is time-ordered, so
    # each day's events form one run, and a day's first bin is its run's
    # index times n_bins
    new_day = np.flatnonzero(day[1:] != day[:-1]) + 1
    days = day[np.concatenate(([0], new_day))]
    key = np.zeros(day.size, dtype=np.int64)
    key[new_day] = n_bins
    np.cumsum(key, out=key)
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
    check_size("M", M)
    check_choice("mapping", mapping, _OBS_MAPPINGS)
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
    """Session hours, interval, and capacity for the ingestion pipeline, each
    checked as ``aggregate`` and ``to_observable`` check it; a session bound
    may be an ISO 'HH:MM[:SS[.fff]]' string and is held as a ``datetime.time``."""

    session_start: time = time(10, 0)
    session_end: time = time(18, 0)
    interval_seconds: float = 60.0
    M: int = 6000
    mapping: str = "no_arrival_log"
    average_days: bool = False

    def __post_init__(self):
        for name in ("session_start", "session_end"):
            object.__setattr__(self, name, _coerce_time(getattr(self, name), name))
        check_real("interval_seconds", self.interval_seconds, above=0)
        check_size("M", self.M)
        check_choice("mapping", self.mapping, _OBS_MAPPINGS)
        check_flag("average_days", self.average_days)

    @property
    def sessions(self):
        return (self.session_start, self.session_end)

    def to_dict(self) -> dict:
        """The JSON object that ``load_pipeline_config`` reads back as this
        config.  A session bound is written as 'HH:MM' when it falls on a
        whole minute, and in full ISO form otherwise."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for key in ("session_start", "session_end"):
            t = doc[key]
            doc[key] = t.isoformat("minutes" if t.second == t.microsecond == 0 else "auto")
        return doc


def load_pipeline_config(path) -> PipelineConfig:
    """Read a pipeline config: a JSON object holding any of the PipelineConfig
    fields, built as that type, which checks each value.  A file that is not
    a JSON object, an unknown key or a value of the wrong type or range
    raises ValueError that starts with the file's path."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: pipeline config must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(PipelineConfig)}
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    try:
        return PipelineConfig(**raw)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
