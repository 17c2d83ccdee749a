"""Event ingestion, session aggregation, observable construction."""

import csv
import importlib.util
import json
import math
import os
import sys
import warnings
from datetime import datetime, time, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxaffine import data_io
from coxaffine import (
    EventLog,
    ObservationSeries,
    PipelineConfig,
    aggregate,
    load_events,
    load_pipeline_config,
    save_events,
    to_observable,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SPARSE = os.path.join(FIXTURES, "events_sparse_535.csv")

DAY_MS = 86_400_000


def ms_at(day: int, hh: int, mm: int, ss: float = 0.0) -> int:
    return day * DAY_MS + ((hh * 60 + mm) * 60) * 1000 + int(round(ss * 1000))


class TestEventLog:
    def test_validation(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            EventLog(timestamps_ms=np.array([5, 3], dtype=np.int64))
        with pytest.raises(ValueError, match="entries for"):
            EventLog(timestamps_ms=np.array([1, 2], dtype=np.int64), side=[1])
        with pytest.raises(ValueError, match="integer codes"):
            EventLog(timestamps_ms=np.array([1], dtype=np.int64), side=[3])

    @pytest.mark.parametrize(
        "side",
        [
            np.array([3], dtype=np.int8),
            np.array([-1], dtype=np.int8),
            np.array([300], dtype=np.int64),
            np.array([258], dtype=np.int64),  # as int8 it would read 2
            ["buy"],
            np.array(["sell"]),
            [1.0],
            [True],
        ],
    )
    def test_side_codes_out_of_range_or_not_integer(self, side):
        with pytest.raises(ValueError, match="integer codes"):
            EventLog(timestamps_ms=np.array([1], dtype=np.int64), side=side)

    @pytest.mark.parametrize("side", [np.array([1, 2], dtype=np.int64), [1, 2]])
    def test_side_as_array_or_list(self, side):
        log = EventLog(timestamps_ms=np.array([1, 2], dtype=np.int64), side=side)
        assert log.side.dtype == np.int8
        assert log.side.tolist() == [1, 2]
        assert not isinstance(side, np.ndarray) or side.flags.writeable

    def test_side_defaults_to_empty_tags(self):
        for side in ((), np.array([])):
            log = EventLog(timestamps_ms=np.array([1, 2], dtype=np.int64), side=side)
            assert log.side.dtype == np.int8
            assert log.side.tolist() == [0, 0]

    @pytest.mark.parametrize("side_dtype", [np.int64, np.int8])
    def test_caller_arrays_stay_writable(self, side_dtype):
        ts = np.array([1, 2], dtype=np.int64)
        side = np.array([1, 2], dtype=side_dtype)
        log = EventLog(timestamps_ms=ts, side=side)
        assert ts.flags.writeable and side.flags.writeable
        ts[0], side[0] = 0, 0
        assert log.timestamps_ms.tolist() == [1, 2] and log.side.tolist() == [1, 2]
        for arr in (log.timestamps_ms, log.side):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_read_only_arrays_are_kept(self):
        ts = np.array([1, 2], dtype=np.int64)
        side = np.array([1, 2], dtype=np.int8)
        ts.setflags(write=False)
        side.setflags(write=False)
        log = EventLog(timestamps_ms=ts, side=side)
        assert log.timestamps_ms is ts and log.side is side


class TestObservationSeries:
    def test_caller_arrays_stay_writable(self):
        starts = np.array([0, 60_000], dtype=np.int64)
        counts = np.array([3.0, 4.0])
        obs = np.array([0.5, 0.25])
        series = ObservationSeries(interval_start_ms=starts, counts=counts, observable=obs)
        assert starts.flags.writeable and counts.flags.writeable and obs.flags.writeable
        starts[0], counts[0], obs[0] = 1, 1.0, 1.0
        assert series.interval_start_ms.tolist() == [0, 60_000]
        assert series.counts.tolist() == [3.0, 4.0]
        assert series.observable.tolist() == [0.5, 0.25]
        for arr in (series.interval_start_ms, series.counts, series.observable):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_aggregate_and_to_observable_hand_over_without_copies(self):
        series = to_observable(aggregate(load_events(SPARSE)), M=6000)
        again = to_observable(series, M=6000)
        for name in ("interval_start_ms", "counts"):
            assert getattr(again, name) is getattr(series, name)
            assert not getattr(series, name).flags.writeable
        assert not series.observable.flags.writeable


class TestLoadSave:
    def test_fixture_sparse(self):
        log = load_events(SPARSE)
        assert len(log) == 535
        assert log.side.tolist() == [2] * 535
        assert log.instrument == "SIM"
        assert log.n_rejected == 0
        assert np.all(np.diff(log.timestamps_ms) >= 0)

    def test_roundtrip_bit_exact(self, tmp_path):
        log = load_events(SPARSE)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_events(log, p1)
        again = load_events(p1)
        assert np.array_equal(again.timestamps_ms, log.timestamps_ms)
        assert again.side.tobytes() == log.side.tobytes()
        save_events(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_side_codes_read_only(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text(
            "timestamp,side,instrument\n"
            "2024-01-03T10:00:00.000,buy,SIM\n"
            "2024-01-03T10:00:01.000,sell,SIM\n"
            "2024-01-03T10:00:02.000,,SIM\n"
        )
        log = load_events(p)
        assert log.side.tolist() == [1, 2, 0]
        assert log.side.dtype == np.int8
        with pytest.raises(ValueError, match="read-only"):
            log.side[0] = 2

    @pytest.mark.parametrize("name", ["events_dense.csv", "events_sparse_535.csv"])
    def test_save_reproduces_fixture_bytes(self, tmp_path, name):
        path = os.path.join(FIXTURES, name)
        save_events(load_events(path), tmp_path / name)
        with open(path, "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read()

    def test_bad_rows_rejected_by_line(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text(
            "timestamp,side\n"
            "2024-01-03T10:00:00.000,buy\n"
            "not-a-time,buy\n"
            "2024-01-03T10:00:02.000,short\n"
            "2024-01-03T10:00:03.000,\n"
        )
        log = load_events(p)
        assert len(log) == 2
        assert log.n_rejected == 2
        assert log.rejected_lines == (3, 4)

    def test_offsets_past_the_calendar_rejected_by_line(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text(
            "timestamp,side,instrument\n"
            "2024-01-03T10:00:00.000,buy,SIM\n"
            "0001-01-01T00:30:00.000+02:00,buy,SIM\n"
            "9999-12-31T23:30:00.000-02:00,sell,SIM\n"
        )
        log = load_events(p)
        assert log.rejected_lines == (3, 4)
        assert log.timestamps_ms.size == 1

    def test_byte_order_mark_skipped(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_bytes(
            b"\xef\xbb\xbftimestamp,side,instrument\n"
            b"2024-01-03T10:00:00.000,buy,SIM\n"
            b"2024-01-03T10:00:01.000,sell,SIM\n"
        )
        log = load_events(p)
        assert log.side.tolist() == [1, 2]
        assert log.instrument == "SIM"
        p.write_bytes(b"\xef\xbb\xbf")
        assert len(load_events(p)) == 0

    def test_out_of_order_sorted_with_warning(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text(
            "timestamp,side\n"
            "2024-01-03T10:00:05.000,buy\n"
            "2024-01-03T10:00:01.000,sell\n"
        )
        with pytest.warns(UserWarning, match="out of order"):
            log = load_events(p)
        assert list(np.diff(log.timestamps_ms) >= 0) == [True]
        assert log.side.tolist() == [2, 1]

    def test_empty_and_header_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert len(load_events(empty)) == 0
        header = tmp_path / "header.csv"
        header.write_text("timestamp,side\n")
        assert len(load_events(header)) == 0

    def test_missing_column_and_format(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text("time,side\n2024-01-03T10:00:00.000,buy\n")
        with pytest.raises(ValueError, match="timestamp"):
            load_events(p)

    def test_timezone_normalized(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text(
            "timestamp,side\n"
            "2024-01-03T10:00:00.000+02:00,buy\n"
            "2024-01-03T08:00:00.000,sell\n"
        )
        log = load_events(p)
        assert log.timestamps_ms[0] == log.timestamps_ms[1]


_EPOCH = datetime(1970, 1, 1)


def oracle_load_events(path):
    """``load_events`` as it read every file before the vectorized pass.

    Kept as the reference: one ``csv.DictReader`` row at a time through
    ``datetime.fromisoformat``.
    """
    stamps = []
    sides = []
    instrument = ""
    rejected = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
                dt = datetime.fromisoformat(raw.strip())
                if dt.tzinfo is not None:
                    dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
                ms = (dt - _EPOCH) // timedelta(milliseconds=1)
            except ValueError:
                rejected.append(line)
                continue
            if side not in ("", "buy", "sell"):
                rejected.append(line)
                continue
            stamps.append(ms)
            sides.append(("", "buy", "sell").index(side))
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
        side=np.asarray(sides, dtype=np.int8),
        instrument=instrument,
        n_rejected=len(rejected),
        rejected_lines=tuple(rejected),
    )


def outcome(load, path):
    """Every field of the loaded log and every warning, or the error raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            log = load(path)
        except ValueError as exc:  # UnicodeDecodeError included
            return type(exc), str(exc)
    fields = (
        log.timestamps_ms.dtype,
        log.timestamps_ms.tobytes(),
        log.side.tolist(),
        log.instrument,
        log.n_rejected,
        log.rejected_lines,
    )
    return fields, [(w.category, str(w.message)) for w in caught]


_T0 = datetime(2023, 1, 1)
_SPECIAL_STAMPS = [
    "2023-02-29T10:00:00.000",
    "2024-02-29T10:00:00.000",
    "2024-01-03T24:00:00.000",
    "2024-01-03T10:00:60.000",
    "1900-02-29T10:00:00.000",
    "2000-02-29T10:00:00.000",
    "2100-02-29T10:00:00.000",
    "0000-01-01T00:00:00.000",
    "0001-01-01T00:00:00.000",
    "9999-12-31T23:59:59.999",
    "2024-13-01T10:00:00.000",
    "2024-01-03T10:00:00",
    "2024-01-03T10:00:00.000000",
    "2024/01/03T10:00:00.000",
    "2024-01-03T10:0a:00.000",
    "+024-01-03T10:00:00.000",
    "not-a-time",
    "",
]


@st.composite
def stamps(draw):
    origin, days = draw(st.sampled_from([(_T0, 2 * 366), (datetime(1, 1, 1), 9998 * 365)]))
    at = origin + timedelta(milliseconds=draw(st.integers(0, days * 86_400_000)))
    text = at.isoformat(timespec="milliseconds")
    kind = draw(st.sampled_from(["canonical"] * 4 + ["offset", "Z", "space", "padded", "special"]))
    if kind == "offset":
        return (at + timedelta(hours=2)).isoformat(timespec="milliseconds") + "+02:00"
    if kind == "Z":
        return text + "Z"
    if kind == "space":
        return text.replace("T", " ")
    if kind == "padded":
        return f" {text} "
    if kind == "special":
        return draw(st.sampled_from(_SPECIAL_STAMPS))
    return text


_HEADERS = [
    ["timestamp", "side", "instrument"],
    ["timestamp", "side"],
    ["side", "instrument", "timestamp"],
    ["instrument", "timestamp", "side", "timestamp"],
    ["time", "side"],
]
side_tags = st.sampled_from(
    ["buy", "sell", "", "buy", "sell", "BUY", " sell", "Sell ", "x", " ", "hold"]
)
instruments = st.sampled_from(["SIM", "", "  ", " X ", "AB"])
# rows that stop a file from being split at newline bytes
_UNSAFE_ROWS = [
    b'"2024-01-03T10:00:00.000",buy,SIM',
    b'2024-01-03T10:00:00.000,buy,"A\nB"',
    "2024-01-03T10:00:00.000,buy,\u00e9".encode(),
    b"2024-01-03T10:00:00.000,buy,\xff",
    b"2024-01-03T10:00:00.000,buy,S\x00M",
    b"2024-01-03T10:00:00.000,buy,SIM\r2024-01-03T10:00:01.000,sell,SIM",
]


@st.composite
def event_files(draw):
    header = draw(st.sampled_from(_HEADERS))
    lines = [",".join(header).encode()]
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(["full"] * 6 + ["fewer", "extra", "blank"]))
        if shape == "blank":
            lines.append(b"")
            continue
        values = {
            "timestamp": draw(stamps()),
            "side": draw(side_tags),
            "instrument": draw(instruments),
        }
        fields = [values.get(name, "x") for name in header]
        if shape == "fewer":
            fields = fields[: draw(st.integers(1, len(fields)))]
        elif shape == "extra":
            fields.append("x")
        lines.append(",".join(fields).encode())
    unsafe = draw(st.one_of(st.none(), st.sampled_from(_UNSAFE_ROWS + [b"\xef\xbb\xbf"])))
    if unsafe is not None:
        if unsafe.startswith(b"\xef\xbb\xbf"):
            lines[0] = unsafe + lines[0]
        else:
            lines.insert(draw(st.integers(1, len(lines))), unsafe)
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, b""]))


class TestIngestEquivalence:
    """``load_events`` against the row-by-row reference on mixed files."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(data=event_files())
    def test_matches_row_reader(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ingest") / "events.csv"
        path.write_bytes(data)
        expected = outcome(oracle_load_events, path)
        assert outcome(load_events, path) == expected
        # blocks of two lines put block edges between every kind of row
        with mock.patch.object(data_io, "_BLOCK_LINES", 2):
            assert outcome(load_events, path) == expected

    def test_fixtures(self):
        for name in ("events_dense.csv", "events_sparse_535.csv"):
            path = os.path.join(FIXTURES, name)
            assert outcome(load_events, path) == outcome(oracle_load_events, path)

    def test_offset_and_bad_rows_across_blocks(self, tmp_path):
        # fallback rows on both sides of the block edge at line 65,537
        gen = np.random.default_rng(5)
        n = 70_000
        ms = np.sort(gen.integers(0, 20 * DAY_MS, n)) + 19_700 * DAY_MS
        text = np.datetime_as_string(ms.astype("datetime64[ms]"), unit="ms").tolist()
        shifted = np.datetime_as_string((ms + 7_200_000).astype("datetime64[ms]"), unit="ms")
        rows = [f"{t},{'buy' if i % 3 else 'sell'},SIM" for i, t in enumerate(text)]
        for i in (0, 65_534, 65_535, 65_536, n - 1):
            rows[i] = f"{shifted[i]}+02:00,sell,SIM"
        for i in (1, 65_533, 65_537):
            rows[i] = f"{text[i]},hold,SIM"
        rows[65_538] = ""
        path = tmp_path / "events.csv"
        path.write_text("timestamp,side,instrument\n" + "\n".join(rows) + "\n")
        log = load_events(path)
        assert log.rejected_lines == (3, 65_535, 65_539)
        assert len(log) == n - 4
        assert outcome(load_events, path) == outcome(oracle_load_events, path)


class TestFixtureGenerator:
    def test_regenerates_committed_fixtures(self, tmp_path, monkeypatch):
        script = os.path.join(FIXTURES, "make_fixtures.py")
        spec = importlib.util.spec_from_file_location("make_fixtures", script)
        make_fixtures = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
        spec.loader.exec_module(make_fixtures)
        monkeypatch.setattr(make_fixtures, "HERE", tmp_path)
        make_fixtures.make_dense()
        make_fixtures.make_sparse()
        for name in ("events_dense.csv", "events_sparse_535.csv"):
            with open(os.path.join(FIXTURES, name), "rb") as fh:
                assert (tmp_path / name).read_bytes() == fh.read(), name


class TestAggregate:
    def test_counts_and_dropped(self):
        day = 19_730
        stamps = [
            ms_at(day, 9, 59, 59.999),   # before session
            ms_at(day, 10, 0, 0.0),
            ms_at(day, 10, 0, 30.5),
            ms_at(day, 10, 1, 0.0),
            ms_at(day, 17, 59, 59.999),
            ms_at(day, 18, 0, 0.0),      # end exclusive
        ]
        log = EventLog(timestamps_ms=np.array(stamps, dtype=np.int64))
        series = aggregate(log)
        assert len(series) == 480
        assert series.counts.sum() == 4
        assert series.counts[0] == 2 and series.counts[1] == 1 and series.counts[479] == 1
        assert series.n_dropped == 2
        assert series.interval_start_ms[0] == ms_at(day, 10, 0)
        assert series.delta_minutes == 1.0

    def test_two_days_pooled_in_order(self):
        stamps = [ms_at(5, 10, 0), ms_at(5, 10, 2), ms_at(7, 10, 1)]
        log = EventLog(timestamps_ms=np.array(sorted(stamps), dtype=np.int64))
        series = aggregate(log, sessions=(time(10, 0), time(10, 3)))
        assert len(series) == 6
        assert list(series.counts) == [1, 0, 1, 0, 1, 0]
        assert not series.counts_are_averaged

    def test_average_days(self):
        stamps = [ms_at(5, 10, 0), ms_at(5, 10, 2), ms_at(7, 10, 0)]
        log = EventLog(timestamps_ms=np.array(sorted(stamps), dtype=np.int64))
        series = aggregate(log, sessions=(time(10, 0), time(10, 3)), average_days=True)
        assert len(series) == 3
        assert list(series.counts) == [1.0, 0.0, 0.5]
        assert series.counts_are_averaged

    def test_matches_per_day_loop(self):
        # reference: one bincount per day, over days with gaps between them
        gen = np.random.default_rng(11)
        days = np.array([3, 4, 9, 10, 30])
        stamps = np.sort(
            gen.choice(days, 2000) * DAY_MS + gen.integers(9 * 3_600_000, 19 * 3_600_000, 2000)
        )
        log = EventLog(timestamps_ms=stamps)
        sessions = (time(10, 0), time(18, 0))
        tod = stamps % DAY_MS - 10 * 3_600_000
        keep = (tod >= 0) & (tod < 8 * 3_600_000)
        day, bins = stamps[keep] // DAY_MS, tod[keep] // 60_000
        per_day = np.zeros((days.size, 480))
        for i, d in enumerate(days):
            per_day[i] = np.bincount(bins[day == d], minlength=480)
        pooled = aggregate(log, sessions=sessions)
        assert pooled.counts.tobytes() == per_day.reshape(-1).tobytes()
        averaged = aggregate(log, sessions=sessions, average_days=True)
        assert averaged.counts.tobytes() == per_day.mean(axis=0).tobytes()

    def test_trailing_remainder_dropped(self):
        # 10:00 to 10:01 in 7 s bins: 8 full bins cover 56 s, so an event in
        # the final 4 s belongs to no bin
        log = EventLog(
            timestamps_ms=np.array(
                [ms_at(3, 10, 0, 1.0), ms_at(3, 10, 0, 58.0)], dtype=np.int64
            )
        )
        series = aggregate(log, interval=7.0, sessions=(time(10, 0), time(10, 1)))
        assert len(series) == 8
        assert series.counts.sum() == 1
        assert series.n_dropped == 1

    def test_no_in_session_events_warns(self):
        log = EventLog(timestamps_ms=np.array([ms_at(3, 9, 0)], dtype=np.int64))
        with pytest.warns(UserWarning, match="empty series"):
            series = aggregate(log)
        assert len(series) == 0 and series.n_dropped == 1

    def test_validation(self):
        log = EventLog(timestamps_ms=np.array([ms_at(3, 10, 30)], dtype=np.int64))
        with pytest.raises(ValueError, match="interval"):
            aggregate(log, interval=0.0)
        with pytest.raises(ValueError, match="precede"):
            aggregate(log, sessions=(time(18, 0), time(10, 0)))
        with pytest.raises(ValueError, match="longer than the session"):
            aggregate(log, interval=7200.0, sessions=(time(10, 0), time(11, 0)))

    def test_interval_below_one_ms(self):
        # intervals are whole milliseconds; one that rounds to 0 ms is named
        log = EventLog(timestamps_ms=np.array([ms_at(3, 10, 0, 0.5)], dtype=np.int64))
        second = (time(10, 0, 0), time(10, 0, 1))
        for interval in (0.0001, 0.0005):
            with pytest.raises(ValueError, match=f"interval {interval} s rounds to 0 ms"):
                aggregate(log, interval=interval, sessions=second)
        series = aggregate(log, interval=0.0006, sessions=second)
        assert len(series) == 1000 and series.counts[500] == 1


class TestToObservable:
    def series(self, counts):
        counts = np.asarray(counts, dtype=float)
        starts = ms_at(3, 10, 0) + 60_000 * np.arange(counts.size, dtype=np.int64)
        return ObservationSeries(interval_start_ms=starts, counts=counts)

    def test_frequency(self):
        out = to_observable(self.series([300, 0, 6000]), M=6000, mapping="frequency")
        assert list(out.observable) == [0.05, 0.0, 1.0]
        assert out.mapping == "frequency" and out.flagged == ()

    def test_no_arrival_proxy(self):
        out = to_observable(self.series([300, 0]), M=6000, mapping="no_arrival_proxy")
        assert out.observable[0] == pytest.approx(0.95)
        assert out.observable[1] == 1.0

    def test_log_mapping_zero_count_is_exact_zero(self):
        out = to_observable(self.series([0, 300]), M=6000, mapping="no_arrival_log")
        assert out.observable[0] == 0.0
        assert out.observable[1] == pytest.approx(math.log(0.95), rel=1e-12)

    def test_saturated_counts_floored_and_flagged(self):
        out = to_observable(self.series([6000, 7500, 10]), M=6000, mapping="no_arrival_log")
        floor = math.log(1.0 / 12000.0)
        assert out.observable[0] == pytest.approx(floor)
        assert out.observable[1] == pytest.approx(floor)
        assert out.flagged == (1,)

    def test_default_m_from_series(self):
        out = to_observable(self.series([600]))
        assert out.observable[0] == pytest.approx(0.1)
        assert out.M == 6000

    def test_validation(self):
        with pytest.raises(ValueError, match="M must be"):
            to_observable(self.series([1]), M=0)
        with pytest.raises(ValueError, match="mapping"):
            to_observable(self.series([1]), mapping="sqrt")


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.sessions == (time(10, 0), time(18, 0))
        assert cfg.M == 6000 and cfg.mapping == "no_arrival_log"

    def test_load_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"session_start": "09:30", "interval_seconds": 30.0}))
        cfg = load_pipeline_config(p)
        assert cfg.session_start == time(9, 30)
        assert cfg.interval_seconds == 30.0
        assert cfg.session_end == time(18, 0)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"sessions": "10-18"}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_pipeline_config(p)

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_pipeline_config(p)


class TestPipelineStatistics:
    def test_poisson_rate_recovered(self):
        # three session days at 5 events per minute
        gen = np.random.default_rng(424242)
        stamps = []
        for day in (100, 101, 102):
            n = gen.poisson(5.0 * 480)
            session_ms = gen.integers(0, 480 * 60_000, size=n)
            stamps.extend(day * DAY_MS + 10 * 3_600_000 + np.sort(session_ms))
        log = EventLog(timestamps_ms=np.array(sorted(stamps), dtype=np.int64))
        series = aggregate(log)
        assert len(series) == 3 * 480
        assert series.counts.sum() == len(log)
        z = abs(series.counts.mean() - 5.0) / (series.counts.std(ddof=1) / math.sqrt(len(series)))
        assert z < 4.0
        obs = to_observable(series, mapping="frequency")
        assert obs.observable.mean() == pytest.approx(series.counts.mean() / 6000.0, rel=1e-12)
