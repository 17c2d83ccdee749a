"""Event ingestion, session aggregation, observable construction."""

import json
import math
import os
from datetime import time

import numpy as np
import pytest

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
            EventLog(timestamps_ms=np.array([1, 2], dtype=np.int64), side=("buy",))
        with pytest.raises(ValueError, match="side tags"):
            EventLog(timestamps_ms=np.array([1], dtype=np.int64), side=("short",))


class TestLoadSave:
    def test_fixture_sparse(self):
        log = load_events(SPARSE)
        assert len(log) == 535
        assert set(log.side) == {"sell"}
        assert log.instrument == "SIM"
        assert log.n_rejected == 0
        assert np.all(np.diff(log.timestamps_ms) >= 0)

    def test_roundtrip_bit_exact(self, tmp_path):
        log = load_events(SPARSE)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_events(log, p1)
        again = load_events(p1)
        assert np.array_equal(again.timestamps_ms, log.timestamps_ms)
        assert again.side == log.side
        save_events(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

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
        assert log.side == ("sell", "buy")

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
        with pytest.raises(ValueError, match="format"):
            load_events(p, format="parquet")

    def test_timezone_normalized(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text(
            "timestamp,side\n"
            "2024-01-03T10:00:00.000+02:00,buy\n"
            "2024-01-03T08:00:00.000,sell\n"
        )
        log = load_events(p)
        assert log.timestamps_ms[0] == log.timestamps_ms[1]


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
