"""Tests of the deterministic closed-loop load generator (repro.serve.loadgen)."""

import numpy as np
import pytest

from repro.serve import LoadGenConfig, ModelServer, ServeConfig, run_load
from repro.serve.loadgen import (
    StreamLoadConfig,
    plan_requests,
    plan_streams,
    request_substream_key,
    run_stream_load,
    stream_substream_key,
)
from repro.serve.queue import DeadlineExceeded, ServerOverloaded
from repro.snc.seeding import substream


class TestPlanRequests:
    def test_schedule_is_deterministic(self):
        config = LoadGenConfig(clients=3, requests_per_client=5, seed=42)
        assert plan_requests(config, 64) == plan_requests(config, 64)

    def test_schedule_depends_on_seed(self):
        base = LoadGenConfig(clients=2, requests_per_client=8, seed=0)
        other = LoadGenConfig(clients=2, requests_per_client=8, seed=1)
        assert plan_requests(base, 64) != plan_requests(other, 64)

    def test_slices_stay_inside_the_pool(self):
        config = LoadGenConfig(
            clients=4, requests_per_client=16, min_rows=1, max_rows=32, seed=3
        )
        pool = 40
        for plan in plan_requests(config, pool):
            for offset, rows in plan:
                assert 1 <= rows <= 32
                assert 0 <= offset and offset + rows <= pool

    def test_rows_clamped_to_small_pools(self):
        config = LoadGenConfig(
            clients=1, requests_per_client=8, min_rows=4, max_rows=16, seed=0
        )
        for offset, rows in plan_requests(config, 5)[0]:
            assert rows <= 5

    def test_config_validated(self):
        with pytest.raises(ValueError):
            LoadGenConfig(clients=0)
        with pytest.raises(ValueError):
            LoadGenConfig(min_rows=8, max_rows=4)
        with pytest.raises(ValueError):
            LoadGenConfig(requests_per_client=0)


class FakeServer:
    """Counts submissions; scriptable to shed load."""

    def __init__(self, reject_every=0, expire_every=0):
        self.reject_every = reject_every
        self.expire_every = expire_every
        self.calls = 0

    def submit(self, images, deadline_ms=None, timeout=None):
        self.calls += 1
        if self.reject_every and self.calls % self.reject_every == 0:
            raise ServerOverloaded("shed")
        if self.expire_every and self.calls % self.expire_every == 0:
            raise DeadlineExceeded("late")
        return np.zeros((len(images), 10))


class TestRunLoad:
    def test_counts_and_rows_add_up(self):
        images = np.zeros((32, 2, 4, 4))
        config = LoadGenConfig(clients=2, requests_per_client=6, max_rows=8, seed=0)
        report = run_load(FakeServer(), images, config)
        assert report.requests_sent == 12
        assert report.requests_ok == 12
        assert report.requests_rejected == 0
        expected_rows = sum(
            rows for plan in plan_requests(config, 32) for _, rows in plan
        )
        assert report.rows_served == expected_rows
        assert len(report.latencies_s) == 12
        assert report.throughput_rows_per_s > 0

    def test_shed_load_is_counted_not_raised(self):
        images = np.zeros((32, 2, 4, 4))
        config = LoadGenConfig(clients=1, requests_per_client=9, seed=0)
        report = run_load(FakeServer(reject_every=3), images, config)
        assert report.requests_rejected == 3
        assert report.requests_ok == 6
        assert report.requests_failed == 0

    def test_expired_deadlines_counted_separately(self):
        images = np.zeros((32, 2, 4, 4))
        config = LoadGenConfig(clients=1, requests_per_client=4, seed=0)
        report = run_load(FakeServer(expire_every=2), images, config)
        assert report.requests_deadline_expired == 2
        assert report.requests_ok == 2

    def test_report_dict_has_headline_metrics(self):
        images = np.zeros((16, 2, 4, 4))
        config = LoadGenConfig(clients=1, requests_per_client=2, seed=0)
        payload = run_load(FakeServer(), images, config).to_dict()
        for key in ("throughput_rows_per_s", "latency_p50_ms", "latency_p99_ms",
                    "requests_ok", "rows_served", "wall_s"):
            assert key in payload

    def test_against_a_real_server(self):
        class Engine:
            plan = object()
            active_backend = "fake"

            def run(self, images):
                flat = np.asarray(images).reshape(len(images), -1)
                return np.stack([flat[:, 0], flat[:, 0] + 1.0], axis=1)

        images = np.arange(64, dtype=np.float64).reshape(16, 1, 2, 2)
        config = LoadGenConfig(clients=3, requests_per_client=4, max_rows=6, seed=1)
        with ModelServer(
            Engine, config=ServeConfig(workers=2, batch_size=8)
        ) as server:
            report = run_load(server, images, config)
        assert report.requests_failed == 0
        assert report.requests_ok == 12


class TestRequestProvenance:
    """Every scheduled request must be reproducible in isolation from
    the substream key recorded in the report."""

    def test_request_log_covers_the_whole_schedule(self):
        images = np.zeros((32, 2, 4, 4))
        config = LoadGenConfig(clients=2, requests_per_client=3, seed=7)
        report = run_load(FakeServer(), images, config)
        assert len(report.request_log) == 6
        schedule = plan_requests(config, 32)
        for entry in report.request_log:
            assert entry["offset"], entry["rows"] == \
                schedule[entry["client"]][entry["index"]]

    def test_recorded_key_rebuilds_the_request_in_isolation(self):
        images = np.zeros((32, 2, 4, 4))
        config = LoadGenConfig(clients=2, requests_per_client=3, seed=7,
                               min_rows=1, max_rows=8)
        report = run_load(FakeServer(), images, config)
        entry = report.request_log[4]
        key = entry["substream"]
        assert key == request_substream_key(config, entry["client"], entry["index"])
        rng = substream(key["seed"], key["token"], tuple(key["coordinates"]))
        rows = min(int(rng.integers(config.min_rows, config.max_rows + 1)), 32)
        offset = int(rng.integers(0, 32 - rows + 1))
        assert (offset, rows) == (entry["offset"], entry["rows"])

    def test_request_log_survives_to_dict(self):
        images = np.zeros((8, 2, 4, 4))
        config = LoadGenConfig(clients=1, requests_per_client=2, seed=0)
        payload = run_load(FakeServer(), images, config).to_dict()
        assert len(payload["request_log"]) == 2
        assert payload["request_log"][0]["substream"]["token"] == "serve.loadgen"


class FakeStreaming:
    """Stands in for StreamingServer.serve_stream."""

    def __init__(self):
        self.served = []

    def serve_stream(self, stream, timeout=None):
        from repro.snc.temporal import TemporalResult

        self.served.append(stream)
        return TemporalResult(
            per_window_logits=np.zeros((7, 10)),
            prediction=stream.label,
            label=stream.label,
            decision_window=6,
            total_windows=7,
        )


class TestStreamLoad:
    def test_planned_streams_are_deterministic(self):
        config = StreamLoadConfig(clients=2, streams_per_client=2, seed=5,
                                  duration_us=40_000)
        first = plan_streams(config)
        second = plan_streams(config)
        for plan_a, plan_b in zip(first, second):
            for a, b in zip(plan_a, plan_b):
                assert a.label == b.label
                np.testing.assert_array_equal(a.t, b.t)
                np.testing.assert_array_equal(a.x, b.x)

    def test_stream_log_records_reproducible_keys(self):
        config = StreamLoadConfig(clients=2, streams_per_client=2, seed=5,
                                  duration_us=40_000)
        report = run_stream_load(FakeStreaming(), config)
        assert len(report.stream_log) == 4
        entry = report.stream_log[3]
        assert entry["substream"] == stream_substream_key(
            config, entry["client"], entry["index"])
        # Rebuild that one stream from the key alone.
        from repro.datasets.event_stream import NUM_CLASSES, generate_event_stream

        key = entry["substream"]
        rng = substream(key["seed"], key["token"], tuple(key["coordinates"]))
        label = int(rng.integers(0, NUM_CLASSES))
        rebuilt = generate_event_stream(label, rng, duration_us=config.duration_us)
        assert rebuilt.label == entry["label"]
        assert len(rebuilt.t) == entry["events"]

    def test_report_counts_and_dict(self):
        config = StreamLoadConfig(clients=2, streams_per_client=3, seed=1,
                                  duration_us=40_000)
        report = run_stream_load(FakeStreaming(), config)
        assert report.streams_sent == 6
        assert report.streams_ok == 6
        assert report.streams_failed == 0
        assert report.windows_served == 42
        assert report.predictions_correct == 6  # fake predicts the label
        payload = report.to_dict()
        for key in ("windows_per_second", "session_p50_ms", "session_p99_ms",
                    "streams_ok", "stream_log"):
            assert key in payload

    def test_failures_counted_not_raised(self):
        class Failing:
            def serve_stream(self, stream, timeout=None):
                raise RuntimeError("boom")

        config = StreamLoadConfig(clients=1, streams_per_client=2, seed=0,
                                  duration_us=40_000)
        report = run_stream_load(Failing(), config)
        assert report.streams_failed == 2
        assert report.streams_ok == 0

    def test_config_validated(self):
        with pytest.raises(ValueError):
            StreamLoadConfig(clients=0)
        with pytest.raises(ValueError):
            StreamLoadConfig(streams_per_client=0)
        with pytest.raises(ValueError):
            StreamLoadConfig(duration_us=0)
