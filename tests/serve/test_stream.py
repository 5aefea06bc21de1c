"""Tests for streaming sessions (repro.serve.stream).

Mechanics (buffers, watermarks, expiry, bounds) run against a fake
engine; the conformance class at the bottom runs a real quantized
deployment and checks the headline guarantee — session-served
per-window logits are bit-equal to a direct engine replay with the
canonical window grouping.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.event_stream import EventStream, generate_event_streams
from repro.models import LeNet
from repro.serve import ModelServer, ServeConfig
from repro.serve.stream import (
    SessionClosed,
    SessionExpired,
    StreamBufferFull,
    StreamConfig,
    StreamingServer,
    TooManySessions,
)
from repro.snc.system import SpikingSystemConfig, build_spiking_system
from repro.snc.temporal import (
    TemporalConfig,
    infer_stream,
    replay_frames,
    stream_to_frames,
)

SIGNAL_BITS = 4


def logits_of(images):
    flat = np.asarray(images).reshape(len(images), -1)
    return np.stack([flat.sum(axis=1), flat[:, 0] - 3.0], axis=1)


class FakeEngine:
    def __init__(self):
        self.plan = object()
        self.active_backend = "fake"

    def run(self, images):
        return logits_of(images)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_streaming(stream_config=None, clock=None, batch_size=None):
    config = stream_config or StreamConfig()
    server = ModelServer(
        FakeEngine,
        config=ServeConfig(
            workers=1,
            batch_size=batch_size or config.temporal.batch_windows,
        ),
    )
    try:
        return StreamingServer(server, config, clock=clock)
    except BaseException:
        server.close()  # constructor rejections must not strand workers
        raise


def chunk_of(n, t0_us, t1_us):
    """n events spread over [t0, t1), fixed pixel, ON polarity."""
    t = np.linspace(t0_us, t1_us, n, endpoint=False).astype(np.int64)
    return t, np.full(n, 3), np.full(n, 5), np.ones(n, dtype=np.int64)


class TestStreamConfigValidation:
    def test_defaults_valid(self):
        StreamConfig()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(height=0), "positive"),
            (dict(max_buffer_events=0), "max_buffer_events"),
            (dict(max_sessions=0), "max_sessions"),
            (dict(session_ttl_s=0.0), "session_ttl_s"),
            (dict(timeout_s=0.0), "timeout_s"),
        ],
    )
    def test_invalid_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            StreamConfig(**kwargs)


class TestGroupingContract:
    def test_batch_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            make_streaming(batch_size=8)  # temporal.batch_windows is 4


class TestSessionMechanics:
    @pytest.fixture()
    def streaming(self):
        with make_streaming() as streaming:
            yield streaming

    def test_push_validates_parallel_arrays(self, streaming):
        session = streaming.open_session()
        with pytest.raises(ValueError, match="parallel"):
            session.push([1, 2], [3], [5, 5], [1, 1])

    def test_push_rejects_unordered_chunk(self, streaming):
        session = streaming.open_session()
        with pytest.raises(ValueError, match="non-decreasing"):
            session.push([200, 100], [3, 3], [5, 5], [1, 1])

    def test_push_rejects_events_behind_watermark(self, streaming):
        session = streaming.open_session()
        session.push([100], [3], [5], [1])
        session.advance(30_000)
        with pytest.raises(ValueError, match="watermark"):
            session.push([200], [3], [5], [1])

    def test_watermark_may_not_regress(self, streaming):
        session = streaming.open_session()
        session.advance(30_000)
        with pytest.raises(ValueError, match="backwards"):
            session.advance(20_000)

    def test_buffer_bound_enforced(self):
        config = StreamConfig(max_buffer_events=10)
        with make_streaming(config) as streaming:
            session = streaming.open_session()
            session.push(*chunk_of(8, 0, 10_000))
            with pytest.raises(StreamBufferFull):
                session.push(*chunk_of(3, 10_000, 20_000))

    def test_session_bound_enforced(self):
        config = StreamConfig(max_sessions=2)
        with make_streaming(config) as streaming:
            streaming.open_session()
            streaming.open_session()
            with pytest.raises(TooManySessions):
                streaming.open_session()

    def test_advance_submits_only_full_groups(self, streaming):
        # window 25ms / stride 12.5ms / batch_windows 4: window k ends at
        # 12.5k + 25 ms.
        session = streaming.open_session()
        session.push(*chunk_of(50, 0, 100_000))
        assert session.advance(62_500) == 4      # windows 0-3 ready: 1 group
        assert session.advance(75_000) == 4      # 5 ready, partial group held
        total = session.finish(100_000)
        assert total == 7                        # tail group of 3 flushed
        assert session.windows_submitted == 7
        assert session.logits().shape == (7, 2)

    def test_finish_then_push_raises(self, streaming):
        session = streaming.open_session()
        session.push(*chunk_of(10, 0, 40_000))
        session.finish(40_000)
        with pytest.raises(SessionClosed):
            session.push(*chunk_of(1, 50_000, 51_000))

    def test_empty_stream_serves_zero_frames(self, streaming):
        session = streaming.open_session()
        assert session.finish(50_000) == 3
        logits = session.logits()
        np.testing.assert_array_equal(
            logits, logits_of(np.zeros((3, 1, 28, 28)))
        )
        result = session.result()
        assert result.total_windows == 3
        assert result.prediction == int(logits.sum(axis=0).argmax())

    def test_result_without_windows_raises(self, streaming):
        session = streaming.open_session()
        with pytest.raises(RuntimeError, match="push events"):
            session.result()

    def test_session_lookup_and_drop(self, streaming):
        session = streaming.open_session()
        assert streaming.session(session.session_id) is session
        streaming.drop_session(session.session_id)
        with pytest.raises(KeyError):
            streaming.session(session.session_id)

    def test_stats_counts_windows_and_sessions(self, streaming):
        session = streaming.open_session()
        session.push(*chunk_of(20, 0, 90_000))
        session.finish(100_000)
        session.logits()
        stats = streaming.stats()
        assert stats["open_sessions"] == 1
        assert stats["windows_served"] == 7
        assert stats["sessions_expired"] == 0
        assert "completed_requests" in stats  # wrapped server stats merged


class TestSessionExpiry:
    def test_idle_session_expires_via_injected_clock(self):
        clock = FakeClock()
        config = StreamConfig(session_ttl_s=10.0)
        with make_streaming(config, clock=clock) as streaming:
            session = streaming.open_session()
            clock.advance(11.0)
            streaming.open_session()  # any API call sweeps
            with pytest.raises(SessionExpired):
                session.push(*chunk_of(1, 0, 1_000))
            assert streaming.stats()["sessions_expired"] == 1
            assert streaming.stats()["open_sessions"] == 1

    def test_activity_refreshes_ttl(self):
        clock = FakeClock()
        config = StreamConfig(session_ttl_s=10.0)
        with make_streaming(config, clock=clock) as streaming:
            session = streaming.open_session()
            for _ in range(3):
                clock.advance(6.0)
                session.push(*chunk_of(1, int(clock.now * 1e3), int(clock.now * 1e3) + 10))
            assert streaming.stats()["sessions_expired"] == 0


class TestTTLExpiryProperty:
    """Hypothesis property: a *fully-buffered* window — events pushed and
    its group cut before the session idled out — is never dropped.  Not
    by racing cutter threads, not by the TTL sweep that later reclaims
    the session: its logits stay retrievable and bit-equal to the
    canonical binning of the same events."""

    SPAN_US = 12_500  # one stride of the default temporal config

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        chunks=st.lists(st.integers(min_value=1, max_value=12),
                        min_size=1, max_size=8),
        idle_s=st.floats(min_value=0.0, max_value=8.0),
        cutters=st.integers(min_value=1, max_value=3),
    )
    def test_fully_buffered_windows_survive_concurrent_cut_and_expiry(
            self, chunks, idle_s, cutters):
        clock = FakeClock()
        config = StreamConfig(session_ttl_s=10.0)
        temporal = config.temporal
        span = self.SPAN_US
        with make_streaming(config, clock=clock) as streaming:
            session = streaming.open_session()
            pushed_us = [0]  # single-slot mailbox read by cutter threads
            done = threading.Event()

            def cut_loop():
                # Concurrent cut: race advance() against pushes and peer
                # cutters.  A stale watermark losing the race raises the
                # may-not-move-backwards ValueError — benign here.
                while not done.is_set():
                    target = pushed_us[0]
                    if target:
                        try:
                            session.advance(target)
                        except ValueError:
                            pass
                    done.wait(0.0005)

            threads = [threading.Thread(target=cut_loop)
                       for _ in range(cutters)]
            for thread in threads:
                thread.start()
            try:
                for i, n in enumerate(chunks):
                    session.push(*chunk_of(n, i * span, (i + 1) * span))
                    pushed_us[0] = (i + 1) * span
                    clock.advance(idle_s)  # < TTL: pushes refresh activity
            finally:
                done.set()
                for thread in threads:
                    thread.join(10.0)
            total_span = len(chunks) * span
            session.advance(total_span)  # deterministic final cut
            # Exactly the full groups covered by the watermark are
            # submitted — no window lost to the racing cutters.
            ready = 0
            while ready * temporal.stride_us + temporal.window_us <= total_span:
                ready += 1
            submitted = session.windows_submitted
            assert submitted == ready - ready % temporal.batch_windows

            clock.advance(config.session_ttl_s + 1.0)
            streaming.open_session()  # any API call runs the TTL sweep
            with pytest.raises(SessionExpired):
                session.push(*chunk_of(1, total_span, total_span + 10))
            assert streaming.stats()["sessions_expired"] >= 1

            # Expiry reclaims the *session*, never its buffered windows.
            logits = session.logits(timeout=30.0)
            if submitted == 0:
                assert logits.size == 0
                return
            events = [chunk_of(n, i * span, (i + 1) * span)
                      for i, n in enumerate(chunks)]
            stream = EventStream(
                t=np.concatenate([e[0] for e in events]),
                x=np.concatenate([e[1] for e in events]).astype(np.int16),
                y=np.concatenate([e[2] for e in events]).astype(np.int16),
                polarity=np.concatenate([e[3] for e in events]).astype(np.int8),
                label=-1,
                duration_us=total_span,
                height=config.height,
                width=config.width,
            )
            frames = stream_to_frames(stream, temporal)
            np.testing.assert_array_equal(logits, logits_of(frames[:submitted]))


class TestStreamingConformance:
    """Real deployment: sessions must be bit-equal to direct replay."""

    @pytest.fixture(scope="class")
    def temporal(self):
        return TemporalConfig(signal_bits=SIGNAL_BITS, batch_windows=4)

    @pytest.fixture(scope="class")
    def streams(self):
        return generate_event_streams(4, seed=11).streams

    @pytest.fixture(scope="class")
    def system(self, streams, temporal):
        model = LeNet(width_multiplier=0.25, rng=np.random.default_rng(3))
        config = SpikingSystemConfig(
            signal_bits=SIGNAL_BITS, weight_bits=4, input_bits=SIGNAL_BITS,
            signal_gain="auto",
        )
        return build_spiking_system(
            model, config, stream_to_frames(streams[0], temporal)
        )

    @pytest.fixture(scope="class")
    def streaming(self, system, temporal):
        with StreamingServer.for_system(
            system, StreamConfig(temporal=temporal), workers=2
        ) as streaming:
            yield streaming

    def test_sessions_match_direct_replay_bit_exactly(
        self, streaming, system, streams, temporal
    ):
        engine = system.engine()
        for stream in streams:
            result = streaming.serve_stream(stream)
            expected = replay_frames(
                engine, stream_to_frames(stream, temporal), temporal.batch_windows
            )
            np.testing.assert_array_equal(result.per_window_logits, expected)

    def test_session_matches_infer_stream_decision(
        self, streaming, system, streams, temporal
    ):
        direct = infer_stream(system, streams[0], temporal)
        served = streaming.serve_stream(streams[0])
        np.testing.assert_array_equal(
            served.per_window_logits, direct.per_window_logits
        )
        assert served.prediction == direct.prediction
        assert served.label == direct.label

    def test_interleaved_sessions_stay_isolated(self, streaming, system, temporal):
        # Duration chosen so all 8 windows tile into full groups of 4 —
        # full groups always dispatch alone, so concurrent sessions
        # cannot co-batch (a *partial* tail could, under contended
        # closes; see the module docstring of repro.serve.stream).
        from repro.datasets.event_stream import generate_event_stream
        from repro.snc.seeding import substream

        engine = system.engine()
        sessions = []
        for i, label in enumerate((2, 7)):
            stream = generate_event_stream(
                label, substream(11, "test.interleave", (i,)),
                duration_us=112_500,
            )
            session = streaming.open_session(label=label)
            sessions.append((session, stream))
        # Interleave chunk pushes and watermark advances across sessions.
        for t0, t1, watermark in ((0, 56_250, 56_250), (56_250, 112_500, 87_500)):
            for session, stream in sessions:
                chunk = stream.slice_time(t0, t1)
                session.push(chunk.t, chunk.x, chunk.y, chunk.polarity)
            for session, _ in sessions:
                session.advance(watermark)
        for session, stream in sessions:
            assert session.finish(stream.duration_us) == 8
        for session, stream in sessions:
            expected = replay_frames(
                engine, stream_to_frames(stream, temporal), temporal.batch_windows
            )
            np.testing.assert_array_equal(session.logits(), expected)
