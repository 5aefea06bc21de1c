"""Tests of the ModelServer facade (repro.serve.server).

Fast paths use a scriptable fake engine; the integration class at the
bottom runs a real quantized deployment end to end and checks the
headline guarantee — serving is bit-exact against direct engine runs.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.deployment import (
    DeploymentConfig,
    deploy_model,
    make_inference_engine,
    make_model_server,
)
from repro.datasets.mnist_like import generate_mnist_like
from repro.models import LeNet
from repro.serve import (
    DeadlineExceeded,
    LatencyWindow,
    ModelServer,
    ServeConfig,
    ServerClosed,
    ServerOverloaded,
)


def logits_of(images):
    flat = np.asarray(images).reshape(len(images), -1)
    return np.stack([flat[:, 0] * 2.0 + 1.0, flat[:, 0] - 3.0], axis=1)


class FakeEngine:
    def __init__(self, gate=None, delay_s=0.0):
        self.plan = object()
        self.active_backend = "fake"
        self.gate = gate
        self.delay_s = delay_s

    def run(self, images):
        if self.gate is not None:
            assert self.gate.wait(10.0)
        if self.delay_s:
            time.sleep(self.delay_s)
        return logits_of(images)


def fake_server(config, **engine_kwargs):
    return ModelServer(lambda: FakeEngine(**engine_kwargs), config=config)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"workers": 0},
        {"batch_size": 0},
        {"max_queue_rows": 0},
        {"default_deadline_ms": 0.0},
        {"latency_window": 0},
        {"worker_timeout_s": 0.0},
    ])
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServeConfig(**overrides)


class TestBackpressure:
    def test_queue_full_raises_server_overloaded_synchronously(self):
        gate = threading.Event()  # engine stalls: nothing ever drains
        config = ServeConfig(workers=1, batch_size=4, max_queue_rows=8)
        server = fake_server(config, gate=gate)
        try:
            server.submit_async(np.ones((4, 3)))  # pulled into flight
            assert wait_until(lambda: server.queue.depth()["rows"] == 0)
            server.submit_async(np.ones((4, 3)))  # queued: 4/8 rows
            server.submit_async(np.ones((4, 3)))  # queued: 8/8 rows
            with pytest.raises(ServerOverloaded):
                server.submit_async(np.ones((1, 3)))
            assert server.stats()["rejected_requests"] == 1
        finally:
            gate.set()
            server.close()

    def test_rejected_request_not_counted_completed(self):
        gate = threading.Event()
        config = ServeConfig(workers=1, batch_size=4, max_queue_rows=4)
        server = fake_server(config, gate=gate)
        try:
            in_flight = server.submit_async(np.ones((4, 3)))
            assert wait_until(lambda: server.queue.depth()["rows"] == 0)
            queued = server.submit_async(np.ones((4, 3)))  # fills the bound
            with pytest.raises(ServerOverloaded):
                server.submit_async(np.ones((4, 3)))
            gate.set()
            in_flight.result(10.0)
            queued.result(10.0)
            stats = server.stats()
            assert stats["completed_requests"] == 2
            assert stats["rejected_requests"] == 1
        finally:
            gate.set()
            server.close()


class TestDeadlines:
    def test_expired_request_gets_deadline_exceeded(self):
        gate = threading.Event()
        config = ServeConfig(workers=1, batch_size=4)
        server = fake_server(config, gate=gate)
        try:
            blocker = server.submit_async(np.ones((4, 3)))  # occupies the worker
            assert wait_until(lambda: server.queue.depth()["rows"] == 0)
            doomed = server.submit_async(np.ones((2, 3)), deadline_ms=5.0)
            time.sleep(0.05)  # let the 5ms deadline lapse while queued
            gate.set()
            blocker.result(10.0)
            with pytest.raises(DeadlineExceeded):
                doomed.result(10.0)
        finally:
            gate.set()
            server.close()

    def test_default_deadline_applies(self):
        gate = threading.Event()
        config = ServeConfig(workers=1, batch_size=4, default_deadline_ms=5.0)
        server = fake_server(config, gate=gate)
        try:
            blocker = server.submit_async(np.ones((4, 3)), deadline_ms=10_000.0)
            assert wait_until(lambda: server.queue.depth()["rows"] == 0)
            doomed = server.submit_async(np.ones((2, 3)))  # inherits 5ms
            time.sleep(0.05)
            gate.set()
            blocker.result(10.0)
            with pytest.raises(DeadlineExceeded):
                doomed.result(10.0)
        finally:
            gate.set()
            server.close()


class TestShutdown:
    def test_drain_close_flushes_in_flight_requests(self):
        config = ServeConfig(workers=2, batch_size=4)
        server = fake_server(config, delay_s=0.005)
        futures = [server.submit_async(np.full((2, 3), float(i)))
                   for i in range(10)]
        server.close(drain=True)  # most of those are still queued here
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(
                future.result(0), logits_of(np.full((2, 3), float(i)))
            )

    def test_submit_after_close_is_rejected(self):
        server = fake_server(ServeConfig(workers=1, batch_size=4))
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(np.ones((1, 3)))

    def test_context_manager_closes(self):
        with fake_server(ServeConfig(workers=1, batch_size=4)) as server:
            server.submit(np.ones((2, 3)))
        assert server.queue.closed


class TestStats:
    def test_stats_shape_and_latency_percentiles(self):
        config = ServeConfig(workers=2, batch_size=4)
        with fake_server(config) as server:
            for _ in range(6):
                server.submit(np.ones((2, 3)))
            stats = server.stats()
        assert stats["completed_requests"] == 6
        assert stats["rejected_requests"] == 0
        assert stats["rows"] == 12
        assert stats["workers"] == 2
        assert stats["compute_slots"] >= 1
        assert stats["queue"] == {"requests": 0, "rows": 0}
        assert stats["p50_ms"] > 0 and stats["p99_ms"] >= stats["p50_ms"]

    def test_latency_window_evicts_beyond_size(self):
        window = LatencyWindow(4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            window.record(value)
        snapshot = sorted(window.snapshot())
        assert snapshot == [2.0, 3.0, 4.0, 5.0]

    def test_empty_latency_window_reports_nothing(self):
        assert LatencyWindow(4).percentiles() == {}


class TestServingIntegration:
    """Real deployment end to end: quantized LeNet behind the server."""

    @pytest.fixture(scope="class")
    def deployed(self):
        images = generate_mnist_like(24, seed=0).images
        model = LeNet(rng=np.random.default_rng(0))
        model.eval()
        net, _ = deploy_model(
            model,
            DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8),
            images[:16],
        )
        return net, images

    def test_single_requests_match_batched_and_direct(self, deployed):
        net, images = deployed
        engine = make_inference_engine(net)
        direct = engine.run(images[:12])
        config = ServeConfig(workers=2, batch_size=8)
        with make_model_server(net, config, warmup_images=images[:2]) as server:
            batched = server.submit(images[:12])
            singles = server.submit_many(
                [images[i : i + 1] for i in range(12)]
            )
        np.testing.assert_array_equal(batched, direct)
        np.testing.assert_array_equal(np.concatenate(singles, axis=0), direct)

    def test_concurrent_callers_each_get_their_rows(self, deployed):
        net, images = deployed
        engine = make_inference_engine(net)
        config = ServeConfig(workers=2, batch_size=16)
        slices = [images[i : i + 3] for i in range(0, 21, 3)]
        results = [None] * len(slices)
        with make_model_server(net, config, warmup_images=images[:2]) as server:
            def call(i):
                results[i] = server.submit(slices[i])
            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(len(slices))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        for i, logits in enumerate(results):
            np.testing.assert_array_equal(logits, engine.run(slices[i]))
