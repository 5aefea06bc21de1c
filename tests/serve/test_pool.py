"""Tests of replica behaviour and pool lifecycle (repro.serve.pool)."""

import threading

import numpy as np
import pytest

from repro.obs.clock import FakeClock
from repro.serve import pool as pool_module
from repro.serve.batcher import MicroBatcher
from repro.serve.pool import (
    EngineExecutor,
    Executor,
    Replica,
    ReplicaPool,
    WorkerDied,
    engine_executors,
)
from repro.serve.queue import AdmissionQueue, ServerClosed
from tests.serve.pool_contract import PoolContract


def logits_of(images):
    flat = np.asarray(images).reshape(len(images), -1)
    return np.stack([flat[:, 0] * 2.0 + 1.0, flat[:, 0] - 3.0], axis=1)


class FakeEngine:
    """Engine stand-in: deterministic per-row logits, scriptable failures."""

    def __init__(self, fail_times=0):
        self.plan = object()  # pretend already traced
        self.active_backend = "fake"
        self.calls = []
        self.fail_times = fail_times

    def run(self, images):
        self.calls.append(np.asarray(images).shape)
        if self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError("engine exploded")
        return logits_of(images)


def local(engine, batch_rows=128):
    return EngineExecutor(engine, batch_rows=batch_rows)


def make_batch(queue_rows=4096, sizes=(3,), batch_size=None, tag0=1):
    queue = AdmissionQueue(max_rows=queue_rows)
    requests = [
        queue.submit(np.full((rows, 4), float(tag0 + i)))
        for i, rows in enumerate(sizes)
    ]
    batcher = MicroBatcher(
        queue, batch_size=batch_size or sum(sizes)
    )
    return batcher.next_batch(), requests


class TestReplicaServing:
    def test_serves_bit_exact_per_request(self):
        batch, requests = make_batch(sizes=(2, 3))
        replica = Replica(index=0, executor=local(FakeEngine(), batch_rows=8))
        replica.serve(batch)
        for request in requests:
            np.testing.assert_array_equal(
                request.future.result(0), logits_of(request.images)
            )
        assert replica.stats.batches == 1
        assert replica.stats.rows == 5

    def test_engine_sees_exact_row_counts(self):
        """Every batch runs at its own row count: nothing is padded."""
        engine = FakeEngine()
        replica = Replica(index=0, executor=local(engine, batch_rows=16))
        for rows in (1, 3, 5, 8, 11, 16):
            batch, requests = make_batch(sizes=(rows,))
            replica.serve(batch)
            np.testing.assert_array_equal(
                requests[0].future.result(0), logits_of(requests[0].images))
        assert [shape[0] for shape in engine.calls] == [1, 3, 5, 8, 11, 16]

    def test_oversized_request_chunked_to_batch_rows(self):
        """Only a request larger than ``batch_rows`` is split, into
        ``batch_rows`` chunks plus its exact remainder."""
        engine = FakeEngine()
        replica = Replica(index=0, executor=local(engine, batch_rows=16))
        batch, requests = make_batch(sizes=(37,))
        replica.serve(batch)
        assert [shape[0] for shape in engine.calls] == [16, 16, 5]
        np.testing.assert_array_equal(
            requests[0].future.result(0), logits_of(requests[0].images))

    def test_batch_rows_validated(self):
        with pytest.raises(ValueError):
            local(FakeEngine(), batch_rows=0)


class TestReplicaFailures:
    def test_engine_failure_falls_back(self):
        batch, requests = make_batch(sizes=(2,))
        replica = Replica(
            index=0, executor=local(FakeEngine(fail_times=1)), fallback=logits_of
        )
        replica.serve(batch)
        np.testing.assert_array_equal(
            requests[0].future.result(0), logits_of(requests[0].images)
        )
        assert replica.stats.engine_failures == 1
        assert replica.stats.fallback_batches == 1
        assert not replica.stats.degraded  # one failure is not condemnation

    def test_engine_failure_without_fallback_fails_batch(self):
        batch, requests = make_batch(sizes=(2,))
        replica = Replica(index=0, executor=local(FakeEngine(fail_times=1)))
        replica.serve(batch)
        with pytest.raises(RuntimeError, match="engine exploded"):
            requests[0].future.result(0)

    def test_repeated_failures_trip_degraded_mode(self):
        engine = FakeEngine(fail_times=Replica.MAX_CONSECUTIVE_FAILURES)
        replica = Replica(index=0, executor=local(engine), fallback=logits_of)
        for _ in range(Replica.MAX_CONSECUTIVE_FAILURES):
            batch, _ = make_batch(sizes=(1,))
            replica.serve(batch)
        assert replica.stats.degraded
        # Degraded replicas stop touching the engine entirely.
        calls_before = len(engine.calls)
        batch, requests = make_batch(sizes=(1,))
        replica.serve(batch)
        assert len(engine.calls) == calls_before
        assert requests[0].future.done()

    def test_success_resets_consecutive_failures(self):
        engine = FakeEngine(fail_times=1)
        replica = Replica(index=0, executor=local(engine), fallback=logits_of)
        for _ in range(4):  # fail, ok, ok, ok — never trips
            batch, _ = make_batch(sizes=(1,))
            replica.serve(batch)
        assert not replica.stats.degraded

    def test_failed_probe_trips_degraded(self):
        replica = Replica(
            index=0,
            executor=local(FakeEngine()),
            fallback=logits_of,
            health_probe=lambda executor: False,
            probe_every_batches=1,
        )
        batch, requests = make_batch(sizes=(1,))
        replica.serve(batch)
        assert replica.stats.degraded
        assert replica.stats.probes_failed == 1
        assert replica.stats.fallback_batches == 1
        assert requests[0].future.done()

    def test_probe_exception_counts_as_failure(self):
        def bad_probe(executor):
            raise RuntimeError("probe crashed")

        replica = Replica(index=0, executor=local(FakeEngine()),
                          health_probe=bad_probe)
        assert replica.run_probe() is False
        assert replica.stats.degraded


class DyingExecutor(Executor):
    """Dies on its next ``deaths`` runs; every restart succeeds."""

    def __init__(self, deaths=0):
        self.deaths = deaths
        self.runs = 0
        self.restarts = 0

    def run_rows(self, images):
        self.runs += 1
        if self.deaths > 0:
            self.deaths -= 1
            raise WorkerDied("worker exited mid-batch")
        return logits_of(images)

    def restart(self):
        self.restarts += 1
        return True


class TestRetryRule:
    def test_dead_executor_is_restarted_then_demoted_past_budget(self):
        """One death: restart, the batch retried once and answered once.
        A death past ``max_restarts``: the replica demotes to its fallback."""
        executor = DyingExecutor(deaths=1)
        replica = Replica(index=0, executor=executor, fallback=logits_of,
                          max_restarts=1)
        batch, requests = make_batch(sizes=(2, 1))
        answers, scatter = [], batch.scatter

        def counted_scatter(logits):
            answers.append(len(logits))
            scatter(logits)

        batch.scatter = counted_scatter
        replica.serve(batch)
        assert answers == [3]
        for request in requests:
            np.testing.assert_array_equal(
                request.future.result(0), logits_of(request.images))
        assert executor.runs == 2 and executor.restarts == 1
        assert replica.stats.restarts == 1
        assert not replica.stats.degraded
        assert replica.stats.fallback_batches == 0

        executor.deaths = 1
        batch, requests = make_batch(sizes=(2,))
        replica.serve(batch)
        np.testing.assert_array_equal(
            requests[0].future.result(0), logits_of(requests[0].images))
        assert executor.restarts == 1  # the budget is spent: no restart
        assert replica.stats.restarts == 1
        assert replica.stats.degraded
        assert replica.stats.fallback_batches == 1
        assert replica.stats.engine_failures == 0  # death is not a compute error

    def test_dead_probe_target_is_restarted_and_probed_again(self):
        executor = DyingExecutor(deaths=1)
        replica = Replica(
            index=0, executor=executor, max_restarts=1,
            health_probe=lambda target: target.run_rows(np.ones((1, 4))) is not None,
        )
        assert replica.run_probe() is True
        assert replica.stats.restarts == 1
        assert not replica.stats.degraded


class TestPoolLifecycle(PoolContract):
    backend = "fake"
    row_shape = (4,)

    def _pool(self, workers=2):
        queue = AdmissionQueue(max_rows=4096)
        batcher = MicroBatcher(queue, batch_size=8)
        return queue, ReplicaPool(engine_executors(FakeEngine, workers, 8), batcher)

    def _expected(self, images):
        return logits_of(images)

    def test_compute_slots_never_exceed_workers(self):
        _, pool = self._pool(workers=2)
        assert 1 <= pool.compute_slots <= 2

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            self._pool(workers=0)


class RecordingBatcher(MicroBatcher):
    """A batcher that remembers the row count of every batch it forms."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.formed = []

    def next_batch(self):
        batch = super().next_batch()
        if batch is not None:
            self.formed.append(batch.rows)
        return batch


class TestWorkConservingBatching:
    def test_burst_fills_batches_while_every_replica_is_busy(self, monkeypatch):
        """Open-loop burst: with every replica stuck in its engine, single-
        row requests pile up; once released, each batch drains exactly
        ``batch_size`` rows — coalescing needs no wait budget."""
        workers, batch_size, burst = 2, 8, 48
        release = threading.Event()
        entered = threading.Semaphore(0)

        class GatedEngine(FakeEngine):
            def run(self, images):
                entered.release()
                release.wait(10.0)
                return super().run(images)

        # Every replica computes at once, even on a 1-core host.
        monkeypatch.setattr(pool_module, "_available_cores", lambda: workers)
        queue = AdmissionQueue(max_rows=4096)
        batcher = RecordingBatcher(queue, batch_size=batch_size)
        pool = ReplicaPool(engine_executors(GatedEngine, workers, batch_size), batcher)
        pool.start()
        try:
            # Occupy the replicas one at a time, so each holds one request.
            blockers = []
            for i in range(workers):
                blockers.append(queue.submit(np.full((1, 4), float(i))))
                assert entered.acquire(timeout=10.0), "replica never ran"
            assert batcher.formed == [1] * workers
            requests = [queue.submit(np.full((1, 4), float(i)))
                        for i in range(burst)]
            release.set()
            for request in blockers + requests:
                np.testing.assert_array_equal(
                    request.future.result(10.0), logits_of(request.images)
                )
        finally:
            release.set()
            pool.close()
        assert batcher.formed[workers:] == [batch_size] * (burst // batch_size)

    def test_lone_request_on_idle_pool_dispatches_without_clock_advancing(self):
        """No timed wait remains: with a frozen clock, a lone request is
        still served (a wait budget measured on this clock would never
        run out)."""
        clock = FakeClock(start=7.0)
        queue = AdmissionQueue(max_rows=4096, clock=clock)
        batcher = RecordingBatcher(queue, batch_size=8, clock=clock)
        pool = ReplicaPool(engine_executors(FakeEngine, 2, 8), batcher)
        pool.start()
        try:
            request = queue.submit(np.full((1, 4), 3.0))
            np.testing.assert_array_equal(
                request.future.result(10.0), logits_of(request.images)
            )
        finally:
            pool.close()
        assert clock() == 7.0
        assert batcher.formed == [1]


class TestCloseRaces:
    """Regression tests: close() overlapping an in-flight probe or a
    racing submit must leave the semaphore and queue state consistent."""

    def test_close_during_in_flight_probe_keeps_semaphore_consistent(
            self, monkeypatch):
        """close() while a worker sits inside its health probe must not
        double-release the compute-slot semaphore: after close, exactly
        ``compute_slots`` slots are acquirable — no more, no fewer — and
        no worker thread dies on a BoundedSemaphore ValueError."""
        clock = FakeClock()
        probe_entered = threading.Event()
        probe_release = threading.Event()

        def slow_probe(executor):
            # FakeClock-driven probe timing: the probe "takes" 5 clock
            # seconds and blocks until the test lets it finish, so
            # close() is guaranteed to overlap it.
            probe_entered.set()
            clock.advance(5.0)
            probe_release.wait(10.0)
            return True

        monkeypatch.setattr(pool_module, "_available_cores", lambda: 2)
        queue = AdmissionQueue(max_rows=4096, clock=clock)
        batcher = MicroBatcher(queue, batch_size=8, clock=clock)
        pool = ReplicaPool(
            engine_executors(FakeEngine, 2, 8), batcher,
            health_probe=slow_probe, probe_every_batches=1,
        )
        worker_errors = []
        base_hook = threading.excepthook
        threading.excepthook = lambda args: worker_errors.append(args)
        try:
            pool.start()
            request = queue.submit(np.full((2, 4), 1.0))
            assert probe_entered.wait(10.0), "worker never reached its probe"
            closer = threading.Thread(target=pool.close, kwargs={"drain": True})
            closer.start()
            probe_release.set()
            closer.join(30.0)
            assert not closer.is_alive(), "close() hung against the probe"
            request.future.result(5.0)
        finally:
            threading.excepthook = base_hook
            probe_release.set()
        assert worker_errors == [], (
            f"worker thread raised during close: {worker_errors}"
        )
        # Exactly compute_slots slots must be acquirable — an extra
        # release would make a third acquire succeed; a lost slot would
        # make the second fail.
        acquired = [pool._compute.acquire(blocking=False) for _ in range(3)]
        assert acquired == [True, True, False]
        for _ in range(2):
            pool._compute.release()

    def test_non_drain_close_shuts_door_before_failing_queued(self):
        """A submit racing close(drain=False) either lands before the
        close (failed with ServerClosed by the sweep) or is rejected at
        admission — it can never be left pending after close returns."""
        queue, pool = TestPoolLifecycle()._pool()
        stop = threading.Event()
        outcomes = []

        def submitter():
            while not stop.is_set():
                try:
                    outcomes.append(queue.submit(np.full((1, 4), 1.0)))
                except ServerClosed:
                    stop.set()

        thread = threading.Thread(target=submitter)
        thread.start()
        try:
            while not outcomes:  # let at least one submission land
                pass
            pool.close(drain=False)
        finally:
            stop.set()
            thread.join(10.0)
        for request in outcomes:
            assert request.future.done(), (
                "a request admitted during close(drain=False) was stranded"
            )
            with pytest.raises(ServerClosed):
                request.future.result(0)


class TestTraceSerialization:
    def test_planless_engines_trace_one_at_a_time(self, monkeypatch):
        """While engine.plan is None, runs hold the shared trace lock."""

        class PlanlessEngine(FakeEngine):
            concurrent = 0
            max_concurrent = 0
            gate = threading.Lock()

            def __init__(self):
                super().__init__()
                self.plan = None

            def run(self, images):
                cls = PlanlessEngine
                with cls.gate:
                    cls.concurrent += 1
                    cls.max_concurrent = max(cls.max_concurrent, cls.concurrent)
                try:
                    return logits_of(images)
                finally:
                    with cls.gate:
                        cls.concurrent -= 1

        monkeypatch.setattr(pool_module, "_available_cores", lambda: 4)
        queue = AdmissionQueue(max_rows=4096)
        batcher = MicroBatcher(queue, batch_size=4)
        pool = ReplicaPool(engine_executors(PlanlessEngine, 4, 4), batcher)
        pool.start()
        requests = [queue.submit(np.full((4, 4), float(i))) for i in range(12)]
        for request in requests:
            request.future.result(10.0)
        pool.close()
        assert PlanlessEngine.max_concurrent == 1
