"""Worker-process executors: transport, health, chaos, ordering.

The cross-model × kernel-variant bit-exactness matrix lives in
``tests/integration/test_process_conformance.py``; this module covers
the process executor's *machinery* on one small deployed LeNet:

- :class:`WorkerSpec` pickling reproduces the engine bit-exactly,
- scatter/gather returns arrival-order logits for arbitrary interleaved
  request sizes and deadlines (hypothesis property test),
- SIGKILL chaos (seed-scheduled via :func:`repro.flow.chaos.
  fault_schedule`) mid-stream: every response arrives exactly once,
  bit-exact, and zero shared-memory segments survive the drain,
- a worker past its restart budget demotes to the in-process fallback
  instead of failing requests,
- the pool lifecycle contract of ``tests/serve/pool_contract.py``, run
  over worker processes.

Worker processes cost ~1 s each to spawn (start method ``spawn``), so
servers here are module-scoped where the test semantics allow it.
"""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import datasets
from repro.core.deployment import (
    DeploymentConfig,
    deploy_model,
    make_inference_engine,
    make_model_server,
)
from repro.flow.chaos import fault_schedule
from repro.models.registry import build_model
from repro.obs import Telemetry
from repro.serve import ServeConfig, WorkerSpec
from repro.serve.batcher import MicroBatcher
from repro.serve.pool import ReplicaPool
from repro.serve.procpool import ProcessWorker, WorkerDied
from repro.serve.queue import AdmissionQueue
from repro.serve.shm import SlabAllocator, active_segment_names
from tests.serve.pool_contract import PoolContract

BATCH_ROWS = 8


@pytest.fixture(scope="module")
def deployed_lenet():
    """One small quantized LeNet deployment + calibration images."""
    train_set, _ = datasets.mnist_like(train_size=16, test_size=4, seed=0)
    images = np.asarray(train_set.images[:BATCH_ROWS], dtype=np.float64)
    model = build_model("lenet", width_multiplier=0.25,
                        rng=np.random.default_rng(0))
    model.eval()
    deployed, _ = deploy_model(
        model,
        DeploymentConfig(signal_bits=4, weight_bits=4, input_bits=8),
        images,
    )
    return deployed, images


def _requests(shape_tail, total_rows, seed):
    """Deterministic request rows: row r is recognisable by its content."""
    rng = np.random.default_rng(seed)
    return np.ascontiguousarray(
        rng.uniform(0.0, 1.0, size=(total_rows,) + tuple(shape_tail)),
        dtype=np.float64,
    )


def _process_server(deployed, images, **config_kwargs):
    kwargs = dict(workers=1, batch_size=BATCH_ROWS, pool="process")
    kwargs.update(config_kwargs)
    return make_model_server(
        deployed,
        ServeConfig(**kwargs),
        warmup_images=images[:2],
        dtype=np.float64,
    )


class TestWorkerSpec:
    def test_spec_rebuilds_bit_exact_replica(self, deployed_lenet):
        deployed, images = deployed_lenet
        reference = make_inference_engine(deployed, dtype=np.float64).run(images)
        spec = WorkerSpec.for_module(deployed, batch_rows=BATCH_ROWS,
                                     dtype=np.float64)
        executor = spec.build_executor()
        assert np.array_equal(executor.run_rows(images), reference)

    def test_spec_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(pool="greenlet")
        with pytest.raises(ValueError):
            ServeConfig(pool="process", max_restarts=-1)
        with pytest.raises(ValueError):
            ServeConfig(pool="process", worker_timeout_s=0)

    def test_process_pool_requires_worker_spec(self):
        from repro.serve import ModelServer

        with pytest.raises(ValueError, match="worker_spec"):
            ModelServer(engine_factory=lambda: None,
                        config=ServeConfig(pool="process"))

    def test_thread_pool_requires_engine_factory(self):
        from repro.serve import ModelServer

        with pytest.raises(ValueError, match="engine_factory"):
            ModelServer(config=ServeConfig(pool="thread"))


@pytest.fixture(scope="module")
def process_server(deployed_lenet):
    """A 1-worker process server + direct-engine oracle, shared across
    the ordering tests (spawning workers per example would dominate)."""
    deployed, images = deployed_lenet
    engine = make_inference_engine(deployed, dtype=np.float64)
    server = _process_server(deployed, images)
    yield server, engine, images.shape[1:]
    server.close()


class TestArrivalOrder:
    # The module-scoped server (and the autouse leak guard) deliberately
    # wrap all examples at once — suppress the per-example-reset check.
    @settings(deadline=None, max_examples=12,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                       max_size=8),
        deadline_ms=st.sampled_from([None, 30_000.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_interleaved_requests_gather_in_arrival_order(
            self, process_server, sizes, deadline_ms, seed):
        """Arbitrary request sizes scatter-gather back in arrival order:
        future *i* gets exactly the logits of the rows submitted *i*-th,
        bit-exact against the direct engine."""
        server, engine, shape_tail = process_server
        rows = _requests(shape_tail, sum(sizes), seed)
        expected = engine.run(rows)
        futures, start = [], 0
        for size in sizes:
            futures.append(server.submit_async(
                rows[start:start + size], deadline_ms=deadline_ms))
            start += size
        start = 0
        for size, future in zip(sizes, futures):
            got = future.result(60.0)
            assert got.shape[0] == size
            assert np.array_equal(got, expected[start:start + size])
            start += size


class TestChaos:
    def test_sigkill_mid_stream_retries_bit_exact_no_leak(self, deployed_lenet):
        """Seed-scheduled SIGKILLs mid-stream: every future completes
        exactly once with bit-exact logits, the worker restarts are
        counted, and the drain leaves zero shm segments behind."""
        deployed, images = deployed_lenet
        baseline = set(active_segment_names())
        engine = make_inference_engine(deployed, dtype=np.float64)
        n_requests, size = 12, 4
        rows = _requests(images.shape[1:], n_requests * size, seed=1234)
        expected = engine.run(rows)
        kill_after = fault_schedule(n_requests, fraction=0.25, seed=99,
                                    token="chaos.procpool")
        assert kill_after  # the schedule must actually exercise the fault

        telemetry = Telemetry()
        server = make_model_server(
            deployed,
            ServeConfig(workers=2, batch_size=BATCH_ROWS,
                        pool="process", max_restarts=len(kill_after),
                        worker_timeout_s=60.0),
            warmup_images=images[:2],
            telemetry=telemetry,
            dtype=np.float64,
        )
        try:
            futures = []
            for i in range(n_requests):
                futures.append(server.submit_async(rows[i * size:(i + 1) * size]))
                if i in kill_after:
                    victims = [p for p in server.pool.worker_pids() if p]
                    os.kill(victims[i % len(victims)], signal.SIGKILL)
            results = [future.result(120.0) for future in futures]
            for i, got in enumerate(results):
                assert np.array_equal(got, expected[i * size:(i + 1) * size]), (
                    f"request {i} came back wrong after SIGKILL chaos"
                )
            stats = server.stats()
            restarts = sum(r["restarts"] for r in stats["replicas"])
            assert restarts >= 1
            assert stats["shm"]["leases_outstanding"] == 0
            assert (stats["shm"]["leases_issued_total"]
                    == stats["shm"]["leases_recycled_total"])
        finally:
            server.close()
        assert set(active_segment_names()) <= baseline, (
            "shared-memory segments leaked past the drain"
        )
        counters = telemetry.registry.names()
        assert "serve_worker_restarts_total" in counters
        assert "serve_shm_bytes_in_flight" in counters

    def test_worker_past_restart_budget_demotes_to_fallback(self, deployed_lenet):
        """With max_restarts=0 a killed worker must not fail requests:
        the pool serves them from the in-process guarded fallback."""
        deployed, images = deployed_lenet
        baseline = set(active_segment_names())
        engine = make_inference_engine(deployed, dtype=np.float64)
        rows = _requests(images.shape[1:], 8, seed=77)
        expected = engine.run(rows)
        server = _process_server(deployed, images, max_restarts=0)
        try:
            (pid,) = server.pool.worker_pids()
            os.kill(pid, signal.SIGKILL)
            got = server.submit(rows, timeout=120.0)
            assert np.array_equal(got, expected)
            stats = server.stats()
            assert stats["degraded_replicas"] == 1
            assert stats["fallback_batches"] >= 1
        finally:
            server.close()
        assert set(active_segment_names()) <= baseline


class TestHealth:
    def test_probe_vectors_run_and_pass(self, deployed_lenet):
        deployed, images = deployed_lenet
        server = _process_server(deployed, images, probe_every_batches=1)
        try:
            # The probe reference is armed at start-up, before any traffic.
            twin = server.pool.replicas[0].health_probe.__self__
            assert twin.probe_images is not None
            rows = _requests(images.shape[1:], 4, seed=5)
            server.submit(rows, timeout=60.0)
            server.submit(rows, timeout=60.0)
            stats = server.stats()
            (replica,) = stats["replicas"]
            assert replica["probes_run"] >= 1
            assert replica["probes_failed"] == 0
            assert not replica["degraded"]
            # Server-level keys a process server adds to the thread set.
            assert stats["compute_slots"] >= 1 and "shm" in stats
        finally:
            server.close()
            server.close()  # idempotent; the leak guard checks the slabs


class TestLifecycle(PoolContract):
    backend = "process"

    @pytest.fixture(autouse=True)
    def _lenet(self, deployed_lenet):
        self.deployed, images = deployed_lenet
        self.row_shape = images.shape[1:]
        self.allocators = []
        yield
        # The server unlinks its slabs once the pool has stopped; so here.
        for allocator in self.allocators:
            allocator.close(force=True)

    def _pool(self, workers=2):
        spec = WorkerSpec.for_module(self.deployed, batch_rows=BATCH_ROWS,
                                     dtype=np.float64)
        allocator = SlabAllocator(slab_bytes=1 << 20, max_slabs=4)
        self.allocators.append(allocator)
        queue = AdmissionQueue(max_rows=4096)
        batcher = MicroBatcher(queue, batch_size=BATCH_ROWS)
        executors = [ProcessWorker(i, spec, allocator) for i in range(workers)]
        return queue, ReplicaPool(executors, batcher)

    def _expected(self, images):
        return make_inference_engine(self.deployed, dtype=np.float64).run(images)

    def test_failed_ready_stops_every_spawned_worker(self, monkeypatch):
        """Workers spawn together; when one never reports ready, the pool
        stops and reaps all of them before raising (the autouse leak
        guard checks that no process, ring or thread survives)."""
        _, pool = self._pool(workers=2)
        spawned = []
        original = ProcessWorker.await_ready

        def await_ready(worker):
            spawned.append(worker.process)
            if worker.index == 1:
                raise WorkerDied("worker 1 failed to report ready: test")
            original(worker)

        monkeypatch.setattr(ProcessWorker, "await_ready", await_ready)
        try:
            with pytest.raises(WorkerDied):
                pool.start()
        finally:
            pool.close()
        assert len(spawned) == 2
        assert not any(process.is_alive() for process in spawned)
        assert pool.worker_pids() == []

    def test_failed_warmup_awaits_every_run_before_raising(self, monkeypatch):
        """When one worker dies during warm-up, the server raises only
        after every other worker's warm-up run has returned, so the
        close that follows never races a run still in flight (the autouse
        leak guard checks that no process, ring, slab or thread survives)."""
        finished = []
        original = ProcessWorker.run

        def run(worker, lease, shape, timeout_s):
            if worker.index == 0:
                worker._kill()  # dies before answering: WorkerDied
            else:
                time.sleep(0.5)  # still in flight when worker 0 fails
            logits = original(worker, lease, shape, timeout_s)
            finished.append(worker.index)
            return logits

        monkeypatch.setattr(ProcessWorker, "run", run)
        with pytest.raises(WorkerDied):
            _process_server(self.deployed, np.zeros((2,) + self.row_shape),
                            workers=2)
        assert finished == [1]
