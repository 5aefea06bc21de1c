"""The :class:`ModelServer` facade: submit → batch → replicate → answer.

Composes the serving layer end to end::

    callers ──submit──▶ AdmissionQueue ──▶ MicroBatcher ──▶ ReplicaPool
                 │  (bounded, deadlines)   (drain queued     │ (one replica per executor)
                 │                          ≤ batch_size)    ├─▶ EngineExecutor | ProcessWorker
                 ◀──────────── ServeFuture ◀─ scatter ───────┴─▶ fallback (degraded replicas)

The server chooses each replica's executor: an in-process engine from
``engine_factory`` (``pool="thread"``) or a worker process rebuilt from
``worker_spec`` (``pool="process"``); either way each replica owns its
own compiled plan and buffer pool.  The usual entry points are
:func:`repro.core.deployment.make_model_server` (software deployments)
and :meth:`repro.snc.system.SpikingSystem.serve` (hardware twins with a
guarded fallback).

SLO-aware admission: every request can carry a latency deadline
(``deadline_ms``, defaulting to ``ServeConfig.default_deadline_ms``).
The queue bound rejects load the server cannot absorb
(:class:`~repro.serve.queue.ServerOverloaded`); deadlines shed load it
absorbed but cannot serve in time
(:class:`~repro.serve.queue.DeadlineExceeded`).  Together they keep tail
latency bounded instead of letting the queue build unbounded delay.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.obs import SYSTEM_CLOCK, Telemetry
from repro.serve.batcher import MicroBatcher
from repro.serve.pool import ReplicaPool, engine_executors
from repro.serve.procpool import LocalTwin, ProcessWorker
from repro.serve.queue import AdmissionQueue, ServeFuture
from repro.serve.shm import SlabAllocator

__all__ = ["ServeConfig", "ModelServer", "LatencyWindow"]


@dataclass
class ServeConfig:
    """Serving-layer policy knobs.

    Attributes
    ----------
    workers:
        Replica count (one engine + one dispatcher thread each); at
        most ``min(workers, available cores)`` of them execute at once.
    batch_size:
        Micro-batch row cap.  An idle replica takes the first queued
        request and whatever else is queued up to this many rows, then
        dispatches at once (no wait budget); only a single request
        larger than the cap exceeds it.
    max_queue_rows:
        Admission bound (image rows).  Submissions beyond it are
        rejected with :class:`~repro.serve.queue.ServerOverloaded`.
    default_deadline_ms:
        Deadline applied to requests that do not carry their own;
        ``None`` means queued requests never expire.
    probe_every_batches:
        Per-replica health-probe cadence (``0`` = never probe); worker
        processes are probed with fixed probe vectors.
    latency_window:
        How many recent request latencies the server retains for
        percentile stats (bounded ring buffer).
    pool:
        The replicas' executor: ``"thread"`` (default) runs each engine
        in-process; ``"process"`` runs each in its own worker process
        with shared-memory tensor transport (requires a ``worker_spec``
        — see :func:`repro.core.deployment.make_model_server`).
    max_restarts:
        Times a replica's dead worker process is respawned before the
        replica degrades to its fallback.
    worker_timeout_s:
        Per-batch reply budget for a worker process; a worker that
        stalls past it is killed and treated as dead.
    """

    workers: int = 4
    batch_size: int = 128
    max_queue_rows: int = 4096
    default_deadline_ms: Optional[float] = None
    probe_every_batches: int = 0
    latency_window: int = 4096
    pool: str = "thread"
    max_restarts: int = 2
    worker_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.pool not in ("thread", "process"):
            raise ValueError(
                f"pool must be 'thread' or 'process', got {self.pool!r}"
            )
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.worker_timeout_s <= 0:
            raise ValueError(
                f"worker_timeout_s must be positive, got {self.worker_timeout_s}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_queue_rows < 1:
            raise ValueError(f"max_queue_rows must be >= 1, got {self.max_queue_rows}")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be positive, got {self.default_deadline_ms}"
            )
        if self.latency_window < 1:
            raise ValueError(f"latency_window must be >= 1, got {self.latency_window}")


class LatencyWindow:
    """A fixed-size ring of recent latencies (seconds) with percentiles."""

    def __init__(self, size: int) -> None:
        self._values = np.zeros(size, dtype=np.float64)
        self._count = 0
        self._lock = threading.Lock()

    def record(self, latency_s: float) -> None:
        """Append one latency sample, evicting the oldest beyond the window."""
        with self._lock:
            self._values[self._count % len(self._values)] = latency_s
            self._count += 1

    def snapshot(self) -> np.ndarray:
        """The retained samples (oldest-beyond-window already evicted)."""
        with self._lock:
            filled = min(self._count, len(self._values))
            return np.array(self._values[:filled])

    def percentiles(self, qs: Sequence[float] = (50, 99)) -> dict:
        """``{"p50_ms": ..., "p99_ms": ...}`` over the window (empty → {})."""
        values = self.snapshot()
        if values.size == 0:
            return {}
        return {
            f"p{int(q)}_ms": float(np.percentile(values, q) * 1e3) for q in qs
        }


class ModelServer:
    """Serve concurrent inference requests through batched engine replicas."""

    def __init__(
        self,
        engine_factory: Optional[Callable[[], object]] = None,
        config: Optional[ServeConfig] = None,
        fallback: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        health_probe: Optional[Callable[[], bool]] = None,
        warmup_images: Optional[np.ndarray] = None,
        clock: Optional[Callable[[], float]] = None,
        telemetry: Optional[Telemetry] = None,
        worker_spec=None,
    ) -> None:
        self.config = config or ServeConfig()
        if self.config.pool == "process" and worker_spec is None:
            raise ValueError(
                "pool='process' needs a worker_spec (WorkerSpec); build "
                "the server via repro.core.deployment.make_model_server"
            )
        if self.config.pool == "thread" and engine_factory is None:
            raise ValueError("pool='thread' needs an engine_factory")
        self.telemetry = telemetry
        # One clock drives queue, batcher, and latency accounting (RL005:
        # injected, never read from time.* here).
        if clock is not None:
            self.clock = clock
        elif telemetry is not None:
            self.clock = telemetry.clock
        else:
            self.clock = SYSTEM_CLOCK
        clock = self.clock
        self.queue = AdmissionQueue(
            max_rows=self.config.max_queue_rows, clock=clock, telemetry=telemetry,
        )
        self.batcher = MicroBatcher(
            self.queue,
            batch_size=self.config.batch_size,
            clock=clock,
            telemetry=telemetry,
        )
        workers = self.config.workers
        #: the process pool's slab allocator, unlinked after the pool stops.
        self.allocator = None
        if self.config.pool == "process":
            self.allocator = SlabAllocator(slab_bytes=8 << 20, max_slabs=max(2 * workers, 4),
                                           telemetry=telemetry)
            executors = [ProcessWorker(i, worker_spec, self.allocator, self.config.worker_timeout_s,
                                       clock) for i in range(workers)]
            twin = LocalTwin(worker_spec)
            fallback = twin if fallback is None else fallback
            probe = twin.probe
        else:
            twin = None
            executors = engine_executors(engine_factory, workers, self.config.batch_size)
            probe = None if health_probe is None else (lambda _executor: health_probe())
        self.pool = ReplicaPool(executors, self.batcher, fallback, probe,
                                self.config.probe_every_batches, self.config.max_restarts,
                                telemetry)
        if telemetry is not None:
            registry = telemetry.registry
            self._obs_completed = registry.counter(
                "serve_completed_total", help="Requests completed (any outcome)")
            self._obs_latency = registry.histogram(
                "serve_request_seconds",
                help="Submit-to-completion latency per request")
        self.latencies = LatencyWindow(self.config.latency_window)
        self._completed = 0
        self._rejected = 0
        self._stats_lock = threading.Lock()
        try:
            if warmup_images is not None:
                self.pool.warmup(warmup_images)
                if twin is not None and self.config.probe_every_batches > 0:
                    twin.arm(warmup_images)  # not on a dispatcher, mid-traffic
            self.pool.start()
        except BaseException:
            self.close(drain=False)
            raise

    # -- request path -------------------------------------------------------
    def submit_async(
        self,
        images: np.ndarray,
        deadline_ms: Optional[float] = None,
    ) -> ServeFuture:
        """Admit one request; returns its future immediately.

        Raises :class:`~repro.serve.queue.ServerOverloaded` (queue full)
        or :class:`~repro.serve.queue.ServerClosed` synchronously — the
        backpressure signal must reach the caller, not the future.
        """
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        try:
            request = self.queue.submit(
                images,
                deadline_s=None if deadline_ms is None else deadline_ms / 1e3,
            )
        except Exception:
            with self._stats_lock:
                self._rejected += 1
            raise
        start = request.enqueued_at

        def record_latency(_future: ServeFuture) -> None:
            latency_s = self.clock() - start
            self.latencies.record(latency_s)
            with self._stats_lock:
                self._completed += 1
            if self.telemetry is not None:
                self._obs_completed.inc()
                self._obs_latency.observe(latency_s)

        request.future.add_done_callback(record_latency)
        return request.future

    def submit(
        self,
        images: np.ndarray,
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = 60.0,
    ) -> np.ndarray:
        """Admit one request and block for its logits."""
        return self.submit_async(images, deadline_ms=deadline_ms).result(timeout)

    def submit_many(
        self,
        batches: Sequence[np.ndarray],
        deadline_ms: Optional[float] = None,
        timeout: Optional[float] = 60.0,
    ) -> List[np.ndarray]:
        """Admit several requests at once, then wait for all of them.

        Submitting before waiting lets the batcher coalesce the whole
        group into engine-sized runs.
        """
        futures = [self.submit_async(b, deadline_ms=deadline_ms) for b in batches]
        return [future.result(timeout) for future in futures]

    # -- lifecycle ----------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` every queued request is answered first.

        The slabs are unlinked last, once every executor has stopped."""
        self.pool.close(drain=drain)
        if self.allocator is not None:
            self.allocator.close(force=True)

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability ------------------------------------------------------
    def stats(self) -> dict:
        """One nested dict of queue depth, pool counters, and latency."""
        pool = self.pool.stats()
        with self._stats_lock:
            completed, rejected = self._completed, self._rejected
        stats = {
            "completed_requests": completed,
            "rejected_requests": rejected,
            "queue": self.queue.depth(),
            "workers": pool.workers,
            "compute_slots": self.pool.compute_slots,
            "batches": pool.batches,
            "rows": pool.rows,
            "mean_batch_rows": pool.rows / pool.batches if pool.batches else 0.0,
            "fallback_batches": pool.fallback_batches,
            "engine_failures": pool.engine_failures,
            "degraded_replicas": pool.degraded_replicas,
            "replicas": pool.replicas,
        }
        if self.allocator is not None:  # process pool: slab/lease accounting
            stats["shm"] = self.allocator.stats()
        stats.update(self.latencies.percentiles())
        return stats
