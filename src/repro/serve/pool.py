"""Replica pool: one replica per executor, fed from one micro-batcher.

An :class:`Executor` is where a replica's rows run: an in-process engine
(:class:`EngineExecutor`, ``pool="thread"``) or an engine in its own
worker process (:class:`~repro.serve.procpool.ProcessWorker`,
``pool="process"``).  A :class:`Replica` wraps one executor in the
serving policy, written once and blind to the executor kind:

- **compute error** (anything ``run_rows`` raises but
  :class:`WorkerDied`) — counted; ``MAX_CONSECUTIVE_FAILURES`` in a row
  degrade the replica; the batch is served from the fallback, or failed
  when there is none.
- **dead executor** (:class:`WorkerDied`) — within ``max_restarts`` the
  executor is restarted and the batch retried exactly once; otherwise
  the replica is degraded and the batch served from the fallback.
- **probe** — every ``probe_every_batches`` dispatches; a failed probe
  degrades the replica.  A degraded replica serves every batch from the
  fallback — typically :meth:`~repro.runtime.guard.GuardedSpikingSystem.
  infer`, itself locked, probed, and never worse than the software twin.

:class:`ReplicaPool` owns the executors' lifecycle and the dispatchers.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.obs import Telemetry
from repro.serve.batcher import MicroBatch, MicroBatcher
from repro.serve.queue import ServerClosed


class WorkerDied(RuntimeError):
    """The executor is gone: its worker exited, or hung past its timeout."""


class Executor:
    """Where a replica's rows run: the contract every executor implements.

    :meth:`run_rows` raises :class:`WorkerDied` when the executor is
    gone; any other exception is a compute error.  All other methods
    default to an in-process executor that cannot die.  ``engine``
    answers ``stats``, ``runtime_stats()`` and ``active_backend``; ``pid``
    is the worker process id (``None`` in-process).
    """

    engine = None
    pid: Optional[int] = None

    def run_rows(self, images: np.ndarray) -> np.ndarray:
        """Logits of ``images``, one row each."""
        raise NotImplementedError

    def submit(self, images: np.ndarray) -> Callable[[], np.ndarray]:
        """Start running ``images``; the returned call blocks for their
        logits.  In-process rows run here and now, in the caller's thread."""
        logits = self.run_rows(images)
        return lambda: logits

    def spawn(self) -> None:
        """Begin starting up; a pool spawns every executor, then awaits all."""

    def await_ready(self) -> None:
        """Block until :meth:`spawn`'s start-up has finished."""

    def alive(self) -> bool:
        """Whether the executor can run rows now."""
        return True

    def restart(self) -> bool:
        """Replace a dead executor; ``False`` when it cannot be replaced."""
        return False

    def stop(self) -> None:
        """Release whatever the executor holds (idempotent)."""


class EngineExecutor(Executor):
    """Runs rows on an in-process engine, at their exact row count.

    Only a single request larger than ``batch_rows`` is split, into
    ``batch_rows`` chunks; nothing is padded.  A row's logits do not
    depend on how many rows share its run, so the split never changes an
    answer.  Tracing attaches forward hooks to the shared module, so a
    planless engine (tracing, or graph-only) runs under ``trace_lock``,
    shared by the executors of one module; plan replay takes no lock.
    """

    def __init__(self, engine, batch_rows: int = 128,
                 trace_lock: Optional[threading.Lock] = None) -> None:
        if batch_rows < 1:
            raise ValueError(f"batch_rows must be >= 1, got {batch_rows}")
        self.engine = engine
        self.batch_rows = batch_rows
        self._trace_lock = trace_lock or threading.Lock()

    def run_rows(self, images: np.ndarray) -> np.ndarray:
        """The engine's logits of ``images``, chunked to ``batch_rows``."""
        rows = len(images)
        if rows <= self.batch_rows:
            return self._engine_call(images)
        return np.concatenate([
            self._engine_call(images[start : start + self.batch_rows])
            for start in range(0, rows, self.batch_rows)
        ], axis=0)

    def _engine_call(self, array: np.ndarray) -> np.ndarray:
        if self.engine.plan is None:
            with self._trace_lock:
                return self.engine.run(array)
        return self.engine.run(array)


def engine_executors(engine_factory: Callable[[], object], workers: int,
                     batch_rows: int = 128) -> List[EngineExecutor]:
    """``workers`` in-process executors, one engine each, one trace lock."""
    trace_lock = threading.Lock()
    return [EngineExecutor(engine_factory(), batch_rows, trace_lock)
            for _ in range(workers)]


@dataclass
class ReplicaStats:
    """Operational counters of one replica (scraped into server stats)."""

    batches: int = 0
    rows: int = 0
    fallback_batches: int = 0
    engine_failures: int = 0
    probes_run: int = 0
    probes_failed: int = 0
    restarts: int = 0
    degraded: bool = False


#: per-replica counters: stats key → (metric name, help).
_REPLICA_COUNTERS = {
    "batches": ("serve_replica_batches_total", "Micro-batches served, by replica"),
    "rows": ("serve_replica_rows_total", "Image rows served, by replica"),
    "fallback_batches": ("serve_fallback_batches_total", "Micro-batches served by the fallback path"),
    "engine_failures": ("serve_engine_failures_total", "Engine exceptions caught while serving"),
    "restarts": ("serve_worker_restarts_total", "Executors restarted after dying"),
}


class Replica:
    """One executor plus the serving policy around it."""

    #: consecutive compute errors before a replica condemns itself.
    MAX_CONSECUTIVE_FAILURES = 3

    def __init__(self, index: int, executor: Executor,
                 fallback: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 health_probe: Optional[Callable[[Executor], bool]] = None,
                 probe_every_batches: int = 0, max_restarts: int = 0,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.index = index
        self.executor = executor
        self.fallback = fallback
        self.health_probe = health_probe
        self.probe_every_batches = probe_every_batches
        self.max_restarts = max_restarts
        self.telemetry = telemetry
        self.stats = ReplicaStats()
        self._consecutive_failures = 0
        # Instruments resolved once; the replica label keeps per-worker
        # series while sums across replicas give the pool-wide view.
        if telemetry is not None:
            registry = telemetry.registry
            self._obs = {
                key: registry.counter(name, help=text, replica=str(index))
                for key, (name, text) in _REPLICA_COUNTERS.items()
            }
            self._obs_degraded = registry.gauge(
                "serve_replica_degraded",
                help="1 while the replica serves from its fallback path",
                replica=str(index))

    @property
    def engine(self):
        """The executor's engine (its counters feed replica stats)."""
        return self.executor.engine

    def _obs_inc(self, key: str, amount: float = 1) -> None:
        if self.telemetry is not None:
            self._obs[key].inc(amount)

    # -- serving ------------------------------------------------------------
    def serve(self, batch: MicroBatch) -> None:
        """Run one micro-batch and complete its futures (never raises)."""
        if self.telemetry is None:
            self._serve(batch)
            return
        with self.telemetry.tracer.span(
            "replica.serve", replica=self.index, rows=batch.rows,
        ):
            self._serve(batch)

    def _serve(self, batch: MicroBatch) -> None:
        self.stats.batches += 1
        self.stats.rows += batch.rows
        self._obs_inc("batches")
        self._obs_inc("rows", batch.rows)
        if self._probe_due():
            self.run_probe()
        if self.stats.degraded:
            self._serve_fallback(batch)
            return
        try:
            logits = self._attempt(self.executor.run_rows, batch.images)
        except WorkerDied:
            self._set_degraded()
            self._serve_fallback(batch)
            return
        except Exception as error:
            self.stats.engine_failures += 1
            self._obs_inc("engine_failures")
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.MAX_CONSECUTIVE_FAILURES:
                self._set_degraded()
            self._serve_fallback(batch, error)
            return
        self._consecutive_failures = 0
        batch.scatter(logits)

    def _attempt(self, call: Callable, *args):
        """``call(*args)``; when the executor dies, restart it (within
        ``max_restarts``) and retry exactly once."""
        try:
            return call(*args)
        except WorkerDied:
            if not self._restart():
                raise
        return call(*args)

    def _restart(self) -> bool:
        if self.stats.restarts >= self.max_restarts:
            return False
        self.stats.restarts += 1
        self._obs_inc("restarts")
        return self.executor.restart()

    def _set_degraded(self) -> None:
        self.stats.degraded = True
        if self.telemetry is not None:
            self._obs_degraded.set(1.0)

    def _serve_fallback(self, batch: MicroBatch,
                        error: Optional[BaseException] = None) -> None:
        """Answer from the fallback; without one, fail with ``error``."""
        if self.fallback is None:
            batch.fail(error or RuntimeError(
                f"replica {self.index} is degraded and has no fallback path"))
            return
        self.stats.fallback_batches += 1
        self._obs_inc("fallback_batches")
        try:
            batch.scatter(np.asarray(self.fallback(batch.images)))
        except Exception as error:  # surfaced on every member future
            batch.fail(error)

    # -- health -------------------------------------------------------------
    def _probe_due(self) -> bool:
        return (self.health_probe is not None and self.probe_every_batches > 0
                and not self.stats.degraded
                and self.stats.batches % self.probe_every_batches == 0)

    def run_probe(self) -> bool:
        """Run the health probe now; degrade the replica on failure.

        A probe that finds the executor dead restarts it and probes again,
        exactly as a batch is retried; a probe that raises has failed.
        """
        if self.health_probe is None:
            return True
        self.stats.probes_run += 1
        try:
            healthy = bool(self._attempt(self.health_probe, self.executor))
        except Exception:
            healthy = False
        if not healthy:
            self.stats.probes_failed += 1
            self._set_degraded()
        return healthy


@dataclass
class PoolStats:
    """Aggregate view over every replica (plus per-replica detail)."""

    workers: int = 0
    batches: int = 0
    rows: int = 0
    fallback_batches: int = 0
    engine_failures: int = 0
    degraded_replicas: int = 0
    replicas: List[dict] = field(default_factory=list)


def _available_cores() -> int:
    """Cores this process may schedule on (affinity-aware where possible)."""
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return max(os.cpu_count() or 1, 1)


class ReplicaPool:
    """Drive one replica per executor from one shared :class:`MicroBatcher`.

    Every executor is spawned before any is awaited; then one dispatcher
    thread per replica pulls micro-batches.  At most ``compute_slots =
    min(workers, available cores)`` replicas *execute* at once: more
    concurrent runs than cores just timeslice against each other and
    thrash caches, so surplus dispatchers park on a semaphore instead.
    """

    def __init__(self, executors: Sequence[Executor], batcher: MicroBatcher,
                 fallback: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 health_probe: Optional[Callable[[Executor], bool]] = None,
                 probe_every_batches: int = 0, max_restarts: int = 2,
                 telemetry: Optional[Telemetry] = None) -> None:
        workers = len(executors)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.batcher = batcher
        self.telemetry = telemetry
        self.compute_slots = min(workers, _available_cores())
        self._compute = threading.BoundedSemaphore(self.compute_slots)
        self.replicas = [
            Replica(i, executor, fallback, health_probe, probe_every_batches,
                    max_restarts, telemetry)
            for i, executor in enumerate(executors)
        ]
        if telemetry is not None:
            registry = telemetry.registry
            registry.gauge("serve_pool_workers", help="Replica workers in the pool").set(workers)
            registry.gauge("serve_compute_slots",
                           help="Replicas allowed to execute concurrently").set(self.compute_slots)
            self._obs_processes = registry.gauge(
                "serve_pool_processes",
                help="Worker processes backing the pool (0 = thread pool)")
        # Guards the lifecycle state below.  Dispatcher threads never take
        # it, so joining them while holding it cannot deadlock.
        self._lifecycle_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._spawned = False
        self._started = False
        self._closed = False

    # -- lifecycle ----------------------------------------------------------
    def _spawn_locked(self) -> None:
        """Start every executor, then await them all (idempotent); on a
        failure every executor is stopped before it is raised."""
        if self._closed:
            raise ServerClosed("replica pool is closed")
        if self._spawned:
            return
        executors = [replica.executor for replica in self.replicas]
        try:
            for executor in executors:
                executor.spawn()
            for executor in executors:
                executor.await_ready()
        except BaseException:
            for executor in executors:
                executor.stop()
            raise
        self._spawned = True
        if self.telemetry is not None:
            self._obs_processes.set(len(self.worker_pids()))

    def start(self) -> None:
        """Start the executors and one dispatcher thread per replica
        (idempotent; raises :class:`ServerClosed` after :meth:`close`)."""
        with self._lifecycle_lock:
            if self._started:
                return
            self._spawn_locked()
            self._started = True
            for replica in self.replicas:
                thread = threading.Thread(target=self._dispatch_loop, args=(replica,),
                                          name=f"repro-serve-replica-{replica.index}",
                                          daemon=True)
                self._threads.append(thread)
                thread.start()

    def warmup(self, sample: np.ndarray) -> None:
        """Trace every replica's plan before serving traffic, submitting
        ``sample`` to every executor before awaiting any.  In-process engines
        trace in the calling thread: a short-lived thread would keep its
        malloc arena and raise the process's peak memory.

        Every submitted run is awaited before the first failure is raised,
        so no run is still in flight when the caller stops the executors.
        """
        with self._lifecycle_lock:
            self._spawn_locked()
        waits, failures = [], []
        for replica in self.replicas:
            try:
                waits.append(replica.executor.submit(sample))
            except Exception as error:
                failures.append(error)
        for wait in waits:
            try:
                wait()
            except Exception as error:
                failures.append(error)
        if failures:
            raise failures[0]

    def _dispatch_loop(self, replica: Replica) -> None:
        while True:
            # The compute slot is taken *before* pulling: surplus
            # dispatchers (workers > slots) park on the semaphore fully
            # idle instead of forming batches that then wait on compute —
            # on an oversubscribed host that churn steals the GIL from
            # the replica actually running.
            with self._compute:
                batch = self.batcher.next_batch()
                if batch is None:  # queue closed and drained
                    return
                replica.serve(batch)

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool; with ``drain`` the queue is flushed first.

        The queue is closed *before* the no-drain failure sweep, so a
        racing submit either lands before the close (and is failed by the
        sweep) or is rejected with :class:`ServerClosed` at admission.
        Then dispatchers drain and exit, and only then do the executors
        stop, never under an in-flight batch.  Idempotent and safe to call
        concurrently; dispatchers release their compute slot exactly once.
        """
        queue = self.batcher.queue
        queue.close()
        if not drain:
            # Fail whatever was still queued when the door shut.
            while True:
                request = queue.pop_nowait()
                if request is None:
                    break
                request.future.set_exception(
                    ServerClosed("server closed without draining")
                )
        with self._lifecycle_lock:
            self._closed = True
            for thread in self._threads:
                thread.join(timeout)
            self._threads = []
            self._started = False
            for replica in self.replicas:
                replica.executor.stop()

    # -- observability ------------------------------------------------------
    def worker_pids(self) -> List[int]:
        """Pids of the worker processes behind the replicas (an in-process
        executor has none)."""
        return [replica.executor.pid for replica in self.replicas
                if replica.executor.pid is not None]

    def stats(self) -> PoolStats:
        """Aggregate counters across replicas (point-in-time snapshot)."""
        replicas = [{
            "index": replica.index,
            "pid": replica.executor.pid,
            "alive": replica.executor.alive(),
            **asdict(replica.stats),
            "backend": getattr(replica.engine, "active_backend", "unknown"),
        } for replica in self.replicas]

        def total(key: str) -> int:
            return sum(int(detail[key]) for detail in replicas)

        return PoolStats(len(replicas), total("batches"), total("rows"),
                         total("fallback_batches"), total("engine_failures"),
                         total("degraded"), replicas)
