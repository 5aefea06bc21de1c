"""Engine replica pool: N worker threads, each owning one compiled engine.

Each :class:`Replica` holds its **own** :class:`~repro.runtime.engine.
InferenceEngine` — execution plans and buffer pools are per-replica, so
the hot path shares no mutable state between workers (the deployed
module's weights are shared, but only read).  The numpy GEMMs that
dominate plan replay release the GIL, so replicas genuinely overlap on
multicore hosts.

Two extra behaviours production demands:

- **degraded mode** — every ``probe_every_batches`` dispatches a replica
  runs its health probe; a tripped probe (or repeated engine failures)
  flips the replica to the fallback path — typically
  :meth:`~repro.runtime.guard.GuardedSpikingSystem.infer`, which is
  itself internally locked, probed, and never worse than the software
  twin.  A replica with no fallback fails the batch instead.
- **graceful drain** — :meth:`ReplicaPool.close` with ``drain=True``
  stops admissions but keeps workers pulling until the queue is empty,
  so every in-flight and queued request gets an answer before the
  threads exit.

Tracing is serialized across replicas: ``compile_plan`` attaches forward
hooks to the (shared) module while tracing, so only one replica may
trace at a time; steady-state replay never touches the module's hooks.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.obs import Telemetry
from repro.serve.batcher import MicroBatch, MicroBatcher
from repro.serve.queue import ServerClosed


@dataclass
class ReplicaStats:
    """Operational counters of one replica (scraped into server stats)."""

    batches: int = 0
    rows: int = 0
    fallback_batches: int = 0
    engine_failures: int = 0
    probes_run: int = 0
    probes_failed: int = 0
    degraded: bool = False


class Replica:
    """One worker: a private engine plus the shared fallback path."""

    #: consecutive engine failures before a replica condemns itself.
    MAX_CONSECUTIVE_FAILURES = 3

    def __init__(
        self,
        index: int,
        engine,
        fallback: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        health_probe: Optional[Callable[[], bool]] = None,
        probe_every_batches: int = 0,
        trace_lock: Optional[threading.Lock] = None,
        batch_rows: int = 128,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if batch_rows < 1:
            raise ValueError(f"batch_rows must be >= 1, got {batch_rows}")
        self.index = index
        self.engine = engine
        self.fallback = fallback
        self.health_probe = health_probe
        self.probe_every_batches = probe_every_batches
        self.batch_rows = batch_rows
        self.telemetry = telemetry
        self.stats = ReplicaStats()
        self._trace_lock = trace_lock or threading.Lock()
        self._consecutive_failures = 0
        # Instruments resolved once; the replica label keeps per-worker
        # series while sums across replicas give the pool-wide view.
        if telemetry is not None:
            registry = telemetry.registry
            label = str(index)
            self._obs = {
                "batches": registry.counter(
                    "serve_replica_batches_total",
                    help="Micro-batches served, by replica", replica=label),
                "rows": registry.counter(
                    "serve_replica_rows_total",
                    help="Image rows served, by replica", replica=label),
                "fallback_batches": registry.counter(
                    "serve_fallback_batches_total",
                    help="Micro-batches served by the fallback path",
                    replica=label),
                "engine_failures": registry.counter(
                    "serve_engine_failures_total",
                    help="Engine exceptions caught while serving",
                    replica=label),
            }
            self._obs_degraded = registry.gauge(
                "serve_replica_degraded",
                help="1 while the replica serves from its fallback path",
                replica=label)

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
            logits = self._engine_run(batch.images)
        except Exception as error:
            self.stats.engine_failures += 1
            self._obs_inc("engine_failures")
            self._consecutive_failures += 1
            if self._consecutive_failures >= self.MAX_CONSECUTIVE_FAILURES:
                self._set_degraded()
            if self.fallback is not None:
                self._serve_fallback(batch)
            else:
                batch.fail(error)
            return
        self._consecutive_failures = 0
        batch.scatter(logits)

    def _set_degraded(self) -> None:
        self.stats.degraded = True
        if self.telemetry is not None:
            self._obs_degraded.set(1.0)

    def _engine_run(self, images: np.ndarray) -> np.ndarray:
        """Run ``images`` through the engine at their exact row count.

        A batch is one engine call of exactly its rows; only a single
        request larger than ``batch_rows`` is split into ``batch_rows``
        chunks.  Nothing is padded: the plan's
        :class:`~repro.runtime.plan.BufferPool` sizes every workspace once
        for the largest batch and serves smaller row counts from views of
        it, and a row's logits do not depend on how many rows share its
        run (integer GEMMs plus the row-invariant float linear), so the
        split never changes an answer.
        """
        rows = len(images)
        if rows <= self.batch_rows:
            return self._engine_call(images)
        return np.concatenate([
            self._engine_call(images[start : start + self.batch_rows])
            for start in range(0, rows, self.batch_rows)
        ], axis=0)

    def _engine_call(self, array: np.ndarray) -> np.ndarray:
        if self.engine.plan is None:
            # Tracing attaches forward hooks to the (shared) module: one
            # replica at a time.  Engines that stay planless (graph-only
            # fallback) keep serializing here, which is safe — the graph
            # executor walks the shared module's hook lists.
            with self._trace_lock:
                return self.engine.run(array)
        return self.engine.run(array)

    def _serve_fallback(self, batch: MicroBatch) -> None:
        if self.fallback is None:
            batch.fail(RuntimeError(
                f"replica {self.index} is degraded and has no fallback path"
            ))
            return
        self.stats.fallback_batches += 1
        self._obs_inc("fallback_batches")
        try:
            batch.scatter(np.asarray(self.fallback(batch.images)))
        except Exception as error:
            batch.fail(error)

    # -- health -------------------------------------------------------------
    def _probe_due(self) -> bool:
        if self.probe_every_batches <= 0 or self.health_probe is None:
            return False
        if self.stats.degraded:
            return False
        return self.stats.batches % self.probe_every_batches == 0

    def run_probe(self) -> bool:
        """Run the health probe now; trip degraded mode on failure."""
        if self.health_probe is None:
            return True
        self.stats.probes_run += 1
        try:
            healthy = bool(self.health_probe())
        except Exception:
            healthy = False
        if not healthy:
            self.stats.probes_failed += 1
            self._set_degraded()
        return healthy

    def run_rows(self, images: np.ndarray) -> np.ndarray:
        """Run rows through the engine with the pool's chunking policy.

        The public face of :meth:`_engine_run`: process-pool workers call
        this so their engine sees exactly the row counts a thread
        replica's would — the cross-process conformance suite compares
        the two byte for byte.
        """
        return self._engine_run(images)

    def warmup(self, sample: np.ndarray) -> None:
        """Trace this replica's plan outside the serving path."""
        self._engine_run(sample)


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
    """Drive N replicas from one shared :class:`MicroBatcher`.

    ``compute_slots`` bounds how many replicas *execute* at once
    (batch formation still overlaps freely).  It defaults to
    ``min(workers, available cores)``: engine GEMMs release the GIL, so
    more concurrent runs than cores just timeslice against each other
    and thrash caches — on an oversubscribed host the semaphore keeps
    per-run working sets hot instead.
    """

    def __init__(
        self,
        engine_factory: Callable[[], object],
        batcher: MicroBatcher,
        workers: int = 4,
        fallback: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        health_probe: Optional[Callable[[], bool]] = None,
        probe_every_batches: int = 0,
        compute_slots: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if compute_slots is not None and compute_slots < 1:
            raise ValueError(f"compute_slots must be >= 1, got {compute_slots}")
        self.batcher = batcher
        self.telemetry = telemetry
        self.compute_slots = compute_slots or min(workers, _available_cores())
        self._compute = threading.BoundedSemaphore(self.compute_slots)
        trace_lock = threading.Lock()
        self.replicas = [
            Replica(
                index=i,
                engine=engine_factory(),
                fallback=fallback,
                health_probe=health_probe,
                probe_every_batches=probe_every_batches,
                trace_lock=trace_lock,
                batch_rows=batcher.batch_size,
                telemetry=telemetry,
            )
            for i in range(workers)
        ]
        if telemetry is not None:
            telemetry.registry.gauge(
                "serve_pool_workers", help="Replica workers in the pool",
            ).set(workers)
            telemetry.registry.gauge(
                "serve_compute_slots",
                help="Replicas allowed to execute concurrently",
            ).set(self.compute_slots)
        # Guards the start/close lifecycle state below.  Worker threads
        # never take it, so joining them while holding it cannot deadlock.
        self._lifecycle_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._started = False

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Spawn one daemon worker thread per replica (idempotent)."""
        with self._lifecycle_lock:
            if self._started:
                return
            self._started = True
            for replica in self.replicas:
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(replica,),
                    name=f"repro-serve-replica-{replica.index}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()

    def warmup(self, sample: np.ndarray) -> None:
        """Trace every replica's plan before serving traffic."""
        for replica in self.replicas:
            replica.warmup(sample)

    def _worker_loop(self, replica: Replica) -> None:
        while True:
            # The compute slot is taken *before* pulling: surplus workers
            # (workers > slots) park on the semaphore fully idle instead
            # of forming batches that then wait on compute — on an
            # oversubscribed host that churn steals the GIL from the
            # replica actually running.
            with self._compute:
                batch = self.batcher.next_batch()
                if batch is None:  # queue closed and drained
                    return
                replica.serve(batch)

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool; with ``drain`` the queue is flushed first.

        The queue is closed *before* the no-drain failure sweep: closing
        first means a submit racing with ``close`` either lands before
        the close (and is failed by the sweep) or is rejected with
        :class:`ServerClosed` at admission — it can never slip in after
        the sweep and be served against ``drain=False`` semantics.
        Idempotent and safe to call concurrently; worker threads release
        their compute slot exactly once on exit regardless of whether a
        health probe was in flight when the queue closed.
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
            threads, self._threads = self._threads, []
            self._started = False
        for thread in threads:
            thread.join(timeout)

    # -- observability ------------------------------------------------------
    def stats(self) -> PoolStats:
        """Aggregate counters across replicas (point-in-time snapshot)."""
        aggregate = PoolStats(workers=len(self.replicas))
        for replica in self.replicas:
            stats = replica.stats
            aggregate.batches += stats.batches
            aggregate.rows += stats.rows
            aggregate.fallback_batches += stats.fallback_batches
            aggregate.engine_failures += stats.engine_failures
            aggregate.degraded_replicas += int(stats.degraded)
            detail = {
                "index": replica.index,
                "batches": stats.batches,
                "rows": stats.rows,
                "fallback_batches": stats.fallback_batches,
                "engine_failures": stats.engine_failures,
                "probes_run": stats.probes_run,
                "probes_failed": stats.probes_failed,
                "degraded": stats.degraded,
                "backend": getattr(replica.engine, "active_backend", "unknown"),
            }
            aggregate.replicas.append(detail)
        return aggregate
