"""Multi-process replica pool: one engine per worker *process*.

BENCH_PR4 showed the threaded :class:`~repro.serve.pool.ReplicaPool` is
serialized by the interpreter, not by compute — adding workers bought
nothing.  This pool moves each replica into its own OS process so plan
replay runs on a private interpreter, and keeps the serving contract
(bit-exact scatter, degraded-mode fallback, graceful drain) intact:

- **spec, not factory** — a worker is built from a picklable
  :class:`WorkerSpec` (the deployed module's bytes plus engine-config
  overrides); every worker traces its own
  :class:`~repro.runtime.engine.InferenceEngine` plan and owns its own
  buffer pools.
- **shared-memory data plane** — the dispatcher leases a
  generation-tagged range from the :class:`~repro.serve.shm.
  SlabAllocator`, copies the micro-batch rows in once, and the worker
  reads them as a zero-copy numpy view; logits come back through the
  worker's private :class:`~repro.serve.shm.SpscRing`.  Only tiny
  descriptors cross the control pipe — activations are never pickled.
- **health folded into the guard path** — a heartbeat rides on every
  reply; every ``probe_every_batches`` dispatches the worker must also
  reproduce the expected logits of a functional probe vector (same
  in-range random-stimulus idea as :mod:`repro.snc.diagnosis`; a
  hardware fault there and a corrupted worker here are the same failure
  class).  A dead worker is respawned up to ``max_restarts`` times; a
  worker that stays dead, or fails its probe, demotes to the in-process
  guarded fallback — requests keep being answered, bit-exactly, just
  slower.
- **no lost or duplicated responses** — an in-flight batch whose worker
  dies is retried exactly once through the restarted worker or the
  fallback; futures complete once (first completion wins), and the
  batch's lease is recycled only after the reply or the death
  certificate, so shared memory can never be scribbled mid-read.

The pool plugs in behind :class:`~repro.serve.server.ModelServer` as
``ServeConfig(pool="process")``; the admission queue and micro-batcher
are exactly the ones the thread pool uses.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import SYSTEM_CLOCK, Telemetry
from repro.obs.clock import Clock
from repro.serve.batcher import MicroBatch, MicroBatcher
from repro.serve.pool import PoolStats, Replica
from repro.serve.queue import ServerClosed
from repro.serve.shm import ShmLease, SlabAllocator, SpscRing, attach_segment

__all__ = [
    "WorkerSpec",
    "WorkerDied",
    "WorkerComputeError",
    "ProcessWorker",
    "ProcessReplicaPool",
]

#: substream token for functional probe vectors (see snc/diagnosis).
PROBE_TOKEN = "serve.procpool.probe"


class WorkerDied(RuntimeError):
    """The worker process exited (or hung past the timeout) mid-protocol."""


class WorkerComputeError(RuntimeError):
    """The worker's engine raised while serving a batch."""


@dataclass
class WorkerSpec:
    """Everything a worker process needs to rebuild its replica.

    ``model_blob`` is the pickled deployed module (hooks dropped, eval
    mode); ``engine_overrides`` feed the worker's
    :class:`~repro.runtime.engine.EngineConfig`; ``batch_rows`` is the
    chunk size an oversized request is split into, the same as a thread
    replica's, so worker logits are bit-identical to a thread replica's.
    Build one with :meth:`for_module`.
    """

    model_blob: bytes
    engine_overrides: Dict[str, object] = field(default_factory=dict)
    batch_rows: int = 128
    ring_bytes: int = 1 << 20

    @classmethod
    def for_module(cls, deployed, batch_rows: int = 128,
                   ring_bytes: int = 1 << 20, **engine_overrides) -> "WorkerSpec":
        """Spec a worker for a deployed module (hooks cloned away).

        ``engine_overrides`` mirror :func:`~repro.core.deployment.
        make_inference_engine` keywords (``int_path``, ``dtype`` …) so
        thread and process pools select kernels the same way.
        """
        from repro.core.surgery import clone_module  # lazy: core sits below serve

        twin = clone_module(deployed)
        twin.eval()
        return cls(
            model_blob=pickle.dumps(twin, protocol=4),
            engine_overrides=dict(engine_overrides),
            batch_rows=batch_rows,
            ring_bytes=ring_bytes,
        )

    def build_replica(self, index: int = 0,
                      telemetry: Optional[Telemetry] = None) -> Replica:
        """Materialize the replica (worker side, or the parent fallback)."""
        from repro.runtime.engine import EngineConfig, InferenceEngine

        module = pickle.loads(self.model_blob)
        engine = InferenceEngine(module, EngineConfig(**self.engine_overrides),
                                 telemetry=telemetry)
        return Replica(index=index, engine=engine, batch_rows=self.batch_rows)


def _worker_main(spec_bytes: bytes, conn, ring_name: str) -> None:  # pragma: no cover — runs only in spawned workers
    """Worker-process entry point: serve descriptors until told to stop.

    Protocol (tuples over the duplex pipe; payloads in shared memory):

    - ``("run", seq, descriptor, shape)`` → run the leased rows through
      the replica; reply ``("ok", seq, out_shape)`` after writing the
      float64 logits into the ring, or ``("err", seq, repr)``.
    - ``("ping", seq)`` → ``("pong", seq)`` (heartbeat).
    - ``("stop",)`` → ``("bye",)`` and exit.

    The worker never creates segments — it attaches to the parent's
    slabs read-only-by-convention and to its private result ring as the
    sole writer.
    """
    spec: WorkerSpec = pickle.loads(spec_bytes)
    replica = spec.build_replica()
    ring = SpscRing.attach(ring_name)
    segments: Dict[str, object] = {}
    conn.send(("ready", os.getpid()))
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:  # parent vanished; nothing left to answer
                break
            kind = message[0]
            if kind == "stop":
                conn.send(("bye",))
                break
            if kind == "ping":
                conn.send(("pong", message[1]))
                continue
            _, seq, descriptor, shape = message
            _lease_id, _generation, segment_name, offset, _nbytes = descriptor
            segment = segments.get(segment_name)
            if segment is None:
                segment = attach_segment(segment_name)
                segments[segment_name] = segment
            rows = np.ndarray(tuple(shape), dtype=np.float64,
                              buffer=segment.buf, offset=offset)
            try:
                logits = np.ascontiguousarray(
                    replica.run_rows(rows), dtype=np.float64)
            except Exception as error:  # reported to the parent, never fatal
                conn.send(("err", seq, repr(error)))
                continue
            ring.write(logits.tobytes())
            conn.send(("ok", seq, logits.shape))
    finally:
        ring.close()
        for segment in segments.values():
            segment.close()
        conn.close()


@dataclass
class _WorkerStats:
    """Parent-side operational counters for one worker process."""

    batches: int = 0
    rows: int = 0
    fallback_batches: int = 0
    engine_failures: int = 0
    probes_run: int = 0
    probes_failed: int = 0
    restarts: int = 0
    degraded: bool = False


class ProcessWorker:
    """Parent-side handle: process + control pipe + result ring + seq."""

    def __init__(self, index: int, spec: WorkerSpec, context,
                 clock: Clock = SYSTEM_CLOCK,
                 spawn_timeout_s: float = 120.0) -> None:
        self.index = index
        self.spec = spec
        self.stats = _WorkerStats()
        self._context = context
        self._clock = clock
        self._spawn_timeout_s = spawn_timeout_s
        self._seq = 0
        self.process = None
        self.conn = None
        self.ring: Optional[SpscRing] = None
        self.pid: Optional[int] = None

    # -- lifecycle ----------------------------------------------------------
    def spawn(self) -> None:
        """Start (or restart) the worker process with a fresh pipe + ring.

        Does not wait for the worker: :meth:`await_ready` completes the
        handshake, so a pool can spawn every worker before awaiting any.
        """
        self._teardown_channels()
        self.ring = SpscRing.create(self.spec.ring_bytes, clock=self._clock)
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        self.conn = parent_conn
        process = self._context.Process(
            target=_worker_main,
            args=(pickle.dumps(self.spec, protocol=4), child_conn, self.ring.name),
            name=f"repro-serve-proc-{self.index}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            child_conn.close()
        self.process = process

    def await_ready(self) -> None:
        """Block until the spawned worker reports ready (or raise
        :class:`WorkerDied`)."""
        kind, payload = self._recv(timeout_s=self._spawn_timeout_s)
        if kind != "ready":
            raise WorkerDied(f"worker {self.index} failed to report ready: {kind}")
        self.pid = payload

    def _teardown_channels(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.ring is not None:
            self.ring.close()
            self.ring = None

    def alive(self) -> bool:
        """Whether the worker process is currently running."""
        return self.process is not None and self.process.is_alive()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Politely stop the worker; escalate to kill on a hang."""
        if self.process is None:
            self._teardown_channels()
            return
        if self.alive() and self.conn is not None:
            try:
                self.conn.send(("stop",))
                deadline = self._clock() + timeout_s
                while self.conn.poll(0.05):
                    if self.conn.recv()[0] == "bye":
                        break
                    if self._clock() >= deadline:
                        break
            except (BrokenPipeError, EOFError, OSError) as error:
                self.last_stop_error = error  # already dying; join below anyway
        self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout_s)
        self._teardown_channels()
        self.process = None
        self.pid = None

    # -- request path -------------------------------------------------------
    def run(self, lease: ShmLease, shape: Tuple[int, ...],
            timeout_s: float) -> np.ndarray:
        """Send one leased batch; block for its logits.

        Raises :class:`WorkerDied` if the process exits or stalls past
        ``timeout_s`` (a stalled worker is killed first, so the lease is
        safe to recycle the moment this raises), and
        :class:`WorkerComputeError` if the worker's engine raised.
        """
        return self.collect(self.submit(lease, shape), timeout_s)

    def submit(self, lease: ShmLease, shape: Tuple[int, ...]) -> int:
        """Send one leased batch without waiting; returns its sequence
        number for :meth:`collect`.  The lease must stay held until then."""
        self._seq += 1
        seq = self._seq
        try:
            self.conn.send(("run", seq, lease.descriptor(), tuple(shape)))
        except (BrokenPipeError, OSError) as error:
            self._reap()
            raise WorkerDied(f"worker {self.index} pipe broke: {error}") from error
        return seq

    def collect(self, seq: int, timeout_s: float) -> np.ndarray:
        """Block for the logits of the batch :meth:`submit` sent as ``seq``
        (raises as :meth:`run` does)."""
        kind, rseq, payload = self._recv_run(timeout_s)
        if rseq != seq:
            self._kill()
            raise WorkerDied(
                f"worker {self.index} answered seq {rseq} for request {seq}"
            )
        if kind == "err":
            raise WorkerComputeError(
                f"worker {self.index} engine failed: {payload}"
            )
        out_shape = tuple(payload)
        nbytes = int(np.prod(out_shape)) * 8
        data = self.ring.read(nbytes, timeout_s=timeout_s)
        return np.frombuffer(data, dtype=np.float64).reshape(out_shape)

    def ping(self, timeout_s: float = 10.0) -> bool:
        """Heartbeat: does the worker still answer its control pipe?"""
        if not self.alive():
            return False
        self._seq += 1
        try:
            self.conn.send(("ping", self._seq))
            kind, payload = self._recv(timeout_s)
        except (WorkerDied, BrokenPipeError, EOFError, OSError):
            return False
        return kind == "pong" and payload == self._seq

    # -- plumbing -----------------------------------------------------------
    def _recv(self, timeout_s: float) -> tuple:
        deadline = self._clock() + timeout_s
        while not self.conn.poll(0.05):
            if not self.alive():
                self._reap()
                raise WorkerDied(f"worker {self.index} exited mid-protocol")
            if self._clock() >= deadline:
                self._kill()
                raise WorkerDied(
                    f"worker {self.index} unresponsive for {timeout_s}s; killed"
                )
        try:
            message = self.conn.recv()
        except (EOFError, OSError) as error:  # SIGKILL → reset, exit → EOF
            self._reap()
            raise WorkerDied(f"worker {self.index} closed its pipe") from error
        if len(message) == 1:
            return message[0], None
        return message[0], message[1]

    def _recv_run(self, timeout_s: float) -> tuple:
        deadline = self._clock() + timeout_s
        while not self.conn.poll(0.05):
            if not self.alive():
                self._reap()
                raise WorkerDied(f"worker {self.index} died mid-batch")
            if self._clock() >= deadline:
                self._kill()
                raise WorkerDied(
                    f"worker {self.index} stalled {timeout_s}s mid-batch; killed"
                )
        try:
            message = self.conn.recv()
        except (EOFError, OSError) as error:  # SIGKILL → reset, exit → EOF
            self._reap()
            raise WorkerDied(f"worker {self.index} died mid-batch") from error
        return message[0], message[1], message[2] if len(message) > 2 else None

    def _reap(self) -> None:
        if self.process is not None:
            self.process.join(5.0)

    def _kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        self._reap()


class ProcessReplicaPool:
    """Drive N worker processes from one shared :class:`MicroBatcher`.

    Interface-compatible with :class:`~repro.serve.pool.ReplicaPool`
    (``start``/``warmup``/``close``/``stats``), so
    :class:`~repro.serve.server.ModelServer` swaps pools by config.  One
    parent dispatcher thread per worker pulls micro-batches, scatters
    rows into shm leases, and blocks on the worker's reply — the heavy
    numerics run GIL-free in the worker processes.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        batcher: MicroBatcher,
        workers: int = 4,
        fallback: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        probe_every_batches: int = 0,
        probe_rows: int = 4,
        max_restarts: int = 2,
        worker_timeout_s: float = 60.0,
        mp_start_method: str = "spawn",
        slab_bytes: Optional[int] = None,
        max_slabs: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if worker_timeout_s <= 0:
            raise ValueError(
                f"worker_timeout_s must be positive, got {worker_timeout_s}"
            )
        import multiprocessing

        self.spec = spec
        self.batcher = batcher
        self.workers = workers
        self.fallback = fallback
        self.probe_every_batches = probe_every_batches
        self.probe_rows = probe_rows
        self.max_restarts = max_restarts
        self.worker_timeout_s = worker_timeout_s
        self.telemetry = telemetry
        self.clock: Clock = clock if clock is not None else (
            telemetry.clock if telemetry is not None else SYSTEM_CLOCK
        )
        self._context = multiprocessing.get_context(mp_start_method)
        self.compute_slots = workers  # one process ≡ one compute slot
        self.allocator = SlabAllocator(
            slab_bytes=slab_bytes if slab_bytes is not None else (8 << 20),
            max_slabs=max_slabs if max_slabs is not None else max(2 * workers, 4),
            telemetry=telemetry,
        )
        self._workers: List[ProcessWorker] = []
        self._local_replica: Optional[Replica] = None
        self._local_lock = threading.Lock()
        self._probe_images: Optional[np.ndarray] = None
        self._probe_expected: Optional[np.ndarray] = None
        # Guards the start/close lifecycle state below (same discipline —
        # and the same RL007 contract — as the thread pool).
        self._lifecycle_lock = threading.Lock()
        self._dispatchers: List[threading.Thread] = []
        self._started = False
        self._closed = False
        # Instrument families keyed by worker index; empty dicts when
        # telemetry is off so the hot path only ever checks one None.
        self._obs_restarts: dict = {}
        self._obs_depth: dict = {}
        self._obs_batches: dict = {}
        self._obs_rows: dict = {}
        self._obs_fallback: dict = {}
        if telemetry is not None:
            registry = telemetry.registry
            registry.gauge(
                "serve_pool_workers", help="Replica workers in the pool",
            ).set(workers)
            registry.gauge(
                "serve_pool_processes",
                help="Worker processes backing the pool (0 = thread pool)",
            ).set(workers)
            self._obs_restarts = {
                i: registry.counter(
                    "serve_worker_restarts_total",
                    help="Worker processes respawned after death",
                    replica=str(i))
                for i in range(workers)
            }
            self._obs_depth = {
                i: registry.gauge(
                    "serve_worker_queue_depth",
                    help="Batches in flight to the worker (0 or 1: SPSC)",
                    replica=str(i))
                for i in range(workers)
            }
            self._obs_batches = {
                i: registry.counter(
                    "serve_replica_batches_total",
                    help="Micro-batches served, by replica", replica=str(i))
                for i in range(workers)
            }
            self._obs_rows = {
                i: registry.counter(
                    "serve_replica_rows_total",
                    help="Image rows served, by replica", replica=str(i))
                for i in range(workers)
            }
            self._obs_fallback = {
                i: registry.counter(
                    "serve_fallback_batches_total",
                    help="Micro-batches served by the fallback path",
                    replica=str(i))
                for i in range(workers)
            }

    # -- lifecycle ----------------------------------------------------------
    def _ensure_workers_locked(self) -> None:
        if self._closed:
            raise ServerClosed("process pool is closed")
        fresh = [
            ProcessWorker(index=index, spec=self.spec, context=self._context,
                          clock=self.clock)
            for index in range(len(self._workers), self.workers)
        ]
        try:
            # Spawn every worker before awaiting any, so their interpreter
            # start-ups and engine builds overlap instead of queueing.
            for worker in fresh:
                worker.spawn()
            for worker in fresh:
                worker.await_ready()
        except BaseException:
            for worker in fresh:
                worker.stop()
            raise
        self._workers.extend(fresh)

    def start(self) -> None:
        """Spawn worker processes and their dispatcher threads (idempotent)."""
        with self._lifecycle_lock:
            if self._started:
                return
            self._ensure_workers_locked()
            self._started = True
            for worker in self._workers:
                thread = threading.Thread(
                    target=self._dispatch_loop,
                    args=(worker,),
                    name=f"repro-serve-dispatch-{worker.index}",
                    daemon=True,
                )
                self._dispatchers.append(thread)
                thread.start()

    def warmup(self, sample: np.ndarray) -> None:
        """Trace every worker's plan (and arm the probe reference).

        Runs the sample through each worker before traffic so tracing
        never happens on the serving path, then records the expected
        logits of the functional probe vectors from the in-process
        reference replica — the cross-process analogue of
        :func:`repro.snc.diagnosis.probe_array`'s functional probes.
        """
        sample = np.ascontiguousarray(sample, dtype=np.float64)
        with self._lifecycle_lock:
            self._ensure_workers_locked()
            workers = list(self._workers)
        self._run_on_all(workers, sample)
        if self.probe_every_batches > 0:
            self._arm_probe(sample)

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool; with ``drain`` the queue is flushed first.

        Shutdown order matters for the zero-leak guarantee: the queue
        closes (or is failed out), dispatchers drain and exit, workers
        stop, and only then are rings and slabs unlinked — at that point
        the lease table must be empty, and a crash-reclaimed remainder
        is force-released so no segment outlives the pool.
        """
        queue = self.batcher.queue
        queue.close()
        if not drain:
            while True:
                request = queue.pop_nowait()
                if request is None:
                    break
                request.future.set_exception(
                    ServerClosed("server closed without draining")
                )
        with self._lifecycle_lock:
            self._closed = True
            for thread in self._dispatchers:
                thread.join(timeout)
            self._dispatchers = []
            self._started = False
            workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()
        self.allocator.close(force=True)

    def worker_pids(self) -> List[Optional[int]]:
        """Live worker PIDs (chaos tests aim their SIGKILLs with this)."""
        with self._lifecycle_lock:
            return [worker.pid for worker in self._workers]

    # -- dispatch -----------------------------------------------------------
    def _dispatch_loop(self, worker: ProcessWorker) -> None:
        while True:
            batch = self.batcher.next_batch()
            if batch is None:  # queue closed and drained
                return
            self._serve_batch(worker, batch)

    def _serve_batch(self, worker: ProcessWorker, batch: MicroBatch) -> None:
        """Serve one micro-batch through the worker (never raises)."""
        stats = worker.stats
        stats.batches += 1
        stats.rows += batch.rows
        self._obs_inc(self._obs_batches, worker)
        self._obs_inc(self._obs_rows, worker, batch.rows)
        if stats.degraded:
            self._serve_fallback(worker, batch)
            return
        if self._probe_due(worker):
            self._run_probe(worker)
            if stats.degraded:
                self._serve_fallback(worker, batch)
                return
        logits = self._run_with_retry(worker, batch)
        if logits is not None:
            batch.scatter(logits)

    def _run_with_retry(self, worker: ProcessWorker,
                        batch: MicroBatch) -> Optional[np.ndarray]:
        """One worker attempt, one restart attempt, then the fallback.

        Returns the logits to scatter, or ``None`` when the batch was
        already completed (fallback path or clean failure).
        """
        images = np.ascontiguousarray(batch.images, dtype=np.float64)
        for attempt in (0, 1):
            try:
                return self._worker_run(worker, images)
            except WorkerComputeError as error:
                stats = worker.stats
                stats.engine_failures += 1
                if self.fallback is not None or self._can_build_local():
                    self._serve_fallback(worker, batch)
                else:
                    batch.fail(error)
                return None
            except WorkerDied:
                if attempt == 0 and self._try_restart(worker):
                    continue  # retried exactly once through the new process
                self._demote(worker)
                self._serve_fallback(worker, batch)
                return None
        return None  # unreachable; the loop always returns

    def _worker_run(self, worker: ProcessWorker,
                    images: np.ndarray) -> np.ndarray:
        """Lease → copy → run → read → release (lease always recycled)."""
        images = np.ascontiguousarray(images, dtype=np.float64)
        lease = self.allocator.lease(images.nbytes)
        self._obs_set(self._obs_depth, worker, 1.0)
        try:
            np.copyto(self.allocator.view(lease, images.shape), images)
            return worker.run(lease, images.shape, self.worker_timeout_s)
        finally:
            # By the time run() returns or raises, the worker has either
            # answered or been killed — the bytes have no reader left.
            self.allocator.release(lease)
            self._obs_set(self._obs_depth, worker, 0.0)

    def _run_on_all(self, workers: List[ProcessWorker],
                    images: np.ndarray) -> None:
        """Run ``images`` on every worker at once: send each its batch,
        then collect the replies.  Every sent batch is collected before
        any lease is recycled, so the survivors' pipes stay in step when
        one worker fails; the first failure is raised at the end."""
        leases, pending = [], []
        failure: Optional[BaseException] = None
        try:
            for worker in workers:
                lease = self.allocator.lease(images.nbytes)
                leases.append(lease)
                np.copyto(self.allocator.view(lease, images.shape), images)
                try:
                    pending.append((worker, worker.submit(lease, images.shape)))
                except WorkerDied as error:
                    failure = failure or error
        finally:
            for worker, seq in pending:
                try:
                    worker.collect(seq, self.worker_timeout_s)
                except (WorkerDied, WorkerComputeError) as error:
                    failure = failure or error
            for lease in leases:
                self.allocator.release(lease)
        if failure is not None:
            raise failure

    def _try_restart(self, worker: ProcessWorker) -> bool:
        if worker.stats.restarts >= self.max_restarts:
            return False
        worker.stats.restarts += 1
        if self.telemetry is not None:
            self._obs_restarts[worker.index].inc()
        try:
            worker.spawn()
            worker.await_ready()
        except (WorkerDied, OSError):
            return False
        return True

    def _demote(self, worker: ProcessWorker) -> None:
        worker.stats.degraded = True
        if self.telemetry is not None:
            self.telemetry.registry.gauge(
                "serve_replica_degraded",
                help="1 while the replica serves from its fallback path",
                replica=str(worker.index)).set(1.0)

    # -- fallback -----------------------------------------------------------
    def _can_build_local(self) -> bool:
        return True  # the spec always reconstructs an in-process replica

    def _local_fallback(self, images: np.ndarray) -> np.ndarray:
        """The in-process guarded fallback: a replica built from the spec.

        Used when no explicit ``fallback`` (e.g. a
        :meth:`~repro.runtime.guard.GuardedSpikingSystem.infer`) was
        wired in; serialized by a lock the way the guard path is.
        """
        with self._local_lock:
            if self._local_replica is None:
                self._local_replica = self.spec.build_replica(index=-1)
            return self._local_replica.run_rows(images)

    def _serve_fallback(self, worker: ProcessWorker, batch: MicroBatch) -> None:
        stats = worker.stats
        stats.fallback_batches += 1
        self._obs_inc(self._obs_fallback, worker)
        fallback = self.fallback if self.fallback is not None else self._local_fallback
        try:
            batch.scatter(np.asarray(fallback(
                np.ascontiguousarray(batch.images, dtype=np.float64))))
        except Exception as error:  # surfaced on every member future
            batch.fail(error)

    # -- health -------------------------------------------------------------
    def _arm_probe(self, sample: np.ndarray) -> None:
        """Fix the probe vectors and their expected logits.

        Functional probes after :mod:`repro.snc.diagnosis`: deterministic
        in-range stimuli (seed-substream uniform in the input window,
        shaped like real rows) whose reference logits come from the
        in-process replica — same module bytes, same engine config, so
        agreement is exact by construction.
        """
        from repro.snc.seeding import substream

        rng = substream(0, PROBE_TOKEN)
        shape = (self.probe_rows,) + tuple(sample.shape[1:])
        self._probe_images = np.ascontiguousarray(
            rng.uniform(0.0, 1.0, size=shape), dtype=np.float64)
        self._probe_expected = np.ascontiguousarray(
            self._local_fallback(self._probe_images), dtype=np.float64)

    def _probe_due(self, worker: ProcessWorker) -> bool:
        if self.probe_every_batches <= 0 or worker.stats.degraded:
            return False
        return worker.stats.batches % self.probe_every_batches == 0

    def _run_probe(self, worker: ProcessWorker) -> bool:
        """Heartbeat + probe-vector check; demote the worker on failure."""
        stats = worker.stats
        stats.probes_run += 1
        if self._probe_images is None:
            healthy = worker.ping(self.worker_timeout_s)
        else:
            try:
                logits = self._worker_run(worker, self._probe_images)
                healthy = np.array_equal(logits, self._probe_expected)
            except WorkerDied:
                healthy = self._try_restart(worker) and self._retry_probe(worker)
            except WorkerComputeError:
                healthy = False
        if not healthy:
            stats.probes_failed += 1
            self._demote(worker)
        return healthy

    def _retry_probe(self, worker: ProcessWorker) -> bool:
        try:
            logits = self._worker_run(worker, self._probe_images)
        except (WorkerDied, WorkerComputeError):
            return False
        return bool(np.array_equal(logits, self._probe_expected))

    # -- observability ------------------------------------------------------
    def _obs_inc(self, family: dict, worker: ProcessWorker,
                 amount: float = 1) -> None:
        if self.telemetry is not None:
            family[worker.index].inc(amount)

    def _obs_set(self, family: dict, worker: ProcessWorker,
                 value: float) -> None:
        if self.telemetry is not None:
            family[worker.index].set(value)

    def stats(self) -> PoolStats:
        """Aggregate counters (shape-compatible with the thread pool's)."""
        with self._lifecycle_lock:
            workers = list(self._workers)
        aggregate = PoolStats(workers=self.workers)
        for worker in workers:
            stats = worker.stats
            aggregate.batches += stats.batches
            aggregate.rows += stats.rows
            aggregate.fallback_batches += stats.fallback_batches
            aggregate.engine_failures += stats.engine_failures
            aggregate.degraded_replicas += int(stats.degraded)
            aggregate.replicas.append({
                "index": worker.index,
                "pid": worker.pid,
                "alive": worker.alive(),
                "batches": stats.batches,
                "rows": stats.rows,
                "fallback_batches": stats.fallback_batches,
                "engine_failures": stats.engine_failures,
                "probes_run": stats.probes_run,
                "probes_failed": stats.probes_failed,
                "restarts": stats.restarts,
                "degraded": stats.degraded,
                "backend": "process",
            })
        return aggregate

    def shm_stats(self) -> dict:
        """The slab allocator's counters (leases, bytes in flight)."""
        return self.allocator.stats()
