"""Worker-process executors: one engine per worker *process*.

Thread replicas are serialized by the interpreter, not by compute (the
serving benchmark's worker sweep stays flat).  A :class:`ProcessWorker` moves a replica's engine into its
own OS process, so plan replay runs on a private interpreter.  It is an
:class:`~repro.serve.pool.Executor`: the
:class:`~repro.serve.pool.ReplicaPool` drives it with the same retry,
probe, fallback and drain rules as an in-process engine.

- **spec, not factory** — a worker rebuilds and traces its own engine
  from a picklable :class:`WorkerSpec` (the deployed module's bytes plus
  engine-config overrides).
- **shared-memory data plane** — :meth:`ProcessWorker.run_rows` leases
  a generation-tagged range from a :class:`~repro.serve.shm.
  SlabAllocator` and copies the rows in once; the worker reads them as a
  zero-copy view and returns logits through its private
  :class:`~repro.serve.shm.SpscRing`.  Only tiny descriptors cross the
  control pipe.
- **death is explicit** — a worker that exits, closes its pipe, or
  stalls past its timeout raises :class:`~repro.serve.pool.WorkerDied`,
  and only then is its lease recycled.
- **a local twin** — :class:`LocalTwin` is the pool's in-process
  fallback and the reference its probe vectors are checked against.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.obs import SYSTEM_CLOCK
from repro.obs.clock import Clock
from repro.serve.pool import EngineExecutor, Executor, WorkerDied
from repro.serve.shm import ShmLease, SlabAllocator, SpscRing, attach_segment

__all__ = [
    "WorkerSpec",
    "WorkerDied",
    "WorkerComputeError",
    "ProcessWorker",
    "LocalTwin",
]

#: substream token for functional probe vectors (see snc/diagnosis).
PROBE_TOKEN = "serve.procpool.probe"

#: rows of one probe batch.
PROBE_ROWS = 4

#: Start method of worker processes: ``spawn`` is safe alongside threads
#: and BLAS pools, where ``fork`` would inherit the parent's locks.
START_METHOD = "spawn"

#: Seconds a spawned worker may take to rebuild its engine and report ready.
SPAWN_TIMEOUT_S = 120.0


class WorkerComputeError(RuntimeError):
    """The worker's engine raised while serving a batch."""


@dataclass
class WorkerSpec:
    """Everything a worker process needs to rebuild its engine.

    ``model_blob`` is the pickled deployed module (hooks dropped, eval
    mode); ``engine_overrides`` feed the worker's
    :class:`~repro.runtime.engine.EngineConfig`; ``batch_rows`` is the
    chunk size of an in-process executor, so worker logits are
    bit-identical to a thread replica's.  Build one with :meth:`for_module`.
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
        return cls(pickle.dumps(twin, protocol=4), dict(engine_overrides),
                   batch_rows, ring_bytes)

    def build_executor(self) -> EngineExecutor:
        """Materialize the engine in this process (the worker's, or the
        parent's fallback)."""
        from repro.runtime.engine import EngineConfig, InferenceEngine

        module = pickle.loads(self.model_blob)
        engine = InferenceEngine(module, EngineConfig(**self.engine_overrides))
        return EngineExecutor(engine, batch_rows=self.batch_rows)


def _worker_main(spec_bytes: bytes, conn, ring_name: str) -> None:  # pragma: no cover — runs only in spawned workers
    """Worker-process entry point: serve descriptors until told to stop.

    Protocol (tuples over the duplex pipe; payloads in shared memory):

    - ``("run", seq, descriptor, shape)`` → run the leased rows through
      the engine; reply ``("ok", seq, out_shape)`` after writing the
      float64 logits into the ring, or ``("err", seq, repr)``.
    - ``("stop",)`` → ``("bye",)`` and exit.

    The worker never creates segments — it attaches to the parent's
    slabs read-only-by-convention and to its private result ring as the
    sole writer.
    """
    spec: WorkerSpec = pickle.loads(spec_bytes)
    executor = spec.build_executor()
    ring = SpscRing.attach(ring_name)
    segments: Dict[str, object] = {}
    conn.send(("ready", os.getpid()))
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:  # parent vanished; nothing left to answer
                break
            if message[0] == "stop":
                conn.send(("bye",))
                break
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
                    executor.run_rows(rows), dtype=np.float64)
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


class ProcessWorker(Executor):
    """An executor in a worker process: process + control pipe + result
    ring, fed through leases of the parent's slab allocator."""

    def __init__(self, index: int, spec: WorkerSpec, allocator: SlabAllocator,
                 timeout_s: float = 60.0, clock: Clock = SYSTEM_CLOCK) -> None:
        from repro.runtime.engine import EngineStats

        self.index = index
        self.spec = spec
        self.allocator = allocator
        self.timeout_s = timeout_s
        # The engine runs in the worker; the parent's view counts nothing.
        self.engine = SimpleNamespace(active_backend="process",
                                      stats=EngineStats(), runtime_stats=dict)
        self._context = multiprocessing.get_context(START_METHOD)
        self._clock = clock
        self._seq = 0
        self.process = None
        self.conn = None
        self.ring: Optional[SpscRing] = None
        self.pid: Optional[int] = None
        #: why the last polite stop failed (the worker was already dying).
        self.last_stop_error: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------
    def spawn(self) -> None:
        """Start (or restart) the worker process with a fresh pipe + ring;
        :meth:`await_ready` completes the handshake."""
        self._teardown_channels()
        self.ring = SpscRing.create(self.spec.ring_bytes, clock=self._clock)
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        self.conn = parent_conn
        process = self._context.Process(
            target=_worker_main, name=f"repro-serve-proc-{self.index}", daemon=True,
            args=(pickle.dumps(self.spec, protocol=4), child_conn, self.ring.name))
        try:
            process.start()
        finally:
            child_conn.close()
        self.process = process

    def await_ready(self) -> None:
        """Block until the spawned worker reports ready, or raise WorkerDied."""
        kind, payload, _ = self._recv(SPAWN_TIMEOUT_S)
        if kind != "ready":
            raise WorkerDied(f"worker {self.index} failed to report ready: {kind}")
        self.pid = payload

    def restart(self) -> bool:
        """Respawn the worker; ``False`` if it never comes up."""
        try:
            self.spawn()
            self.await_ready()
        except (WorkerDied, OSError):
            return False
        return True

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
        if self.process is not None:
            self.process.join(timeout_s)
            for escalate in (self.process.terminate, self.process.kill):
                if self.process.is_alive():
                    escalate()
                    self.process.join(timeout_s)
        self._teardown_channels()
        self.process = None
        self.pid = None

    # -- request path -------------------------------------------------------
    def run_rows(self, images: np.ndarray) -> np.ndarray:
        """Lease → copy → run → release (the lease is always recycled)."""
        images = np.ascontiguousarray(images, dtype=np.float64)
        lease = self.allocator.lease(images.nbytes)
        try:
            np.copyto(self.allocator.view(lease, images.shape), images)
            return self.run(lease, images.shape, self.timeout_s)
        finally:
            # By the time run() returns or raises, the worker has either
            # answered or been killed — the bytes have no reader left.
            self.allocator.release(lease)

    def submit(self, images: np.ndarray) -> Callable[[], np.ndarray]:
        """Run ``images`` on a helper thread; the returned call blocks for
        their logits.  The run completes whether or not anyone waits."""
        helper = ThreadPoolExecutor(1, thread_name_prefix=f"repro-serve-submit-{self.index}")
        try:
            return helper.submit(self.run_rows, images).result
        finally:
            helper.shutdown(wait=False)

    def run(self, lease: ShmLease, shape: Tuple[int, ...],
            timeout_s: float) -> np.ndarray:
        """Send one leased batch; block for its logits.

        Raises :class:`WorkerDied` if the process exits or stalls past
        ``timeout_s`` (a stalled worker is killed first, so the lease is
        safe to recycle the moment this raises), and
        :class:`WorkerComputeError` if the worker's engine raised.
        """
        self._seq += 1
        seq = self._seq
        try:
            self.conn.send(("run", seq, lease.descriptor(), tuple(shape)))
        except (BrokenPipeError, OSError) as error:
            self._reap()
            raise WorkerDied(f"worker {self.index} pipe broke: {error}") from error
        kind, rseq, payload = self._recv(timeout_s)
        if rseq != seq:
            self._kill()
            raise WorkerDied(f"worker {self.index} answered seq {rseq} for request {seq}")
        if kind == "err":
            raise WorkerComputeError(f"worker {self.index} engine failed: {payload}")
        out_shape = tuple(payload)
        nbytes = int(np.prod(out_shape)) * 8
        data = self.ring.read(nbytes, timeout_s=timeout_s)
        return np.frombuffer(data, dtype=np.float64).reshape(out_shape)

    # -- plumbing -----------------------------------------------------------
    def _recv(self, timeout_s: float) -> tuple:
        """The next control message, padded with ``None`` to three fields."""
        deadline = self._clock() + timeout_s
        while not self.conn.poll(0.05):
            if not self.alive():
                self._reap()
                raise WorkerDied(f"worker {self.index} exited mid-protocol")
            if self._clock() >= deadline:
                self._kill()
                raise WorkerDied(f"worker {self.index} unresponsive for {timeout_s}s; killed")
        try:
            message = self.conn.recv()
        except (EOFError, OSError) as error:  # SIGKILL → reset, exit → EOF
            self._reap()
            raise WorkerDied(f"worker {self.index} closed its pipe") from error
        return tuple(message) + (None,) * (3 - len(message))

    def _reap(self) -> None:
        if self.process is not None:
            self.process.join(5.0)

    def _kill(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        self._reap()


class LocalTwin:
    """The in-process twin of a worker spec: a worker pool's fallback and
    its probe's reference.  The engine is built on first use, so a parent
    whose workers stay healthy runs none; calls are serialized, and rows
    are cast to float64 as a worker's are, so its logits are a worker's."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self._executor: Optional[EngineExecutor] = None
        self._lock = threading.Lock()
        self.probe_images: Optional[np.ndarray] = None
        self._expected: Optional[np.ndarray] = None

    def __call__(self, images: np.ndarray) -> np.ndarray:
        with self._lock:
            if self._executor is None:
                self._executor = self.spec.build_executor()
            return self._executor.run_rows(
                np.ascontiguousarray(images, dtype=np.float64))

    def arm(self, sample: np.ndarray) -> None:
        """Fix the probe vectors — seeded uniform stimuli shaped like
        ``sample``'s rows, as in :mod:`repro.snc.diagnosis` — and the
        twin's logits of them, which a healthy worker matches bit for bit."""
        from repro.snc.seeding import substream

        shape = (PROBE_ROWS,) + tuple(np.shape(sample)[1:])
        probe_images = substream(0, PROBE_TOKEN).uniform(0.0, 1.0, size=shape)
        self._expected = self(probe_images)
        self.probe_images = probe_images

    def probe(self, executor: Executor) -> bool:
        """Whether ``executor`` reproduces the twin's logits of the probe
        vectors (before :meth:`arm`: whether it is alive)."""
        if self.probe_images is None:
            return executor.alive()
        return bool(np.array_equal(executor.run_rows(self.probe_images),
                                   self._expected))
