"""repro.serve — the traffic-scale serving layer.

:mod:`repro.runtime` makes a *single caller* fast (compiled plans,
integer fast path); this package multiplexes *many concurrent callers*
onto those engines, the missing layer between "fast kernel" and "fast
system":

- :mod:`repro.serve.queue` — bounded admission with explicit
  backpressure (:class:`ServerOverloaded`) and per-request deadlines
  (:class:`DeadlineExceeded`).
- :mod:`repro.serve.batcher` — work-conserving micro-batching: an idle
  replica takes whatever is queued, up to ``batch_size`` rows, with no
  wait budget; logits scatter back bit-exactly.
- :mod:`repro.serve.pool` — the replica pool: one replica per
  :class:`Executor` (an in-process :class:`EngineExecutor` or a worker
  process), each owning its own
  :class:`~repro.runtime.engine.InferenceEngine`, with health probes,
  restart-and-retry, degraded-mode fallback, and graceful drain.
- :mod:`repro.serve.shm` — the shared-memory data plane: a slab
  allocator with generation-tagged leases plus a per-worker SPSC
  result ring (every segment in the repo goes through it — lint
  RL008).
- :mod:`repro.serve.procpool` — the worker-process executor
  (``ServeConfig(pool="process")``): worker processes rebuilt from a
  picklable :class:`WorkerSpec`, zero-copy tensors over
  :mod:`repro.serve.shm`, probe-vector health folded into the same
  degraded-mode fallback.
- :mod:`repro.serve.server` — the :class:`ModelServer` facade
  (``submit`` / ``submit_many`` / ``stats`` / ``close``).
- :mod:`repro.serve.loadgen` — a deterministic closed-loop load
  generator for benchmarking (seeded via :mod:`repro.snc.seeding`).
- :mod:`repro.serve.stream` — event-driven streaming sessions
  (:class:`StreamingServer`), sliding-window micro-batching of event
  streams through the same queue/batcher path.  See
  ``docs/streaming.md``.

Build one with :func:`repro.core.deployment.make_model_server` or
:meth:`repro.snc.system.SpikingSystem.serve`; see ``docs/serving.md``.
"""

from repro.serve.batcher import MicroBatch, MicroBatcher
from repro.serve.loadgen import (
    LoadGenConfig,
    LoadReport,
    StreamLoadConfig,
    StreamLoadReport,
    run_load,
    run_stream_load,
)
from repro.serve.pool import (
    EngineExecutor,
    Executor,
    Replica,
    ReplicaPool,
    ReplicaStats,
    WorkerDied,
)
from repro.serve.procpool import ProcessWorker, WorkerSpec
from repro.serve.queue import (
    AdmissionQueue,
    DeadlineExceeded,
    ServeError,
    ServeFuture,
    ServeRequest,
    ServerClosed,
    ServerOverloaded,
)
from repro.serve.server import LatencyWindow, ModelServer, ServeConfig
from repro.serve.shm import (
    ShmError,
    ShmExhausted,
    ShmLease,
    SlabAllocator,
    SpscRing,
    StaleLease,
)
from repro.serve.stream import (
    SessionClosed,
    SessionExpired,
    StreamBufferFull,
    StreamConfig,
    StreamingServer,
    StreamSession,
    TooManySessions,
)

__all__ = [
    "AdmissionQueue",
    "DeadlineExceeded",
    "EngineExecutor",
    "Executor",
    "LatencyWindow",
    "LoadGenConfig",
    "LoadReport",
    "MicroBatch",
    "MicroBatcher",
    "ModelServer",
    "ProcessWorker",
    "Replica",
    "ReplicaPool",
    "ReplicaStats",
    "ServeConfig",
    "ShmError",
    "ShmExhausted",
    "ShmLease",
    "SlabAllocator",
    "SpscRing",
    "StaleLease",
    "WorkerDied",
    "WorkerSpec",
    "ServeError",
    "ServeFuture",
    "ServeRequest",
    "ServerClosed",
    "ServerOverloaded",
    "SessionClosed",
    "SessionExpired",
    "StreamBufferFull",
    "StreamConfig",
    "StreamLoadConfig",
    "StreamLoadReport",
    "StreamSession",
    "StreamingServer",
    "TooManySessions",
    "run_load",
    "run_stream_load",
]
