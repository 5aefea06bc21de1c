"""Dynamic micro-batching: coalesce small requests into engine-sized runs.

The paper's pipelined crossbar layers (and their software twin, the
compiled :class:`~repro.runtime.engine.InferenceEngine`) amortize their
per-invocation overhead across the batch dimension — Table 5's speedups
assume the substrate is kept *full*.  Interactive traffic arrives one
small request at a time, so the :class:`MicroBatcher` sits between the
admission queue and the engines and coalesces **work-conservingly**: a
replica asking for a batch is idle, so it blocks only for the first
request, then drains whatever else is already queued — up to
``batch_size`` rows — and dispatches at once.  There is no wait budget:
an idle replica never sleeps while a request is queued, and batches
grow on their own while every replica is busy and requests pile up.

The request→row mapping is carried in the :class:`MicroBatch` so logits
are scattered back to each caller's future bit-exactly — batching is a
throughput optimization, never a semantic change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.obs import SYSTEM_CLOCK, Telemetry
from repro.serve.queue import AdmissionQueue, ServeRequest


@dataclass
class MicroBatch:
    """A dispatchable unit: concatenated rows plus the scatter map."""

    requests: List[ServeRequest]
    images: np.ndarray
    formed_at: float

    @property
    def rows(self) -> int:
        """Total image rows across all member requests."""
        return len(self.images)

    def scatter(self, logits: np.ndarray) -> None:
        """Split ``logits`` back onto each request's future, row-exact."""
        if len(logits) != self.rows:
            self.fail(RuntimeError(
                f"engine returned {len(logits)} rows for a {self.rows}-row batch"
            ))
            return
        offset = 0
        for request in self.requests:
            # np.array(...) gives each caller an owned copy, so one
            # caller mutating its logits cannot corrupt a neighbour's.
            request.future.set_result(np.array(logits[offset : offset + request.rows]))
            offset += request.rows

    def fail(self, error: BaseException) -> None:
        """Complete every member request with ``error``."""
        for request in self.requests:
            request.future.set_exception(error)


class MicroBatcher:
    """Form :class:`MicroBatch` units from an :class:`AdmissionQueue`.

    Thread-safe by construction: all state lives in the queue, and each
    call to :meth:`next_batch` builds an independent batch, so any number
    of pool workers can call it concurrently.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        batch_size: int,
        clock: Optional[Callable[[], float]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.queue = queue
        self.batch_size = batch_size
        self.telemetry = telemetry
        if clock is not None:
            self.clock = clock
        elif telemetry is not None:
            self.clock = telemetry.clock
        else:
            self.clock = SYSTEM_CLOCK
        if telemetry is not None:
            registry = telemetry.registry
            self._obs_batches = registry.counter(
                "serve_batches_formed_total", help="Micro-batches dispatched")
            self._obs_rows = registry.histogram(
                "serve_batch_rows", help="Image rows per micro-batch")
            self._obs_coalesced = registry.histogram(
                "serve_batch_requests", help="Requests coalesced per micro-batch")

    def next_batch(self) -> Optional[MicroBatch]:
        """Block for the next batch; ``None`` once the queue is drained shut.

        Blocks for a first request, then drains the queued requests that
        still fit in ``batch_size`` rows and returns without waiting for
        more.  A first request larger than ``batch_size`` dispatches
        alone; a queued request that does not fit stays at the head for
        the next batch.
        """
        first = self.queue.pop()
        if first is None:  # closed and empty
            return None
        requests = [first]
        gathered = first.rows
        while gathered < self.batch_size:
            request = self.queue.pop_nowait(max_rows=self.batch_size - gathered)
            if request is None:
                break
            requests.append(request)
            gathered += request.rows
        return self._assemble(requests)

    def _assemble(self, requests: List[ServeRequest]) -> MicroBatch:
        if len(requests) == 1:
            images = np.asarray(requests[0].images)
        else:
            images = np.concatenate([r.images for r in requests], axis=0)
        batch = MicroBatch(requests=requests, images=images, formed_at=self.clock())
        if self.telemetry is not None:
            self._obs_batches.inc()
            self._obs_rows.observe(batch.rows)
            self._obs_coalesced.observe(len(requests))
            self.telemetry.tracer.record(
                "batch.form",
                min(r.enqueued_at for r in requests), batch.formed_at,
                rows=batch.rows, requests=len(requests),
            )
        return batch
