"""Bounded admission queue: backpressure and per-request deadlines.

The front door of the serving layer.  Every inference request enters
through :class:`AdmissionQueue`, which enforces the two properties a
traffic-scale server cannot live without:

- **bounded memory** — the queue holds at most ``max_rows`` image rows;
  a submit that would exceed the bound is rejected *immediately* with
  :class:`ServerOverloaded` (explicit backpressure beats unbounded
  growth followed by an OOM kill);
- **per-request deadlines** — a request may carry an absolute deadline
  (monotonic clock); requests that expire while queued are completed
  with :class:`DeadlineExceeded` instead of wasting engine time on an
  answer nobody is waiting for.

Results travel back through :class:`ServeFuture`, a minimal
event-backed future (stdlib ``concurrent.futures`` is deliberately not
used: the batcher completes futures from worker threads and needs
nothing beyond set/wait semantics).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.obs import SYSTEM_CLOCK, Telemetry


class ServeError(RuntimeError):
    """Base class of all serving-layer errors."""


class ServerOverloaded(ServeError):
    """The admission queue is full; the caller should back off and retry."""


class DeadlineExceeded(ServeError):
    """The request's deadline passed before an engine could serve it."""


class ServerClosed(ServeError):
    """The server is draining or closed; no new requests are admitted."""


class ServeFuture:
    """A minimal thread-safe future for one request's logits."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["ServeFuture"], None]] = []
        self._lock = threading.Lock()

    def add_done_callback(self, callback: Callable[["ServeFuture"], None]) -> None:
        """Invoke ``callback(self)`` on completion (immediately if done)."""
        with self._lock:
            if not self._event.is_set():
                # Drained on completion; holds O(1) callbacks per request.
                self._callbacks.append(callback)  # lint: ignore[RL004]
                return
        callback(self)

    def set_result(self, value: np.ndarray) -> None:
        """Complete the future with logits (first completion wins)."""
        with self._lock:
            if self._event.is_set():
                return
            self._result = value
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def set_exception(self, error: BaseException) -> None:
        """Complete the future with an error (first completion wins)."""
        with self._lock:
            if self._event.is_set():
                return
            self._error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def done(self) -> bool:
        """Whether a result or error has been delivered."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until completion; return logits or raise the stored error."""
        if not self._event.wait(timeout):
            raise TimeoutError("request still in flight")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclass
class ServeRequest:
    """One admitted inference request (``rows`` images → ``rows`` logits)."""

    request_id: int
    images: np.ndarray
    future: ServeFuture
    enqueued_at: float
    deadline: Optional[float] = None  # absolute, on the queue's clock

    @property
    def rows(self) -> int:
        """Number of image rows (= logit rows owed back to the caller)."""
        return len(self.images)

    def expired(self, now: float) -> bool:
        """Whether the deadline (if any) has passed at time ``now``."""
        return self.deadline is not None and now >= self.deadline


class AdmissionQueue:
    """A bounded FIFO of :class:`ServeRequest` with condition signalling.

    ``max_rows`` bounds total queued image rows — the quantity that
    actually costs memory and engine time — rather than request count,
    so a flood of large requests cannot hide behind a small count bound.
    The internal buffer is a plain list appended only after the bound
    check passes (see lint rule RL004).
    """

    def __init__(
        self,
        max_rows: int = 4096,
        clock: Optional[Callable[[], float]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self.max_rows = max_rows
        self.telemetry = telemetry
        # Clock resolution order: explicit arg, telemetry's injected
        # clock, system monotonic (RL005: never read time.* directly).
        if clock is not None:
            self.clock = clock
        elif telemetry is not None:
            self.clock = telemetry.clock
        else:
            self.clock = SYSTEM_CLOCK
        self._items: List[ServeRequest] = []
        self._rows = 0
        self._closed = False
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._ids = itertools.count()
        # Instruments are resolved once; hot-path cost is a lock + add.
        if telemetry is not None:
            registry = telemetry.registry
            self._obs_admitted = registry.counter(
                "serve_admitted_total", help="Requests admitted to the queue")
            self._obs_rejected_overload = registry.counter(
                "serve_rejected_total", help="Requests refused at admission",
                reason="overloaded")
            self._obs_rejected_closed = registry.counter(
                "serve_rejected_total", help="Requests refused at admission",
                reason="closed")
            self._obs_expired = registry.counter(
                "serve_deadline_expired_total",
                help="Queued requests that expired before dispatch")
            self._obs_depth_requests = registry.gauge(
                "serve_queue_requests", help="Requests currently queued")
            self._obs_depth_rows = registry.gauge(
                "serve_queue_rows", help="Image rows currently queued")
            self._obs_wait = registry.histogram(
                "serve_queue_wait_seconds",
                help="Time requests spent queued before dispatch")

    def _obs_depth_locked(self) -> None:
        if self.telemetry is not None:
            self._obs_depth_requests.set(len(self._items))
            self._obs_depth_rows.set(self._rows)

    # -- producer side ------------------------------------------------------
    def submit(
        self,
        images: np.ndarray,
        deadline_s: Optional[float] = None,
    ) -> ServeRequest:
        """Admit one request or raise; returns the queued request.

        Raises :class:`ServerOverloaded` when admitting ``images`` would
        push queued rows past ``max_rows``, and :class:`ServerClosed`
        after :meth:`close`.  ``deadline_s`` is a relative budget from
        now; ``None`` means no deadline.
        """
        images = np.asarray(images)
        if images.ndim < 2:
            raise ValueError(
                f"images must be a batch (rows first), got shape {images.shape}"
            )
        rows = len(images)
        if rows < 1:
            raise ValueError("cannot submit an empty request")
        now = self.clock()
        request = ServeRequest(
            request_id=next(self._ids),
            images=images,
            future=ServeFuture(),
            enqueued_at=now,
            deadline=None if deadline_s is None else now + deadline_s,
        )
        with self._lock:
            if self._closed:
                if self.telemetry is not None:
                    self._obs_rejected_closed.inc()
                raise ServerClosed("server is closed to new requests")
            if self._rows + rows > self.max_rows:
                if self.telemetry is not None:
                    self._obs_rejected_overload.inc()
                raise ServerOverloaded(
                    f"queue holds {self._rows} rows; admitting {rows} more "
                    f"would exceed the bound of {self.max_rows}"
                )
            self._items.append(request)
            self._rows += rows
            if self.telemetry is not None:
                self._obs_admitted.inc()
                self._obs_depth_locked()
            self._not_empty.notify()
        return request

    def close(self) -> None:
        """Stop admitting; queued requests remain to be drained."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    # -- consumer side ------------------------------------------------------
    def pop(self, timeout: Optional[float] = None) -> Optional[ServeRequest]:
        """Pop the oldest *unexpired* request; block up to ``timeout``.

        Expired requests are completed with :class:`DeadlineExceeded`
        on the way past, never returned.  Returns ``None`` on timeout or
        when the queue is closed and empty.
        """
        deadline = None if timeout is None else self.clock() + timeout
        with self._lock:
            while True:
                request = self._pop_admissible_locked()
                if request is not None:
                    return request
                if self._closed:
                    return None
                remaining = None if deadline is None else deadline - self.clock()
                if remaining is not None and remaining <= 0:
                    return None
                self._not_empty.wait(remaining)

    def pop_nowait(self, max_rows: Optional[int] = None) -> Optional[ServeRequest]:
        """Non-blocking :meth:`pop` (the batcher's coalescing path).

        With ``max_rows``, the oldest unexpired request is popped only if
        it has at most that many rows; otherwise it stays at the head
        and ``None`` is returned.
        """
        with self._lock:
            return self._pop_admissible_locked(max_rows)

    def _pop_admissible_locked(
        self, max_rows: Optional[int] = None,
    ) -> Optional[ServeRequest]:
        now = self.clock()
        observed = self.telemetry is not None
        while self._items:
            request = self._items[0]
            if request.expired(now):
                del self._items[0]
                self._rows -= request.rows
                if observed:
                    self._obs_expired.inc()
                    self._obs_depth_locked()
                request.future.set_exception(DeadlineExceeded(
                    f"request {request.request_id} expired after "
                    f"{now - request.enqueued_at:.4f}s in queue"
                ))
                continue
            if max_rows is not None and request.rows > max_rows:
                return None
            del self._items[0]
            self._rows -= request.rows
            if observed:
                self._obs_wait.observe(now - request.enqueued_at)
                self._obs_depth_locked()
            return request
        return None

    # -- observability ------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def depth(self) -> dict:
        """Current queue occupancy: ``{"requests": ..., "rows": ...}``."""
        with self._lock:
            return {"requests": len(self._items), "rows": self._rows}

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)
