"""Streaming sessions: event-driven traffic on :class:`ModelServer`.

A frame request is self-contained; an event stream is *stateful* — the
server must remember a session's events long enough to cut them into
sliding windows.  :class:`StreamingServer` adds that state on top of an
existing :class:`~repro.serve.server.ModelServer` without touching its
internals: sessions buffer events (bounded), cut completed windows into
M-bit count frames, and submit each *window group* through the ordinary
admission queue → micro-batcher → replica pool path.

Determinism contract
--------------------
Engine logits are bit-reproducible only for identical batch shapes
(BLAS reduction order), so grouping is part of the temporal numeric
contract (:class:`~repro.snc.temporal.TemporalConfig.batch_windows`).
Sessions submit windows in exactly the canonical
:func:`~repro.snc.temporal.window_groups` grouping, and the constructor
*requires* the server's ``batch_size`` to equal ``batch_windows``.  The
batcher never lets a batch exceed ``batch_size`` by coalescing, so a
full group fills a micro-batch alone and served logits are bit-equal to
a direct :func:`~repro.snc.temporal.replay_frames` of the same stream.
(The final, shorter group of a stream can in principle coalesce with
another *concurrently queued* short group that still fits; finish
sessions one at a time, or accept last-ulp differences on tail windows
under contended closes.)

Lifecycle
---------
Sessions expire after ``session_ttl_s`` of inactivity; expiry is swept
lazily on every server call using the injected clock (RL005: no
``time.*`` here, no background threads).  Buffers are bounded
(``max_buffer_events``, ``max_sessions``) and overflow *raises* — load
shedding is explicit, never silent (RL004).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.datasets.event_stream import (
    EventStream,
    counts_to_frames,
    events_to_counts,
    num_windows,
)
from repro.snc.temporal import TemporalConfig, TemporalResult, window_groups

__all__ = [
    "SessionClosed",
    "SessionExpired",
    "StreamBufferFull",
    "StreamConfig",
    "StreamSession",
    "StreamingServer",
    "TooManySessions",
]


class SessionExpired(RuntimeError):
    """The session idled past ``session_ttl_s`` and was reclaimed."""


class SessionClosed(RuntimeError):
    """The session was finished or the streaming server shut down."""


class StreamBufferFull(RuntimeError):
    """A push would exceed the session's bounded event buffer."""


class TooManySessions(RuntimeError):
    """``max_sessions`` concurrent sessions already exist."""


@dataclass
class StreamConfig:
    """Streaming-layer policy knobs.

    ``temporal`` fixes windowing/binning (and, through ``batch_windows``,
    the micro-batch grouping).  ``max_buffer_events`` bounds each
    session's event memory; ``max_sessions`` bounds session count;
    ``session_ttl_s`` reclaims sessions idle longer than the TTL.
    """

    temporal: TemporalConfig = field(default_factory=TemporalConfig)
    height: int = 28
    width: int = 28
    max_buffer_events: int = 262_144
    max_sessions: int = 64
    session_ttl_s: float = 300.0
    deadline_ms: Optional[float] = None
    timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValueError("height and width must be positive")
        if self.max_buffer_events < 1:
            raise ValueError(
                f"max_buffer_events must be >= 1, got {self.max_buffer_events}"
            )
        if self.max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {self.max_sessions}")
        if self.session_ttl_s <= 0:
            raise ValueError(f"session_ttl_s must be positive, got {self.session_ttl_s}")
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")


class StreamSession:
    """One client's event stream in flight.

    Not constructed directly — use :meth:`StreamingServer.open_session`.
    Methods raise :class:`SessionExpired` / :class:`SessionClosed` once
    the session is gone; pushing out-of-order chunks or overflowing the
    bounded buffer raises immediately (``ValueError`` /
    :class:`StreamBufferFull`).
    """

    def __init__(self, server: "StreamingServer", session_id: str,
                 label: int = -1) -> None:
        self._server = server
        self.session_id = session_id
        self.label = label
        self.config = server.config
        self._chunks: List[np.ndarray] = []   # (n, 4) int64 [t, x, y, polarity]
        self._buffered = 0
        self._watermark_us = 0                # no more events before this time
        self._submitted_windows = 0
        self._futures: List = []              # one per submitted window group
        self._group_sizes: List[int] = []
        self._duration_us: Optional[int] = None
        self.closed = False
        self.expired = False
        self.last_activity = server.clock()
        self._lock = threading.Lock()

    # -- event ingestion ----------------------------------------------------
    def push(self, t_us, x, y, polarity) -> int:
        """Append a chunk of events (parallel arrays, arrival order).

        Timestamps must be non-decreasing within the chunk and not
        precede the current watermark (events already binned cannot be
        amended).  Returns the number of buffered events.
        """
        self._server._sweep()
        with self._lock:
            self._check_alive()
            t_us = np.asarray(t_us, dtype=np.int64)
            x = np.asarray(x, dtype=np.int64)
            y = np.asarray(y, dtype=np.int64)
            polarity = np.asarray(polarity, dtype=np.int64)
            if not (len(t_us) == len(x) == len(y) == len(polarity)):
                raise ValueError("event chunk arrays must be parallel")
            if len(t_us) == 0:
                return self._buffered
            if np.any(np.diff(t_us) < 0):
                raise ValueError("event timestamps must be non-decreasing")
            if int(t_us[0]) < self._watermark_us:
                raise ValueError(
                    f"chunk starts at {int(t_us[0])}µs, before the session "
                    f"watermark {self._watermark_us}µs (already binned)"
                )
            if self._buffered + len(t_us) > self.config.max_buffer_events:
                raise StreamBufferFull(
                    f"session {self.session_id}: buffering {len(t_us)} more "
                    f"events would exceed max_buffer_events="
                    f"{self.config.max_buffer_events}"
                )
            self._chunks.append(np.stack([t_us, x, y, polarity], axis=1))
            self._buffered += len(t_us)
            self.last_activity = self._server.clock()
            return self._buffered

    def push_stream(self, stream: EventStream) -> int:
        """Push a whole :class:`EventStream` (and remember its label)."""
        if stream.label is not None:
            self.label = stream.label
        return self.push(stream.t, stream.x, stream.y, stream.polarity)

    # -- window formation ---------------------------------------------------
    def advance(self, watermark_us: int) -> int:
        """Declare that no event before ``watermark_us`` will arrive.

        Every window whose end lies at or before the watermark becomes
        cuttable; complete groups of ``batch_windows`` windows are binned
        and submitted.  Returns the number of windows submitted so far.
        """
        self._server._sweep()
        with self._lock:
            self._check_alive()
            if watermark_us < self._watermark_us:
                raise ValueError("watermark may not move backwards")
            self._watermark_us = watermark_us
            temporal = self.config.temporal
            # Window k covers [k·stride, k·stride + window).
            ready = 0
            while ready * temporal.stride_us + temporal.window_us <= watermark_us:
                ready += 1
            self._submit_groups(ready, final=False)
            self.last_activity = self._server.clock()
            return self._submitted_windows

    def finish(self, duration_us: Optional[int] = None) -> int:
        """Mark end of stream and submit all remaining windows.

        ``duration_us`` fixes the recording length (default: one past the
        last buffered event, or the watermark if higher) and thereby the
        total window count.  Returns that total.  The session stops
        accepting events but its results stay retrievable until expiry.
        """
        self._server._sweep()
        with self._lock:
            self._check_alive()
            if duration_us is None:
                last_event = max(
                    (int(chunk[-1, 0]) for chunk in self._chunks), default=0
                )
                duration_us = max(last_event + 1, self._watermark_us, 1)
            temporal = self.config.temporal
            total = num_windows(duration_us, temporal.window_us, temporal.stride_us)
            if total < self._submitted_windows:
                raise ValueError(
                    f"duration_us={duration_us} implies {total} windows but "
                    f"{self._submitted_windows} were already submitted"
                )
            self._duration_us = duration_us
            self._watermark_us = duration_us
            self._submit_groups(total, final=True)
            self.closed = True
            self.last_activity = self._server.clock()
            return total

    def _submit_groups(self, ready_windows: int, final: bool) -> None:
        """Submit canonical window groups covered by ``ready_windows``.

        Non-final calls only send *full* groups (a partial group might
        still grow); ``finish`` sends the tail too.  Grouping replicates
        :func:`~repro.snc.temporal.window_groups` exactly — that equality
        is what the conformance suite checks.
        """
        temporal = self.config.temporal
        batch = temporal.batch_windows
        while True:
            start = self._submitted_windows
            stop = min(start + batch, ready_windows)
            if stop <= start or (stop - start < batch and not final):
                break
            frames = self._bin_windows(start, stop)
            future = self._server.server.submit_async(
                frames, deadline_ms=self.config.deadline_ms
            )
            self._futures.append(future)
            self._group_sizes.append(stop - start)
            self._submitted_windows = stop
            self._server._record_windows(stop - start)

    def _bin_windows(self, start: int, stop: int) -> np.ndarray:
        temporal = self.config.temporal
        events = (
            np.concatenate(self._chunks, axis=0)
            if self._chunks else np.zeros((0, 4), dtype=np.int64)
        )
        # Chunks are time-ordered between and within themselves, so the
        # concatenation is already sorted.
        horizon = int(events[-1, 0]) + 1 if len(events) else 1
        stream = EventStream(
            t=events[:, 0],
            x=events[:, 1].astype(np.int16),
            y=events[:, 2].astype(np.int16),
            polarity=events[:, 3].astype(np.int8),
            label=self.label,
            duration_us=max(self._watermark_us, horizon),
            height=self.config.height,
            width=self.config.width,
        )
        counts = np.stack([
            events_to_counts(
                stream,
                k * temporal.stride_us,
                k * temporal.stride_us + temporal.window_us,
                temporal.signal_bits,
                polarity=temporal.polarity,
            )
            for k in range(start, stop)
        ])
        return counts_to_frames(counts, temporal.signal_bits)

    # -- results ------------------------------------------------------------
    def logits(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block for every submitted group; per-window logits, in order."""
        timeout = timeout if timeout is not None else self.config.timeout_s
        with self._lock:
            futures = list(self._futures)
        parts = [np.asarray(f.result(timeout), dtype=np.float64) for f in futures]
        if not parts:
            return np.zeros((0, 0), dtype=np.float64)
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)

    def result(self, timeout: Optional[float] = None) -> TemporalResult:
        """Rate-coded readout over everything served so far.

        Call after :meth:`finish` for the whole-stream decision.
        """
        logits = self.logits(timeout)
        if logits.size == 0:
            raise RuntimeError("no windows were submitted; push events first")
        prediction = int(logits.sum(axis=0).argmax())
        return TemporalResult(
            per_window_logits=logits,
            prediction=prediction,
            label=self.label,
            decision_window=len(logits) - 1,
            total_windows=len(logits),
        )

    @property
    def windows_submitted(self) -> int:
        return self._submitted_windows

    @property
    def buffered_events(self) -> int:
        return self._buffered

    # -- internals ----------------------------------------------------------
    def _check_alive(self) -> None:
        if self.expired:
            raise SessionExpired(
                f"session {self.session_id} expired after "
                f"{self.config.session_ttl_s}s idle"
            )
        if self.closed:
            raise SessionClosed(f"session {self.session_id} is finished")


class StreamingServer:
    """Session manager layering event-stream traffic onto a ModelServer.

    The wrapped server must be grouping-aligned (see the module
    docstring): ``batch_size == temporal.batch_windows``.
    :meth:`for_system` builds such a server from a
    :class:`~repro.snc.system.SpikingSystem` directly.
    """

    def __init__(self, server, config: Optional[StreamConfig] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.config = config or StreamConfig()
        self.server = server
        server_config = getattr(server, "config", None)
        if server_config is not None:
            if server_config.batch_size != self.config.temporal.batch_windows:
                raise ValueError(
                    f"server batch_size ({server_config.batch_size}) must equal "
                    f"temporal.batch_windows "
                    f"({self.config.temporal.batch_windows}) — grouping is the "
                    f"bit-exactness contract"
                )
        self.clock = clock if clock is not None else server.clock
        self.sessions: Dict[str, StreamSession] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._windows_served = 0
        self._sessions_expired = 0
        self.telemetry = getattr(server, "telemetry", None)
        if self.telemetry is not None:
            registry = self.telemetry.registry
            self._obs_sessions = registry.counter(
                "stream_sessions_opened_total", help="Streaming sessions opened")
            self._obs_windows = registry.counter(
                "stream_windows_submitted_total",
                help="Event windows submitted through sessions")
            self._obs_expired = registry.counter(
                "stream_sessions_expired_total",
                help="Streaming sessions reclaimed by TTL expiry")

    @classmethod
    def for_system(cls, system, config: Optional[StreamConfig] = None,
                   workers: int = 2, telemetry=None) -> "StreamingServer":
        """Build a grouping-aligned ModelServer over ``system`` and wrap it."""
        from repro.serve.server import ServeConfig

        config = config or StreamConfig()
        server = system.serve(
            serve_config=ServeConfig(
                workers=workers,
                batch_size=config.temporal.batch_windows,
            ),
            telemetry=telemetry,
        )
        return cls(server, config)

    # -- session lifecycle --------------------------------------------------
    def open_session(self, label: int = -1) -> StreamSession:
        """Create a session (bounded by ``max_sessions``)."""
        self._sweep()
        with self._lock:
            if len(self.sessions) >= self.config.max_sessions:
                raise TooManySessions(
                    f"{len(self.sessions)} sessions open; max_sessions="
                    f"{self.config.max_sessions}"
                )
            session_id = f"s{next(self._ids)}"
            session = StreamSession(self, session_id, label=label)
            self.sessions[session_id] = session
        if self.telemetry is not None:
            self._obs_sessions.inc()
        return session

    def session(self, session_id: str) -> StreamSession:
        """Look up a live session by id."""
        self._sweep()
        with self._lock:
            if session_id not in self.sessions:
                raise KeyError(f"no session {session_id!r} (expired or never opened)")
            return self.sessions[session_id]

    def drop_session(self, session_id: str) -> None:
        """Forget a session explicitly (its pending futures keep running)."""
        with self._lock:
            session = self.sessions.pop(session_id, None)
        if session is not None:
            session.closed = True

    def serve_stream(self, stream: EventStream,
                     timeout: Optional[float] = None) -> TemporalResult:
        """Convenience: one stream in, one rate-coded decision out."""
        session = self.open_session(label=stream.label)
        try:
            session.push_stream(stream)
            session.finish(stream.duration_us)
            return session.result(timeout)
        finally:
            self.drop_session(session.session_id)

    # -- lifecycle ----------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Drop every session and shut the underlying server down."""
        with self._lock:
            for session in self.sessions.values():
                session.closed = True
            self.sessions.clear()
        self.server.close(drain=drain)

    def __enter__(self) -> "StreamingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability ------------------------------------------------------
    def stats(self) -> dict:
        """Session counters merged over the wrapped server's stats."""
        with self._lock:
            open_sessions = len(self.sessions)
            windows = self._windows_served
            expired = self._sessions_expired
        stats = dict(self.server.stats())
        stats.update({
            "open_sessions": open_sessions,
            "windows_served": windows,
            "sessions_expired": expired,
        })
        return stats

    # -- internals ----------------------------------------------------------
    def _record_windows(self, count: int) -> None:
        with self._lock:
            self._windows_served += count
        if self.telemetry is not None:
            self._obs_windows.inc(count)

    def _sweep(self) -> None:
        """Reclaim sessions idle past the TTL (lazy, injected clock)."""
        now = self.clock()
        ttl = self.config.session_ttl_s
        with self._lock:
            stale = [
                sid for sid, session in self.sessions.items()
                if now - session.last_activity > ttl
            ]
            for sid in stale:
                session = self.sessions.pop(sid)
                session.expired = True
                self._sessions_expired += 1
        if stale and self.telemetry is not None:
            self._obs_expired.inc(len(stale))
