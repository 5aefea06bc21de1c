"""Deterministic closed-loop load generator for serving benchmarks.

Drives a :class:`~repro.serve.server.ModelServer` with ``clients``
threads, each submitting requests back-to-back (closed loop: a client
never has more than one request in flight, so offered load scales with
client count and observed latency — the standard way to measure a
server's throughput/latency trade-off without open-loop coordination
omission).

Reproducibility: request sizes and image offsets come from
:func:`repro.snc.seeding.substream` keyed by ``(seed, client, request)``
— RL001-compliant (no global RNG), and independent of thread scheduling,
so two runs against the same server offer the *same* request sequence
per client even though arrival interleaving differs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.snc.seeding import substream

__all__ = [
    "LoadGenConfig",
    "LoadReport",
    "StreamLoadConfig",
    "StreamLoadReport",
    "plan_requests",
    "plan_streams",
    "request_substream_key",
    "run_load",
    "run_stream_load",
    "stream_substream_key",
]

#: Substream token for frame-request planning (with ``(client, index)``).
REQUEST_TOKEN = "serve.loadgen"
#: Substream token for event-stream generation (with ``(client, index)``).
STREAM_TOKEN = "serve.loadgen.stream"


@dataclass
class LoadGenConfig:
    """Shape of the offered load.

    ``min_rows``/``max_rows`` bound the per-request image count
    (uniformly drawn from the request's substream); ``deadline_ms``
    forwards an SLO deadline with every request.
    """

    clients: int = 4
    requests_per_client: int = 32
    min_rows: int = 1
    max_rows: int = 16
    deadline_ms: Optional[float] = None
    seed: int = 0
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.requests_per_client < 1:
            raise ValueError(
                f"requests_per_client must be >= 1, got {self.requests_per_client}"
            )
        if not 1 <= self.min_rows <= self.max_rows:
            raise ValueError(
                f"need 1 <= min_rows <= max_rows, got {self.min_rows}..{self.max_rows}"
            )


@dataclass
class LoadReport:
    """What one load run measured."""

    clients: int
    requests_sent: int
    requests_ok: int
    requests_rejected: int
    requests_deadline_expired: int
    requests_failed: int
    rows_served: int
    wall_s: float
    latencies_s: List[float] = field(default_factory=list)
    #: The offered load and image pool size; :attr:`request_log` is
    #: rebuilt from them.
    config: Optional[LoadGenConfig] = None
    image_pool_size: int = 0

    @property
    def request_log(self) -> List[dict]:
        """Per-request provenance, in schedule order.

        ``{"client", "index", "offset", "rows", "substream"}`` for every
        *scheduled* request; ``substream`` is the exact
        :func:`request_substream_key` that generated the request, so any
        single request can be rebuilt in isolation without replanning
        the whole run.  The schedule is a pure function of the config,
        so the log is rebuilt on demand rather than held per request for
        the life of the report.
        """
        if self.config is None:
            return []
        config = self.config
        return [
            {
                "client": client,
                "index": index,
                "offset": offset,
                "rows": rows,
                "substream": request_substream_key(config, client, index),
            }
            for client, plan in enumerate(plan_requests(config, self.image_pool_size))
            for index, (offset, rows) in enumerate(plan)
        ]

    @property
    def throughput_rows_per_s(self) -> float:
        """Served image rows per wall-clock second."""
        return self.rows_served / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def throughput_requests_per_s(self) -> float:
        """Completed requests per wall-clock second."""
        return self.requests_ok / self.wall_s if self.wall_s > 0 else 0.0

    def latency_ms(self, percentile: float) -> float:
        """A latency percentile over successful requests, in ms."""
        if not self.latencies_s:
            return float("nan")
        return float(np.percentile(np.array(self.latencies_s), percentile) * 1e3)

    def to_dict(self) -> dict:
        """A JSON-ready summary (percentiles, not raw samples)."""
        return {
            "clients": self.clients,
            "requests_sent": self.requests_sent,
            "requests_ok": self.requests_ok,
            "requests_rejected": self.requests_rejected,
            "requests_deadline_expired": self.requests_deadline_expired,
            "requests_failed": self.requests_failed,
            "rows_served": self.rows_served,
            "wall_s": self.wall_s,
            "throughput_rows_per_s": self.throughput_rows_per_s,
            "throughput_requests_per_s": self.throughput_requests_per_s,
            "latency_p50_ms": self.latency_ms(50),
            "latency_p99_ms": self.latency_ms(99),
            "request_log": self.request_log,
        }


def request_substream_key(config: LoadGenConfig, client: int, index: int) -> dict:
    """The exact seeding key behind one scheduled request.

    ``substream(**key_without_the_doc_fields)`` — i.e.
    ``substream(seed, token, coordinates)`` — reproduces the request's
    RNG in isolation, with no need to replan the other requests.
    """
    return {
        "seed": config.seed,
        "token": REQUEST_TOKEN,
        "coordinates": [client, index],
    }


def _plan_one(config: LoadGenConfig, image_pool_size: int,
              client: int, index: int) -> tuple:
    rng = substream(config.seed, REQUEST_TOKEN, (client, index))
    rows = int(rng.integers(config.min_rows, config.max_rows + 1))
    rows = min(rows, image_pool_size)
    offset = int(rng.integers(0, image_pool_size - rows + 1))
    return (offset, rows)


def plan_requests(config: LoadGenConfig, image_pool_size: int) -> List[List[tuple]]:
    """The deterministic request schedule: per client, ``(offset, rows)``.

    Exposed separately so tests (and bit-exactness checks) can replay
    the exact slices a load run submitted.
    """
    return [
        [
            _plan_one(config, image_pool_size, client, index)
            for index in range(config.requests_per_client)
        ]
        for client in range(config.clients)
    ]


def run_load(server, images: np.ndarray, config: LoadGenConfig) -> LoadReport:
    """Offer the configured closed-loop load to ``server``; measure it.

    ``images`` is the pool request payloads are sliced from.  Rejected
    submissions (:class:`~repro.serve.queue.ServerOverloaded`) and
    expired deadlines (:class:`~repro.serve.queue.DeadlineExceeded`) are
    counted, not raised — shedding load is the behaviour under test.
    """
    from repro.serve.queue import DeadlineExceeded, ServerOverloaded

    schedule = plan_requests(config, len(images))
    report = LoadReport(
        clients=config.clients,
        requests_sent=0, requests_ok=0, requests_rejected=0,
        requests_deadline_expired=0, requests_failed=0,
        rows_served=0, wall_s=0.0,
        config=config, image_pool_size=len(images),
    )
    lock = threading.Lock()

    def client_loop(client: int) -> None:
        for offset, rows in schedule[client]:
            payload = images[offset : offset + rows]
            start = time.perf_counter()
            try:
                with lock:
                    report.requests_sent += 1
                logits = server.submit(
                    payload,
                    deadline_ms=config.deadline_ms,
                    timeout=config.timeout_s,
                )
                latency = time.perf_counter() - start
                with lock:
                    report.requests_ok += 1
                    report.rows_served += len(logits)
                    report.latencies_s.append(latency)
            except ServerOverloaded:
                with lock:
                    report.requests_rejected += 1
            except DeadlineExceeded:
                with lock:
                    report.requests_deadline_expired += 1
            except Exception:
                with lock:
                    report.requests_failed += 1

    threads = [
        threading.Thread(target=client_loop, args=(client,), daemon=True,
                         name=f"repro-loadgen-{client}")
        for client in range(config.clients)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_s = time.perf_counter() - wall_start
    return report


# ---------------------------------------------------------------------------
# Event-stream traffic mode
# ---------------------------------------------------------------------------

@dataclass
class StreamLoadConfig:
    """Shape of an event-stream (session) load.

    Each client opens one streaming session per generated stream and
    serves it end-to-end (closed loop).  Streams come from
    :func:`repro.datasets.event_stream.generate_event_stream`, seeded
    per ``(client, index)`` via :data:`STREAM_TOKEN` — so any individual
    stream is reproducible in isolation from its recorded key.
    """

    clients: int = 2
    streams_per_client: int = 4
    duration_us: int = 100_000
    seed: int = 0
    timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.streams_per_client < 1:
            raise ValueError(
                f"streams_per_client must be >= 1, got {self.streams_per_client}"
            )
        if self.duration_us < 1:
            raise ValueError(f"duration_us must be >= 1, got {self.duration_us}")


@dataclass
class StreamLoadReport:
    """What one event-stream load run measured."""

    clients: int
    streams_sent: int
    streams_ok: int
    streams_failed: int
    windows_served: int
    predictions_correct: int
    wall_s: float
    session_latencies_s: List[float] = field(default_factory=list)
    #: Per-stream provenance mirroring :attr:`LoadReport.request_log`:
    #: ``{"client", "index", "label", "events", "substream"}``.
    stream_log: List[dict] = field(default_factory=list)

    @property
    def windows_per_second(self) -> float:
        """Served event windows per wall-clock second."""
        return self.windows_served / self.wall_s if self.wall_s > 0 else 0.0

    def latency_ms(self, percentile: float) -> float:
        """A whole-session latency percentile (push → decision), in ms."""
        if not self.session_latencies_s:
            return float("nan")
        return float(
            np.percentile(np.array(self.session_latencies_s), percentile) * 1e3
        )

    def to_dict(self) -> dict:
        """A JSON-ready summary (percentiles, not raw samples)."""
        return {
            "clients": self.clients,
            "streams_sent": self.streams_sent,
            "streams_ok": self.streams_ok,
            "streams_failed": self.streams_failed,
            "windows_served": self.windows_served,
            "predictions_correct": self.predictions_correct,
            "wall_s": self.wall_s,
            "windows_per_second": self.windows_per_second,
            "session_p50_ms": self.latency_ms(50),
            "session_p99_ms": self.latency_ms(99),
            "stream_log": list(self.stream_log),
        }


def stream_substream_key(config: StreamLoadConfig, client: int, index: int) -> dict:
    """The exact seeding key behind one generated event stream."""
    return {
        "seed": config.seed,
        "token": STREAM_TOKEN,
        "coordinates": [client, index],
    }


def plan_streams(config: StreamLoadConfig) -> List[List]:
    """Deterministic per-client event streams (independent of scheduling).

    Regenerating with the same config yields byte-identical streams;
    a single stream can be rebuilt from its
    :func:`stream_substream_key` alone.
    """
    from repro.datasets.event_stream import NUM_CLASSES, generate_event_stream

    schedule: List[List] = []
    for client in range(config.clients):
        plan = []
        for index in range(config.streams_per_client):
            rng = substream(config.seed, STREAM_TOKEN, (client, index))
            label = int(rng.integers(0, NUM_CLASSES))
            plan.append(generate_event_stream(
                label, rng, duration_us=config.duration_us))
        schedule.append(plan)
    return schedule


def run_stream_load(streaming, config: StreamLoadConfig) -> StreamLoadReport:
    """Offer closed-loop event-stream traffic to a
    :class:`~repro.serve.stream.StreamingServer`; measure it.

    Each client thread serves its planned streams one session at a time
    (push → finish → decision).  Failures are counted, not raised.
    """
    schedule = plan_streams(config)
    report = StreamLoadReport(
        clients=config.clients,
        streams_sent=0, streams_ok=0, streams_failed=0,
        windows_served=0, predictions_correct=0, wall_s=0.0,
    )
    report.stream_log = [
        {
            "client": client,
            "index": index,
            "label": stream.label,
            "events": len(stream.t),
            "substream": stream_substream_key(config, client, index),
        }
        for client, plan in enumerate(schedule)
        for index, stream in enumerate(plan)
    ]
    lock = threading.Lock()

    def client_loop(client: int) -> None:
        for stream in schedule[client]:
            start = time.perf_counter()
            try:
                with lock:
                    report.streams_sent += 1
                result = streaming.serve_stream(stream, timeout=config.timeout_s)
                latency = time.perf_counter() - start
                with lock:
                    report.streams_ok += 1
                    report.windows_served += result.total_windows
                    report.predictions_correct += int(result.correct)
                    report.session_latencies_s.append(latency)
            except Exception:
                with lock:
                    report.streams_failed += 1

    threads = [
        threading.Thread(target=client_loop, args=(client,), daemon=True,
                         name=f"repro-streamgen-{client}")
        for client in range(config.clients)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.wall_s = time.perf_counter() - wall_start
    return report
