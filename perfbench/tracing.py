"""Spans around the serving stack's public entry points, recorded from outside.

:func:`instrument` swaps each entry point listed in :data:`ENTRY_POINTS`
(and every plan step's ``run``) for a wrapper that records one span into
a :class:`repro.obs.Tracer`, and restores the originals on exit; nothing
under ``src/`` is edited.  A span carries its name, start, end, parent
span (the enclosing span on the same thread) and, in its ``requests``
attribute, the ids of the requests it worked for.  Spans stay in memory
until the benchmark writes them out at exit.

:func:`layer_table` turns spans into per-layer self time and counts;
:func:`serve_metrics` and :func:`setup_metrics` turn them into the
benchmark's per-layer metrics.  Worker processes are not instrumented:
the process pool is seen only from the parent (round trips,
shared-memory leases, spawns).
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import Span, Tracer
from repro.runtime.engine import InferenceEngine
from repro.runtime.plan import ExecutionPlan, Step
from repro.serve.batcher import MicroBatch, MicroBatcher
from repro.serve.pool import Replica
from repro.serve.procpool import ProcessWorker
from repro.serve.queue import AdmissionQueue
from repro.serve.shm import SlabAllocator

#: Spans one tracer keeps: enough for every span of a 30-second run.
MAX_SPANS = 10_000_000


def new_tracer() -> Tracer:
    """A tracer on the serving stack's clock (so span times and
    ``ServeRequest.enqueued_at`` share one time base) that drops nothing."""
    return Tracer(max_spans=MAX_SPANS)


def call(tracer: Tracer, name: str, fn: Callable, args: tuple, kwargs: dict,
         describe: Optional[Callable] = None):
    """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

    ``describe(args, result)`` returns ``(request_ids, attributes)``; it
    runs after the span closes, so its cost is not timed.
    """
    with tracer.span(name) as span:
        result = fn(*args, **kwargs)
    if describe is not None:
        requests, attributes = describe(args, result)
        span.set(requests=tuple(requests), **attributes)
    return result


def requests_of(span: Span) -> Tuple[int, ...]:
    """Ids of the requests a span worked for."""
    return span.attributes.get("requests", ())


def within(spans: Sequence[Span], windows: Sequence[Tuple[float, float]]) -> List[Span]:
    """The spans that started and ended inside one of ``windows``."""
    return [s for s in spans if any(lo <= s.start and s.end <= hi for lo, hi in windows)]


def write(spans: Sequence[Span], path) -> None:
    """Write every span as one JSON object per line."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict()) + "\n")


def _ids(requests) -> List[int]:
    return [r.request_id for r in requests]


def _describe_pop(args, request):
    if request is None:
        return (), {}
    return (request.request_id,), {"enqueued_at": request.enqueued_at, "rows": request.rows}


def _describe_batch(args, batch):
    if batch is None:
        return (), {}
    return _ids(batch.requests), {"rows": batch.rows, "request_count": len(batch.requests)}


def _describe_engine(args, result):
    engine, images = args[0], args[1]
    return (), {"rows": len(images), "engine": id(engine), "backend": engine.active_backend}


#: ``(owner, method, span name, describe)`` for each wrapped entry point.
ENTRY_POINTS: Sequence[tuple] = (
    (AdmissionQueue, "submit", "serve.queue.submit",
     lambda a, r: ((r.request_id,), {"rows": r.rows})),
    (AdmissionQueue, "pop", "serve.queue.pop", _describe_pop),
    (AdmissionQueue, "pop_nowait", "serve.queue.pop", _describe_pop),
    (MicroBatcher, "next_batch", "serve.batcher.next_batch", _describe_batch),
    (MicroBatch, "scatter", "serve.batcher.scatter",
     lambda a, r: (_ids(a[0].requests), {"rows": a[0].rows})),
    (Replica, "serve", "serve.pool.serve",
     lambda a, r: (_ids(a[1].requests), {"rows": a[1].rows})),
    (ProcessWorker, "run", "serve.procpool.roundtrip",
     lambda a, r: ((), {"rows": a[2][0]})),
    (ProcessWorker, "spawn", "serve.procpool.spawn", None),
    (SlabAllocator, "lease", "serve.shm.lease", lambda a, r: ((), {"bytes": a[1]})),
    (InferenceEngine, "run", "runtime.engine.run", _describe_engine),
    (ExecutionPlan, "run", "runtime.plan.run",
     lambda a, r: ((), {"rows": len(a[1]), "plan": id(a[0])})),
)


def _step_classes() -> List[type]:
    found, todo = [], [Step]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "run" in vars(cls):
            found.append(cls)
    return found


def _wrapper(tracer: Tracer, name: str, original: Callable, describe) -> Callable:
    def traced(*args, **kwargs):
        return call(tracer, name, original, args, kwargs, describe)

    traced.__wrapped__ = original
    return traced


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Record spans into ``tracer`` for the duration of the block."""
    patches = [(owner, method, name, describe)
               for owner, method, name, describe in ENTRY_POINTS]
    patches += [(cls, "run", "runtime.plan.step",
                 lambda a, r: ((), {"index": a[0].index, "kind": a[0].kind}))
                for cls in _step_classes()]
    originals = [(owner, method, vars(owner)[method]) for owner, method, _, _ in patches]
    try:
        for owner, method, name, describe in patches:
            setattr(owner, method, _wrapper(tracer, name, vars(owner)[method], describe))
        yield tracer
    finally:
        for owner, method, original in originals:
            setattr(owner, method, original)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _children(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    return children


def _label(span: Span) -> str:
    if span.name == "runtime.plan.step":
        return f"runtime.plan.step.{span.attributes['index']:02d}-{span.attributes['kind']}"
    return span.name


def layer_table(spans: Sequence[Span]) -> List[dict]:
    """Per layer: calls, total and self milliseconds, mean per call.

    Self time is a span's duration minus its direct children's; children
    run on the span's own thread, nested inside it, so they never overlap.
    """
    children = _children(spans)
    rows: Dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(_label(span), {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        inner = sum(child.duration for child in children.get(span.span_id, ()))
        row["calls"] += 1
        row["total_ms"] += span.duration * 1e3
        row["self_ms"] += (span.duration - inner) * 1e3
    return [
        {"layer": name, **row, "mean_ms": row["total_ms"] / row["calls"]}
        for name, row in sorted(rows.items())
    ]


def format_table(rows: Sequence[dict]) -> str:
    """A fixed-width text rendering of :func:`layer_table`."""
    lines = [f"{'layer':<44} {'calls':>8} {'total_ms':>11} {'self_ms':>11} {'mean_ms':>9}"]
    lines += [
        f"{r['layer']:<44} {r['calls']:>8} {r['total_ms']:>11.2f} "
        f"{r['self_ms']:>11.2f} {r['mean_ms']:>9.4f}"
        for r in rows
    ]
    return "\n".join(lines)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def serve_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics of a traced timed phase (names as in BENCHMARK.json).

    Means are per call.  A layer the workload never runs reports 0.
    """
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    children = _children(spans)

    def kids(span: Span, name: str) -> List[Span]:
        return [c for c in children.get(span.span_id, ()) if c.name == name]

    pops = [s for s in by_name["serve.queue.pop"] if requests_of(s)]
    batches = [s for s in by_name["serve.batcher.next_batch"] if requests_of(s)]
    forms = []
    for batch in batches:
        first = min((p.end for p in kids(batch, "serve.queue.pop") if requests_of(p)),
                    default=batch.end)
        forms.append(batch.end - first)

    engine_rows, batch_rows = 0, 0
    for serve in by_name["serve.pool.serve"]:
        batch_rows += serve.attributes["rows"]
        engine_rows += sum(e.attributes["rows"] for e in kids(serve, "runtime.engine.run"))

    engine_runs = by_name["runtime.engine.run"]
    planned = [(e, kids(e, "runtime.plan.run")) for e in engine_runs]
    overheads = [e.duration - sum(p.duration for p in plans) for e, plans in planned if plans]
    graph_runs = [e.duration for e in engine_runs if e.attributes["backend"] == "graph"]
    plan_runs = by_name["runtime.plan.run"]
    steps = by_name["runtime.plan.step"]
    plan_seconds = sum(p.duration for p in plan_runs)

    metrics = {
        "serve.queue.wait_ms": _mean([(p.end - p.attributes["enqueued_at"]) * 1e3 for p in pops]),
        "serve.batcher.form_ms": _mean(forms) * 1e3,
        "serve.batcher.rows_per_batch": _mean([b.attributes["rows"] for b in batches]),
        "serve.batcher.requests_per_batch": _mean(
            [b.attributes["request_count"] for b in batches]),
        "serve.batcher.scatter_ms": _mean(
            [s.duration for s in by_name["serve.batcher.scatter"]]) * 1e3,
        "serve.pool.busy_ms": _mean([s.duration for s in by_name["serve.pool.serve"]]) * 1e3,
        "serve.pool.padded_row_share": (
            (engine_rows - batch_rows) / engine_rows if engine_rows else 0.0),
        "serve.procpool.roundtrip_ms": _mean(
            [s.duration for s in by_name["serve.procpool.roundtrip"]]) * 1e3,
        "serve.shm.bytes_per_batch": _mean(
            [s.attributes["bytes"] for s in by_name["serve.shm.lease"]]),
        "runtime.engine.run_ms": _mean([e.duration for e in engine_runs]) * 1e3,
        "runtime.engine.overhead_ms": _mean(overheads) * 1e3,
        "runtime.plan.run_ms": _mean([p.duration for p in plan_runs]) * 1e3,
        "runtime.plan.step_sum_share": (
            sum(s.duration for s in steps) / plan_seconds if plan_seconds else 0.0),
        "nn.graph.run_ms": _mean(graph_runs) * 1e3,
    }
    per_step: Dict[str, List[float]] = defaultdict(list)
    for step in steps:
        per_step[f"{_label(step)}.ms"].append(step.duration)
    metrics.update({name: _mean(values) * 1e3 for name, values in per_step.items()})
    return metrics


def setup_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics of a traced setup (seconds, summed over replicas).

    ``trace_s`` is each engine's first run minus the plan replay inside
    it (tracing, static checks, compiling); ``warm_s`` is the first plan
    replay of each batch shape on each replica.
    """
    children = _children(spans)
    seen_engines, seen_shapes = set(), set()
    trace_s = warm_s = 0.0
    for span in spans:
        if span.name == "runtime.engine.run" and span.attributes["engine"] not in seen_engines:
            seen_engines.add(span.attributes["engine"])
            replay = sum(c.duration for c in children.get(span.span_id, ())
                         if c.name == "runtime.plan.run")
            trace_s += span.duration - replay
        elif span.name == "runtime.plan.run":
            shape = (span.attributes["plan"], span.attributes["rows"])
            if shape not in seen_shapes:
                seen_shapes.add(shape)
                warm_s += span.duration
    return {
        "core.deployment.deploy_s": sum(
            s.duration for s in spans if s.name == "core.deployment.deploy_model"),
        "runtime.plan.trace_s": trace_s,
        "runtime.plan.warm_s": warm_s,
        "serve.procpool.spawn_s": sum(
            s.duration for s in spans if s.name == "serve.procpool.spawn"),
    }


def request_of(spans: Sequence[Span], client: Span) -> Optional[int]:
    """The id the serving stack gave a ``client.request`` span's request
    (recorded by the ``serve.queue.submit`` span inside it)."""
    for child in _children(spans).get(client.span_id, ()):
        if child.name == "serve.queue.submit" and requests_of(child):
            return requests_of(child)[0]
    return None


def explain_request(spans: Sequence[Span], request_id: int) -> List[str]:
    """The spans that worked for one request, each with its nested spans."""
    children = _children(spans)
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        queued = (f"  (queued {(span.end - span.attributes['enqueued_at']) * 1e3:.3f} ms)"
                  if request_id in requests_of(span) and "enqueued_at" in span.attributes
                  else "")
        lines.append(f"{'  ' * depth}{_label(span):<40} {span.duration * 1e3:9.3f} ms"
                     f"  @{span.start:.6f}{queued}")
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            walk(child, depth + 1)

    roots = [s for s in spans if request_id in requests_of(s)]
    owned = {c.span_id for s in roots for c in children.get(s.span_id, ())}
    for span in sorted(roots, key=lambda s: s.start):
        if span.span_id not in owned:
            walk(span, 0)
    return lines
