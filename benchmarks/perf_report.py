"""Recording and reporting helpers for the performance reports.

Benchmarks append their numbers to a ``BENCH_*.json`` file under
``bench_reports/`` (git-ignored) via :func:`record` — ``BENCH_PR2.json``
(engine/kernels) by default, or any other report named via ``report``
(``bench_serving.py`` writes ``BENCH_PR4.json``).  The ``BENCH_*.json``
files committed at the repository root are the recorded history; a fresh
run never rewrites them.  Files are merged, not overwritten, so separate
pytest invocations (or a partial re-run) never lose each other's
sections.  Writes go through
:func:`repro.nn.serialization.atomic_write_text` (temp file + rename), so
an interrupted bench can never leave a truncated JSON behind.

Run as a module to print per-step deltas between two committed reports::

    python -m benchmarks.perf_report                 # PR7 vs PR2
    python -m benchmarks.perf_report A.json B.json   # A vs B
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Optional

from repro.nn.serialization import atomic_write_text

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_REPORT = "BENCH_PR2.json"
#: Where :func:`record` writes (listed in ``.gitignore``).
OUTPUT_DIR = os.path.join(_ROOT, "bench_reports")


def report_path(report: str = DEFAULT_REPORT) -> str:
    """Absolute path of a committed repo-root benchmark report (history)."""
    return os.path.join(_ROOT, report)


def output_path(report: str = DEFAULT_REPORT) -> str:
    """Absolute path a fresh run records ``report`` to."""
    return os.path.join(OUTPUT_DIR, report)


def record(section: str, name: str, payload: dict,
           report: str = DEFAULT_REPORT) -> str:
    """Merge ``payload`` into the run's ``report`` under ``section/name``."""
    path = output_path(report)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    data = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except ValueError:
            data = {}
    data.setdefault(section, {})[name] = payload
    atomic_write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def record_benchmark(benchmark, section: str, name: str,
                     extra: Optional[dict] = None) -> None:
    """Record a pytest-benchmark fixture's stats.

    No-op under ``--benchmark-disable`` (the fixture then runs the body
    once for correctness but collects no statistics).
    """
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    if stats is None:
        return
    payload = {
        "mean_ms": stats.mean * 1e3,
        "min_ms": stats.min * 1e3,
        "stddev_ms": stats.stddev * 1e3,
        "rounds": stats.rounds,
    }
    if extra:
        payload.update(extra)
    record(section, name, payload)


# ---------------------------------------------------------------------------
# Step-delta reporting (python -m benchmarks.perf_report)
# ---------------------------------------------------------------------------

def step_tables(data: dict) -> Dict[str, Dict[str, float]]:
    """Extract every per-step median table from a loaded report.

    Handles both recorded shapes: PR2's flat ``engine_steps`` section
    (``{step: {median_ms}}``) and PR7's workload-keyed sections
    (``{workload: {step: {median_ms}}}``).  Returns
    ``{"section[/workload]": {step: median_ms}}``.
    """
    tables: Dict[str, Dict[str, float]] = {}
    for section, body in data.items():
        if not section.startswith("engine_steps") or not isinstance(body, dict):
            continue
        entries = list(body.items())
        if entries and isinstance(entries[0][1], dict) and "median_ms" in entries[0][1]:
            tables[section] = {k: v["median_ms"] for k, v in entries}
            continue
        for workload, steps in entries:
            if isinstance(steps, dict):
                tables[f"{section}/{workload}"] = {
                    k: v["median_ms"] for k, v in steps.items()
                    if isinstance(v, dict) and "median_ms" in v
                }
    return tables


def format_step_deltas(current: dict, previous: dict,
                       current_name: str = "current",
                       previous_name: str = "previous") -> str:
    """Human-readable per-step medians of ``current``, with deltas against
    the best-matching table of ``previous`` (same step names win)."""
    cur_tables = step_tables(current)
    prev_tables = step_tables(previous)
    lines = []
    for label, steps in sorted(cur_tables.items()):
        best, overlap = None, 0
        for plabel, psteps in prev_tables.items():
            common = len(steps.keys() & psteps.keys())
            if common > overlap:
                best, overlap = plabel, common
        lines.append(f"{label} ({current_name})"
                     + (f" vs {best} ({previous_name})" if best else ""))
        prev_steps = prev_tables.get(best, {})
        for step in sorted(steps):
            ms = steps[step]
            if step in prev_steps and prev_steps[step] > 0:
                delta = (ms / prev_steps[step] - 1.0) * 100.0
                lines.append(f"  {step:24s} {ms:8.3f} ms  "
                             f"({delta:+6.1f}% vs {prev_steps[step]:.3f})")
            else:
                lines.append(f"  {step:24s} {ms:8.3f} ms  (new)")
        total = sum(steps.values())
        prev_total = sum(prev_steps.get(s, 0.0) for s in steps if s in prev_steps)
        if prev_total > 0:
            lines.append(f"  {'TOTAL':24s} {total:8.3f} ms  "
                         f"({(total / prev_total - 1.0) * 100.0:+6.1f}%"
                         f" vs {prev_total:.3f})")
        else:
            lines.append(f"  {'TOTAL':24s} {total:8.3f} ms")
    return "\n".join(lines) if lines else "no engine_steps sections recorded"


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    current_name = argv[0] if argv else "BENCH_PR7.json"
    previous_name = argv[1] if len(argv) > 1 else DEFAULT_REPORT
    try:
        with open(report_path(current_name)) as handle:
            current = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read {current_name}: {exc}", file=sys.stderr)
        return 1
    try:
        with open(report_path(previous_name)) as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        previous = {}
    print(format_step_deltas(current, previous, current_name, previous_name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
