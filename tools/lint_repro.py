#!/usr/bin/env python3
"""AST lint enforcing repo-specific invariants ruff cannot express.

Rules
-----
``RL001`` — no ``np.random.*`` global-state calls outside
    ``snc/seeding.py``.  Reproducibility rests on explicit
    ``np.random.Generator`` objects threaded through the code; a stray
    ``np.random.seed``/``np.random.normal`` silently couples unrelated
    experiments.  ``default_rng`` and ``Generator`` are fine anywhere.
``RL002`` — no array allocation inside ``ExecutionPlan`` kernel replay
    bodies (the ``run`` methods of ``Step`` subclasses in
    ``src/repro/runtime/plan.py``).  Steady-state inference must allocate
    nothing; workspaces come from the :class:`BufferPool`.  View/cast
    helpers (``asarray``, ``ascontiguousarray``) are allowed.
``RL003`` — public module-level functions in modules re-exported by a
    ``src/repro/**/__init__.py`` must carry docstrings: they are the
    package API.
``RL004`` — no unbounded queues or buffers inside ``repro/serve/``.
    The serving layer's contract is explicit backpressure: admission
    rejects with ``ServerOverloaded`` instead of queueing without limit.
    Flags ``queue.Queue``/``LifoQueue``/``PriorityQueue`` constructed
    without a positive ``maxsize``, ``queue.SimpleQueue`` (never
    boundable), ``collections.deque`` without ``maxlen``, and
    ``self.<attr>.append(...)`` in classes that declare no bound
    (heuristic: no identifier matching ``max``/``bound`` anywhere in the
    class body).
``RL005`` — no direct clock *calls* (``time.time``/``perf_counter``/
    ``monotonic`` and their ``_ns`` variants) in obs-instrumented hot
    paths: ``repro/obs/`` (except ``obs/clock.py``, the one sanctioned
    ``time.*`` user), ``runtime/engine.py``, ``runtime/plan.py``,
    ``runtime/guard.py``, and ``repro/serve/`` (except
    ``serve/loadgen.py``, which is a measurement *client*, not the
    serving path).  Clocks must be injected values so disabled telemetry
    pays zero syscalls and tests can use a FakeClock.  References
    (``clock=time.monotonic`` as a default) are fine — only calls are
    flagged.  Also covers ``repro/flow/`` — the orchestration layer's
    retry/timeout machinery must run on injected clocks — and the event
    modules (``datasets/event_stream.py``, ``snc/temporal.py``,
    ``snc/nir.py``): event time is carried by the µs timestamps in the
    streams themselves, so a wall-clock read there would silently couple
    binning to the host machine.
``RL006`` — no bare ``except:`` and no silently swallowed exceptions in
    the robustness-critical layers ``repro/flow/``, ``repro/serve/``,
    ``repro/runtime/``, and the event modules listed under RL005 (a
    dropped event or a half-read archive must surface, not vanish).
    A bare ``except`` catches
    ``KeyboardInterrupt``/``SystemExit`` and turns a crash into a hang;
    a handler whose body is only ``pass``/``...`` makes a failure
    unobservable — exactly what the failsink/telemetry machinery exists
    to prevent.  Handlers must name the exceptions they can recover from
    and record, re-raise, or transform what they catch.
``RL008`` — shared-memory segments are created only in
    ``serve/shm.py``.  The slab allocator's lease table is the single
    account of live segments (generation-tagged leases, leak checks,
    registry-driven unlink at drain); a bare
    ``multiprocessing.shared_memory.SharedMemory``/``ShareableList``
    constructed anywhere else would be invisible to it, so both the
    import of ``multiprocessing.shared_memory`` and the constructor
    calls are flagged outside that one module.  Attach via
    :func:`repro.serve.shm.attach_segment`, allocate via
    :class:`repro.serve.shm.SlabAllocator`.
``RL007`` — lock discipline for the concurrency-critical classes in
    ``runtime/guard.py`` (probe and counter state) and ``serve/pool.py``
    (the replica pool's lifecycle state, one contract for every executor
    kind).  Each file declares a contract (lock attribute + the shared
    attributes it protects) in ``LOCK_CONTRACTS``; any method that assigns one of those attributes,
    or calls a mutating container method on one (``append``/``update``/
    ``pop``…), must do so lexically inside ``with self.<lock>``.
    ``__init__`` is exempt (no concurrent callers exist yet), as are
    methods whose name ends in ``_locked`` — the naming convention for
    helpers documented as callable only with the lock already held.

Suppress a finding by appending ``# lint: ignore[RL002]`` to the
offending line.

Usage: ``python tools/lint_repro.py src/ [more paths...]``
Exits nonzero when any finding survives suppression.  Standard library
only — the CI lint job runs it without installing the package.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Sequence, Set

#: np.random functions that mutate or read the hidden global RandomState.
GLOBAL_STATE_RANDOM = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "choice", "bytes", "shuffle", "permutation", "beta", "binomial",
    "chisquare", "dirichlet", "exponential", "gamma", "geometric", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial", "noncentral_chisquare",
    "noncentral_f", "normal", "pareto", "poisson", "power", "rayleigh",
    "standard_cauchy", "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald", "weibull", "zipf",
    "get_state", "set_state",
})

#: numpy allocators forbidden in kernel replay bodies.  View/cast helpers
#: (asarray, ascontiguousarray, reshape) stay legal — they only copy when
#: the layout demands it, which the plans control deliberately.
ALLOCATORS = frozenset({
    "empty", "zeros", "ones", "full", "empty_like", "zeros_like", "ones_like",
    "full_like", "array", "arange", "linspace", "eye", "identity",
})

RULES = {
    "RL001": "np.random global-state call outside snc/seeding.py",
    "RL002": "array allocation inside an ExecutionPlan kernel replay body",
    "RL003": "public function in an __init__-exported module lacks a docstring",
    "RL004": "unbounded queue or buffer inside the serving layer (repro/serve/)",
    "RL005": "direct time.* clock call in an obs-instrumented hot path",
    "RL006": "bare except or silently swallowed exception in a robustness-critical layer",
    "RL007": "shared attribute mutated outside its declared lock",
    "RL008": "shared-memory segment constructed outside serve/shm.py",
}

#: constructors that create (or attach) raw shared-memory segments;
#: outside serve/shm.py they bypass the lease table (RL008).
SHM_CONSTRUCTORS = frozenset({"SharedMemory", "ShareableList"})

#: the one module allowed to touch multiprocessing.shared_memory.
SHM_MODULE_SUFFIX = "serve/shm.py"

#: RL007 contracts: file suffix → (lock attribute, shared attributes that
#: must only be mutated while lexically inside ``with self.<lock>``).
LOCK_CONTRACTS = {
    "runtime/guard.py": ("_lock", frozenset({
        "counters", "health_log", "last_report", "_requests_since_probe",
    })),
    "serve/pool.py": ("_lifecycle_lock", frozenset({
        "_threads", "_spawned", "_started", "_closed",
    })),
}

#: container methods that mutate their receiver (RL007 flags
#: ``self.<shared>.<mutator>(...)`` outside the lock).
MUTATORS = frozenset({
    "append", "appendleft", "extend", "add", "insert", "remove", "discard",
    "pop", "popleft", "popitem", "clear", "update", "setdefault", "sort",
})

#: directories where RL006 applies: layers whose whole point is making
#: failures visible and recoverable.
EXCEPTION_STRICT_DIRS = ("repro/flow/", "repro/serve/", "repro/runtime/")

#: time-module functions that read a clock; calling one hides a time
#: source the telemetry layer cannot control or fake.
CLOCK_READS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})

#: suffixes of files where clocks must be injected, not read (RL005).
CLOCK_INJECTED_SUFFIXES = (
    "runtime/engine.py", "runtime/plan.py", "runtime/guard.py",
)

#: RL005 exemptions: clock.py IS the injection point; loadgen.py is a
#: measurement client sitting outside the serving path.
CLOCK_EXEMPT_SUFFIXES = ("obs/clock.py", "serve/loadgen.py")

#: event/temporal modules (RL005 + RL006): binning and interchange are
#: driven by event timestamps, never the host clock, and a swallowed
#: failure there silently drops events or truncates archives.
EVENT_MODULE_SUFFIXES = (
    "datasets/event_stream.py", "snc/temporal.py", "snc/nir.py",
    "serve/stream.py",
)

#: stdlib queue classes that accept (and default to an unbounded) maxsize.
BOUNDABLE_QUEUES = frozenset({"Queue", "LifoQueue", "PriorityQueue"})

_BOUND_NAME_RE = re.compile(r"max|bound", re.IGNORECASE)

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[([A-Z0-9,\s]+)\]")


class Finding(NamedTuple):
    """One lint violation: where, which rule, and what happened."""

    path: Path
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _suppressions(source: str) -> dict:
    """Map line number → set of rule ids suppressed on that line."""
    ignores = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(line)
        if match:
            ignores[lineno] = {rule.strip() for rule in match.group(1).split(",")}
    return ignores


def _numpy_aliases(tree: ast.Module) -> Set[str]:
    """Names the module binds to the numpy package (usually {"np"})."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` → ["a", "b", "c"]; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def check_global_random(path: Path, tree: ast.Module) -> Iterator[Finding]:
    """RL001: np.random.<global-state fn>(...) calls."""
    if path.as_posix().endswith("snc/seeding.py"):
        return
    numpy_names = _numpy_aliases(tree)
    if not numpy_names:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if (
            chain is not None
            and len(chain) == 3
            and chain[0] in numpy_names
            and chain[1] == "random"
            and chain[2] in GLOBAL_STATE_RANDOM
        ):
            yield Finding(
                path, node.lineno, "RL001",
                f"call to {'.'.join(chain)} uses numpy's hidden global RNG; "
                "thread an np.random.Generator through instead (see snc/seeding.py)",
            )


def _is_step_class(cls: ast.ClassDef) -> bool:
    """A Step subclass: named *Step, or directly based on Step."""
    if cls.name.endswith("Step"):
        return True
    for base in cls.bases:
        chain = _attr_chain(base)
        if chain and chain[-1] == "Step":
            return True
    return False


def check_step_allocations(path: Path, tree: ast.Module) -> Iterator[Finding]:
    """RL002: numpy allocators inside Step.run bodies in runtime/plan.py."""
    if not path.as_posix().endswith("runtime/plan.py"):
        return
    numpy_names = _numpy_aliases(tree)
    for cls in tree.body:
        if not (isinstance(cls, ast.ClassDef) and _is_step_class(cls)):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "run"):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                chain = _attr_chain(node.func)
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] in numpy_names
                    and chain[1] in ALLOCATORS
                ):
                    yield Finding(
                        path, node.lineno, "RL002",
                        f"{'.'.join(chain)} allocates inside {cls.name}.run; "
                        "take a pooled buffer (pool.get) so steady-state "
                        "replay allocates nothing",
                    )


def _exported_modules(root: Path) -> Set[Path]:
    """Module files re-exported by any ``__init__.py`` under ``root``.

    A module counts as exported when an ``__init__.py`` does
    ``from <pkg>.<mod> import ...``; those modules form the package API
    surface whose public functions must be documented.
    """
    exported: Set[Path] = set()
    for init in root.rglob("__init__.py"):
        try:
            tree = ast.parse(init.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        for node in tree.body:
            if not isinstance(node, ast.ImportFrom) or node.module is None or node.level:
                continue
            candidate = root / Path(*node.module.split(".")[1:])
            module_file = candidate.with_suffix(".py")
            if node.module.startswith("repro.") and module_file.is_file():
                exported.add(module_file.resolve())
    return exported


def check_docstrings(path: Path, tree: ast.Module,
                     exported: Set[Path]) -> Iterator[Finding]:
    """RL003: public top-level functions in exported modules need docstrings."""
    if path.resolve() not in exported:
        return
    for node in tree.body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and ast.get_docstring(node) is None
        ):
            yield Finding(
                path, node.lineno, "RL003",
                f"public function {node.name}() in an __init__-exported "
                "module has no docstring",
            )


def _has_positive_maxsize(node: ast.Call) -> bool:
    """Whether a queue constructor passes a usable bound.

    A literal ``0`` (stdlib spelling of "unbounded") or negative constant
    does not count; any other expression is assumed to be a real bound.
    """
    candidates = list(node.args[:1])
    candidates.extend(kw.value for kw in node.keywords if kw.arg == "maxsize")
    for value in candidates:
        if isinstance(value, ast.Constant):
            if isinstance(value.value, (int, float)) and value.value > 0:
                return True
        else:
            return True
    return False


def _class_declares_bound(cls: ast.ClassDef) -> bool:
    """Heuristic: any identifier in the class body mentions max/bound."""
    for node in ast.walk(cls):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.arg):
            name = node.arg
        if name is not None and _BOUND_NAME_RE.search(name):
            return True
    return False


def check_bounded_queues(path: Path, tree: ast.Module) -> Iterator[Finding]:
    """RL004: unbounded queues/buffers inside src/repro/serve/."""
    if "repro/serve/" not in path.as_posix():
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if chain is None:
            continue
        name = chain[-1]
        stdlib_spelling = len(chain) == 1 or (
            len(chain) == 2 and chain[0] in ("queue", "collections")
        )
        if not stdlib_spelling:
            continue
        if name in BOUNDABLE_QUEUES and not _has_positive_maxsize(node):
            yield Finding(
                path, node.lineno, "RL004",
                f"{name}() without a positive maxsize is an unbounded queue; "
                "the serving layer must reject load it cannot hold",
            )
        elif name == "SimpleQueue":
            yield Finding(
                path, node.lineno, "RL004",
                "SimpleQueue cannot be bounded; use a maxsize-limited queue "
                "or an explicit row-count bound",
            )
        elif name == "deque" and not any(
            kw.arg == "maxlen" for kw in node.keywords
        ) and len(node.args) < 2:
            yield Finding(
                path, node.lineno, "RL004",
                "deque() without maxlen grows without bound; pass maxlen or "
                "enforce an explicit bound before appending",
            )
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or _class_declares_bound(cls):
            continue
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
            ):
                chain = _attr_chain(node.func.value)
                if chain and chain[0] == "self":
                    yield Finding(
                        path, node.lineno, "RL004",
                        f"{cls.name} appends to self.{'.'.join(chain[1:])} but "
                        "declares no bound (no max*/bound* identifier in the "
                        "class); buffers in repro/serve must be bounded",
                    )


def _time_aliases(tree: ast.Module) -> tuple:
    """(module aliases for ``time``, local names bound to clock reads).

    Catches both ``import time`` / ``import time as t`` and
    ``from time import perf_counter [as pc]``.
    """
    modules: Set[str] = set()
    functions: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    modules.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in CLOCK_READS:
                    functions[alias.asname or alias.name] = alias.name
    return modules, functions


def check_injected_clocks(path: Path, tree: ast.Module) -> Iterator[Finding]:
    """RL005: direct clock calls where the clock must be injected."""
    posix = path.as_posix()
    if any(posix.endswith(suffix) for suffix in CLOCK_EXEMPT_SUFFIXES):
        return
    covered = (
        "repro/obs/" in posix
        or "repro/serve/" in posix
        or "repro/flow/" in posix
        or any(posix.endswith(suffix) for suffix in CLOCK_INJECTED_SUFFIXES)
        or any(posix.endswith(suffix) for suffix in EVENT_MODULE_SUFFIXES)
    )
    if not covered:
        return
    modules, functions = _time_aliases(tree)
    if not modules and not functions:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attr_chain(node.func)
        if chain is None:
            continue
        read = None
        if len(chain) == 2 and chain[0] in modules and chain[1] in CLOCK_READS:
            read = f"{chain[0]}.{chain[1]}"
        elif len(chain) == 1 and chain[0] in functions:
            read = f"{chain[0]} (time.{functions[chain[0]]})"
        if read is not None:
            yield Finding(
                path, node.lineno, "RL005",
                f"{read}() reads a hidden clock in an instrumented hot path; "
                "accept a Clock value (see repro/obs/clock.py) so telemetry "
                "stays fake-able and free when disabled",
            )


def _handler_body_is_silent(handler: ast.ExceptHandler) -> bool:
    """Whether a handler's body does nothing observable (only pass/...)."""
    for stmt in handler.body:
        if isinstance(stmt, ast.Pass):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and (stmt.value.value is Ellipsis or isinstance(stmt.value.value, str))
        ):
            continue  # `...` or a bare docstring-style literal
        return False
    return True


def check_exception_hygiene(path: Path, tree: ast.Module) -> Iterator[Finding]:
    """RL006: bare excepts / silent swallowing in flow, serve, runtime."""
    posix = path.as_posix()
    covered = any(directory in posix for directory in EXCEPTION_STRICT_DIRS) \
        or any(posix.endswith(suffix) for suffix in EVENT_MODULE_SUFFIXES)
    if not covered:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield Finding(
                path, node.lineno, "RL006",
                "bare `except:` also catches KeyboardInterrupt/SystemExit and "
                "turns a kill into a hang; name the exceptions this handler "
                "can actually recover from",
            )
        elif _handler_body_is_silent(node):
            yield Finding(
                path, node.lineno, "RL006",
                "handler swallows the exception without recording it; route "
                "it to a Failsink, count it in telemetry, or re-raise — "
                "silent failures defeat the robustness layer",
            )


def check_shm_exclusivity(path: Path, tree: ast.Module) -> Iterator[Finding]:
    """RL008: multiprocessing.shared_memory only inside serve/shm.py."""
    if path.as_posix().endswith(SHM_MODULE_SUFFIX):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("multiprocessing.shared_memory"):
                    yield Finding(
                        path, node.lineno, "RL008",
                        f"import of {alias.name} outside serve/shm.py bypasses "
                        "the lease allocator; use SlabAllocator / "
                        "attach_segment from repro.serve.shm",
                    )
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names = {alias.name for alias in node.names}
            offending = (
                node.module.startswith("multiprocessing.shared_memory")
                or (node.module == "multiprocessing" and "shared_memory" in names)
            )
            if offending:
                yield Finding(
                    path, node.lineno, "RL008",
                    "import of multiprocessing.shared_memory outside "
                    "serve/shm.py bypasses the lease allocator; use "
                    "SlabAllocator / attach_segment from repro.serve.shm",
                )
        elif isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain is not None and chain[-1] in SHM_CONSTRUCTORS:
                yield Finding(
                    path, node.lineno, "RL008",
                    f"{'.'.join(chain)}() constructs a raw shared-memory "
                    "segment outside serve/shm.py; every segment must go "
                    "through the lease allocator so the leak checks stay "
                    "sound",
                )


def _locks_in_with(node: ast.With, lock: str) -> bool:
    """Whether one of the ``with`` items acquires ``self.…<lock>``."""
    for item in node.items:
        chain = _attr_chain(item.context_expr)
        if chain is not None and chain[0] == "self" and chain[-1] == lock:
            return True
    return False


def _flatten_targets(targets: Sequence[ast.AST]) -> Iterator[ast.AST]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flatten_targets(target.elts)
        else:
            yield target


def _unlocked_mutations(path: Path, stmt: ast.stmt, lock: str,
                        attrs: frozenset) -> Iterator[Finding]:
    """RL007 findings for one simple statement outside the lock."""
    if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in _flatten_targets(targets):
            chain = _attr_chain(target)
            if (
                chain is not None
                and len(chain) >= 2
                and chain[0] == "self"
                and chain[1] in attrs
            ):
                yield Finding(
                    path, stmt.lineno, "RL007",
                    f"self.{'.'.join(chain[1:])} is assigned outside "
                    f"`with self.{lock}`; shared state must be mutated under "
                    "its declared lock (or from a *_locked helper)",
                )
    elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        chain = _attr_chain(stmt.value.func)
        if (
            chain is not None
            and len(chain) >= 3
            and chain[0] == "self"
            and chain[1] in attrs
            and chain[-1] in MUTATORS
        ):
            yield Finding(
                path, stmt.lineno, "RL007",
                f"self.{'.'.join(chain[1:])}() mutates shared state outside "
                f"`with self.{lock}`; acquire the lock first (or move this "
                "into a *_locked helper)",
            )


def _walk_lock_scope(path: Path, stmts: Sequence[ast.stmt], lock: str,
                     attrs: frozenset, guarded: bool) -> Iterator[Finding]:
    """Walk statements tracking whether the contract lock is lexically held."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested defs run later, under their own discipline
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = guarded or _locks_in_with(stmt, lock)
            yield from _walk_lock_scope(path, stmt.body, lock, attrs, inner)
            continue
        if not guarded:
            yield from _unlocked_mutations(path, stmt, lock, attrs)
        for field in ("body", "orelse", "finalbody"):
            children = getattr(stmt, field, None)
            if children:
                yield from _walk_lock_scope(path, children, lock, attrs, guarded)
        for handler in getattr(stmt, "handlers", ()) or ():
            yield from _walk_lock_scope(path, handler.body, lock, attrs, guarded)


def check_lock_discipline(path: Path, tree: ast.Module) -> Iterator[Finding]:
    """RL007: contract-listed shared attributes mutated outside their lock."""
    posix = path.as_posix()
    contract = next(
        (spec for suffix, spec in LOCK_CONTRACTS.items()
         if posix.endswith(suffix)),
        None,
    )
    if contract is None:
        return
    lock, attrs = contract
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name == "__init__" or fn.name.endswith("_locked"):
                continue
            yield from _walk_lock_scope(path, fn.body, lock, attrs, False)


def lint_paths(paths: Sequence[Path]) -> List[Finding]:
    """Lint every ``.py`` file under the given paths; return the findings."""
    files: List[Path] = []
    repro_roots: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
            repro_roots.extend(p for p in (path / "repro",) if p.is_dir())
            if path.name == "repro":
                repro_roots.append(path)
        elif path.suffix == ".py":
            files.append(path)
    exported: Set[Path] = set()
    for root in repro_roots:
        exported |= _exported_modules(root)

    findings: List[Finding] = []
    for file in files:
        source = file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            print(f"{file}: syntax error: {exc}", file=sys.stderr)
            continue
        ignores = _suppressions(source)
        for finding in (
            *check_global_random(file, tree),
            *check_step_allocations(file, tree),
            *check_docstrings(file, tree, exported),
            *check_bounded_queues(file, tree),
            *check_injected_clocks(file, tree),
            *check_exception_hygiene(file, tree),
            *check_shm_exclusivity(file, tree),
            *check_lock_discipline(file, tree),
        ):
            if finding.rule not in ignores.get(finding.line, ()):
                findings.append(finding)
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: lint the given paths, print findings, exit 0/1."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path,
                        help="files or directories to lint (e.g. src/)")
    args = parser.parse_args(argv)
    findings = lint_paths(args.paths)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"\n{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
