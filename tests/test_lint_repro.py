"""Tests for the repo-invariant AST lint (tools/lint_repro.py)."""

import importlib.util
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "lint_repro.py"
_spec = importlib.util.spec_from_file_location("lint_repro", _TOOL)
lint_repro = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lint_repro)


def _write(path: Path, source: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _rules(findings):
    return [f.rule for f in findings]


class TestGlobalRandomRule:
    def test_global_state_call_is_rl001(self, tmp_path):
        f = _write(tmp_path / "mod.py", """
            import numpy as np
            x = np.random.normal(0, 1, size=3)
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL001"]
        assert "np.random.normal" in findings[0].message

    def test_seed_call_is_rl001(self, tmp_path):
        f = _write(tmp_path / "mod.py", """
            import numpy
            numpy.random.seed(0)
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL001"]

    def test_generator_usage_is_clean(self, tmp_path):
        f = _write(tmp_path / "mod.py", """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.normal(0, 1, size=3)
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_seeding_module_is_exempt(self, tmp_path):
        f = _write(tmp_path / "snc" / "seeding.py", """
            import numpy as np
            np.random.seed(0)
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_unrelated_random_attribute_is_clean(self, tmp_path):
        f = _write(tmp_path / "mod.py", """
            import numpy as np

            class Box:
                pass

            box = Box()
            box.random = lambda: 0.5
            y = box.random()
        """)
        assert lint_repro.lint_paths([f]) == []


class TestStepAllocationRule:
    def test_allocation_in_step_run_is_rl002(self, tmp_path):
        f = _write(tmp_path / "runtime" / "plan.py", """
            import numpy as np

            class GemmStep:
                def run(self, pool):
                    scratch = np.zeros((4, 4))
                    return scratch
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL002"]
        assert "GemmStep.run" in findings[0].message

    def test_asarray_in_step_run_is_allowed(self, tmp_path):
        f = _write(tmp_path / "runtime" / "plan.py", """
            import numpy as np

            class CastStep:
                def run(self, x):
                    return np.asarray(x, dtype=np.float32)
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_allocation_outside_run_is_allowed(self, tmp_path):
        f = _write(tmp_path / "runtime" / "plan.py", """
            import numpy as np

            class GemmStep:
                def __init__(self):
                    self.scratch = np.zeros((4, 4))
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_rule_only_applies_to_plan_module(self, tmp_path):
        f = _write(tmp_path / "other.py", """
            import numpy as np

            class GemmStep:
                def run(self):
                    return np.zeros(3)
        """)
        assert lint_repro.lint_paths([f]) == []


class TestDocstringRule:
    def _package(self, tmp_path):
        _write(tmp_path / "repro" / "__init__.py",
               "from repro.util import documented, naked\n")
        return _write(tmp_path / "repro" / "util.py", """
            def documented():
                '''Has one.'''

            def naked():
                return 1

            def _private_needs_none():
                return 2
        """)

    def test_missing_docstring_is_rl003(self, tmp_path):
        self._package(tmp_path)
        findings = lint_repro.lint_paths([tmp_path])
        assert _rules(findings) == ["RL003"]
        assert "naked" in findings[0].message

    def test_unexported_module_is_exempt(self, tmp_path):
        _write(tmp_path / "repro" / "__init__.py", "")
        _write(tmp_path / "repro" / "util.py", """
            def naked():
                return 1
        """)
        assert lint_repro.lint_paths([tmp_path]) == []


class TestSuppression:
    def test_inline_ignore_silences_the_line(self, tmp_path):
        f = _write(tmp_path / "mod.py", """
            import numpy as np
            x = np.random.normal()  # lint: ignore[RL001]
            y = np.random.uniform()
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL001"]
        assert findings[0].line == 4

    def test_ignore_must_name_the_right_rule(self, tmp_path):
        f = _write(tmp_path / "mod.py", """
            import numpy as np
            x = np.random.normal()  # lint: ignore[RL002]
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL001"]


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path / "ok.py", "import numpy as np\n")
        assert lint_repro.main([str(tmp_path)]) == 0

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        _write(tmp_path / "bad.py",
               "import numpy as np\nnp.random.seed(0)\n")
        assert lint_repro.main([str(tmp_path)]) == 1
        assert "RL001" in capsys.readouterr().out

    def test_repo_source_tree_is_clean(self):
        repo_src = Path(__file__).resolve().parents[1] / "src"
        assert lint_repro.lint_paths([repo_src]) == []


class TestRuleTable:
    def test_rules_documented(self):
        doc = _TOOL.read_text()
        for rule in lint_repro.RULES:
            assert rule in doc


class TestBoundedQueueRule:
    def test_unbounded_stdlib_queue_is_rl004(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            import queue
            q = queue.Queue()
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL004"]
        assert "maxsize" in findings[0].message

    def test_zero_maxsize_still_flagged(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            import queue
            q = queue.Queue(maxsize=0)
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL004"]

    def test_bounded_queue_is_clean(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            import queue
            q = queue.Queue(maxsize=64)
            p = queue.PriorityQueue(128)
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_simple_queue_always_flagged(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            import queue
            q = queue.SimpleQueue()
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL004"]

    def test_deque_without_maxlen_is_rl004(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            from collections import deque
            buffer = deque()
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL004"]

    def test_deque_with_maxlen_is_clean(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            from collections import deque
            buffer = deque(maxlen=100)
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_self_append_without_bound_is_rl004(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            class Collector:
                def __init__(self):
                    self.items = []

                def push(self, item):
                    self.items.append(item)
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL004"]
        assert "Collector" in findings[0].message

    def test_self_append_with_declared_bound_is_clean(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            class Bounded:
                def __init__(self, max_items):
                    self.max_items = max_items
                    self.items = []

                def push(self, item):
                    if len(self.items) >= self.max_items:
                        raise OverflowError("full")
                    self.items.append(item)
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_local_list_append_is_clean(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            class Stateless:
                def collect(self, xs):
                    out = []
                    for x in xs:
                        out.append(x)
                    return out
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_rule_only_applies_inside_serve(self, tmp_path):
        f = _write(tmp_path / "repro" / "runtime" / "mod.py", """
            import queue
            q = queue.Queue()
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_suppression_comment_works(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            import queue
            q = queue.Queue()  # lint: ignore[RL004]
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_actual_serve_package_is_clean(self):
        serve_dir = Path(_TOOL).parents[1] / "src" / "repro" / "serve"
        findings = [
            f for f in lint_repro.lint_paths([serve_dir]) if f.rule == "RL004"
        ]
        assert findings == []


class TestInjectedClockRule:
    def test_direct_clock_call_in_serve_is_rl005(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            import time
            start = time.perf_counter()
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL005"]
        assert "time.perf_counter" in findings[0].message

    def test_from_import_alias_is_caught(self, tmp_path):
        f = _write(tmp_path / "repro" / "obs" / "mod.py", """
            from time import monotonic as now
            t = now()
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL005"]
        assert "time.monotonic" in findings[0].message

    def test_ns_variants_are_caught(self, tmp_path):
        f = _write(tmp_path / "repro" / "runtime" / "engine.py", """
            import time
            t = time.monotonic_ns()
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL005"]

    def test_clock_reference_as_default_is_clean(self, tmp_path):
        f = _write(tmp_path / "repro" / "runtime" / "guard.py", """
            import time

            def probe(clock=time.monotonic):
                return clock()
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_sleep_is_not_a_clock_read(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            import time
            time.sleep(0.01)
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_obs_clock_module_is_exempt(self, tmp_path):
        f = _write(tmp_path / "repro" / "obs" / "clock.py", """
            import time
            t = time.monotonic()
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_loadgen_measurement_client_is_exempt(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "loadgen.py", """
            import time
            t = time.perf_counter()
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_uncovered_module_is_clean(self, tmp_path):
        f = _write(tmp_path / "repro" / "training" / "loop.py", """
            import time
            t = time.perf_counter()
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_suppression_comment_works(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            import time
            t = time.time()  # lint: ignore[RL005]
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_actual_hot_paths_are_clean(self):
        src = Path(_TOOL).parents[1] / "src"
        findings = [
            f for f in lint_repro.lint_paths([src]) if f.rule == "RL005"
        ]
        assert findings == []


class TestExceptionHygieneRule:
    def test_bare_except_in_flow_is_rl006(self, tmp_path):
        f = _write(tmp_path / "repro" / "flow" / "mod.py", """
            def load():
                try:
                    return open("x")
                except:
                    return None
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL006"]
        assert "bare `except:`" in findings[0].message

    def test_silent_pass_handler_in_serve_is_rl006(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            def submit(queue, item):
                try:
                    queue.put(item)
                except ValueError:
                    pass
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL006"]
        assert "swallows" in findings[0].message

    def test_ellipsis_handler_in_runtime_is_rl006(self, tmp_path):
        f = _write(tmp_path / "repro" / "runtime" / "mod.py", """
            def replay(plan):
                try:
                    plan.run()
                except RuntimeError:
                    ...
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL006"]

    def test_handler_that_records_is_clean(self, tmp_path):
        f = _write(tmp_path / "repro" / "flow" / "mod.py", """
            def apply(fn, item, sink):
                try:
                    return fn(item)
                except ValueError as error:
                    sink.record("apply", 0, item, error)
                    return None
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_handler_that_reraises_is_clean(self, tmp_path):
        f = _write(tmp_path / "repro" / "flow" / "mod.py", """
            def apply(fn):
                try:
                    return fn()
                except (KeyboardInterrupt, SystemExit):
                    raise
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_rule_only_applies_to_strict_dirs(self, tmp_path):
        f = _write(tmp_path / "repro" / "analysis" / "mod.py", """
            def probe():
                try:
                    return 1
                except Exception:
                    pass
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_suppression_comment_works(self, tmp_path):
        f = _write(tmp_path / "repro" / "flow" / "mod.py", """
            def probe():
                try:
                    return 1
                except Exception:  # lint: ignore[RL006]
                    pass
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_flow_package_is_clean(self):
        flow = Path(__file__).resolve().parents[1] / "src" / "repro" / "flow"
        findings = [f for f in lint_repro.lint_paths([flow])
                    if f.rule == "RL006"]
        assert findings == []


class TestEventModuleCoverage:
    """PR 9: RL005/RL006 extend over serve/stream.py and the event modules."""

    def test_clock_call_in_stream_module_is_rl005(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "stream.py", """
            import time

            def sweep():
                return time.monotonic()
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL005"]

    def test_clock_call_in_event_dataset_is_rl005(self, tmp_path):
        f = _write(tmp_path / "repro" / "datasets" / "event_stream.py", """
            import time

            def stamp():
                return time.time_ns()
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL005"]

    def test_clock_call_in_temporal_module_is_rl005(self, tmp_path):
        f = _write(tmp_path / "repro" / "snc" / "temporal.py", """
            from time import perf_counter

            def bin_windows():
                return perf_counter()
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL005"]

    def test_bare_except_in_nir_module_is_rl006(self, tmp_path):
        f = _write(tmp_path / "repro" / "snc" / "nir.py", """
            def load(path):
                try:
                    return open(path)
                except:
                    return None
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL006"]
        assert "bare `except:`" in findings[0].message

    def test_silent_handler_in_event_dataset_is_rl006(self, tmp_path):
        f = _write(tmp_path / "repro" / "datasets" / "event_stream.py", """
            def read(archive, key):
                try:
                    return archive[key]
                except KeyError:
                    pass
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL006"]

    def test_other_snc_modules_stay_uncovered(self, tmp_path):
        f = _write(tmp_path / "repro" / "snc" / "mapping.py", """
            import time

            def measure():
                try:
                    return time.monotonic()
                except OSError:
                    pass
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_actual_event_modules_are_clean(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        targets = [
            src / "datasets" / "event_stream.py",
            src / "snc" / "temporal.py",
            src / "snc" / "nir.py",
            src / "serve" / "stream.py",
        ]
        findings = [f for f in lint_repro.lint_paths(targets)
                    if f.rule in ("RL005", "RL006")]
        assert findings == []


class TestFlowClockCoverage:
    def test_direct_clock_call_in_flow_is_rl005(self, tmp_path):
        f = _write(tmp_path / "repro" / "flow" / "mod.py", """
            import time

            def wait():
                return time.monotonic()
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL005"]

    def test_clock_reference_in_flow_is_clean(self, tmp_path):
        f = _write(tmp_path / "repro" / "flow" / "mod.py", """
            import time

            def runner(clock=time.monotonic):
                return clock()
        """)
        assert lint_repro.lint_paths([f]) == []


class TestLockDisciplineRule:
    def test_unlocked_assignment_is_rl007(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def infer(self):
                    self.counters = {}
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL007"]
        assert "_lock" in findings[0].message

    def test_locked_mutation_is_clean(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def infer(self):
                    with self._lock:
                        self.counters = {}
                        self.health_log.append(1)
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_unlocked_mutator_call_is_rl007(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def record(self):
                    self.health_log.append(1)
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL007"]

    def test_unlocked_augmented_assignment_is_rl007(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def bump(self):
                    self.counters.requests_total += 1
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL007"]

    def test_mutation_in_branch_under_lock_is_clean(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def infer(self):
                    with self._lock:
                        if self.ready:
                            self.last_report = None
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_mutation_in_branch_outside_lock_is_rl007(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def infer(self):
                    if self.ready:
                        self.last_report = None
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL007"]

    def test_init_is_exempt(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def __init__(self):
                    self.counters = {}
                    self.health_log = []
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_locked_suffix_helper_is_exempt(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def _serve_locked(self):
                    self.counters.requests_software += 1
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_wrong_lock_does_not_satisfy_contract(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def infer(self):
                    with self._other_lock:
                        self.counters = {}
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL007"]

    def test_unrelated_attribute_is_clean(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def configure(self):
                    self.config = {}
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_pool_contract_unlocked_threads_is_rl007(self, tmp_path):
        f = _write(tmp_path / "serve" / "pool.py", """
            class Pool:
                max_workers = 4

                def close(self):
                    self._threads = []
                    self._started = False
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL007", "RL007"]

    def test_pool_contract_locked_lifecycle_is_clean(self, tmp_path):
        f = _write(tmp_path / "serve" / "pool.py", """
            class Pool:
                max_workers = 4

                def close(self):
                    with self._lifecycle_lock:
                        self._threads = []
                        self._started = False
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_rule_only_applies_to_contract_files(self, tmp_path):
        f = _write(tmp_path / "runtime" / "engine.py", """
            class Engine:
                def run(self):
                    self.counters = {}
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_suppression_comment_works(self, tmp_path):
        f = _write(tmp_path / "runtime" / "guard.py", """
            class Guard:
                def infer(self):
                    self.counters = {}  # lint: ignore[RL007]
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_actual_contract_files_are_clean(self):
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        targets = [src / "runtime" / "guard.py", src / "serve" / "pool.py"]
        findings = [f for f in lint_repro.lint_paths(targets)
                    if f.rule == "RL007"]
        assert findings == []

    def test_procpool_contract_unlocked_workers_is_rl007(self, tmp_path):
        """Worker-process lifecycle state now lives in the one pool
        contract: spawning and closing outside the lock fire there, and
        serve/procpool.py carries no contract of its own."""
        body = """
            class Pool:
                def close(self):
                    self._spawned = False
                    self._closed = True
        """
        pool = _write(tmp_path / "serve" / "pool.py", body)
        assert _rules(lint_repro.lint_paths([pool])) == ["RL007", "RL007"]
        procpool = _write(tmp_path / "serve" / "procpool.py", body)
        assert lint_repro.lint_paths([procpool]) == []


class TestShmExclusivityRule:
    """PR 10: RL008 — shared-memory segments only through serve/shm.py."""

    def test_shared_memory_import_is_rl008(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            from multiprocessing import shared_memory
        """)
        findings = lint_repro.lint_paths([f])
        assert _rules(findings) == ["RL008"]
        assert "serve/shm.py" in findings[0].message

    def test_submodule_import_is_rl008(self, tmp_path):
        f = _write(tmp_path / "repro" / "runtime" / "mod.py", """
            import multiprocessing.shared_memory
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL008"]

    def test_from_submodule_import_is_rl008(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            from multiprocessing.shared_memory import SharedMemory
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL008"]

    def test_constructor_call_is_rl008(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            import multiprocessing as mp


            def grab(name):
                return mp.shared_memory.SharedMemory(name=name)
        """)
        findings = lint_repro.lint_paths([f])
        # Both the submodule reach-through and the constructor call flag.
        assert "RL008" in _rules(lint_repro.lint_paths([f]))
        assert all(r == "RL008" for r in _rules(findings))

    def test_shareable_list_is_rl008(self, tmp_path):
        f = _write(tmp_path / "repro" / "flow" / "mod.py", """
            def stash(values):
                return ShareableList(values)
        """)
        assert _rules(lint_repro.lint_paths([f])) == ["RL008"]

    def test_shm_module_is_exempt(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "shm.py", """
            from multiprocessing import shared_memory

            def make(nbytes):
                return shared_memory.SharedMemory(create=True, size=nbytes)
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_plain_multiprocessing_use_is_clean(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            import multiprocessing as mp

            def spawn(target):
                return mp.get_context("spawn").Process(target=target)
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_suppression_comment_works(self, tmp_path):
        f = _write(tmp_path / "repro" / "serve" / "mod.py", """
            from multiprocessing import shared_memory  # lint: ignore[RL008]
        """)
        assert lint_repro.lint_paths([f]) == []

    def test_actual_source_tree_has_no_rl008(self):
        src = Path(__file__).resolve().parents[1] / "src"
        findings = [f for f in lint_repro.lint_paths([src])
                    if f.rule == "RL008"]
        assert findings == []
