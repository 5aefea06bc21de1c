"""Pool lifecycle behaviour every executor kind must show.

:class:`PoolContract` holds the tests once; each executor kind runs them
through a subclass that says how to build a pool over it
(``tests/serve/test_pool.py`` for in-process engines,
``tests/serve/test_procpool.py`` for worker processes).
"""

import numpy as np
import pytest

from repro.serve.queue import ServerClosed


class PoolContract:
    """Subclasses set ``backend`` and ``row_shape`` and implement
    :meth:`_pool` (``(queue, pool)`` with ``workers`` executors, not yet
    started) and :meth:`_expected` (the logits a replica must return)."""

    backend: str
    row_shape: tuple

    def _pool(self, workers=2):
        raise NotImplementedError

    def _expected(self, images):
        raise NotImplementedError

    def _rows(self, rows, value):
        return np.full((rows,) + tuple(self.row_shape), 0.1 * value)

    def test_drain_close_answers_queued_requests(self):
        queue, pool = self._pool()
        requests = [queue.submit(self._rows(2, i)) for i in range(6)]
        pool.start()
        pool.close(drain=True)
        for request in requests:
            np.testing.assert_array_equal(
                request.future.result(5.0), self._expected(request.images)
            )

    def test_non_drain_close_fails_queued_with_server_closed(self):
        queue, pool = self._pool()
        # Dispatchers never started: everything submitted stays queued.
        requests = [queue.submit(self._rows(2, 1)) for _ in range(3)]
        pool.close(drain=False)
        for request in requests:
            with pytest.raises(ServerClosed):
                request.future.result(0)

    def test_close_is_idempotent_and_start_after_close_is_safe(self):
        _, pool = self._pool()
        pool.start()
        pool.close()
        pool.close()
        with pytest.raises(ServerClosed):
            pool.start()
        assert pool.worker_pids() == []

    def test_stats_aggregate_across_replicas(self):
        queue, pool = self._pool(workers=2)
        pool.start()
        requests = [queue.submit(self._rows(4, i)) for i in range(4)]
        for request in requests:
            request.future.result(60.0)
        pool.close()
        stats = pool.stats()
        assert stats.workers == 2
        assert stats.rows == 16
        assert stats.degraded_replicas == 0
        assert len(stats.replicas) == 2
        assert {r["backend"] for r in stats.replicas} == {self.backend}
        assert all(r["restarts"] == 0 for r in stats.replicas)
