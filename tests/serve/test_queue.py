"""Tests of the bounded admission queue and its futures (repro.serve.queue)."""

import threading

import numpy as np
import pytest

from repro.serve.queue import (
    AdmissionQueue,
    DeadlineExceeded,
    ServeFuture,
    ServerClosed,
    ServerOverloaded,
)


class FakeClock:
    """A manually advanced monotonic clock for deterministic deadline tests."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def batch(rows, cols=3, fill=1.0):
    return np.full((rows, cols), fill)


class TestServeFuture:
    def test_result_roundtrip(self):
        future = ServeFuture()
        assert not future.done()
        future.set_result(np.arange(3.0))
        assert future.done()
        np.testing.assert_array_equal(future.result(0), np.arange(3.0))

    def test_exception_raised_from_result(self):
        future = ServeFuture()
        future.set_exception(DeadlineExceeded("too late"))
        with pytest.raises(DeadlineExceeded):
            future.result(0)

    def test_first_completion_wins(self):
        future = ServeFuture()
        future.set_result(np.zeros(2))
        future.set_exception(RuntimeError("loser"))
        np.testing.assert_array_equal(future.result(0), np.zeros(2))

    def test_result_times_out_while_pending(self):
        with pytest.raises(TimeoutError):
            ServeFuture().result(timeout=0.01)

    def test_done_callback_fires_on_completion(self):
        future = ServeFuture()
        seen = []
        future.add_done_callback(seen.append)
        assert seen == []
        future.set_result(np.zeros(1))
        assert seen == [future]

    def test_done_callback_fires_immediately_when_already_done(self):
        future = ServeFuture()
        future.set_result(np.zeros(1))
        seen = []
        future.add_done_callback(seen.append)
        assert seen == [future]


class TestAdmissionBound:
    def test_submit_past_bound_raises_server_overloaded(self):
        queue = AdmissionQueue(max_rows=10)
        queue.submit(batch(6))
        with pytest.raises(ServerOverloaded):
            queue.submit(batch(5))
        # The rejected request took no space: 4 more rows still fit.
        queue.submit(batch(4))
        assert queue.depth() == {"requests": 2, "rows": 10}

    def test_single_oversized_request_rejected(self):
        queue = AdmissionQueue(max_rows=4)
        with pytest.raises(ServerOverloaded):
            queue.submit(batch(5))

    def test_pop_frees_budget(self):
        queue = AdmissionQueue(max_rows=4)
        queue.submit(batch(4))
        assert queue.pop_nowait() is not None
        queue.submit(batch(4))  # fits again

    def test_bound_counts_rows_not_requests(self):
        queue = AdmissionQueue(max_rows=8)
        for _ in range(8):
            queue.submit(batch(1))
        with pytest.raises(ServerOverloaded):
            queue.submit(batch(1))

    def test_invalid_submissions_rejected(self):
        queue = AdmissionQueue(max_rows=8)
        with pytest.raises(ValueError):
            queue.submit(np.zeros(3))  # not a batch
        with pytest.raises(ValueError):
            queue.submit(np.zeros((0, 3)))  # empty


class TestDeadlines:
    def test_expired_request_completes_with_deadline_exceeded(self):
        clock = FakeClock()
        queue = AdmissionQueue(max_rows=16, clock=clock)
        doomed = queue.submit(batch(2), deadline_s=0.5)
        fine = queue.submit(batch(2))
        clock.advance(1.0)
        popped = queue.pop_nowait()
        assert popped is fine
        assert doomed.future.done()
        with pytest.raises(DeadlineExceeded):
            doomed.future.result(0)

    def test_unexpired_deadline_is_served(self):
        clock = FakeClock()
        queue = AdmissionQueue(max_rows=16, clock=clock)
        request = queue.submit(batch(2), deadline_s=5.0)
        clock.advance(1.0)
        assert queue.pop_nowait() is request

    def test_expiry_frees_row_budget(self):
        clock = FakeClock()
        queue = AdmissionQueue(max_rows=4, clock=clock)
        queue.submit(batch(4), deadline_s=0.1)
        clock.advance(1.0)
        assert queue.pop_nowait() is None  # expired on the way past
        queue.submit(batch(4))  # budget released


class TestMaxRows:
    def test_head_that_does_not_fit_stays_queued(self):
        queue = AdmissionQueue(max_rows=16)
        big = queue.submit(batch(5))
        assert queue.pop_nowait(max_rows=4) is None
        assert queue.depth() == {"requests": 1, "rows": 5}
        assert not big.future.done()
        assert queue.pop_nowait(max_rows=5) is big

    def test_never_skips_past_the_head(self):
        """FIFO holds: a small request behind a too-large head waits."""
        queue = AdmissionQueue(max_rows=16)
        queue.submit(batch(5))
        queue.submit(batch(1))
        assert queue.pop_nowait(max_rows=4) is None
        assert len(queue) == 2

    def test_expired_heads_shed_before_the_fit_check(self):
        clock = FakeClock()
        queue = AdmissionQueue(max_rows=16, clock=clock)
        doomed = queue.submit(batch(8), deadline_s=0.5)
        fits = queue.submit(batch(2))
        clock.advance(1.0)
        assert queue.pop_nowait(max_rows=2) is fits
        with pytest.raises(DeadlineExceeded):
            doomed.future.result(0)
        assert queue.depth() == {"requests": 0, "rows": 0}


class TestLifecycle:
    def test_submit_after_close_raises_server_closed(self):
        queue = AdmissionQueue(max_rows=8)
        queue.close()
        with pytest.raises(ServerClosed):
            queue.submit(batch(1))

    def test_close_leaves_queued_requests_drainable(self):
        queue = AdmissionQueue(max_rows=8)
        queue.submit(batch(3))
        queue.close()
        assert queue.closed
        assert queue.pop_nowait() is not None
        assert queue.pop_nowait() is None

    def test_blocking_pop_wakes_on_close(self):
        queue = AdmissionQueue(max_rows=8)
        results = []
        thread = threading.Thread(
            target=lambda: results.append(queue.pop(timeout=30.0))
        )
        thread.start()
        queue.close()
        thread.join(5.0)
        assert not thread.is_alive()
        assert results == [None]

    def test_blocking_pop_wakes_on_submit(self):
        queue = AdmissionQueue(max_rows=8)
        results = []
        thread = threading.Thread(target=lambda: results.append(queue.pop(30.0)))
        thread.start()
        request = queue.submit(batch(1))
        thread.join(5.0)
        assert not thread.is_alive()
        assert results == [request]

    def test_pop_timeout_returns_none(self):
        queue = AdmissionQueue(max_rows=8)
        assert queue.pop(timeout=0.01) is None

    def test_fifo_order(self):
        queue = AdmissionQueue(max_rows=64)
        ids = [queue.submit(batch(1)).request_id for _ in range(5)]
        popped = [queue.pop_nowait().request_id for _ in range(5)]
        assert popped == ids
