"""Tests of dynamic micro-batching and the scatter map (repro.serve.batcher).

Includes the PR's property test: whatever the arrival order and request
sizes, scatter/gather returns each caller exactly the logits of its own
rows — batching must never be observable in the results.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.batcher import MicroBatch, MicroBatcher
from repro.serve.queue import AdmissionQueue


def logits_of(images):
    """A deterministic per-row 'model': rows in → recognizable rows out."""
    flat = np.asarray(images).reshape(len(images), -1)
    return np.stack([flat[:, 0] * 2.0 + 1.0, flat[:, 0] - 3.0], axis=1)


def tagged(rows, tag):
    """A (rows, 4) batch whose rows all carry a distinguishing value."""
    return np.full((rows, 4), float(tag))


class TestCoalescing:
    def test_dispatch_at_batch_size(self):
        queue = AdmissionQueue(max_rows=256)
        batcher = MicroBatcher(queue, batch_size=8)
        for tag in range(4):
            queue.submit(tagged(4, tag))
        batch = batcher.next_batch()
        # Full after two 4-row requests; the other two stay queued.
        assert [r.rows for r in batch.requests] == [4, 4]
        assert batch.rows == 8
        assert len(queue) == 2

    def test_oversized_first_request_dispatches_alone(self):
        queue = AdmissionQueue(max_rows=256)
        batcher = MicroBatcher(queue, batch_size=8)
        queue.submit(tagged(12, 1))
        queue.submit(tagged(1, 2))
        batch = batcher.next_batch()
        assert [r.rows for r in batch.requests] == [12]

    def test_request_that_does_not_fit_stays_queued_for_next_batch(self):
        queue = AdmissionQueue(max_rows=256)
        batcher = MicroBatcher(queue, batch_size=8)
        first = queue.submit(tagged(5, 1))
        second = queue.submit(tagged(4, 2))  # 5 + 4 would overshoot 8
        batch = batcher.next_batch()
        assert batch.requests == [first]
        assert batch.rows == 5
        assert queue.depth() == {"requests": 1, "rows": 4}
        assert batcher.next_batch().requests == [second]

    def test_zero_wait_dispatches_whatever_is_queued(self):
        queue = AdmissionQueue(max_rows=256)
        batcher = MicroBatcher(queue, batch_size=64)
        queue.submit(tagged(2, 1))
        queue.submit(tagged(3, 2))
        batch = batcher.next_batch()
        assert batch.rows == 5  # both queued requests, no waiting for more

    def test_returns_none_once_closed_and_drained(self):
        queue = AdmissionQueue(max_rows=256)
        batcher = MicroBatcher(queue, batch_size=8)
        queue.submit(tagged(2, 1))
        queue.close()
        assert batcher.next_batch() is not None
        assert batcher.next_batch() is None

    def test_batch_images_concatenate_in_request_order(self):
        queue = AdmissionQueue(max_rows=256)
        batcher = MicroBatcher(queue, batch_size=4)
        queue.submit(tagged(2, 7))
        queue.submit(tagged(2, 9))
        batch = batcher.next_batch()
        np.testing.assert_array_equal(batch.images[:2], tagged(2, 7))
        np.testing.assert_array_equal(batch.images[2:], tagged(2, 9))


class TestScatter:
    def _batch_of(self, sizes):
        queue = AdmissionQueue(max_rows=4096)
        requests = [queue.submit(tagged(rows, tag)) for tag, rows in enumerate(sizes)]
        batcher = MicroBatcher(queue, batch_size=sum(sizes))
        return batcher.next_batch(), requests

    def test_each_future_gets_its_own_rows(self):
        batch, requests = self._batch_of([2, 3, 1])
        batch.scatter(logits_of(batch.images))
        for request in requests:
            np.testing.assert_array_equal(
                request.future.result(0), logits_of(request.images)
            )

    def test_scattered_rows_are_owned_copies(self):
        batch, requests = self._batch_of([2, 2])
        batch.scatter(logits_of(batch.images))
        first = requests[0].future.result(0)
        expected_second = np.array(requests[1].future.result(0))
        first[:] = -1e9  # a hostile caller scribbling on its logits
        np.testing.assert_array_equal(requests[1].future.result(0), expected_second)

    def test_row_count_mismatch_fails_every_request(self):
        batch, requests = self._batch_of([2, 3])
        batch.scatter(np.zeros((4, 2)))  # engine returned too few rows
        for request in requests:
            with pytest.raises(RuntimeError):
                request.future.result(0)

    def test_fail_completes_all_with_the_error(self):
        batch, requests = self._batch_of([1, 1])
        batch.fail(RuntimeError("engine died"))
        for request in requests:
            with pytest.raises(RuntimeError, match="engine died"):
                request.future.result(0)

    def test_micro_batch_rows_property(self):
        batch = MicroBatch(requests=[], images=np.zeros((5, 2)), formed_at=0.0)
        assert batch.rows == 5


@st.composite
def arrival_case(draw):
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
    batch_size = draw(st.integers(1, 24))
    order = draw(st.permutations(list(range(len(sizes)))))
    return sizes, batch_size, order


class TestScatterGatherProperty:
    @given(arrival_case())
    # The autouse leak guard wraps all examples at once — that's the
    # granularity we want, so suppress the per-example-reset check.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_logits_preserved_under_random_arrival_orders(self, case):
        """Any request sizes, any arrival order, any batch size: every
        caller's future holds exactly the model output of its own rows."""
        sizes, batch_size, order = case
        queue = AdmissionQueue(max_rows=4096)
        requests = {}
        for tag in order:  # arrival order is the shuffled permutation
            requests[tag] = queue.submit(tagged(sizes[tag], tag))
        queue.close()  # drained-shut queue → deterministic batch walk
        batcher = MicroBatcher(queue, batch_size=batch_size)
        while True:
            batch = batcher.next_batch()
            if batch is None:
                break
            assert batch.rows <= batch_size or len(batch.requests) == 1
            batch.scatter(logits_of(batch.images))
        for tag, request in requests.items():
            np.testing.assert_array_equal(
                request.future.result(0), logits_of(tagged(sizes[tag], tag))
            )
