"""Deterministic unit tests of the micro-batching policy core.

:class:`MicroBatcher` is the pure coalescing logic of the streaming scorer —
no threads, no wall clock — so every policy decision (flush on size, flush on
deadline, drain on shutdown) is pinned here against explicit timestamps.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.service import BatchPolicy, FrameRequest, MicroBatcher


def _request(enqueued_at: float) -> FrameRequest:
    return FrameRequest(frame=np.zeros(4), enqueued_at=enqueued_at)


class TestBatchPolicy:
    def test_defaults_are_valid(self):
        policy = BatchPolicy()
        assert policy.max_batch >= 1
        assert policy.max_latency >= 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_latency": -0.1},
            {"max_batch": 8, "max_pending": 4},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchPolicy(**kwargs)


class TestFlushOnSize:
    def test_not_ready_below_max_batch(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=4, max_latency=10.0))
        for t in (0.0, 0.1, 0.2):
            batcher.append(_request(t))
        assert not batcher.ready(now=0.3)
        assert not batcher.full

    def test_ready_at_max_batch_regardless_of_deadline(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=4, max_latency=10.0))
        for t in (0.0, 0.1, 0.2, 0.3):
            batcher.append(_request(t))
        assert batcher.full
        # Far before the latency deadline: size alone triggers the flush.
        assert batcher.ready(now=0.3)

    def test_full_batch_flushes_for_size(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=2, max_latency=10.0))
        batcher.append(_request(0.0))
        batcher.append(_request(0.0))
        assert batcher.flush_reason(now=0.0) == "size"

    def test_take_pops_oldest_first_and_caps_at_max_batch(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=3, max_latency=10.0))
        for t in range(5):
            batcher.append(_request(float(t)))
        batch = batcher.take()
        assert [request.enqueued_at for request in batch] == [0.0, 1.0, 2.0]
        assert len(batcher) == 2
        # The remainder becomes the next batch, still oldest-first.
        assert [request.enqueued_at for request in batcher.take()] == [3.0, 4.0]


class TestFlushOnDeadline:
    def test_deadline_is_anchored_on_the_oldest_frame(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_latency=0.5))
        batcher.append(_request(1.0))
        batcher.append(_request(1.4))
        assert batcher.deadline() == pytest.approx(1.5)

    def test_not_ready_before_deadline_ready_after(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_latency=0.5))
        batcher.append(_request(1.0))
        assert not batcher.ready(now=1.49)
        assert batcher.ready(now=1.5)
        assert batcher.ready(now=99.0)

    def test_partial_batch_flushes_for_deadline(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_latency=0.5))
        batcher.append(_request(1.0))
        assert batcher.flush_reason(now=1.5) == "deadline"

    def test_zero_latency_flushes_immediately(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=100, max_latency=0.0))
        batcher.append(_request(2.0))
        assert batcher.ready(now=2.0)

    def test_empty_batcher_is_never_ready(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=1, max_latency=0.0))
        assert batcher.deadline() is None
        assert not batcher.ready(now=1e9)
        assert batcher.take() == []


class TestDrain:
    def test_drain_empties_everything_in_batches(self):
        batcher = MicroBatcher(BatchPolicy(max_batch=4, max_latency=10.0))
        for t in range(10):
            batcher.append(_request(float(t)))
        batches = batcher.drain()
        assert [len(batch) for batch in batches] == [4, 4, 2]
        assert len(batcher) == 0
        flattened = [request.enqueued_at for batch in batches for request in batch]
        assert flattened == [float(t) for t in range(10)]


class TestBackpressure:
    def test_saturated_only_with_max_pending(self):
        unbounded = MicroBatcher(BatchPolicy(max_batch=2, max_latency=1.0))
        for t in range(100):
            unbounded.append(_request(float(t)))
        assert not unbounded.saturated

        bounded = MicroBatcher(
            BatchPolicy(max_batch=2, max_latency=1.0, max_pending=3)
        )
        for t in range(3):
            assert not bounded.saturated
            bounded.append(_request(float(t)))
        assert bounded.saturated

    def test_would_overflow_counts_the_whole_burst(self):
        bounded = MicroBatcher(
            BatchPolicy(max_batch=2, max_latency=1.0, max_pending=4)
        )
        # An empty queue admits a burst up to the bound but no further.
        assert not bounded.would_overflow(4)
        assert bounded.would_overflow(5)
        bounded.append(_request(0.0))
        assert not bounded.would_overflow(3)
        assert bounded.would_overflow(4)
