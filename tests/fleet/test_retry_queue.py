"""RetryQueue contract: the fleet's (due, id)-ordered resubmission heap.

The helper replaced three open-coded ``heapq`` sites in the cluster;
its ordering is load-bearing for bit-identical fleet reports, so these
tests pin (due, id) pop order, the peek used by the fleet's
quiet-tick skipper, and the snapshot round-trip.
"""

import pytest

from repro.fleet import RetryQueue
from repro.serving.scheduler import ServeRequest


def req(request_id, arrival_s=0.0):
    return ServeRequest(request_id=request_id, arrival_s=arrival_s,
                        prompt_tokens=64, output_tokens=8)


class TestOrdering:
    def test_pops_in_due_then_id_order(self):
        queue = RetryQueue()
        queue.push(3.0, req(1))
        queue.push(1.0, req(2))
        queue.push(2.0, req(3))
        assert [r.request_id for r in queue.pop_due(10.0)] == [2, 3, 1]

    def test_ties_break_by_request_id(self):
        queue = RetryQueue()
        for request_id in (9, 4, 7):
            queue.push(5.0, req(request_id))
        assert [r.request_id for r in queue.pop_due(5.0)] == [4, 7, 9]

    def test_pop_due_is_inclusive_and_partial(self):
        queue = RetryQueue()
        queue.push(1.0, req(1))
        queue.push(2.0, req(2))
        queue.push(3.0, req(3))
        assert [r.request_id for r in queue.pop_due(2.0)] == [1, 2]
        assert len(queue) == 1
        assert queue.next_due_s == 3.0

    def test_drain_empties_in_order(self):
        queue = RetryQueue()
        queue.push(2.0, req(1))
        queue.push(1.0, req(2))
        assert [r.request_id for r in queue.drain()] == [2, 1]
        assert not queue


class TestPeek:
    def test_next_due_is_nondestructive(self):
        queue = RetryQueue()
        assert queue.next_due_s is None
        queue.push(4.0, req(1))
        queue.push(2.0, req(2))
        assert queue.next_due_s == 2.0
        assert len(queue) == 2  # peeking popped nothing

    def test_len_and_bool(self):
        queue = RetryQueue()
        assert len(queue) == 0 and not queue
        queue.push(1.0, req(1))
        assert len(queue) == 1 and queue


class TestStateRoundTrip:
    def test_round_trip_preserves_order(self):
        queue = RetryQueue()
        queue.push(3.0, req(1))
        queue.push(1.0, req(2))
        queue.push(1.0, req(3))
        requests = {i: req(i) for i in (1, 2, 3)}
        restored = RetryQueue()
        restored.from_state(queue.to_state(), requests.__getitem__)
        assert restored.next_due_s == 1.0
        assert ([r.request_id for r in restored.drain()]
                == [r.request_id for r in queue.drain()])

    def test_state_references_by_id_only(self):
        queue = RetryQueue()
        queue.push(2.5, req(7))
        assert queue.to_state() == [[2.5, 7]]

    def test_from_state_surfaces_unknown_ids(self):
        restored = RetryQueue()

        def resolve(request_id):
            raise KeyError(request_id)

        with pytest.raises(KeyError):
            restored.from_state([[1.0, 42]], resolve)
