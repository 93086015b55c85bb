"""RetryQueue contract: the fleet's (due, row)-ordered resubmission heap.

Its ordering is load-bearing for bit-identical fleet reports: a run's
table keeps rows in request-id order, so popping in (due, row) order is
popping in (due, request id) order.  These tests pin that pop order,
the peek used by the fleet's quiet-tick skipper, and the snapshot
round-trip.
"""

import pytest

from repro.fleet import RetryQueue


class TestOrdering:
    def test_pops_in_due_then_id_order(self):
        queue = RetryQueue()
        queue.push(3.0, 1)
        queue.push(1.0, 2)
        queue.push(2.0, 3)
        assert queue.pop_due(10.0) == [2, 3, 1]

    def test_ties_break_by_request_id(self):
        queue = RetryQueue()
        for row in (9, 4, 7):
            queue.push(5.0, row)
        assert queue.pop_due(5.0) == [4, 7, 9]

    def test_pop_due_is_inclusive_and_partial(self):
        queue = RetryQueue()
        queue.push(1.0, 1)
        queue.push(2.0, 2)
        queue.push(3.0, 3)
        assert queue.pop_due(2.0) == [1, 2]
        assert len(queue) == 1
        assert queue.next_due_s == 3.0

    def test_drain_empties_in_order(self):
        queue = RetryQueue()
        queue.push(2.0, 1)
        queue.push(1.0, 2)
        assert queue.drain() == [2, 1]
        assert not queue


class TestPeek:
    def test_next_due_is_nondestructive(self):
        queue = RetryQueue()
        assert queue.next_due_s is None
        queue.push(4.0, 1)
        queue.push(2.0, 2)
        assert queue.next_due_s == 2.0
        assert len(queue) == 2  # peeking popped nothing

    def test_len_and_bool(self):
        queue = RetryQueue()
        assert len(queue) == 0 and not queue
        queue.push(1.0, 1)
        assert len(queue) == 1 and queue


class TestStateRoundTrip:
    def test_round_trip_preserves_order(self):
        queue = RetryQueue()
        queue.push(3.0, 1)
        queue.push(1.0, 2)
        queue.push(1.0, 3)
        restored = RetryQueue()
        restored.from_state(queue.to_state(), int)
        assert restored.next_due_s == 1.0
        assert restored.drain() == queue.drain()

    def test_state_references_by_id_only(self):
        """Entries are bare ``[due, row]`` pairs: a row is the run's
        request key (rows are in request-id order), never a payload."""
        queue = RetryQueue()
        queue.push(2.5, 7)
        assert queue.to_state() == [[2.5, 7]]

    def test_from_state_surfaces_unknown_ids(self):
        restored = RetryQueue()

        def check_row(row):
            raise KeyError(row)

        with pytest.raises(KeyError):
            restored.from_state([[1.0, 42]], check_row)
