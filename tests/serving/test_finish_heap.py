"""The finish-step heap stays exact beside the finish index.

``_decode_run`` reads the next finish step from ``_finish_steps``, a
heap holding every key of ``_finish_at`` plus keys that a withdrawal
emptied, which are dropped when they surface.  These tests drive random
submit/step/cancel/evacuate/snapshot sequences under every admission x
KV-isolation policy, on pools tight enough to preempt, and check after
every action that the heap is a heap holding every finish step.  A
rebuild (the exact decode path's ``_reindex``, a restore) leaves exactly
the finish steps, in the list ``step()`` holds, and an evacuation leaves
none.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.experiment import cpu_deployment
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.scheduler import ContinuousBatchingScheduler, OutcomeLog
from repro.tenancy import whale_mix

POPULATION = whale_mix(60, 6.0, seed=4, prefix_tokens=32)
TABLE = POPULATION.table()
ORDER = TABLE.arrival_order().tolist()

#: Unarmed, then FCFS and WFQ under each KV-isolation mode.
POLICIES = [None] + [(admission, isolation)
                     for admission in ("fcfs", "wfq")
                     for isolation in ("shared", "partition",
                                       "shared-prefix")]

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 6)),
        st.tuples(st.just("step"), st.floats(0.0, 3.0)),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("evacuate"), st.just(0)),
        st.tuples(st.just("snapshot"), st.just(0)),
    ),
    min_size=1, max_size=40)


class _Rebuilds:
    """Wraps a scheduler's ``_reindex``: each rebuild must refill the
    heap in place with exactly the finish steps."""

    def __init__(self) -> None:
        self.count = 0

    def watch(self, scheduler) -> None:
        reindex = scheduler._reindex

        def checked() -> None:
            heap = scheduler._finish_steps
            reindex()
            assert scheduler._finish_steps is heap
            assert sorted(heap) == sorted(scheduler._finish_at)
            self.count += 1

        scheduler._reindex = checked


def _scheduler(policy, pool: int, max_batch: int, lookahead: int,
               outcomes: OutcomeLog | None = None):
    tenancy = None if policy is None else POPULATION.tenancy_config(*policy)
    scheduler = ContinuousBatchingScheduler(
        cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
        kv_capacity_tokens=pool, max_batch=max_batch,
        admission_lookahead=lookahead, tenancy=tenancy)
    scheduler.bind(TABLE, outcomes)
    return scheduler


def _check_heap(scheduler) -> None:
    heap, finish_at = scheduler._finish_steps, scheduler._finish_at
    assert all(heap[(index - 1) // 2] <= heap[index]
               for index in range(1, len(heap)))
    assert set(finish_at) <= set(heap)
    assert all(finish_at.values())


def _restored(scheduler, policy, pool, max_batch, lookahead):
    payload = json.loads(json.dumps(
        {"scheduler": scheduler.to_state(),
         "outcomes": scheduler.outcomes.to_state()}))
    fresh = _scheduler(policy, pool, max_batch, lookahead,
                       OutcomeLog.from_state(payload["outcomes"], len(TABLE)))
    fresh.from_state(payload["scheduler"])
    assert sorted(fresh._finish_steps) == sorted(fresh._finish_at)
    # The step counter restarts at 0: finish steps keep their distance.
    assert (sorted(step - fresh._steps for step in fresh._finish_at)
            == sorted(step - scheduler._steps
                      for step in scheduler._finish_at))
    return fresh


@settings(max_examples=80, deadline=None)
@given(actions=ACTIONS,
       policy=st.sampled_from(POLICIES),
       pool=st.sampled_from((1536, 4096)),
       max_batch=st.sampled_from((2, 8)),
       lookahead=st.sampled_from((0, 3)))
def test_heap_holds_every_finish_step(actions, policy, pool, max_batch,
                                      lookahead):
    scheduler = _scheduler(policy, pool, max_batch, lookahead)
    rebuilds = _Rebuilds()
    rebuilds.watch(scheduler)
    cursor = 0
    submitted: list[int] = []
    for action, value in actions:
        if action == "submit":
            for row in ORDER[cursor:cursor + value]:
                try:
                    scheduler.submit(row)
                except ValueError:
                    continue  # can never fit this pool or partition
                submitted.append(row)
            cursor += value
        elif action == "step":
            scheduler.step(scheduler.clock_s + value)
        elif action == "cancel" and submitted:
            scheduler.cancel(submitted[value % len(submitted)])
        elif action == "evacuate":
            scheduler.evacuate()
            assert scheduler._finish_steps == []
        elif action == "snapshot":
            scheduler = _restored(scheduler, policy, pool, max_batch,
                                  lookahead)
            rebuilds.watch(scheduler)
        _check_heap(scheduler)
    scheduler.step(None)
    _check_heap(scheduler)
    assert scheduler.idle and not scheduler._finish_at


def test_exact_path_rebuilds_the_heap_in_place():
    """Tight pools send steps through the exact path, whose
    ``_reindex`` runs while ``step()`` holds the heap; cancels of
    running rows leave emptied keys behind, which decode drops."""
    rebuilds = _Rebuilds()
    cancelled = 0
    for policy in (None, ("wfq", "shared"), ("fcfs", "partition")):
        scheduler = _scheduler(policy, 1536, 8, 0)
        rebuilds.watch(scheduler)
        for index, row in enumerate(ORDER):
            scheduler.step(float(TABLE.arrival_s[row]))
            try:
                scheduler.submit(row)
            except ValueError:
                continue
            if index % 7 == 3 and scheduler._running:
                scheduler.cancel(next(iter(scheduler._running)))
                cancelled += 1
            _check_heap(scheduler)
        scheduler.step(None)
        _check_heap(scheduler)
        assert scheduler.idle
    assert rebuilds.count > 0 and cancelled > 0
