"""The scheduler's running total of queued prefill equals a rescan.

The cost/SLO router reads ``estimated_ttft_s`` on every replica for
every request, so the prefill queued on a replica is kept as one exact
integer total (units of 2**-1074 s) updated at submit, admission,
preemption re-entry, cancel and evacuation, and rebuilt on restore.
These tests drive random submit/step/cancel/evacuate sequences under
every admission x KV-isolation policy, on pools tight enough to
preempt, and after every action compare the total against a rebuild
from the logical queue and the estimate against a ``math.fsum``
rescan of the queue's prefills, also with prefill a router has picked
but not yet submitted (``pending_units``).
"""

import json
import math
from itertools import islice

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


def _scheduler(policy, pool: int, max_batch: int, lookahead: int,
               time_scale: float, outcomes: OutcomeLog | None = None):
    tenancy = None if policy is None else POPULATION.tenancy_config(*policy)
    scheduler = ContinuousBatchingScheduler(
        cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
        kv_capacity_tokens=pool, max_batch=max_batch,
        admission_lookahead=lookahead, tenancy=tenancy)
    scheduler.time_scale = time_scale
    scheduler.bind(TABLE, outcomes)
    return scheduler


def _queue(scheduler) -> list[int]:
    return [entry[-1] for entry
            in islice(scheduler._waiting, scheduler._head, None)]


def _check_total(scheduler) -> None:
    costs = scheduler._costs
    prompts = scheduler._prompt
    queue = _queue(scheduler)
    assert scheduler._queued_units == sum(
        costs.prefill_units(prompts[row]) for row in queue)
    queued = [costs.prefill_s(prompts[row]) for row in queue]
    for prompt_tokens, lead in ((512, 1.0), (1800, -0.5)):
        now = scheduler.clock_s - lead
        # Prefill routed here but not yet submitted counts as queued.
        for pending in ((), (700,), (33, 2047, 33)):
            expected = max(0.0, scheduler.clock_s - now)
            expected += scheduler._scaled(math.fsum(
                queued + [costs.prefill_s(tokens) for tokens in pending]))
            expected += scheduler._scaled(costs.prefill_s(prompt_tokens))
            units = sum(map(scheduler.prefill_units, pending))
            assert scheduler.estimated_ttft_s(prompt_tokens, now,
                                              units) == expected


def _round_trip(scheduler, policy, pool, max_batch, lookahead, time_scale):
    """A restore of a JSON snapshot rebuilds the same total."""
    payload = json.loads(json.dumps(
        {"scheduler": scheduler.to_state(),
         "outcomes": scheduler.outcomes.to_state()}))
    fresh = _scheduler(policy, pool, max_batch, lookahead, time_scale,
                       OutcomeLog.from_state(payload["outcomes"], len(TABLE)))
    fresh.from_state(payload["scheduler"])
    assert _queue(fresh) == _queue(scheduler)
    assert fresh._queued_units == scheduler._queued_units
    _check_total(fresh)


@settings(max_examples=80, deadline=None)
@given(actions=ACTIONS,
       policy=st.sampled_from(POLICIES),
       pool=st.sampled_from((1536, 4096)),
       max_batch=st.sampled_from((2, 8)),
       lookahead=st.sampled_from((0, 3)),
       time_scale=st.sampled_from((1.0, 2.5)))
def test_queued_total_matches_rescan(actions, policy, pool, max_batch,
                                     lookahead, time_scale):
    scheduler = _scheduler(policy, pool, max_batch, lookahead, time_scale)
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
        elif action == "snapshot":
            _round_trip(scheduler, policy, pool, max_batch, lookahead,
                        time_scale)
        _check_total(scheduler)
    scheduler.step(None)
    _check_total(scheduler)
    assert scheduler.idle and scheduler._queued_units == 0


def test_preemption_reentry_keeps_the_total_exact():
    """Tight pools preempt under FCFS and WFQ; a preempted sequence
    re-enters the queue and its prefill re-enters the total."""
    for policy in (None, ("wfq", "shared")):
        scheduler = _scheduler(policy, 1536, 8, 0, 2.5)
        for row in ORDER:
            scheduler.step(float(TABLE.arrival_s[row]))
            try:
                scheduler.submit(row)
            except ValueError:
                continue
            _check_total(scheduler)
        while not scheduler.idle:
            scheduler.step(scheduler.clock_s + 0.5)
            _check_total(scheduler)
        assert scheduler.preemptions > 0, policy
