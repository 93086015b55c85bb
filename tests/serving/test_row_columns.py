"""Per-row columns decided at bind equal the per-call rules they replace.

A bound scheduler reads three columns per row instead of computing per
call: the row's prefill seconds and exact prefill units (every distinct
prompt length costed in one array pass; ``test_prefill_column.py`` pins
that pass to the scalar reference) and an admissible mask (the verdict
of ``_check_fits`` for the whole table).  A submit whose
entry sorts at or after the tail of a queue known to be sorted appends
instead of bisecting.  These tests pin each column to the per-row rule
and each submit's placement to ``insort(..., lo=_head)``, through
random submits, FCFS preemptions, WFQ re-entries and snapshot/restore.
A batch submitted in one ``submit_rows`` call leaves the scheduler
bit-identical to submitting its rows one by one, refusals included.
"""

import json
from bisect import insort
from itertools import islice

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.experiment import cpu_deployment
from repro.fleet.table import RequestTable
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.admission import TenancyConfig
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


def _scheduler(tenancy=None, pool: int = 4096, max_batch: int = 8,
               lookahead: int = 0, block_size: int = 16):
    return ContinuousBatchingScheduler(
        cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
        kv_capacity_tokens=pool, block_size=block_size, max_batch=max_batch,
        admission_lookahead=lookahead, tenancy=tenancy)


def _policy(policy):
    return None if policy is None else POPULATION.tenancy_config(*policy)


# -- prefill columns ----------------------------------------------------------

def test_row_prefill_is_prefill_s_bit_for_bit():
    scheduler = _scheduler()
    scheduler.bind(TABLE)
    costs = scheduler._costs
    prompts = TABLE.prompt_tokens.tolist()
    assert len(scheduler._prefill) == len(scheduler._row_units) == len(TABLE)
    for row, prompt in enumerate(prompts):
        assert scheduler._prefill[row].hex() == costs.prefill_s(prompt).hex()
        assert scheduler._row_units[row] == costs.prefill_units(prompt)


def test_columns_are_shared_per_cost_table_and_geometry():
    """Replicas of one spec read one copy; another geometry its own."""
    first, second = _scheduler(), _scheduler()
    first.bind(TABLE)
    second.bind(TABLE)
    assert first._prefill is second._prefill
    assert first._row_units is second._row_units
    assert first._admissible is second._admissible
    other = _scheduler(pool=2048)
    other.bind(TABLE)
    assert other._prefill is first._prefill
    assert other._admissible is not first._admissible


# -- admissible mask ----------------------------------------------------------

def _verdict(scheduler, row: int) -> bool:
    try:
        scheduler._check_fits(row)
    except ValueError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(isolation=st.sampled_from(("shared", "partition", "shared-prefix")),
       block_size=st.sampled_from((1, 8, 16, 64)),
       pool=st.integers(64, 6000),
       prefixes=st.lists(st.integers(1, 800), min_size=0, max_size=4),
       shares=st.lists(st.floats(0.05, 0.33), min_size=1, max_size=3),
       rows=st.lists(st.tuples(st.integers(1, 3000), st.integers(1, 1500),
                               st.integers(0, 4)),
                     min_size=1, max_size=40))
def test_mask_matches_check_fits(isolation, block_size, pool, prefixes,
                                 shares, rows):
    """Across geometries, the mask is ``_check_fits``'s verdict per row
    (tenant 4 has no partition; some tenants pin nothing)."""
    pool = max(pool, block_size)
    tenancy = TenancyConfig(
        kv_isolation=isolation,
        prefix_tokens=tuple(enumerate(prefixes)),
        partition_shares=tuple(enumerate(shares)))
    scheduler = _scheduler(tenancy, pool=pool, block_size=block_size)
    table = RequestTable(
        request_id=range(len(rows)), arrival_s=[0.0] * len(rows),
        prompt_tokens=[prompt for prompt, _, _ in rows],
        output_tokens=[output for _, output, _ in rows],
        tenant_id=[tenant for _, _, tenant in rows])
    scheduler.bind(table)
    mask = scheduler.admissible(table)
    assert mask is scheduler._admissible
    assert list(mask) == [int(_verdict(scheduler, row))
                          for row in range(len(table))]


@settings(max_examples=20, deadline=None)
@given(policy=st.sampled_from(POLICIES),
       pool=st.sampled_from((1536, 2048, 4096)))
def test_mask_matches_check_fits_on_tenant_streams(policy, pool):
    scheduler = _scheduler(_policy(policy), pool=pool)
    scheduler.bind(TABLE)
    assert list(scheduler._admissible) == [
        int(_verdict(scheduler, row)) for row in range(len(TABLE))]
    for row in range(len(TABLE)):
        if not scheduler._admissible[row]:
            try:
                scheduler.submit(row)
            except ValueError as error:
                assert str(TABLE.request_id[row]) in str(error) \
                    or "tenant" in str(error)
            else:
                raise AssertionError(f"row {row} was not refused")


# -- append fast path ---------------------------------------------------------

def _queue(scheduler) -> list[tuple]:
    return list(islice(scheduler._waiting, scheduler._head, None))


def _check_sorted_flag(scheduler) -> None:
    queue = _queue(scheduler)
    if scheduler._sorted:
        assert queue == sorted(queue)


class _Placement:
    """Submits through the scheduler and checks each entry landed where
    ``insort(..., lo=_head)`` puts it on the queue as it was."""

    def __init__(self) -> None:
        self.appended = self.unsorted = 0

    def submit(self, scheduler, row: int) -> bool:
        before = list(scheduler._waiting)
        head = scheduler._head
        self.unsorted += not scheduler._sorted
        try:
            scheduler.submit(row)
        except ValueError:
            return False
        entry = next(entry for entry in scheduler._waiting
                     if entry[-1] == row)
        insort(before, entry, lo=head)
        assert scheduler._waiting == before
        self.appended += scheduler._waiting[-1] is entry
        return True


def _restored(scheduler, policy, pool, max_batch, lookahead):
    payload = json.loads(json.dumps(
        {"scheduler": scheduler.to_state(),
         "outcomes": scheduler.outcomes.to_state()}))
    fresh = _scheduler(_policy(policy), pool, max_batch, lookahead)
    fresh.bind(TABLE, OutcomeLog.from_state(payload["outcomes"], len(TABLE)))
    fresh.from_state(payload["scheduler"])
    assert _queue(fresh) == _queue(scheduler)
    assert fresh._queued_units == scheduler._queued_units
    return fresh


ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 6)),
        st.tuples(st.just("late"), st.integers(0, 59)),
        st.tuples(st.just("step"), st.floats(0.0, 3.0)),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("snapshot"), st.just(0)),
    ),
    min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(actions=ACTIONS,
       policy=st.sampled_from(POLICIES),
       pool=st.sampled_from((1536, 4096)),
       max_batch=st.sampled_from((2, 8)),
       lookahead=st.sampled_from((0, 3)))
def test_append_places_where_insort_would(actions, policy, pool, max_batch,
                                          lookahead):
    scheduler = _scheduler(_policy(policy), pool, max_batch, lookahead)
    scheduler.bind(TABLE)
    placement = _Placement()
    cursor = 0
    submitted: list[int] = []
    for action, value in actions:
        if action == "submit":
            for row in ORDER[cursor:cursor + value]:
                if placement.submit(scheduler, row):
                    submitted.append(row)
            cursor += value
        elif action == "late":
            # Out of arrival order, as a retried or held row is.
            row = ORDER[value]
            if not scheduler.outcomes.status[row]:
                if placement.submit(scheduler, row):
                    submitted.append(row)
        elif action == "step":
            scheduler.step(scheduler.clock_s + value)
        elif action == "cancel" and submitted:
            scheduler.cancel(submitted[value % len(submitted)])
        elif action == "snapshot":
            scheduler = _restored(scheduler, policy, pool, max_batch,
                                  lookahead)
        _check_sorted_flag(scheduler)
    scheduler.step(None)
    assert scheduler.idle


def test_fcfs_reentry_unsorts_the_queue_and_insort_takes_over():
    """Lookahead admits a later arrival past a blocked head; preempted,
    it re-enters at the head ahead of earlier arrivals, so later
    submits bisect — and still land where ``insort`` puts them, also
    after a restore of the unsorted queue."""
    placement = _Placement()
    unsorted_restores = 0
    for pool in (1536, 2048):
        for max_batch in (2, 4, 8):
            policy = ("fcfs", "shared")
            scheduler = _scheduler(_policy(policy), pool, max_batch, 3)
            scheduler.bind(TABLE)
            for row in ORDER:
                scheduler.step(float(TABLE.arrival_s[row]))
                placement.submit(scheduler, row)
                _check_sorted_flag(scheduler)
                if not scheduler._sorted and unsorted_restores < 5:
                    scheduler = _restored(scheduler, policy, pool,
                                          max_batch, 3)
                    assert not scheduler._sorted
                    unsorted_restores += 1
            scheduler.step(None)
            assert scheduler.idle
    assert placement.unsorted > 0 and unsorted_restores > 0
    assert placement.appended > 0


def test_submit_refuses_masked_rows_with_todays_messages():
    scheduler = _scheduler(pool=1024)
    table = RequestTable(request_id=[7, 8], arrival_s=[0.0, 0.0],
                         prompt_tokens=[100, 1000], output_tokens=[10, 100])
    scheduler.bind(table)
    assert list(scheduler._admissible) == [1, 0]
    scheduler.submit(0)
    try:
        scheduler.submit(1)
    except ValueError as error:
        assert str(error) == "request 8 needs 1100 KV tokens, pool holds 1024"
    else:
        raise AssertionError("row 1 was not refused")
    assert np.frombuffer(scheduler.outcomes.status, dtype=np.uint8)[1] == 0


# -- batched submission -------------------------------------------------------

def _submit_state(scheduler) -> tuple:
    """Everything a submit writes: queue placement, sortedness, the
    queued-prefill total, the first arrival, WFQ tags and the cached
    earliest WFQ arrival, and the row's status and outcome resets."""
    outcomes = scheduler.outcomes
    return (list(scheduler._waiting), scheduler._head, scheduler._sorted,
            scheduler._queued_units, scheduler._first_arrival,
            dict(scheduler._wfq_tag), dict(scheduler._wfq_fin),
            scheduler._wfq_next, bytes(outcomes.status),
            bytes(outcomes.first_token_s), bytes(outcomes.finish_s),
            bytes(outcomes.preemptions))


class _Twins:
    """Two schedulers driven alike, except that one takes each batch in
    one ``submit_rows`` call and the other row by row."""

    def __init__(self, policy, pool, max_batch, lookahead) -> None:
        self.config = (policy, pool, max_batch, lookahead)
        self.batched = _scheduler(_policy(policy), pool, max_batch,
                                  lookahead)
        self.single = _scheduler(_policy(policy), pool, max_batch,
                                 lookahead)
        self.batched.bind(TABLE)
        self.single.bind(TABLE)

    def submit(self, rows: list[int]) -> None:
        """Submit ``rows``, dropping the ones the single twin refuses
        (``submit_rows`` raises at the first refusal)."""
        accepted = []
        for row in rows:
            try:
                self.single.submit(row)
            except ValueError:
                continue
            accepted.append(row)
        self.batched.submit_rows(accepted)
        self.check()

    def apply(self, name: str, *args) -> None:
        for scheduler in (self.batched, self.single):
            getattr(scheduler, name)(*args)
        self.check()

    def restore(self) -> None:
        self.batched = _restored(self.batched, *self.config)
        self.single = _restored(self.single, *self.config)
        self.check()

    def check(self) -> None:
        assert _submit_state(self.batched) == _submit_state(self.single)


BATCH_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 8)),
        st.tuples(st.just("late"), st.lists(st.integers(0, 59), min_size=1,
                                            max_size=4)),
        st.tuples(st.just("step"), st.floats(0.0, 3.0)),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("snapshot"), st.just(0)),
    ),
    min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(actions=BATCH_ACTIONS,
       policy=st.sampled_from(POLICIES),
       pool=st.sampled_from((1536, 4096)),
       max_batch=st.sampled_from((2, 8)),
       lookahead=st.sampled_from((0, 3)))
def test_submit_rows_equals_per_row_submits(actions, policy, pool,
                                            max_batch, lookahead):
    """Batches of arrivals, of late rows out of arrival order and of
    resubmitted cancelled rows (whose outcomes must be reset) leave both
    twins bit-identical, through steps, preemptions and restores."""
    twins = _Twins(policy, pool, max_batch, lookahead)
    cursor = 0
    submitted: list[int] = []
    for action, value in actions:
        if action == "submit":
            batch = ORDER[cursor:cursor + value]
            cursor += value
        elif action == "late":
            status = twins.single.outcomes.status
            batch = list(dict.fromkeys(ORDER[index] for index in value
                                       if not status[ORDER[index]]))
        elif action == "step":
            twins.apply("step", twins.single.clock_s + value)
            continue
        elif action == "cancel":
            if submitted:
                twins.apply("cancel", submitted[value % len(submitted)])
            continue
        else:
            twins.restore()
            continue
        twins.submit(batch)
        submitted += batch
    twins.apply("step", None)
    assert twins.batched.idle


def test_submit_rows_into_an_unsorted_fcfs_queue():
    """After a preempted later arrival re-enters at the head, the FCFS
    queue is unsorted and a batch bisects row by row, as per-row
    submits do; also after a restore of the unsorted queue."""
    unsorted_batches = 0
    for pool in (1536, 2048):
        for max_batch in (2, 4, 8):
            twins = _Twins(("fcfs", "shared"), pool, max_batch, 3)
            for start in range(0, len(ORDER), 3):
                batch = ORDER[start:start + 3]
                twins.apply("step", float(TABLE.arrival_s[batch[0]]))
                unsorted = not twins.single._sorted
                unsorted_batches += unsorted
                twins.submit(batch)
                if unsorted and unsorted_batches < 4:
                    twins.restore()
            twins.apply("step", None)
    assert unsorted_batches > 0


def _refusal(scheduler, rows) -> str:
    try:
        scheduler.submit_rows(rows)
    except ValueError as error:
        return str(error)
    raise AssertionError(f"{rows} were not refused")


def test_refused_row_in_a_batch_raises_as_submit_does():
    """A batch raises the per-row ``submit`` error at its first refused
    row: one that can never fit, one already submitted, or one listed
    twice in the batch.  The rows before it stay queued exactly as
    per-row submits leave them; the rows after it are untouched."""
    table = RequestTable(request_id=[10, 11, 12, 13],
                         arrival_s=[0.0, 0.1, 0.2, 0.3],
                         prompt_tokens=[100, 1000, 50, 60],
                         output_tokens=[10, 100, 5, 6])
    cases = {  # rows, index of the refused one, error
        "never fits": ([0, 1, 2], 1,
                       "request 11 needs 1100 KV tokens, pool holds 1024"),
        "already submitted": ([3, 2, 0], 2, "request 10 already submitted"),
        "twice in the batch": ([0, 2, 0, 3], 2,
                               "request 10 already submitted"),
    }
    for name, (rows, refused, message) in cases.items():
        batched, single = _scheduler(pool=1024), _scheduler(pool=1024)
        batched.bind(table)
        single.bind(table)
        before = [0] if name == "already submitted" else []
        for row in before:
            batched.submit(row)
            single.submit(row)
        assert _refusal(batched, rows) == message, name
        for row in rows[:refused]:
            single.submit(row)
        assert _refusal(single, rows[refused:refused + 1]) == message, name
        assert _submit_state(batched) == _submit_state(single), name
        queued = {entry[-1] for entry in _queue(batched)}
        assert queued == set(before + rows[:refused]), name
        untouched = [row for row in rows[refused + 1:] if row not in queued]
        assert not any(batched.outcomes.status[row] for row in untouched), \
            name
