"""The WFQ scheduler's cached earliest arrival equals a full queue scan.

Under WFQ the waiting queue is ordered by virtual-finish tag, so the
earliest waiting arrival is not at its head.  The scheduler keeps it
as a min at every insert (submit and preemption re-entry) and rescans
only after an admit, cancel or evacuation removed the entry carrying
it.  These tests drive random submit/step/cancel/evacuate sequences
and compare the cache against a brute-force scan after every action.
"""

from itertools import islice

from hypothesis import given, settings, strategies as st

from repro.core.experiment import cpu_deployment
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.tenancy import whale_mix

POPULATION = whale_mix(60, 6.0, seed=4, prefix_tokens=32)
TABLE = POPULATION.table()
ORDER = TABLE.arrival_order().tolist()

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(1, 6)),
        st.tuples(st.just("step"), st.floats(0.0, 3.0)),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("evacuate"), st.just(0)),
    ),
    min_size=1, max_size=40)


def _scheduler(pool: int, max_batch: int, isolation: str):
    scheduler = ContinuousBatchingScheduler(
        cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
        kv_capacity_tokens=pool, max_batch=max_batch,
        tenancy=POPULATION.tenancy_config("wfq", isolation))
    scheduler.bind(TABLE)
    return scheduler


def _fits(scheduler, row: int) -> bool:
    """Whether ``row`` fits the pool beside every pinned shared prefix
    (the ones that do not would preempt themselves forever)."""
    block = scheduler.block_size
    pinned = sum(-(-tokens // block) for _, tokens
                 in POPULATION.tenancy_config().prefix_tokens)
    needed = int(TABLE.prompt_tokens[row] + TABLE.output_tokens[row])
    return -(-needed // block) + pinned <= scheduler.num_blocks


def _check_cache(scheduler) -> None:
    queue = list(islice(scheduler._waiting, scheduler._head, None))
    if not queue:
        assert scheduler._wfq_next is None
        return
    scanned = min(entry[-2] for entry in queue)
    if scheduler._wfq_next is not None:
        assert scheduler._wfq_next == scanned
    assert scheduler._next_arrival_s() == scanned
    assert scheduler._wfq_next == scanned


@settings(max_examples=60, deadline=None)
@given(actions=ACTIONS,
       pool=st.sampled_from((1536, 4096, 65536)),
       max_batch=st.sampled_from((1, 2, 8)),
       isolation=st.sampled_from(("shared", "partition", "shared-prefix")))
def test_cached_next_arrival_matches_scan(actions, pool, max_batch,
                                          isolation):
    scheduler = _scheduler(pool, max_batch, isolation)
    cursor = 0
    submitted: list[int] = []
    for action, value in actions:
        if action == "submit":
            for row in ORDER[cursor:cursor + value]:
                if not _fits(scheduler, row):
                    continue
                try:
                    scheduler.submit(row)
                except ValueError:
                    continue  # too large for its tenant's partition
                submitted.append(row)
            cursor += value
        elif action == "step":
            scheduler.step(scheduler.clock_s + value)
        elif action == "cancel" and submitted:
            scheduler.cancel(submitted[value % len(submitted)])
        elif action == "evacuate":
            scheduler.evacuate()
        _check_cache(scheduler)
    scheduler.step(None)
    _check_cache(scheduler)
    assert scheduler.idle


def test_preemption_reentry_keeps_the_cache_exact():
    """A tight pool preempts under WFQ; the cache stays exact through it."""
    scheduler = _scheduler(1536, 8, "shared")
    for row in ORDER:
        if _fits(scheduler, row):
            scheduler.step(float(TABLE.arrival_s[row]))
            scheduler.submit(row)
            _check_cache(scheduler)
    while not scheduler.idle:
        scheduler.step(scheduler.clock_s + 0.5)
        _check_cache(scheduler)
    assert scheduler.preemptions > 0
