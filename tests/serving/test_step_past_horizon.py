"""A step to a horizon the clock has already reached is a no-op.

The fleet leaves a busy, unhung replica alone on a tick its scheduler
clock has already reached (a prefill or decode step outlasted the
tick).  That is exact only if ``step(t)`` with ``clock_s >= t`` changes
nothing: it finishes no request and leaves every piece of state, the
queue, batch, KV pool, WFQ virtual clock and clock included, as it was.
Hypothesis draws the stream, pool, batch width and the stepping
instants under FCFS and WFQ admission crossed with every KV isolation
mode.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.experiment import cpu_deployment
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.scheduler import ContinuousBatchingScheduler, OutcomeLog
from repro.tenancy import whale_mix


@settings(max_examples=60, deadline=None)
@given(admission=st.sampled_from(("fcfs", "wfq")),
       isolation=st.sampled_from(("shared", "partition", "shared-prefix")),
       seed=st.integers(0, 3),
       pool=st.sampled_from((2048, 8192)),
       max_batch=st.sampled_from((2, 8)),
       submitted=st.integers(1, 40),
       horizon=st.floats(0.0, 12.0),
       back=st.floats(0.0, 3.0))
def test_step_short_of_the_clock_changes_nothing(admission, isolation, seed,
                                                  pool, max_batch, submitted,
                                                  horizon, back):
    population = whale_mix(40, 6.0, seed=seed, prefix_tokens=48)
    scheduler = ContinuousBatchingScheduler(
        cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
        kv_capacity_tokens=pool, max_batch=max_batch,
        tenancy=population.tenancy_config(admission, isolation))
    table = population.table()
    log = OutcomeLog(len(table))
    scheduler.bind(table, log)
    for row in table.arrival_order().tolist()[:submitted]:
        try:
            scheduler.submit(row)
        except ValueError:
            pass  # never fits beside the pinned prefixes or its partition
    scheduler.step(horizon)

    def state() -> str:
        return json.dumps([scheduler.to_state(), log.to_state()],
                          sort_keys=True)

    before = state()
    t = max(0.0, scheduler.clock_s - back)
    assert scheduler.clock_s >= t
    assert scheduler.step(t) == []
    assert state() == before
