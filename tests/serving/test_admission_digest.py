"""Admission decisions pinned by digest, under every policy.

``serving.legacy_loop_parity`` is an independent reference for unarmed
FCFS without lookahead only.  This test covers the rest of the
admission rule: each admission x KV-isolation policy, with and without
head-of-line lookahead, on pools small enough to block the head and
preempt.  The digest hashes the exact outcome columns of every
configuration and was recorded before the per-policy admission paths
were folded into one loop, so any change to an admission decision
fails here.
"""

import hashlib

from repro.core.experiment import cpu_deployment
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.tenancy import whale_mix

POLICIES = [None] + [(admission, isolation)
                     for admission in ("fcfs", "wfq")
                     for isolation in ("shared", "partition", "shared-prefix")]
LOOKAHEADS = (0, 3)
POOLS = (1536, 4096)
MAX_BATCHES = (2, 8)
#: ``whale_mix`` seeds, each with how its stream is submitted: all
#: up front (the queue holds unarrived entries, which the WFQ head and
#: lookahead scans must skip) or each request at its arrival, as a
#: fleet does (WFQ tags then start from a virtual clock that
#: admissions have advanced).
SEEDS = ((0, False), (1, True))

RECORDED = ("4d26ef39a2438f0d257b0b3ec50261b8"
            "2d893872468ee695e0df33c214719544")


def _serve(population, at_arrival, policy, lookahead, pool, max_batch):
    """Outcome columns of one configuration, as exact text."""
    tenancy = (None if policy is None
               else population.tenancy_config(*policy))
    scheduler = ContinuousBatchingScheduler(
        cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
        kv_capacity_tokens=pool, max_batch=max_batch,
        admission_lookahead=lookahead, tenancy=tenancy)
    table = population.table()
    scheduler.bind(table)
    # Every tenant's shared prefix may stay pinned, so a request is
    # served only if it fits beside all of them under every policy.
    # (Under shared-prefix isolation such a request would preempt
    # itself forever, so ``_check_fits`` and ``_fits_column`` refuse
    # it at submit.)
    block = scheduler.block_size
    pinned = sum(-(-tokens // block) for _, tokens in
                 population.tenancy_config().prefix_tokens)
    refused = []
    dropped = set()
    over_partition = set()
    for row in table.arrival_order().tolist():
        needed = table.prompt_tokens[row] + table.output_tokens[row]
        if -(-needed // block) + pinned > scheduler.num_blocks:
            refused.append(row)
            dropped.add(row)
            continue
        if at_arrival:
            scheduler.step(float(table.arrival_s[row]))
        try:
            scheduler.submit(row)
        except ValueError:
            # Too large for the tenant's partition.
            refused.append(row)
            over_partition.add(row)
    scheduler.step(None)
    # The pre-filter hides no refusal: every row the scheduler refuses
    # is one it drops, except rows over their tenant's partition cap,
    # which it does not model and which are submitted and refused.
    refuses = {row for row, fits in enumerate(scheduler.admissible(table))
               if not fits}
    assert refuses - over_partition <= dropped
    assert over_partition <= refuses
    assert not over_partition or scheduler.kv_isolation == "partition"
    log = scheduler.outcomes
    report = scheduler.report()
    text = repr((refused,
                 [value.hex() for value in log.first_token_s],
                 [value.hex() for value in log.finish_s],
                 list(log.preemptions),
                 report.makespan_s.hex(),
                 report.mean_batch_occupancy.hex()))
    return text, report.total_preemptions


def _matrix():
    """``{(policy, seed, pool, max_batch, lookahead): (text, preempted)}``."""
    results = {}
    for seed, at_arrival in SEEDS:
        population = whale_mix(120, 6.0, seed=seed, prefix_tokens=48)
        for policy in POLICIES:
            for pool in POOLS:
                for max_batch in MAX_BATCHES:
                    for lookahead in LOOKAHEADS:
                        results[policy, seed, pool, max_batch, lookahead] = \
                            _serve(population, at_arrival, policy,
                                   lookahead, pool, max_batch)
    return results


class TestAdmissionDigest:
    def test_outcomes_match_recorded_digest(self):
        results = _matrix()
        digest = hashlib.sha256()
        for key in sorted(results, key=repr):
            digest.update(repr(key).encode())
            digest.update(results[key][0].encode())
        # Not vacuous: some configuration preempted, and lookahead
        # changed some outcome under every policy.
        assert sum(preempted for _, preempted in results.values()) > 0
        for policy in POLICIES:
            assert any(
                results[policy, seed, pool, max_batch, 0][0]
                != results[policy, seed, pool, max_batch, 3][0]
                for seed, _ in SEEDS for pool in POOLS
                for max_batch in MAX_BATCHES), policy
        assert digest.hexdigest() == RECORDED
