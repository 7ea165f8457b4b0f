"""The ``sim-chaos`` workload: seeded chaos schedules on the simulator.

Each schedule goes through the loop body of
``repro.verify.explorer.explore(N, seed, ["sim"], shrink_failures=False)``
— generate, run on the discrete-event substrate, check every invariant —
unrolled here so each schedule's history (its delivered tuples) and its
time to verdict are visible.  A run makes whole passes until its time is
spent; pass *n* runs its own block of ``BLOCK`` schedules, seeded from the
workload seed and *n*, so a longer run averages over more distinct
schedules rather than repeating one block.

The schedules are drawn without the keyed profile (``ScheduleSpec(keyed=
False)``): on the simulator, keyed migration leaves a key in two stores
at once on some schedules (``keyed_state_integrity``; reproduce with
``python -m repro verify --schedules 100 --seed 12000``), and a schedule
with a violation fails the workload's check.  Plain and multi-tenant
profiles, churn, master outages, partitions, link chaos and load bursts
are all still drawn.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from repro.simulation.swarm import SwarmSimulation
from repro.verify import adapters
from repro.verify.invariants import InvariantChecker
from repro.verify.schedule import FaultSchedule, ScheduleSpec

import hostspeed
import procstat

#: schedules per pass; pass *n* runs schedule seeds
#: ``seed * SEED_STRIDE + n * BLOCK + i`` for ``i < BLOCK``
BLOCK = 100
SEED_STRIDE = 1_000_000
#: what the schedules are drawn from; see the module docstring
SPEC = ScheduleSpec(keyed=False)
#: share of a whole host-speed sample taken after each schedule
HOST_SHARE = 0.1


@dataclass
class SimPass:
    """One pass over the block."""

    wall: float
    cpu: float
    rss_mb: float = 0.0     # peak resident memory during the pass
    #: per schedule: seconds from generate to verdict
    verdicts: List[float] = field(default_factory=list)
    #: per schedule: seconds to set it up again (see setup_time)
    setups: List[float] = field(default_factory=list)
    emitted: int = 0        # simulated tuples the sources offered
    delivered: int = 0      # unique simulated tuples at the sinks
    duplicates: int = 0     # sink deliveries beyond the first
    violations: int = 0     # schedules with at least one violation
    schedules: int = 0
    #: ledger span aggregates over the pass (traced runs only)
    spans: object = None


def setup_time(schedule_seed: int) -> float:
    """Seconds until a schedule is ready to run: generated, mapped onto a
    simulation config and the simulation built."""
    started = time.perf_counter()
    InvariantChecker()
    schedule = FaultSchedule.generate(schedule_seed, SPEC)
    schedule.validate()
    SwarmSimulation(adapters.build_sim_config(schedule))
    return time.perf_counter() - started


def run_pass(seed: int, number: int, time_setups: bool) -> SimPass:
    """Run and check pass *number*'s block of schedules; with
    *time_setups*, also time each schedule's set-up again.  A traced pass
    leaves that out, so the ledger's spans cover the pass alone."""
    first = seed * SEED_STRIDE + number * BLOCK
    procstat.reset_rss_peak()
    checker = InvariantChecker()
    result = SimPass(wall=0.0, cpu=0.0)
    for index in range(BLOCK):
        started, cpu0 = time.perf_counter(), time.thread_time()
        schedule = FaultSchedule.generate(first + index, SPEC)
        history = adapters.run_schedule(schedule, adapters.SIM)
        violations = checker.check(history)
        result.cpu += time.thread_time() - cpu0
        result.verdicts.append(time.perf_counter() - started)
        result.wall += result.verdicts[-1]
        # The host's speed and the set-up time are sampled all through
        # the pass, outside its measured time, so each run's figures mix
        # the host's fast and slow spells as its CPU time does.
        hostspeed.sample(1, HOST_SHARE)
        if time_setups:
            result.setups.append(setup_time(first + index))
        result.schedules += 1
        result.violations += bool(violations)
        for tenant in history.tenants.values():
            result.emitted += len(tenant.emitted)
            unique = len(set(tenant.delivered))
            result.delivered += unique
            result.duplicates += len(tenant.delivered) - unique
    result.rss_mb = procstat.rss_peak_mb()
    return result
