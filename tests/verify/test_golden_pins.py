"""Golden parity pins for the fault vocabulary.

Two behaviours must survive any rework of how faults are spelled:

- the canonical JSON the schedule generator emits for a block of seeds
  (byte-identical, under the default spec and the non-keyed spec);
- the outcome of every seeded non-keyed dynamism scenario — which
  device each frame went to, why it dropped, when it reached the sink,
  the throughput and the controller's decision log.  The scenario
  digests also pin the order of the per-message ``faults`` RNG draws.

The literals were captured before the simulator's event classes were
folded into ``FaultEvent``; a change here is a behaviour change.
"""

import hashlib

import pytest

from repro.simulation import scenarios
from repro.simulation.swarm import run_swarm
from repro.verify.schedule import FaultSchedule, ScheduleSpec

SEEDS = range(60)

SCHEDULE_DIGESTS = {
    "default": ("30aed8becee348f5bca12b6a44ea6c4a"
                "d638e62f22b6e4709c6ee9c114325baf"),
    "unkeyed": ("761f682220867c72b6c814cd57d24462"
                "d84e94b48aef88f16c69462670fc9f1f"),
}


def _schedule_digest(spec):
    digest = hashlib.sha256()
    for seed in SEEDS:
        digest.update(FaultSchedule.generate(seed, spec).to_json()
                      .encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name,spec", [
    ("default", ScheduleSpec()),
    ("unkeyed", ScheduleSpec(keyed=False)),
])
def test_generated_schedule_json_is_pinned(name, spec):
    assert _schedule_digest(spec) == SCHEDULE_DIGESTS[name]


def _result_digest(result):
    digest = hashlib.sha256()
    for seq in sorted(result.metrics.frames):
        record = result.metrics.frames[seq]
        digest.update(repr((seq, record.device_id, record.dropped,
                            record.sink_arrived_at)).encode("utf-8"))
    digest.update(repr(result.throughput).encode("utf-8"))
    for when, decision in result.decisions:
        digest.update(repr((when, list(decision.selected),
                            sorted(decision.weights.items()),
                            decision.probing)).encode("utf-8"))
    return digest.hexdigest()


#: the paper's dynamism scenarios, fault windows switched on
SCENARIOS = {
    "joining": lambda: scenarios.joining(seed=3),
    "leaving": lambda: scenarios.leaving(seed=4),
    "fault_injection": lambda: scenarios.fault_injection(
        seed=5, revive_time=20.0, drop_window=4.0, delay_window=6.0),
    "overload": lambda: scenarios.overload(seed=6),
    "churn": lambda: scenarios.churn(),
    "failover": lambda: scenarios.failover(),
}

SCENARIO_DIGESTS = {
    "joining": ("98e6ce6b0a60f95514c2195076b4b0ac"
                "1d072b82fa7096a70a7c6f52d2228075"),
    "leaving": ("b649bd253f9e750af8f3130fd295eb2b"
                "f06e628b72a4445fa81fa7476f42565a"),
    "fault_injection": ("64ef62a55582e41f2e00e501728248b0"
                        "44b7b99cad4b63420e53512e59e0cec2"),
    "overload": ("7a3e8d3c3d2e6777a2d4ceb026d24311"
                 "626c21ba8cb5e32d6753bfaef22141e1"),
    "churn": ("2c641e7da7721e265b51339224cbb04d"
              "9cb02e3d0b8a89fadff6ee36318227e9"),
    "failover": ("57ae167fd9f2cab5f135a85d54610277"
                 "8a36b10e05b6a0a06007c89f3caedbb7"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_outcome_is_pinned(name):
    result = run_swarm(SCENARIOS[name]())
    assert _result_digest(result) == SCENARIO_DIGESTS[name]
