"""Tests for run-time background-load changes (paper Sec. III dynamism).

"the performance of the real-time sensing apps might be affected by ...
changes in applications running in the devices (captured by variations
in CPU usage)" — Swing must "steer frames to accommodate the reduced
computing capability when processor usage changes".
"""

import pytest

from repro import profiles
from repro.core.faults import CHURN_KILL, CHURN_REJOIN, LOAD_BURST, FaultEvent
from repro.simulation.swarm import SwarmConfig, SwarmSimulation, run_swarm
from repro.simulation.workload import face_workload


def config_with_event(policy="LRS", load=0.9, at=15.0, duration=30.0):
    return SwarmConfig(
        workload=face_workload(),
        workers=profiles.worker_profiles(["G", "H", "I"]),
        source=profiles.device_profile("A"),
        policy=policy,
        duration=duration,
        seed=2,
        # The other app starts at *at* and keeps running to the end.
        faults=(FaultEvent(at, LOAD_BURST, "H", duration=duration - at,
                           value=load),),
    )


class TestBackgroundLoadEvents:
    def test_loaded_device_slows_down(self):
        result = run_swarm(config_with_event(policy="RR"))
        per_device = result.metrics.per_device_throughput_series(30.0)
        before = sum(per_device["H"][5:14]) / 9
        after = sum(per_device["H"][20:29]) / 9
        # H keeps receiving an equal share under RR, but completes less.
        assert after < before

    def test_lrs_steers_frames_away_from_loaded_device(self):
        result = run_swarm(config_with_event(policy="LRS"))
        rates_series = result.metrics.per_device_throughput_series(30.0)
        h_before = sum(rates_series["H"][5:14]) / 9
        h_after = sum(rates_series["H"][20:29]) / 9
        g_before = sum(rates_series["G"][5:14]) / 9
        g_after = sum(rates_series["G"][20:29]) / 9
        assert h_after < h_before * 0.75   # H sheds load
        assert g_after > g_before          # G absorbs it

    def test_overall_throughput_recovers_under_lrs(self):
        result = run_swarm(config_with_event(policy="LRS", duration=40.0))
        series = result.throughput_series()
        late = sum(series[30:39]) / 9
        assert late >= 18.0

    def test_load_can_be_lifted_again(self):
        config = config_with_event(policy="LRS", duration=40.0)
        config.faults = (
            FaultEvent(10.0, LOAD_BURST, "H", duration=15.0, value=0.9),)
        result = run_swarm(config)
        per_device = result.metrics.per_device_throughput_series(40.0)
        loaded = sum(per_device["H"][15:24]) / 9
        recovered = sum(per_device["H"][32:39]) / 7
        assert recovered > loaded

    def test_event_for_unknown_device_ignored(self):
        config = config_with_event()
        config.faults = (
            FaultEvent(5.0, LOAD_BURST, "Z", duration=5.0, value=0.5),)
        result = run_swarm(config)  # must not raise
        assert result.throughput > 20.0


class TestLoadBurstWindow:
    def _sim(self, faults):
        config = config_with_event(duration=20.0)
        config.background_load = {"G": 0.2}
        config.faults = faults
        return SwarmSimulation(config)

    def test_device_rejoining_inside_a_burst_carries_its_load(self):
        sim = self._sim((
            FaultEvent(4.0, LOAD_BURST, "H", duration=10.0, value=0.7),
            FaultEvent(6.0, CHURN_KILL, "H"),
            FaultEvent(8.0, CHURN_REJOIN, "H")))
        sim.sim.run(3.0)
        assert sim.nodes["H"].cpu.background_load == 0.0
        sim.sim.run(9.0)
        assert sim.nodes["H"].cpu.background_load == 0.7
        sim.sim.run(15.0)
        assert sim.nodes["H"].cpu.background_load == 0.0

    def test_burst_end_restores_the_configured_baseline(self):
        sim = self._sim((
            FaultEvent(2.0, LOAD_BURST, "G", duration=3.0, value=0.9),))
        sim.sim.run(1.0)
        assert sim.nodes["G"].cpu.background_load == 0.2
        sim.sim.run(3.0)
        assert sim.nodes["G"].cpu.background_load == 0.9
        sim.sim.run(6.0)
        assert sim.nodes["G"].cpu.background_load == 0.2
