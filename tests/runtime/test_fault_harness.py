"""Tests for the runtime fault harness (FaultEvent replay on threads).

A stub runtime stands in for :class:`SwingRuntime`: the harness only
calls its membership / master methods and its fabric, and the stub
records when each call happened so timing can be asserted without a
live swarm.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro.core.exceptions import RuntimeStateError
from repro.core.faults import (ALL_DEVICES, CHAOS_DELAY, CHAOS_DROP,
                               CHURN_DISCONNECT, CHURN_KILL, CHURN_LEAVE,
                               CHURN_PARTITION, CHURN_HEAL, CHURN_REJOIN,
                               CHURN_RESTART_MASTER, CHURN_KILL_MASTER,
                               LOAD_BURST, FaultEvent)
from repro.runtime.chaos import ChaosFabric, FaultHarness, LinkChaos
from repro.runtime.fabric import InProcFabric

#: how long the stub's graceful drain blocks the harness thread
DRAIN_SECONDS = 0.8


class StubRuntime:
    def __init__(self, fabric=None):
        self.fabric = fabric if fabric is not None else ChaosFabric(
            InProcFabric())
        self.master = SimpleNamespace(master_id="A",
                                      pool=SimpleNamespace(epoch=0))
        self.calls = []
        self.started = time.monotonic()
        self.drain_window = None
        self.link_calls = []
        if isinstance(self.fabric, ChaosFabric):
            real_set_link = self.fabric.set_link

            def set_link(sender_id, target_id, chaos):
                self.link_calls.append((self._now(), sender_id, target_id,
                                        chaos))
                real_set_link(sender_id, target_id, chaos)

            self.fabric.set_link = set_link
            self.fabric.partition = (
                lambda sender, target: self._record("partition", sender,
                                                    target))
            self.fabric.heal = (
                lambda sender, target: self._record("heal", sender, target))

    def _now(self):
        return time.monotonic() - self.started

    def _record(self, name, *args):
        self.calls.append((name,) + args)

    def sink_unit(self):
        return "sink-%d" % self.master.pool.epoch

    def crash_worker(self, worker_id):
        self._record("crash", worker_id)

    def drain_worker(self, worker_id):
        began = self._now()
        time.sleep(DRAIN_SECONDS)
        self.drain_window = (began, self._now())
        self._record("drain", worker_id)
        return DRAIN_SECONDS

    def spawn_worker(self, worker_id):
        self._record("spawn", worker_id)

    def crash_master(self):
        self._record("crash_master")

    def restart_master(self):
        self.master.pool.epoch += 1
        self._record("restart_master")


def test_window_edge_inside_a_blocking_drain_fires_on_schedule():
    runtime = StubRuntime()
    harness = FaultHarness(runtime, (
        FaultEvent(0.1, CHURN_LEAVE, "B"),
        FaultEvent(0.3, CHAOS_DROP, "A>G", duration=0.2, value=0.5),
        FaultEvent(0.2, CHURN_REJOIN, "B"),
    ))
    runtime.started = time.monotonic()
    harness.run()
    drain_began, drain_ended = runtime.drain_window
    (start_at, _, _, start), (end_at, _, _, end) = runtime.link_calls
    assert start == LinkChaos(drop=0.5) and end == LinkChaos()
    # Both edges land inside the drain, each close to its own time ...
    assert drain_began < start_at < end_at < drain_ended
    assert start_at == pytest.approx(0.3, abs=0.15)
    assert end_at == pytest.approx(0.5, abs=0.15)
    # ... while the point events still wait for the drain, in order.
    assert [call[0] for call in runtime.calls] == ["drain", "spawn"]
    assert harness.drain_seconds == {"B": DRAIN_SECONDS}


def test_point_events_map_onto_runtime_calls():
    runtime = StubRuntime()
    harness = FaultHarness(runtime, (
        FaultEvent(0.0, CHURN_KILL, "B"),
        FaultEvent(0.0, CHURN_DISCONNECT, "D"),
        FaultEvent(0.01, CHURN_PARTITION, "A>G"),
        FaultEvent(0.02, CHURN_HEAL, "A>G"),
        FaultEvent(0.03, CHURN_KILL_MASTER, "A"),
        FaultEvent(0.04, CHURN_RESTART_MASTER, "A"),
    ))
    harness.run()
    assert runtime.calls == [("crash", "B"), ("crash", "D"),
                             ("partition", "A", "G"), ("heal", "A", "G"),
                             ("crash_master",), ("restart_master",)]
    # Every master incarnation's sink and epoch, for reading results
    # across a restart.
    assert harness.sinks == ["sink-0", "sink-1"]
    assert harness.epochs == [0, 1]
    assert [event.action for event, _ in harness.applied] == [
        CHURN_KILL, CHURN_DISCONNECT, CHURN_PARTITION, CHURN_HEAL,
        CHURN_KILL_MASTER, CHURN_RESTART_MASTER]


def test_window_targets_devices_links_and_the_whole_swarm():
    runtime = StubRuntime()
    defaults = []
    runtime.fabric.set_default = defaults.append
    harness = FaultHarness(runtime, (
        FaultEvent(0.0, CHAOS_DELAY, "G", duration=0.01, value=0.5),
        FaultEvent(0.0, CHAOS_DROP, ALL_DEVICES, duration=0.01,
                   value=0.2),
        FaultEvent(0.0, LOAD_BURST, "B", duration=0.01, value=0.5),
    ), time_scale=0.5)
    harness.run()
    # A bare device names the master's link to it; the delay scales
    # with the harness's time compression; load bursts have no mirror.
    links = [(sender, target, chaos)
             for _, sender, target, chaos in runtime.link_calls]
    assert links == [("A", "G", LinkChaos(delay=1.0, delay_seconds=0.25)),
                     ("A", "G", LinkChaos())]
    assert defaults == [LinkChaos(drop=0.2), LinkChaos()]
    assert runtime.calls == []


def test_windows_need_a_chaos_fabric():
    runtime = StubRuntime(fabric=InProcFabric())
    with pytest.raises(RuntimeStateError):
        FaultHarness(runtime, (FaultEvent(0.0, CHAOS_DROP, "A>B",
                                          duration=1.0, value=0.1),))
    # Membership events and load bursts do not touch the fabric; a
    # partition does.
    FaultHarness(runtime, (FaultEvent(0.0, CHURN_KILL, "B"),
                           FaultEvent(0.0, LOAD_BURST, "B", duration=1.0,
                                      value=0.5))).run()
    assert runtime.calls == [("crash", "B")]
    with pytest.raises(RuntimeStateError):
        FaultHarness(runtime, (FaultEvent(0.0, CHURN_PARTITION, "A>B"),
                               FaultEvent(0.1, CHURN_HEAL, "A>B"))).run()


def test_a_failing_point_event_stops_the_window_thread():
    runtime = StubRuntime()

    def explode(worker_id):
        raise RuntimeStateError("unknown worker %r" % worker_id)

    runtime.crash_worker = explode
    harness = FaultHarness(runtime, (
        FaultEvent(0.0, CHURN_KILL, "Z"),
        FaultEvent(0.5, CHAOS_DROP, "A>B", duration=0.5, value=0.1),
    ))
    with pytest.raises(RuntimeStateError):
        harness.run()
    time.sleep(0.7)
    assert runtime.link_calls == []
    assert not any(thread.name == "chaos-windows"
                   for thread in threading.enumerate())
