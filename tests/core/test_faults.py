"""Tests for the one fault vocabulary (repro.core.faults)."""

import pytest

from repro.core.exceptions import RuntimeStateError
from repro.core.faults import (ALL_DEVICES, CHAOS_DROP, CHAOS_DUPLICATE,
                               CHURN_DISCONNECT, CHURN_HEAL, CHURN_JOIN,
                               CHURN_KILL, CHURN_KILL_MASTER,
                               CHURN_PARTITION, CHURN_REJOIN,
                               CHURN_RESTART_MASTER, LOAD_BURST, FaultEvent,
                               master_outages, partition_heals,
                               validate_membership)


class TestFaultEvent:
    def test_every_device_only_for_chaos_windows(self):
        FaultEvent(1.0, CHAOS_DROP, ALL_DEVICES, duration=1.0, value=0.5)
        FaultEvent(1.0, CHAOS_DUPLICATE, ALL_DEVICES, duration=1.0,
                   value=0.5)
        with pytest.raises(RuntimeStateError):
            FaultEvent(1.0, CHURN_KILL, ALL_DEVICES)
        with pytest.raises(RuntimeStateError):
            FaultEvent(1.0, LOAD_BURST, ALL_DEVICES, duration=1.0,
                       value=0.5)

    def test_load_burst_is_a_bounded_window(self):
        burst = FaultEvent(2.0, LOAD_BURST, "B", duration=3.0, value=0.8)
        assert burst.end == 5.0
        with pytest.raises(RuntimeStateError):
            FaultEvent(2.0, LOAD_BURST, "B", duration=3.0, value=1.5)
        with pytest.raises(RuntimeStateError):
            FaultEvent(2.0, LOAD_BURST, "B", value=0.5)

    def test_dict_round_trip(self):
        event = FaultEvent(1.5, CHAOS_DROP, "A>B", duration=2.0, value=0.25,
                           atom=3)
        assert FaultEvent.from_dict(event.to_dict()) == event


class TestMembership:
    def test_disconnect_is_a_departure(self):
        events = (FaultEvent(1.0, CHURN_DISCONNECT, "B"),
                  FaultEvent(2.0, CHURN_REJOIN, "B"))
        assert validate_membership(events, {"B", "D"}) == {"B", "D"}
        with pytest.raises(RuntimeStateError):
            validate_membership((FaultEvent(1.0, CHURN_DISCONNECT, "Z"),),
                                {"B"})

    def test_join_adds_a_new_member(self):
        assert validate_membership((FaultEvent(1.0, CHURN_JOIN, "G"),),
                                   {"B"}) == {"B", "G"}
        with pytest.raises(RuntimeStateError):
            validate_membership((FaultEvent(1.0, CHURN_JOIN, "B"),), {"B"})

    def test_rejoin_needs_a_former_member(self):
        with pytest.raises(RuntimeStateError):
            validate_membership((FaultEvent(1.0, CHURN_REJOIN, "Z"),),
                                {"B"})

    def test_windows_and_control_events_leave_membership_alone(self):
        events = (FaultEvent(1.0, CHURN_KILL_MASTER, "A"),
                  FaultEvent(1.0, LOAD_BURST, "Z", duration=1.0, value=0.5),
                  FaultEvent(2.0, CHURN_PARTITION, "A>B"))
        assert validate_membership(events, {"B"}) == {"B"}


class TestPairing:
    def test_master_outages_pair_kills_with_restarts(self):
        events = (FaultEvent(5.0, CHURN_RESTART_MASTER, "A"),
                  FaultEvent(2.0, CHURN_KILL_MASTER, "A"))
        assert master_outages(events) == [(2.0, 5.0)]
        with pytest.raises(RuntimeStateError):
            master_outages(events[1:])
        with pytest.raises(RuntimeStateError):
            master_outages(events[:1])

    def test_partitions_pair_with_heals_on_the_same_link(self):
        partition = FaultEvent(1.0, CHURN_PARTITION, "A>B")
        heal = FaultEvent(2.0, CHURN_HEAL, "A>B")
        assert partition_heals((heal, partition)) == [heal]
        with pytest.raises(RuntimeStateError):
            partition_heals((partition,))
        with pytest.raises(RuntimeStateError):
            partition_heals((partition, FaultEvent(2.0, CHURN_HEAL, "A>D")))
        with pytest.raises(RuntimeStateError):
            partition_heals((FaultEvent(1.0, CHURN_PARTITION, "B"),))
