"""Regression: a keyed frame in transit must hold up a range hand-off.

Seed 12000's schedule, shrunk to four events (leave G, rejoin G, kill B,
rejoin B), used to leave key ``user-30`` in two stores at once.  A frame
already committed to the old owner — waiting for a socket credit, on the
air, or re-sent by redelivery — was invisible to the drain check, landed
after the state had moved, and rebuilt the key on the old owner.
"""

from repro.verify import adapters, explorer
from repro.verify.schedule import FaultEvent, FaultSchedule, RunProfile

SHRUNK = FaultSchedule(
    events=(FaultEvent(9.879, "leave", "G", atom=2),
            FaultEvent(12.405, "rejoin", "G", atom=2),
            FaultEvent(14.343, "kill", "B", atom=1),
            FaultEvent(17.863, "rejoin", "B", atom=1)),
    seed=12000,
    profile=RunProfile(keyed=True))


def test_shrunk_schedule_keeps_every_key_in_one_store():
    violations, _notes = explorer.check_run(SHRUNK, adapters.SIM)
    assert [violation.to_dict() for violation in violations] == []


def test_the_replay_exercises_keyed_state():
    # Guard the guard: the run must carry keyed stores to audit.
    history = adapters.run_schedule(SHRUNK, adapters.SIM)
    audit = history.keyed_audit
    assert audit is not None
    assert sum(len(keys) for stores in audit["stores"].values()
               for keys in stores.values()) > 0
