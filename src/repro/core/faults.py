"""The one fault vocabulary both substrates consume.

A :class:`FaultEvent` is one fault at a point (or over a window) of
scenario time.  The discrete-event simulator schedules it natively from
``SwarmConfig.faults``; the threaded runtime replays it through
:class:`repro.runtime.chaos.FaultHarness`; the verification explorer
composes seeded tuples of it into a
:class:`repro.verify.schedule.FaultSchedule`.  One seed therefore
describes one fault story on either substrate.

Point events move membership or the control plane; window events carry
a duration and an intensity (``value``).  DESIGN.md §7 maps every
action onto both substrates.  The checks here are run-agnostic: they
need only the events and the initial membership, never a spec or a
substrate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.exceptions import RuntimeStateError

#: point actions: membership
CHURN_JOIN = "join"
CHURN_LEAVE = "leave"    # graceful: LEAVING handshake, drain, depart
CHURN_KILL = "kill"      # abrupt: silent crash, detected by timeouts
CHURN_DISCONNECT = "disconnect"  # abrupt: the upstream sees the link break
CHURN_REJOIN = "rejoin"  # previously departed device comes back
#: point actions: control plane and links (the target names the master or
#: a directed "a>b" link; worker membership does not move)
CHURN_KILL_MASTER = "kill_master"        # abrupt master crash
CHURN_RESTART_MASTER = "restart_master"  # recovered master, next epoch
CHURN_PARTITION = "partition"            # sever a directed link
CHURN_HEAL = "heal"                      # heal a partitioned link

#: window actions (duration > 0; ``value`` is the intensity)
CHAOS_DROP = "chaos_drop"            # drop probability
CHAOS_DELAY = "chaos_delay"          # extra per-message delay (seconds)
CHAOS_DUPLICATE = "chaos_duplicate"  # duplicate probability (runtime codec)
CHAOS_CORRUPT = "chaos_corrupt"      # bit-flip probability (runtime codec)
LOAD_BURST = "load_burst"            # background CPU load on one worker

#: window target meaning "every device"
ALL_DEVICES = "*"

DEPARTURES = frozenset({CHURN_LEAVE, CHURN_KILL, CHURN_DISCONNECT})
POINT_ACTIONS = DEPARTURES | frozenset({
    CHURN_JOIN, CHURN_REJOIN, CHURN_KILL_MASTER, CHURN_RESTART_MASTER,
    CHURN_PARTITION, CHURN_HEAL})
CHAOS_ACTIONS = frozenset({CHAOS_DROP, CHAOS_DELAY, CHAOS_DUPLICATE,
                           CHAOS_CORRUPT})
WINDOW_ACTIONS = CHAOS_ACTIONS | frozenset({LOAD_BURST})
ACTIONS = POINT_ACTIONS | WINDOW_ACTIONS
#: window intensities that are probabilities (bounded to [0, 1])
_PROBABILITY_ACTIONS = frozenset({CHAOS_DROP, CHAOS_DUPLICATE,
                                  CHAOS_CORRUPT, LOAD_BURST})


@dataclass(frozen=True)
class FaultEvent:
    """One fault at a point (or over a window) of scenario time."""

    time: float
    action: str
    target: str          # device id, master id, "a>b" link, or "*"
    duration: float = 0.0
    value: float = 0.0
    atom: int = 0        # shrink unit this event belongs to

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise RuntimeStateError("unknown fault action %r (want one "
                                    "of %s)" % (self.action,
                                                sorted(ACTIONS)))
        if self.time < 0:
            raise RuntimeStateError("fault event time must be >= 0")
        if not self.target:
            raise RuntimeStateError("fault event needs a target")
        if self.target == ALL_DEVICES \
                and self.action not in CHAOS_ACTIONS:
            raise RuntimeStateError("only chaos windows may target every "
                                    "device, not %s" % self.action)
        if self.action in WINDOW_ACTIONS:
            if self.duration <= 0:
                raise RuntimeStateError("%s window needs a positive "
                                        "duration" % self.action)
        elif self.duration:
            raise RuntimeStateError("%s is a point event; duration must "
                                    "be 0" % self.action)
        if self.action in _PROBABILITY_ACTIONS \
                and not 0.0 <= self.value <= 1.0:
            raise RuntimeStateError("%s intensity must be in [0, 1], got "
                                    "%r" % (self.action, self.value))
        if self.action == CHAOS_DELAY and self.value < 0:
            raise RuntimeStateError("chaos_delay needs a non-negative "
                                    "extra delay")

    @property
    def end(self) -> float:
        return self.time + self.duration

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        return cls(time=float(data["time"]), action=str(data["action"]),
                   target=str(data["target"]),
                   duration=float(data.get("duration", 0.0)),
                   value=float(data.get("value", 0.0)),
                   atom=int(data.get("atom", 0)))


def in_time_order(events: Iterable[FaultEvent]) -> List[FaultEvent]:
    """*events* by time; same-time events keep their given order."""
    return sorted(events, key=lambda event: event.time)


def validate_membership(events: Iterable[FaultEvent],
                        initial_ids: Iterable[str]) -> Set[str]:
    """Check the membership story is coherent against *initial_ids*.

    Departures must target a present device, rejoins an absent one that
    was once a member; a fresh ``join`` must not collide with a present
    device.  Returns the members left at the end (possibly none: a run
    may kill its last worker on purpose).
    """
    present = set(initial_ids)
    known = set(present)
    for event in in_time_order(events):
        device_id = event.target
        if event.action in DEPARTURES:
            if device_id not in present:
                raise RuntimeStateError(
                    "churn %s of %r at t=%.3f: device not present"
                    % (event.action, device_id, event.time))
            present.discard(device_id)
        elif event.action == CHURN_REJOIN:
            if device_id in present:
                raise RuntimeStateError(
                    "churn rejoin of %r at t=%.3f: device still present"
                    % (device_id, event.time))
            if device_id not in known:
                raise RuntimeStateError(
                    "churn rejoin of %r at t=%.3f: device never joined"
                    % (device_id, event.time))
            present.add(device_id)
        elif event.action == CHURN_JOIN:
            if device_id in present:
                raise RuntimeStateError(
                    "churn join of %r at t=%.3f: device already present"
                    % (device_id, event.time))
            present.add(device_id)
            known.add(device_id)
    return present


def master_outages(events: Iterable[FaultEvent]
                   ) -> List[Tuple[float, float]]:
    """(kill, restart) times of each master outage; checks the pairing."""
    outages: List[Tuple[float, float]] = []
    kill_at = None
    for event in in_time_order(events):
        if event.action == CHURN_KILL_MASTER:
            if kill_at is not None:
                raise RuntimeStateError("master killed twice without "
                                        "a restart in between")
            kill_at = event.time
        elif event.action == CHURN_RESTART_MASTER:
            if kill_at is None:
                raise RuntimeStateError("master restart without a "
                                        "preceding kill")
            outages.append((kill_at, event.time))
            kill_at = None
    if kill_at is not None:
        raise RuntimeStateError("master killed but never restarted")
    return outages


def partition_heals(events: Iterable[FaultEvent]) -> List[FaultEvent]:
    """Every ``heal``, once each partition pairs with exactly one heal
    on the same directed link."""
    open_links: Dict[str, float] = {}
    heals: List[FaultEvent] = []
    for event in in_time_order(events):
        if event.action == CHURN_PARTITION:
            if event.target in open_links:
                raise RuntimeStateError("link %r partitioned twice "
                                        "without a heal" % event.target)
            if ">" not in event.target:
                raise RuntimeStateError("partition target must be a "
                                        "directed 'a>b' link, got %r"
                                        % event.target)
            open_links[event.target] = event.time
        elif event.action == CHURN_HEAL:
            if event.target not in open_links:
                raise RuntimeStateError("heal of %r without an open "
                                        "partition" % event.target)
            del open_links[event.target]
            heals.append(event)
    if open_links:
        raise RuntimeStateError("links never healed: %s"
                                % sorted(open_links))
    return heals
