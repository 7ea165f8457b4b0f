"""Jepsen-style verification: chaos schedules + global invariants.

``repro.verify`` turns the repo's per-feature fault scenarios into one
adversarial harness:

``schedule``
    A seeded :class:`FaultSchedule` of core
    :class:`~repro.core.faults.FaultEvent` values (every nemesis the
    repo has) plus a keyed / multi-tenant run profile, with validated
    composition rules.
``invariants``
    A :class:`RunHistory` normal form plus an :class:`InvariantChecker`
    over the guarantees the repo claims: tuple conservation,
    at-least-once completeness, dedup soundness, epoch-fencing
    monotonicity, keyed-state integrity, bounded queues and tenant
    isolation.
``adapters``
    One adapter per substrate: builds its configuration from the
    schedule's profile and normalises the run into a
    :class:`RunHistory`.
``explorer``
    The sweep loop behind ``swing verify``: N seeded schedules, each
    checked on both substrates; a failing schedule is shrunk
    (delta-debugging over fault atoms, deterministic replay by seed)
    to a minimal JSON repro replayable via ``--replay``.
"""

from repro.verify.explorer import explore, replay, shrink  # noqa: F401
from repro.verify.invariants import (InvariantChecker,  # noqa: F401
                                     RunHistory, Violation)
from repro.verify.schedule import (FaultEvent, FaultSchedule,  # noqa: F401
                                   RunProfile, ScheduleSpec)
