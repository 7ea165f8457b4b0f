"""Per-thread CPU and context-switch accounting from ``/proc``.

Only the program's own threads are counted: a thread belongs to the
program when its name carries one of the runtime's thread prefixes
(``worker:``, ``source:``, ``fabric-read:`` ...).  The benchmark's main
thread, which only waits on the sink's completion event, is excluded.

CPU time comes from ``/proc/self/task/<tid>/schedstat`` (nanosecond run
time), voluntary context switches from ``status`` and peak RSS from
``VmHWM``, reset per round through ``clear_refs``.  There is no coarser
fallback: :func:`require` stops the benchmark before it measures
anything on a kernel that lacks one of them.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, NamedTuple, Optional

#: thread-name prefix -> role reported as ``worker.cpu_us_per_tuple.<role>``
ROLE_PREFIXES = (
    ("worker:", None),          # master or compute, decided by endpoint
    ("source:", "source"),
    ("fabric-read:", "tcp-read"),
    ("fabric-accept:", "other"),
)

ROLES = ("master", "compute", "source", "tcp-read", "other")


class ThreadSample(NamedTuple):
    role: str
    cpu: float      # seconds on CPU since the thread started
    vcsw: int       # voluntary context switches since the thread started


def role_of(name: str, master_id: str) -> Optional[str]:
    """The role of a program thread, or None for a non-program thread."""
    for prefix, role in ROLE_PREFIXES:
        if name.startswith(prefix):
            if role is None:
                endpoint = name[len(prefix):]
                return "master" if endpoint == master_id else "compute"
            return role
    return None


def _read_cpu(tid: int) -> float:
    with open("/proc/self/task/%d/schedstat" % tid) as handle:
        return int(handle.read().split()[0]) / 1e9


def _read_vcsw(tid: int) -> int:
    with open("/proc/self/task/%d/status" % tid) as handle:
        for line in handle:
            if line.startswith("voluntary_ctxt_switches:"):
                return int(line.split()[1])
    raise OSError("no voluntary_ctxt_switches for thread %d" % tid)


def sample_threads(master_id: str) -> Dict[int, ThreadSample]:
    """CPU and vcsw of every live program thread, keyed by native id."""
    samples: Dict[int, ThreadSample] = {}
    for thread in threading.enumerate():
        role = role_of(thread.name, master_id)
        tid = thread.native_id
        if role is None or tid is None:
            continue
        try:
            samples[tid] = ThreadSample(role, _read_cpu(tid), _read_vcsw(tid))
        except OSError:
            continue  # the thread exited between enumerate() and the read
    return samples


class Window(NamedTuple):
    """CPU and vcsw spent by program threads between two samples."""

    cpu_by_role: Dict[str, float]
    cpu_by_thread: Dict[int, float]
    role_by_thread: Dict[int, str]
    vcsw: int

    @property
    def cpu(self) -> float:
        return sum(self.cpu_by_role.values())


def window(before: Dict[int, ThreadSample],
           after: Dict[int, ThreadSample]) -> Window:
    """Per-role deltas; a thread born inside the window starts from 0."""
    by_role = {role: 0.0 for role in ROLES}
    by_thread: Dict[int, float] = {}
    roles: Dict[int, str] = {}
    vcsw = 0
    for tid, end in after.items():
        start = before.get(tid)
        cpu = end.cpu - (start.cpu if start is not None else 0.0)
        by_role[end.role] += cpu
        by_thread[tid] = cpu
        roles[tid] = end.role
        vcsw += end.vcsw - (start.vcsw if start is not None else 0)
    return Window(by_role, by_thread, roles, vcsw)


def reset_rss_peak() -> None:
    """Restart the kernel's peak-RSS record (VmHWM) from the current RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def rss_peak_mb() -> float:
    """Peak resident set size of this process since the last reset, MB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("/proc/self/status has no VmHWM")


def require() -> None:
    """Exit unless every ``/proc`` reading the benchmark takes works."""
    tid = threading.get_native_id()
    try:
        _read_cpu(tid)
        _read_vcsw(tid)
        reset_rss_peak()
        rss_peak_mb()
    except (OSError, ValueError, IndexError) as exc:
        sys.exit("perfbench: per-thread /proc accounting unavailable: %s"
                 % exc)
