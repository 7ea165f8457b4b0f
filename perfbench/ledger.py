"""The traced run's wrapper layer: spans around each layer's entry points.

:class:`Ledger` patches the public functions and methods listed in
:data:`ENTRY_POINTS` with wrappers that record, per thread and per entry
point, the call count, wall time and CPU (``time.thread_time``) of every
call, and the *self* share of both (the call minus the wrapped calls
nested inside it).  Busy time is CPU; wall minus CPU is time spent
waiting on a lock, the GIL or a socket.  Spans are aggregated in memory
as they close and read out at phase boundaries; nothing is written
until the run ends.

A plain function is patched on every loaded ``repro`` module that holds
it, because callers resolve names imported with ``from ... import``
in their own module (``repro.runtime.worker`` calls its own
``decode_tuple``).  Every patch is undone on exit, and :meth:`Ledger.
restore` checks that each original is back in place.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import metrics as metrics_mod
from repro.core.controller import LrsController
from repro.core.delivery import DedupWindow, ReplayBuffer
from repro.runtime import serialization
from repro.runtime.channels import TcpChannel
from repro.runtime.dispatcher import UpstreamDispatcher, _FabricEgress
from repro.runtime.fabric import InProcFabric, Mailbox, TcpFabric
from repro.runtime.health import HealthMonitor
from repro.runtime.messages import Message
from repro.simulation.engine import Simulator
from repro.simulation.swarm import SwarmSimulation
from repro.verify import adapters
from repro.verify.invariants import InvariantChecker
from repro.verify.schedule import FaultSchedule

from swarm import BenchSink, CrcUnit

#: how a wrapper measures: a full span, or only a call count
SPAN, COUNT = "span", "count"
#: byte accounting: none, ``len`` of the result, ``len`` of argument 1
NO_BYTES, RESULT_BYTES, ARG_BYTES = 0, 1, 2

#: (layer, owner, attribute, mode, bytes).  The dispatcher's egress
#: port (``_FabricEgress.send``) is wrapped so the message it builds is
#: charged to the dispatcher and not to the controller that calls it;
#: ``Histogram.observe`` is wrapped because the controller feeds its
#: batch-size histogram directly, past ``observe_histogram``.
ENTRY_POINTS: Tuple[Tuple[str, object, str, str, int], ...] = (
    ("serialization.encode", serialization, "encode_tuple", SPAN,
     RESULT_BYTES),
    ("serialization.encode", serialization, "encode_batch", SPAN, NO_BYTES),
    ("serialization.decode", serialization, "decode_tuple", SPAN, NO_BYTES),
    ("serialization.decode", serialization, "decode_batch", SPAN, NO_BYTES),
    ("messages.encode", Message, "encode", SPAN, RESULT_BYTES),
    ("messages.decode", Message, "decode", SPAN, NO_BYTES),
    ("controller.dispatch", LrsController, "dispatch", SPAN, NO_BYTES),
    ("controller.dispatch", LrsController, "dispatch_batch", SPAN, NO_BYTES),
    ("controller.ack", LrsController, "on_ack", SPAN, NO_BYTES),
    ("controller.ack", LrsController, "on_ack_batch", SPAN, NO_BYTES),
    ("controller.update", LrsController, "maybe_update", SPAN, NO_BYTES),
    ("dispatcher", UpstreamDispatcher, "dispatch", SPAN, NO_BYTES),
    ("dispatcher", UpstreamDispatcher, "flush", SPAN, NO_BYTES),
    ("dispatcher", UpstreamDispatcher, "on_ack", SPAN, NO_BYTES),
    ("dispatcher", UpstreamDispatcher, "on_ack_batch", SPAN, NO_BYTES),
    ("dispatcher", _FabricEgress, "send", SPAN, NO_BYTES),
    ("fabric.send", InProcFabric, "send", SPAN, NO_BYTES),
    ("fabric.send", TcpFabric, "send", SPAN, NO_BYTES),
    ("fabric.put", Mailbox, "put", SPAN, NO_BYTES),
    ("fabric.get", Mailbox, "get", SPAN, NO_BYTES),
    ("channels.send", TcpChannel, "send", SPAN, ARG_BYTES),
    ("channels.recv", TcpChannel, "recv", SPAN, NO_BYTES),
    ("delivery", ReplayBuffer, "retain", SPAN, NO_BYTES),
    ("delivery", ReplayBuffer, "release", SPAN, NO_BYTES),
    ("delivery", DedupWindow, "seen", SPAN, NO_BYTES),
    ("metrics", metrics_mod.MetricsRegistry, "increment", SPAN, NO_BYTES),
    ("metrics", metrics_mod.MetricsRegistry, "observe_histogram", SPAN,
     NO_BYTES),
    ("metrics", metrics_mod.Gauge, "set", SPAN, NO_BYTES),
    ("metrics", metrics_mod.Histogram, "observe", SPAN, NO_BYTES),
    ("health", HealthMonitor, "should_attempt", SPAN, NO_BYTES),
    ("health", HealthMonitor, "record_success", SPAN, NO_BYTES),
    ("health", HealthMonitor, "record_ack", SPAN, NO_BYTES),
    ("function_unit.process", CrcUnit, "process_data", SPAN, NO_BYTES),
    ("function_unit.sink", BenchSink, "process_data", SPAN, NO_BYTES),
    ("schedule", FaultSchedule, "generate", SPAN, NO_BYTES),
    ("simulation.run", SwarmSimulation, "run", SPAN, NO_BYTES),
    ("simulation.events", Simulator, "schedule", COUNT, NO_BYTES),
    ("simulation.events", Simulator, "process", COUNT, NO_BYTES),
    ("adapters", adapters, "history_from_sim", SPAN, NO_BYTES),
    ("invariants", InvariantChecker, "check", SPAN, NO_BYTES),
)

# Row layout of one (thread, entry point) aggregate.
CALLS, WALL, CPU, SELF_WALL, SELF_CPU, BYTES = range(6)
ROW = 6


class ThreadTable:
    """One thread's aggregates: a row per entry."""

    __slots__ = ("native_id", "rows", "top", "stack")

    def __init__(self, native_id: int, size: int) -> None:
        self.native_id = native_id
        self.rows = [[0.0] * ROW for _ in range(size)]
        #: top-level spans only: [calls, wall, cpu]
        self.top = [0.0, 0.0, 0.0]
        #: open spans: [child wall, child cpu] per nesting level
        self.stack: List[List[float]] = []


class Snapshot:
    """Per-thread copies of the aggregates at one instant."""

    def __init__(self, tables: Dict[int, Tuple[int, list, list]]) -> None:
        #: table index -> (native id, rows, top-level totals)
        self.tables = tables

    def minus(self, earlier: "Snapshot") -> "Snapshot":
        diff = {}
        for key, (native_id, rows, top) in self.tables.items():
            base = earlier.tables.get(key)
            if base is None:
                diff[key] = (native_id, rows, top)
                continue
            diff[key] = (native_id,
                         [[a - b for a, b in zip(row, old)]
                          for row, old in zip(rows, base[1])],
                         [a - b for a, b in zip(top, base[2])])
        return Snapshot(diff)


class Ledger:
    """Install spans around :data:`ENTRY_POINTS`; a context manager."""

    def __init__(self) -> None:
        self.entries = ENTRY_POINTS
        self._local = threading.local()
        self._lock = threading.Lock()
        #: one table per thread ever seen (idents are reused, so a list)
        self._tables: List[ThreadTable] = []
        #: (holder, attribute, original object) for every patch made
        self._patches: List[Tuple[object, str, object]] = []
        #: put time of every queued message, keyed by id(message)
        self._put_at: Dict[int, float] = {}
        #: mailbox wait samples (seconds), recorded while ``sample_waits``
        self.waits: List[float] = []
        self.sample_waits = False
        #: largest replay-buffer occupancy seen after a retain
        self.retained_peak = 0

    # -- install / restore ------------------------------------------------
    def __enter__(self) -> "Ledger":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        for index, (_layer, owner, attr, mode, nbytes) in \
                enumerate(self.entries):
            if isinstance(owner, type):
                self._patch_method(index, owner, attr, mode, nbytes)
            else:
                self._patch_function(index, owner, attr, mode, nbytes)

    def _patch_method(self, index: int, cls: type, attr: str, mode: str,
                      nbytes: int) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(index, original.__func__,
                                             mode, nbytes))
        else:
            wrapped = self._wrap(index, original, mode, nbytes)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapped)

    def _patch_function(self, index: int, module, attr: str, mode: str,
                        nbytes: int) -> None:
        original = getattr(module, attr)
        wrapped = self._wrap(index, original, mode, nbytes)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, original))
                    setattr(loaded, key, wrapped)

    def restore(self) -> None:
        """Undo every patch, newest first; raise if any did not hold."""
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        stale = [(holder, attr) for holder, attr, original in self._patches
                 if _lookup(holder, attr) is not original]
        self._patches = []
        if stale:
            raise RuntimeError("wrappers left in place: %r" % stale)

    def originals(self) -> List[Tuple[object, str, object]]:
        """Every (holder, attribute, original) currently patched."""
        return list(self._patches)

    # -- wrappers ----------------------------------------------------------
    def _table(self) -> ThreadTable:
        table = ThreadTable(threading.get_native_id(), len(self.entries))
        with self._lock:
            self._tables.append(table)
        self._local.table = table
        return table

    def _wrap(self, index: int, fn: Callable, mode: str,
              nbytes: int) -> Callable:
        local = self._local
        if mode == COUNT:
            def counted(*args, **kwargs):
                try:
                    table = local.table
                except AttributeError:
                    table = self._table()
                table.rows[index][CALLS] += 1
                return fn(*args, **kwargs)
            return _named(counted, fn)
        post = self._post_hook(fn, nbytes)
        # Stamp a message's put time before the put: once it is queued,
        # another thread may take it before the put call returns.
        stamp = (self._put_at if fn is Mailbox.__dict__["put"] else None)
        perf, cpu = time.perf_counter, time.thread_time

        def spanned(*args, **kwargs):
            try:
                table = local.table
            except AttributeError:
                table = self._table()
            if stamp is not None:
                stamp[id(args[2])] = perf()
            stack = table.stack
            frame = [0.0, 0.0]
            stack.append(frame)
            wall0 = perf()
            cpu0 = cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu1 = cpu()
                wall1 = perf()
                stack.pop()
                wall = wall1 - wall0
                used = cpu1 - cpu0
                row = table.rows[index]
                row[CALLS] += 1
                row[WALL] += wall
                row[CPU] += used
                row[SELF_WALL] += wall - frame[0]
                row[SELF_CPU] += used - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += wall
                    parent[1] += used
                else:
                    top = table.top
                    top[0] += 1
                    top[1] += wall
                    top[2] += used
            if post is not None:
                post(row, args, result)
            return result
        return _named(spanned, fn)

    def _post_hook(self, fn: Callable, nbytes: int):
        """Accounting after a successful call: bytes, waits, peaks."""
        if nbytes == RESULT_BYTES:
            def count_result(row, args, result):
                row[BYTES] += len(result)
            return count_result
        if nbytes == ARG_BYTES:
            def count_arg(row, args, result):
                row[BYTES] += len(args[1])
            return count_arg
        if fn is Mailbox.__dict__["get"]:
            put_at, waits = self._put_at, self.waits
            perf = time.perf_counter

            def take_get(row, args, result):
                stamped = put_at.pop(id(result[1]), None)
                if stamped is not None and self.sample_waits:
                    waits.append(perf() - stamped)
            return take_get
        if fn is ReplayBuffer.__dict__["retain"]:
            def peak(row, args, result):
                depth = len(args[0])
                if depth > self.retained_peak:
                    self.retained_peak = depth
            return peak
        return None

    # -- read-out -----------------------------------------------------------
    def snapshot(self) -> Snapshot:
        with self._lock:
            tables = list(self._tables)
        return Snapshot({key: (table.native_id,
                               [row[:] for row in table.rows],
                               table.top[:])
                         for key, table in enumerate(tables)})

    def forget_puts(self) -> None:
        """Drop put stamps of messages that were never taken (teardown)."""
        self._put_at.clear()


def _named(wrapper: Callable, fn: Callable) -> Callable:
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def _lookup(holder, attr):
    if isinstance(holder, type):
        return holder.__dict__.get(attr)
    return getattr(holder, attr, None)


class Totals:
    """Span aggregates of some windows, summed over their threads."""

    def __init__(self, ledger: Ledger, windows: List[Snapshot]) -> None:
        self.entries = ledger.entries
        self.by_entry = [[0.0] * ROW for _ in self.entries]
        #: native id -> [top calls, top wall, top cpu]; a recycled
        #: native id may name a dead thread and a live one
        self.top: Dict[int, List[float]] = {}
        for window in windows:
            for native_id, rows, top in window.tables.values():
                for total, row in zip(self.by_entry, rows):
                    for column in range(ROW):
                        total[column] += row[column]
                seen = self.top.setdefault(native_id, [0.0] * 3)
                for column in range(3):
                    seen[column] += top[column]

    def layer(self, layer: str, column: int,
              attrs: Optional[Tuple[str, ...]] = None) -> float:
        """Sum *column* over every entry of *layer* (prefix match)."""
        total = 0.0
        for (name, _owner, attr, _mode, _bytes), row in zip(self.entries,
                                                            self.by_entry):
            if name == layer or name.startswith(layer + "."):
                if attrs is None or attr in attrs:
                    total += row[column]
        return total
