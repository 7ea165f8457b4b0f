"""Chaos tooling: link-level fault injection + the fault harness.

Two layers share this module:

:class:`ChaosFabric`
    A wrapper over any :class:`~repro.runtime.fabric.Fabric` that
    injects seeded drop / delay / duplicate / corrupt / partition
    faults per *directed* link.  Determinism matters more than realism
    here: each link owns a private RNG seeded from a CRC of its
    ``sender>target`` name (never ``hash()``, which moves under
    ``PYTHONHASHSEED``), so a seed reproduces the same fault story
    regardless of thread interleaving on other links.

:class:`FaultHarness`
    Replays a tuple of :class:`~repro.core.faults.FaultEvent` against a
    live :class:`SwingRuntime` — the threaded-runtime twin of the
    simulator's fault table (DESIGN.md §7 maps every action on both
    substrates).  Membership and master events call the runtime; link
    partitions and chaos windows act on its :class:`ChaosFabric`;
    ``load_burst`` has no mirror.

One seeded fault story thus yields the same membership timeline in
simulation and on the live runtime.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro import metrics as metrics_mod
from repro.core.exceptions import RuntimeStateError, SerializationError
from repro.core.faults import (ALL_DEVICES, CHAOS_CORRUPT, CHAOS_DELAY,
                               CHAOS_DROP, CHAOS_DUPLICATE, CHURN_DISCONNECT,
                               CHURN_HEAL, CHURN_JOIN, CHURN_KILL,
                               CHURN_KILL_MASTER, CHURN_LEAVE,
                               CHURN_PARTITION, CHURN_REJOIN,
                               CHURN_RESTART_MASTER, WINDOW_ACTIONS,
                               FaultEvent, in_time_order)
from repro.core.function_unit import SinkUnit
from repro.runtime.app_runner import SwingRuntime
from repro.runtime.channels import ChannelClosed
from repro.runtime.fabric import Fabric, Mailbox
from repro.runtime.messages import BATCH, Message
from repro.runtime.serialization import decode_batch


@dataclass(frozen=True)
class LinkChaos:
    """Fault probabilities of one directed link (all default to off).

    ``drop`` / ``duplicate`` / ``corrupt`` / ``delay`` are independent
    per-send probabilities; ``delay_seconds`` is how long a delayed
    frame is held before delivery.  A corrupted frame has one random
    bit flipped in its encoding — when the hardened codec rejects the
    mangled frame it is lost at the transport (counted), otherwise the
    mangled-but-decodable message is delivered as-is.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    delay_seconds: float = 0.05

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise RuntimeStateError("%s must be a probability" % name)
        if self.delay_seconds < 0:
            raise RuntimeStateError("delay_seconds must be >= 0")

    @property
    def active(self) -> bool:
        return bool(self.drop or self.duplicate or self.corrupt
                    or self.delay)


class ChaosFabric(Fabric):
    """Deterministic link-fault injection over any inner fabric.

    Faults are configured per directed link (:meth:`set_link`) on top
    of an optional default applied to every link; partitions are
    imposed and lifted at runtime (:meth:`partition` / :meth:`heal`).
    Injected losses are counted into
    ``swing_frames_dropped_total{reason=chaos_*, link=...}`` — chaos is
    observable, never silent — and non-loss injections (duplicates,
    delays) are tallied in :attr:`injected`.
    """

    def __init__(self, inner: Fabric, seed: int = 0,
                 default: Optional[LinkChaos] = None,
                 registry: Optional[metrics_mod.MetricsRegistry] = None
                 ) -> None:
        self.inner = inner
        self.seed = seed
        self._default = default if default is not None else LinkChaos()
        # Internal component: uninjected -> private registry, never the
        # process-wide default (cross-instance pollution).
        self._registry = (registry if registry is not None
                          else metrics_mod.MetricsRegistry())
        self._lock = threading.Lock()
        self._links: Dict[Tuple[str, str], LinkChaos] = {}
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        self._partitioned: Set[Tuple[str, str]] = set()
        #: injected-event tallies keyed by (reason, "sender>target")
        self.injected: Dict[Tuple[str, str], int] = {}
        self._timers: List[threading.Timer] = []

    # -- configuration ---------------------------------------------------
    def set_link(self, sender_id: str, target_id: str,
                 chaos: LinkChaos) -> None:
        """Override the fault profile of one directed link."""
        with self._lock:
            self._links[(sender_id, target_id)] = chaos

    def set_default(self, chaos: LinkChaos) -> None:
        """Replace the fault profile of every link without an override."""
        with self._lock:
            self._default = chaos

    def partition(self, sender_id: str, target_id: str,
                  symmetric: bool = True) -> None:
        """Sever a link: sends raise :class:`ChannelClosed` until healed."""
        with self._lock:
            self._partitioned.add((sender_id, target_id))
            if symmetric:
                self._partitioned.add((target_id, sender_id))

    def heal(self, sender_id: str, target_id: str,
             symmetric: bool = True) -> None:
        with self._lock:
            self._partitioned.discard((sender_id, target_id))
            if symmetric:
                self._partitioned.discard((target_id, sender_id))

    def partitioned_links(self) -> List[Tuple[str, str]]:
        with self._lock:
            return sorted(self._partitioned)

    # -- fabric API ------------------------------------------------------
    def register(self, endpoint_id: str) -> Mailbox:
        return self.inner.register(endpoint_id)

    def unregister(self, endpoint_id: str) -> None:
        self.inner.unregister(endpoint_id)

    def close(self) -> None:
        with self._lock:
            timers = list(self._timers)
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        self.inner.close()

    def send(self, sender_id: str, target_id: str, message: Message) -> None:
        link = (sender_id, target_id)
        with self._lock:
            severed = link in self._partitioned
            chaos = self._links.get(link, self._default)
            rng = (self._rng_locked(link)
                   if chaos.active and not severed else None)
            rolls = {}
            if rng is not None:
                # One locked pass draws every roll, so concurrent sends
                # on other links cannot perturb this link's fault story.
                for name in ("drop", "duplicate", "corrupt", "delay"):
                    probability = getattr(chaos, name)
                    rolls[name] = (probability > 0.0
                                   and rng.random() < probability)
                if rolls.get("corrupt"):
                    rolls["corrupt_at"] = rng.randrange(1 << 30)
        if severed:
            self._count_loss("chaos_partition", link)
            raise ChannelClosed("link %s>%s partitioned" % link)
        if not rolls:
            self.inner.send(sender_id, target_id, message)
            return
        if rolls.get("drop"):
            self._count_loss("chaos_drop", link)
            return  # silent loss: the sender believes it went out
        if rolls.get("corrupt"):
            message = self._corrupt(message, rolls["corrupt_at"])
            if message is None:
                self._count_loss("chaos_corrupt", link)
                return  # the codec rejected the mangled frame
            self._count_injection("chaos_corrupt", link)
        if rolls.get("delay"):
            self._count_injection("chaos_delay", link)
            timer = threading.Timer(
                chaos.delay_seconds, self._deliver_late,
                args=(sender_id, target_id, message))
            timer.daemon = True
            with self._lock:
                self._timers = [t for t in self._timers if t.is_alive()]
                self._timers.append(timer)
            timer.start()
            return
        self.inner.send(sender_id, target_id, message)
        if rolls.get("duplicate"):
            self._count_injection("chaos_duplicate", link)
            try:
                self.inner.send(sender_id, target_id, message)
            except ChannelClosed:
                pass  # the duplicate raced an endpoint teardown

    # -- internals -------------------------------------------------------
    def _rng_locked(self, link: Tuple[str, str]) -> random.Random:
        rng = self._rngs.get(link)
        if rng is None:
            # CRC-derived, not hash(): stable across processes and
            # PYTHONHASHSEED, so one seed = one reproducible story.
            rng = random.Random(
                zlib.crc32(("%s>%s" % link).encode("utf-8")) ^ self.seed)
            self._rngs[link] = rng
        return rng

    @staticmethod
    def _corrupt(message: Message, entropy: int) -> Optional[Message]:
        frame = bytearray(message.encode())
        if not frame:
            return None
        index = entropy % len(frame)
        frame[index] ^= 1 << ((entropy >> 8) % 8)
        try:
            mangled = Message.decode(bytes(frame))
        except SerializationError:
            return None
        if mangled.kind == BATCH:
            # The outer codec treats the nested batch frame as an opaque
            # byte string, so a flip inside it survives Message.decode.
            # Validate the inner framing here too: a corrupted batch is
            # dropped loudly at the fabric (chaos_corrupt), never handed
            # downstream to be partially decoded.
            try:
                decode_batch(mangled.payload["batch"], zero_copy=False)
            except (KeyError, TypeError, SerializationError):
                return None
        return mangled

    def _deliver_late(self, sender_id: str, target_id: str,
                      message: Message) -> None:
        try:
            self.inner.send(sender_id, target_id, message)
        except Exception:
            pass  # the target vanished while the frame was in flight

    def _count_loss(self, reason: str, link: Tuple[str, str]) -> None:
        self._registry.increment(metrics_mod.DROPPED_TOTAL, reason=reason,
                                 link="%s>%s" % link)
        self._count_injection(reason, link)

    def _count_injection(self, reason: str, link: Tuple[str, str]) -> None:
        key = (reason, "%s>%s" % link)
        with self._lock:
            self.injected[key] = self.injected.get(key, 0) + 1


#: the LinkChaos probability each chaos window sets to its intensity
_CHAOS_FIELDS = {CHAOS_DROP: "drop", CHAOS_DUPLICATE: "duplicate",
                 CHAOS_CORRUPT: "corrupt"}


class FaultHarness:
    """Applies fault events to a started :class:`SwingRuntime`.

    *time_scale* stretches (>1) or compresses (<1) the events' times —
    soak tests compress a long simulated schedule into a short
    wall-clock run.  Point events are applied strictly in time order on
    the caller's thread; a drain blocks until the leaver is empty, which
    is the point (the next event must observe the post-drain swarm, as
    it would on the engine).  Window edges fire from their own thread,
    so an edge that falls inside a blocking drain still lands on time.
    """

    def __init__(self, runtime: SwingRuntime,
                 events: Iterable[FaultEvent],
                 time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise RuntimeStateError("time scale must be positive")
        self.runtime = runtime
        self.time_scale = time_scale
        ordered = in_time_order(events)
        self._points = [event for event in ordered
                        if event.action not in WINDOW_ACTIONS]
        #: (offset, link setter) per window edge, in time order
        self._edges: List[Tuple[float, Callable[[], None]]] = []
        for event in ordered:
            chaos = self._link_chaos(event)
            if chaos is None:
                continue  # load_burst: a CPU-model nemesis, no mirror
            self._edges.append((event.time, self._setter(event, chaos)))
            self._edges.append((event.end, self._setter(event,
                                                        LinkChaos())))
        self._edges.sort(key=lambda edge: edge[0])
        self._halt = threading.Event()
        #: (event, wall-clock offset it actually fired at) — in order
        self.applied: List[Tuple[FaultEvent, float]] = []
        #: measured drain duration per gracefully departed worker
        self.drain_seconds: Dict[str, float] = {}
        #: each master incarnation's sink unit and pool epoch, in order
        #: (a restarted master collects into a fresh sink)
        self.sinks: List[SinkUnit] = []
        self.epochs: List[int] = []

    def run(self) -> None:
        """Blockingly replay the events against the running swarm."""
        started = time.monotonic()
        self._record_master()
        edges = threading.Thread(target=self._run_edges, args=(started,),
                                 name="chaos-windows", daemon=True)
        edges.start()
        try:
            for event in self._points:
                self._wait_until(started + event.time * self.time_scale)
                self._apply(event)
                self.applied.append((event, time.monotonic() - started))
        except BaseException:
            self._halt.set()
            raise
        edges.join()

    def _wait_until(self, moment: float) -> None:
        delay = moment - time.monotonic()
        if delay > 0:
            self._halt.wait(delay)

    def _run_edges(self, started: float) -> None:
        for offset, apply_edge in self._edges:
            self._wait_until(started + offset * self.time_scale)
            if self._halt.is_set():
                return
            apply_edge()

    def _record_master(self) -> None:
        self.sinks.append(self.runtime.sink_unit())
        self.epochs.append(self.runtime.master.pool.epoch)

    def _apply(self, event: FaultEvent) -> None:
        runtime, target = self.runtime, event.target
        if event.action in (CHURN_KILL, CHURN_DISCONNECT):
            runtime.crash_worker(target)
        elif event.action == CHURN_LEAVE:
            self.drain_seconds[target] = runtime.drain_worker(target)
        elif event.action in (CHURN_JOIN, CHURN_REJOIN):
            runtime.spawn_worker(target)
        elif event.action == CHURN_KILL_MASTER:
            runtime.crash_master()
        elif event.action == CHURN_RESTART_MASTER:
            runtime.restart_master()
            self._record_master()
        elif event.action == CHURN_PARTITION:
            self._fabric(event).partition(*self._link(target))
        elif event.action == CHURN_HEAL:
            self._fabric(event).heal(*self._link(target))

    def _link(self, target: str) -> Tuple[str, str]:
        """A directed ``sender>target`` link; a bare device id names the
        master's link to it (the engine's hub-and-spoke equivalent)."""
        sender_id, sep, target_id = target.partition(">")
        if not sep:
            return self.runtime.master.master_id, target
        if not sender_id or not target_id:
            raise RuntimeStateError("fault target needs a 'sender>target' "
                                    "link id, got %r" % target)
        return sender_id, target_id

    def _link_chaos(self, event: FaultEvent) -> Optional[LinkChaos]:
        if event.action == CHAOS_DELAY:
            return LinkChaos(delay=1.0,
                             delay_seconds=event.value * self.time_scale)
        field = _CHAOS_FIELDS.get(event.action)
        return None if field is None else LinkChaos(**{field: event.value})

    def _fabric(self, event: FaultEvent) -> ChaosFabric:
        fabric = self.runtime.fabric
        if not isinstance(fabric, ChaosFabric):
            raise RuntimeStateError(
                "%s needs the runtime's fabric wrapped in a ChaosFabric, "
                "not %r" % (event.action, type(fabric).__name__))
        return fabric

    def _setter(self, event: FaultEvent,
                chaos: LinkChaos) -> Callable[[], None]:
        fabric = self._fabric(event)
        if event.target == ALL_DEVICES:
            return lambda: fabric.set_default(chaos)
        sender_id, target_id = self._link(event.target)
        return lambda: fabric.set_link(sender_id, target_id, chaos)
