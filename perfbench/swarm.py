"""Runtime workloads: source (master A) -> crc unit (W0, W1) -> sink (A).

The swarm is wired from the runtime's public pieces exactly as
``SwingRuntime.start`` wires them (``Master``, ``WorkerRuntime``, a
fabric and one ``PolicyConfig`` shared by every device), because
``SwingRuntime`` cannot yet turn on batching or run over ``TcpFabric``.

Each round builds a fresh swarm, measures its set-up, then runs its
phases with the benchmark's own open-loop source:

* warm-up — unpaced, not measured (first policy rounds, lazy state);
* saturated — unpaced, a fixed tuple count; throughput and CPU/tuple;
* paced (traced runs only) — a fixed rate on an absolute schedule;
  latency from each tuple's *due* time to its first arrival at the sink.

The runtime's own source pump is configured far faster than any
schedule so it never sleeps: pacing is the benchmark's job.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import metrics as metrics_mod
from repro.core.batching import BatchConfig
from repro.core.controller import PolicyConfig
from repro.core.delivery import AT_LEAST_ONCE, DeliveryConfig
from repro.core.function_unit import FunctionUnit, SinkUnit, SourceUnit
from repro.core.graph import GraphBuilder
from repro.core.tuples import DataTuple
from repro.runtime.app_runner import order_results
from repro.runtime.fabric import InProcFabric, TcpFabric
from repro.runtime.master import Master
from repro.runtime.worker import WorkerRuntime

import procstat

MASTER_ID = "A"
WORKER_IDS = ("W0", "W1")
#: routing edges a tuple crosses: src -> crc, crc -> sink
EDGES = 2
PAYLOAD_BYTES = 6000
#: distinct random payloads per seed; tuple ``seq`` carries ``seq % POOL``
POOL = 256
#: runtime pump rate: far above any schedule, so the pump never sleeps
PUMP_RATE = 1e9
#: policy update period, as SwingRuntime's default
CONTROL_INTERVAL = 0.25
#: neither set-up nor any phase may take longer than this: a round
#: runs ~2-3 s, and a hung one must still end the run within 180 s
PHASE_TIMEOUT = 15.0
#: unpaced run-ahead bound: past this many tuples in flight the
#: generator waits until half of them reached the sink, so the backlog
#: (and the memory it holds) does not grow with the phase length
WINDOW = 1024


@dataclass(frozen=True)
class RuntimeWorkload:
    """One runtime workload: fabric, delivery, batching and phase sizes."""

    name: str
    fabric: str                 # "inproc" or "tcp"
    batch: int                  # BatchConfig.max_tuples (1 = unbatched)
    at_least_once: bool
    warmup: int                 # unmeasured unpaced tuples
    saturated: int              # unpaced tuples in the saturated phase
    rate: float                 # paced-phase rate, tuples/s
    paced: int                  # tuples in the paced phase

    def policy_config(self, seed: int) -> PolicyConfig:
        return PolicyConfig(
            policy="LRS", seed=seed, control_interval=CONTROL_INTERVAL,
            delivery=(DeliveryConfig(mode=AT_LEAST_ONCE)
                      if self.at_least_once else None),
            batching=BatchConfig(max_tuples=self.batch)
            if self.batch > 1 else None)


class Inputs:
    """Seeded random payloads and their reference CRCs."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.payloads = [rng.randbytes(PAYLOAD_BYTES) for _ in range(POOL)]
        self.crcs = [zlib.crc32(payload) for payload in self.payloads]

    def payload(self, seq: int) -> bytes:
        return self.payloads[seq % POOL]

    def crc(self, seq: int) -> int:
        return self.crcs[seq % POOL]


class SourcePlan:
    """Open-loop generator driven phase by phase from the benchmark.

    Between phases ``next_tuple`` blocks the runtime's source thread, so
    the thread (and its CPU account) outlives every measured window.  A
    paced phase emits tuple *k* at ``t0 + k / rate`` and stamps that due
    time as ``created_at``; how late the generator actually ran is kept
    in ``lags``.  An unpaced phase keeps at most :data:`WINDOW` tuples
    in flight.
    """

    def __init__(self, inputs: Inputs) -> None:
        self._inputs = inputs
        self._cond = threading.Condition()
        #: first sink arrivals, counted by the sink's thread
        self._delivered = 0
        self._throttled = False
        self._closed = threading.Event()
        self._seq = 0
        self._index = 0
        self._count = 0
        self._rate: Optional[float] = None
        self._t0 = 0.0
        self.lags: List[float] = []

    @property
    def next_seq(self) -> int:
        """The seq the next released tuple will carry."""
        with self._cond:
            return self._seq

    def start_phase(self, count: int, rate: Optional[float]) -> None:
        """Release *count* more tuples, unpaced or at *rate* tuples/s."""
        with self._cond:
            self._index = 0
            self._count = count
            self._rate = rate
            self._t0 = time.monotonic()
            self._cond.notify_all()

    def delivered(self) -> None:
        """Count one first arrival at the sink; may release the window."""
        self._delivered += 1
        if self._throttled and self._seq - self._delivered <= WINDOW // 2:
            with self._cond:
                self._throttled = False
                self._cond.notify_all()

    def close(self) -> None:
        self._closed.set()
        with self._cond:
            self._cond.notify_all()

    def next_tuple(self) -> Optional[DataTuple]:
        with self._cond:
            while self._index >= self._count and not self._closed.is_set():
                self._cond.wait()
            while (self._rate is None and not self._closed.is_set()
                   and self._seq - self._delivered >= WINDOW):
                self._throttled = True
                # The sink checks the flag without the lock; the timeout
                # bounds the stall should its wake-up slip past.
                self._cond.wait(0.01)
            if self._closed.is_set():
                return None
            index = self._index
            self._index += 1
            seq = self._seq
            self._seq += 1
            rate, t0 = self._rate, self._t0
        if rate is None:
            created = time.monotonic()
        else:
            created = t0 + index / rate
            delay = created - time.monotonic()
            if delay > 0 and self._closed.wait(delay):
                return None
            self.lags.append(time.monotonic() - created)
        return DataTuple(values={"payload": self._inputs.payload(seq)},
                         seq=seq, created_at=created)


class BenchSource(SourceUnit):
    """The source unit on master A: tuples come from the plan."""

    def __init__(self, plan: SourcePlan) -> None:
        super().__init__()
        self._plan = plan

    def generate(self) -> Optional[DataTuple]:
        return self._plan.next_tuple()


class CrcUnit(FunctionUnit):
    """The replicated compute unit: CRC-32 of the payload."""

    def process_data(self, data: DataTuple) -> None:
        self.send(data.derive({"crc": zlib.crc32(data.values["payload"])}))


class Collector:
    """Sink-side record of every delivery, checked against the inputs.

    Only the master's worker thread calls :meth:`record`; the benchmark
    thread reads after the phase's ``done`` event, so no lock is needed.
    """

    def __init__(self, inputs: Inputs, plan: SourcePlan) -> None:
        self._inputs = inputs
        self._plan = plan
        self.arrival: Dict[int, float] = {}
        self.results: List[DataTuple] = []
        self.deliveries = 0
        self.bad = 0
        self.done = threading.Event()
        self._lo = 0
        self._hi = 0
        self._unique = 0

    def expect(self, lo: int, hi: int) -> None:
        """Arm ``done`` for the phase covering seqs ``[lo, hi)``."""
        self.done.clear()
        self._unique = 0
        self._lo, self._hi = lo, hi

    def record(self, data: DataTuple) -> None:
        now = time.monotonic()
        self.deliveries += 1
        seq = data.seq
        if data.values.get("crc") != self._inputs.crc(seq):
            self.bad += 1
        if seq in self.arrival:
            return
        self.arrival[seq] = now
        self.results.append(data)
        self._plan.delivered()
        if self._lo <= seq < self._hi:
            self._unique += 1
            if self._unique == self._hi - self._lo:
                self.done.set()


class BenchSink(SinkUnit):
    """The sink unit on master A: every delivery goes to the collector."""

    def __init__(self, collector: Collector) -> None:
        super().__init__()
        self._collector = collector

    def process_data(self, data: DataTuple) -> None:
        self._collector.record(data)


class Swarm:
    """Master A plus workers W0, W1 on one fabric kind, fully deployed."""

    def __init__(self, workload: RuntimeWorkload, seed: int,
                 inputs: Inputs) -> None:
        self.plan = SourcePlan(inputs)
        self.collector = Collector(inputs, self.plan)
        plan, collector = self.plan, self.collector
        graph = (GraphBuilder("perfbench")
                 .source("src", lambda: BenchSource(plan))
                 .unit("crc", CrcUnit)
                 .sink("sink", lambda: BenchSink(collector))
                 .chain("src", "crc", "sink")
                 .build())
        config = workload.policy_config(seed)
        self.registry = metrics_mod.MetricsRegistry()
        if workload.fabric == "tcp":
            self.fabrics = {endpoint: TcpFabric(endpoint)
                            for endpoint in (MASTER_ID,) + WORKER_IDS}
            for worker_id in WORKER_IDS:
                self.fabrics[worker_id].learn(
                    MASTER_ID, self.fabrics[MASTER_ID].address)
                self.fabrics[MASTER_ID].learn(
                    worker_id, self.fabrics[worker_id].address)
        else:
            shared = InProcFabric(registry=self.registry)
            self.fabrics = {endpoint: shared
                            for endpoint in (MASTER_ID,) + WORKER_IDS}
        self.master = Master(MASTER_ID, self.fabrics[MASTER_ID], graph,
                             policy=config.policy, source_rate=PUMP_RATE,
                             seed=seed, control_interval=CONTROL_INTERVAL,
                             registry=self.registry,
                             delivery=config.delivery,
                             policy_config=config)
        self.workers = [
            WorkerRuntime(worker_id, self.fabrics[worker_id], graph,
                          policy=config.policy, seed=seed,
                          control_interval=CONTROL_INTERVAL,
                          policy_config=config, registry=self.registry,
                          delivery=config.delivery)
            for worker_id in WORKER_IDS]
        self._started = False

    def deploy(self) -> None:
        """Join, deploy and await every runtime (SwingRuntime.start)."""
        self._started = True
        self.master.runtime.start()
        for worker in self.workers:
            worker.start()
            worker.join_master(MASTER_ID)
        deadline = time.monotonic() + PHASE_TIMEOUT
        while set(WORKER_IDS) - set(self.master.worker_ids):
            if time.monotonic() > deadline:
                raise RuntimeError("workers never joined")
            time.sleep(0.001)
        self.master.deploy()
        for runtime in [self.master.runtime] + self.workers:
            if not runtime.deployed.wait(max(0.0,
                                             deadline - time.monotonic())):
                raise RuntimeError("deployment timed out on %s"
                                   % runtime.worker_id)

    def start_sources(self) -> None:
        self.master.start()

    def stop(self) -> None:
        self.plan.close()
        if self._started:
            self.master.stop()
            for worker in self.workers:
                worker.stop()
            self.master.runtime.stop()
        for fabric in set(self.fabrics.values()):
            fabric.close()

    def run_phase(self, count: int, rate: Optional[float],
                  ledger=None) -> "PhaseResult":
        """Release one phase and wait (on the sink's event) for it.

        With a *ledger* (traced run) its span aggregates are read at the
        same two instants as the threads' CPU.
        """
        first = self.plan.next_seq
        self.collector.expect(first, first + count)
        counters = counter_totals(self.registry)
        spans = ledger.snapshot() if ledger is not None else None
        before = procstat.sample_threads(MASTER_ID)
        started = time.monotonic()
        self.plan.start_phase(count, rate)
        complete = self.collector.done.wait(PHASE_TIMEOUT)
        elapsed = time.monotonic() - started
        after = procstat.sample_threads(MASTER_ID)
        if ledger is not None:
            spans = ledger.snapshot().minus(spans)
        return PhaseResult(
            first=first, count=count, elapsed=elapsed, complete=complete,
            cpu=procstat.window(before, after), spans=spans,
            counters=diff_totals(counter_totals(self.registry), counters))

    def dispatchers(self):
        """Every edge dispatcher in the swarm (source edge + crc edges)."""
        found = [self.master.runtime.dispatcher("src")]
        found += [worker.dispatcher("crc") for worker in self.workers]
        return found

    def mailboxes(self):
        return [self.master.runtime.mailbox] + [w.mailbox
                                                for w in self.workers]


@dataclass
class PhaseResult:
    first: int
    count: int
    elapsed: float
    complete: bool
    cpu: procstat.Window
    #: ledger span aggregates over the phase (traced runs only)
    spans: object
    #: registry counter totals accumulated during the phase, by name
    counters: Dict[str, int]


def counter_totals(registry: metrics_mod.MetricsRegistry) -> Dict[str, int]:
    """Counter values summed over labels, by metric name."""
    totals: Dict[str, int] = {}
    for counter in registry.counters():
        totals[counter.name] = totals.get(counter.name, 0) + counter.value
    return totals


def diff_totals(after: Dict[str, int], before: Dict[str, int]
                ) -> Dict[str, int]:
    return {name: value - before.get(name, 0)
            for name, value in after.items()}


@dataclass
class RoundResult:
    """One swarm's life: set-up, saturated and paced phases, checks."""

    setup_s: float
    saturated: PhaseResult
    #: None when the round skipped its paced phase
    paced: Optional[PhaseResult]
    #: paced phase: due time -> first sink arrival, seconds
    latencies: List[float]
    #: paced phase: how late the generator emitted each tuple, seconds
    lags: List[float]
    emitted: int
    delivered: int          # unique seqs that reached the sink
    deliveries: int         # sink deliveries, duplicates included
    bad: int                # deliveries whose CRC did not match
    ordered_ok: bool        # reorder playback strictly increasing
    reorder_s: float        # time spent in order_results
    skipped: int            # delivered tuples the playback skipped
    counters: Dict[str, int]
    batch_size_mean: float
    selected_mean: float
    depth_peak: int
    rss_mb: float           # peak resident memory during the round

    @property
    def failed(self) -> int:
        """Tuples lost or delivered with a wrong result."""
        return self.emitted - self.delivered + self.bad

    @property
    def correct(self) -> bool:
        phases = [self.saturated] + ([self.paced] if self.paced else [])
        return (self.failed == 0 and self.ordered_ok
                and all(phase.complete for phase in phases))


def run_round(workload: RuntimeWorkload, seed: int, inputs: Inputs,
              ledger=None, paced: bool = True) -> RoundResult:
    """Build a swarm, run warm-up, saturated and (optionally) paced
    phases, tear it down and check every delivery."""
    procstat.reset_rss_peak()
    started = time.monotonic()
    swarm = Swarm(workload, seed, inputs)
    try:
        swarm.deploy()
        setup_s = time.monotonic() - started
        swarm.start_sources()
        swarm.run_phase(workload.warmup, None)
        saturated = swarm.run_phase(workload.saturated, None, ledger)
        depth_peak = max(mailbox.max_depth for mailbox in swarm.mailboxes())
        timed = None
        if paced:
            if ledger is not None:
                ledger.sample_waits = True
            timed = swarm.run_phase(workload.paced, workload.rate)
            if ledger is not None:
                ledger.sample_waits = False
        rss_mb = procstat.rss_peak_mb()
        counters = counter_totals(swarm.registry)
        decisions = [decision for dispatcher in swarm.dispatchers()
                     for _at, decision in dispatcher.controller.decisions]
        batch_sizes = [histogram for histogram in swarm.registry.histograms()
                       if histogram.name == metrics_mod.BATCH_SIZE]
    finally:
        swarm.stop()
        if ledger is not None:
            ledger.forget_puts()
    collector = swarm.collector
    latencies: List[float] = []
    lags: List[float] = []
    if timed is not None:
        due = {data.seq: data.created_at for data in collector.results}
        latencies = [collector.arrival[seq] - due[seq]
                     for seq in range(timed.first, timed.first + timed.count)
                     if seq in collector.arrival]
        lags = swarm.plan.lags[-timed.count:]
    reorder_started = time.perf_counter()
    playback = order_results(collector.results, workload.rate)
    reorder_s = time.perf_counter() - reorder_started
    seqs = [data.seq for data in playback]
    batched = sum(h.count for h in batch_sizes)
    return RoundResult(
        setup_s=setup_s, saturated=saturated, paced=timed,
        latencies=latencies, lags=lags, emitted=swarm.plan.next_seq,
        delivered=len(collector.arrival), deliveries=collector.deliveries,
        bad=collector.bad,
        ordered_ok=all(a < b for a, b in zip(seqs, seqs[1:])),
        reorder_s=reorder_s, skipped=len(collector.arrival) - len(playback),
        counters=counters,
        batch_size_mean=(sum(h.total for h in batch_sizes) / batched
                         if batched else 1.0),
        selected_mean=(sum(len(d.selected) for d in decisions)
                       / len(decisions) if decisions else 0.0),
        depth_peak=depth_peak, rss_mb=rss_mb)
