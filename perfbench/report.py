"""Metric names, units and their derivation from measured rounds.

End-to-end metrics come from untraced rounds.  Per-layer metrics come
from the traced run: span-based ones from its traced rounds, and the
ones read from ``/proc`` or the sink (per-role CPU, context switches,
generator lag, reorder cost) from its untraced rounds, so the tracer's
own cost does not inflate them.  Layer costs are self CPU (a call minus
the wrapped calls inside it) per tuple delivered in the saturated phase.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

from repro import metrics as metrics_mod

import ledger as ledger_mod
import procstat
import swarm
from ledger import BYTES, CALLS, CPU, SELF_CPU, WALL

#: end-to-end metrics: name -> unit
END_TO_END = {
    "cpu_us_per_tuple": "us",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}

#: per-layer metrics: name -> unit
PER_LAYER = {
    "throughput_tps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "latency_samples": "count",
    "serialization.encode_us_per_tuple": "us",
    "serialization.decode_us_per_tuple": "us",
    "serialization.bytes_per_tuple": "B",
    "messages.encode_us_per_tuple": "us",
    "messages.decode_us_per_tuple": "us",
    "messages.bytes_per_tuple": "B",
    "controller.dispatch_us_per_tuple": "us",
    "controller.ack_us_per_tuple": "us",
    "controller.decisions_per_tuple": "ratio",
    "controller.update_rounds": "count",
    "controller.selected_mean": "count",
    "dispatcher.self_us_per_tuple": "us",
    "dispatcher.batch_size_mean": "count",
    "fabric.messages_per_tuple": "ratio",
    "fabric.send_us_per_msg": "us",
    "fabric.put_us_per_msg": "us",
    "fabric.get_busy_us_per_msg": "us",
    "fabric.mailbox_wait_ms_p50": "ms",
    "fabric.mailbox_wait_ms_p99": "ms",
    "fabric.mailbox_depth_peak": "count",
    "fabric.vcsw_per_tuple": "ratio",
    "channels.send_us_per_msg": "us",
    "channels.recv_busy_us_per_msg": "us",
    "channels.bytes_per_tuple": "B",
    "delivery.us_per_tuple": "us",
    "delivery.retained_peak": "count",
    "delivery.redelivered": "count",
    "delivery.evicted": "count",
    "delivery.deduped": "count",
    "metrics.calls_per_tuple": "ratio",
    "metrics.us_per_tuple": "us",
    "health.calls_per_tuple": "ratio",
    "health.us_per_tuple": "us",
    "function_unit.process_us_per_tuple": "us",
    "function_unit.sink_us_per_tuple": "us",
    "worker.cpu_us_per_tuple.master": "us",
    "worker.cpu_us_per_tuple.compute": "us",
    "worker.cpu_us_per_tuple.source": "us",
    "worker.cpu_us_per_tuple.tcp-read": "us",
    "worker.self_us_per_tuple": "us",
    "worker.wait_share": "ratio",
    "worker.source_lag_p99_ms": "ms",
    "reorder.us_per_tuple": "us",
    "reorder.skipped": "count",
    "schedule.generate_ms": "ms",
    "simulation.run_ms_per_schedule": "ms",
    "simulation.events_per_schedule": "count",
    "simulation.us_per_event": "us",
    "adapters.history_ms_per_schedule": "ms",
    "invariants.check_ms_per_schedule": "ms",
    "sim_schedules_per_s": "1/s",
    "loss_ratio": "ratio",
    "dup_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.span_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.reference_ms": "ms",
}


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-quantile (0..1) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- runtime workloads -------------------------------------------------------
def runtime_end_to_end(rounds) -> Dict[str, float]:
    """Medians over rounds of each round's saturated-phase figures."""
    return {
        "cpu_us_per_tuple": statistics.median(
            r.saturated.cpu.cpu / r.saturated.count * 1e6 for r in rounds),
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "rss_peak_mb": statistics.median(r.rss_mb for r in rounds),
    }


def runtime_layers(untraced, traced, ledger,
                   cpu_ratio: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see the module docstring)."""
    totals = ledger_mod.Totals(ledger,
                               [r.saturated.spans for r in traced])
    tuples = sum(r.saturated.count for r in traced)

    def per_tuple_us(layer: str) -> float:
        return _ratio(totals.layer(layer, SELF_CPU), tuples) * 1e6

    def per_call_us(layer: str, column: int) -> float:
        return _ratio(totals.layer(layer, column),
                      totals.layer(layer, CALLS)) * 1e6

    puts = totals.layer("fabric.put", CALLS)
    waits = ledger.waits
    plain = sum(r.saturated.count for r in untraced)
    role_cpu = {role: sum(r.saturated.cpu.cpu_by_role[role]
                          for r in untraced) for role in procstat.ROLES}
    lags = [lag for r in untraced for lag in r.lags]
    latencies = [latency for r in untraced for latency in r.latencies]
    # A thread's residual is its CPU outside every top-level span; it
    # can come out negative where the span clock and /proc disagree.
    residual, program, busy_cpu, busy_wall = 0.0, 0.0, 0.0, 0.0
    for r in traced:
        window = r.saturated.cpu
        spans = ledger_mod.Totals(ledger, [r.saturated.spans])
        for tid, cpu in window.cpu_by_thread.items():
            program += cpu
            top = spans.top.get(tid, [0.0, 0.0, 0.0])
            if window.role_by_thread[tid] == "other":
                continue
            residual += cpu - top[2]
            busy_cpu += top[2]
            busy_wall += top[1]
    layers_self = sum(row[SELF_CPU] for row in totals.by_entry)
    blocking = (totals.layer("fabric.get", CPU)
                + totals.layer("channels.recv", CPU))
    blocking_wall = (totals.layer("fabric.get", WALL)
                     + totals.layer("channels.recv", WALL))
    counters = {name: sum(r.counters.get(name, 0) for r in traced)
                for name in (metrics_mod.REDELIVERED_TOTAL,
                             metrics_mod.REPLAY_EVICTED_TOTAL,
                             metrics_mod.DEDUPED_TOTAL)}
    everything = list(untraced) + list(traced)
    emitted = sum(r.emitted for r in everything)
    delivered = sum(r.delivered for r in everything)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "throughput_tps": statistics.median(
            r.saturated.count / r.saturated.elapsed for r in untraced),
        "latency_p50_ms": quantile(latencies, 0.50) * 1e3,
        "latency_p99_ms": quantile(latencies, 0.99) * 1e3,
        "latency_samples": len(latencies),
        "serialization.encode_us_per_tuple":
            per_tuple_us("serialization.encode"),
        "serialization.decode_us_per_tuple":
            per_tuple_us("serialization.decode"),
        "serialization.bytes_per_tuple":
            _ratio(totals.layer("serialization.encode", BYTES), tuples),
        "messages.encode_us_per_tuple": per_tuple_us("messages.encode"),
        "messages.decode_us_per_tuple": per_tuple_us("messages.decode"),
        "messages.bytes_per_tuple":
            _ratio(totals.layer("messages.encode", BYTES), tuples),
        "controller.dispatch_us_per_tuple":
            per_tuple_us("controller.dispatch")
            + per_tuple_us("controller.update"),
        "controller.ack_us_per_tuple": per_tuple_us("controller.ack"),
        "controller.decisions_per_tuple":
            _ratio(totals.layer("controller.dispatch", CALLS),
                   tuples * swarm.EDGES),
        "controller.update_rounds": statistics.mean(
            r.saturated.counters.get(metrics_mod.POLICY_UPDATES_TOTAL, 0)
            for r in traced),
        "controller.selected_mean": statistics.mean(
            r.selected_mean for r in traced),
        "dispatcher.self_us_per_tuple": per_tuple_us("dispatcher"),
        "dispatcher.batch_size_mean": statistics.mean(
            r.batch_size_mean for r in traced),
        "fabric.messages_per_tuple": _ratio(puts, tuples),
        "fabric.send_us_per_msg": per_call_us("fabric.send", SELF_CPU),
        "fabric.put_us_per_msg": per_call_us("fabric.put", SELF_CPU),
        "fabric.get_busy_us_per_msg":
            _ratio(totals.layer("fabric.get", CPU), puts) * 1e6,
        "fabric.mailbox_wait_ms_p50": quantile(waits, 0.50) * 1e3,
        "fabric.mailbox_wait_ms_p99": quantile(waits, 0.99) * 1e3,
        "fabric.mailbox_depth_peak": statistics.median(
            r.depth_peak for r in untraced),
        "fabric.vcsw_per_tuple": _ratio(
            sum(r.saturated.cpu.vcsw for r in untraced), plain),
        "channels.send_us_per_msg": per_call_us("channels.send", SELF_CPU),
        "channels.recv_busy_us_per_msg": per_call_us("channels.recv", CPU),
        "channels.bytes_per_tuple":
            _ratio(totals.layer("channels.send", BYTES), tuples),
        "delivery.us_per_tuple": per_tuple_us("delivery"),
        "delivery.retained_peak": ledger.retained_peak,
        "delivery.redelivered": counters[metrics_mod.REDELIVERED_TOTAL],
        "delivery.evicted": counters[metrics_mod.REPLAY_EVICTED_TOTAL],
        "delivery.deduped": counters[metrics_mod.DEDUPED_TOTAL],
        "metrics.calls_per_tuple": _ratio(totals.layer(
            "metrics", CALLS, ("increment", "observe_histogram", "set")),
            tuples),
        "metrics.us_per_tuple": per_tuple_us("metrics"),
        "health.calls_per_tuple":
            _ratio(totals.layer("health", CALLS), tuples),
        "health.us_per_tuple": per_tuple_us("health"),
        "function_unit.process_us_per_tuple":
            per_tuple_us("function_unit.process"),
        "function_unit.sink_us_per_tuple":
            per_tuple_us("function_unit.sink"),
        "worker.cpu_us_per_tuple.master":
            _ratio(role_cpu["master"], plain) * 1e6,
        "worker.cpu_us_per_tuple.compute":
            _ratio(role_cpu["compute"], plain) * 1e6,
        "worker.cpu_us_per_tuple.source":
            _ratio(role_cpu["source"], plain) * 1e6,
        "worker.cpu_us_per_tuple.tcp-read":
            _ratio(role_cpu["tcp-read"], plain) * 1e6,
        "worker.self_us_per_tuple": _ratio(residual, tuples) * 1e6,
        "worker.wait_share": 1.0 - _ratio(busy_cpu - blocking,
                                          busy_wall - blocking_wall),
        "worker.source_lag_p99_ms": quantile(lags, 0.99) * 1e3,
        "reorder.us_per_tuple": _ratio(
            sum(r.reorder_s for r in untraced),
            sum(r.delivered for r in untraced)) * 1e6,
        "reorder.skipped": sum(r.skipped for r in everything),
        "loss_ratio": _ratio(emitted - delivered, emitted),
        "dup_ratio": _ratio(sum(r.deliveries for r in everything)
                            - delivered, delivered),
        "trace.coverage": _ratio(layers_self + residual, program),
        "trace.span_share": _ratio(busy_cpu, program),
        "trace.overhead_ratio": cpu_ratio,
    })
    return metrics


# -- sim-chaos ---------------------------------------------------------------
def sim_end_to_end(passes) -> Dict[str, float]:
    """Per-pass medians.  A tuple is one the simulated sources emitted
    (here and in the per-layer ``throughput_tps``): what the simulator
    has to simulate, whether or not the schedule's faults let it reach a
    sink, so the cost per tuple does not swing with the block's mix of
    keyed and multi-tenant schedules."""
    return {
        "cpu_us_per_tuple": statistics.median(p.cpu / p.emitted * 1e6
                                              for p in passes),
        "setup_s": statistics.median(t for p in passes for t in p.setups),
        "rss_peak_mb": statistics.median(p.rss_mb for p in passes),
    }


def sim_layers(untraced, traced, ledger, cpu_ratio: float
               ) -> Dict[str, float]:
    """Per-layer metrics of the sim-chaos traced passes."""
    totals = ledger_mod.Totals(ledger, [p.spans for p in traced])
    schedules = sum(p.schedules for p in traced)
    events = totals.layer("simulation.events", CALLS)
    run_cpu = totals.layer("simulation.run", CPU)
    spans_cpu = sum(top[2] for top in totals.top.values())
    layers_self = sum(row[SELF_CPU] for row in totals.by_entry)
    program = sum(p.cpu for p in traced)
    everything = list(untraced) + list(traced)
    runs = sum(p.schedules for p in everything)
    delivered = sum(p.delivered for p in everything)
    verdicts = [v for p in untraced for v in p.verdicts]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "throughput_tps": statistics.median(p.emitted / p.wall
                                            for p in untraced),
        "latency_p50_ms": quantile(verdicts, 0.50) * 1e3,
        "latency_p99_ms": quantile(verdicts, 0.99) * 1e3,
        "latency_samples": len(verdicts),
        "schedule.generate_ms":
            _ratio(totals.layer("schedule", CPU), schedules) * 1e3,
        "simulation.run_ms_per_schedule": _ratio(run_cpu, schedules) * 1e3,
        "simulation.events_per_schedule": _ratio(events, schedules),
        "simulation.us_per_event": _ratio(run_cpu, events) * 1e6,
        "adapters.history_ms_per_schedule":
            _ratio(totals.layer("adapters", CPU), schedules) * 1e3,
        "invariants.check_ms_per_schedule":
            _ratio(totals.layer("invariants", CPU), schedules) * 1e3,
        "sim_schedules_per_s": statistics.median(
            p.schedules / p.wall for p in untraced),
        "loss_ratio": _ratio(sum(p.violations for p in everything), runs),
        "dup_ratio": _ratio(sum(p.duplicates for p in everything),
                            delivered),
        # The pass runs on one thread, whose residual is program CPU
        # outside every top-level span.
        "trace.coverage": _ratio(layers_self + program - spans_cpu,
                                 program),
        "trace.span_share": _ratio(spans_cpu, program),
        "trace.overhead_ratio": cpu_ratio,
    })
    return metrics
