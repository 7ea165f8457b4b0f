"""Swing end-to-end benchmark: one workload per invocation.

    python3 perfbench/run.py --workload inproc-b1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half
its time untraced and half under the span ledger and reports the
per-layer metrics.  ``--workload all`` runs every workload both ways
and prints every metric.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` beside this directory; without
it, or without the per-thread ``/proc`` accounting, the benchmark exits
non-zero before measuring anything.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import time

import hostspeed
import procstat

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: rounds (runtime) or passes (sim-chaos) per half, at the least
MIN_ROUNDS = 2
#: end-to-end times reported on the reference host's scale (hostspeed.py)
SCALED = ("cpu_us_per_tuple", "setup_s")


def _load_program() -> None:
    procstat.require()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit("perfbench: program source not found at %s" % SRC)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported repro from %s, not %s"
                 % (repro.__file__, SRC))


def runtime_workloads():
    from swarm import RuntimeWorkload
    return {
        # Two mailbox handoffs, a routing decision and an ACK fold per
        # tuple: the per-message overhead of the threaded runtime.
        "inproc-b1": RuntimeWorkload(
            name="inproc-b1", fabric="inproc", batch=1,
            at_least_once=False, warmup=500, saturated=6000,
            rate=1000.0, paced=1500),
        # Batches of 64: per-message costs shrink 64-fold, so the codec
        # and the unit's compute dominate.
        "inproc-b64": RuntimeWorkload(
            name="inproc-b64", fabric="inproc", batch=64,
            at_least_once=False, warmup=2000, saturated=20000,
            rate=4000.0, paced=8000),
        # Loopback TCP with at-least-once delivery: envelope codec,
        # socket framing, reader threads and replay retention.
        "tcp-alo": RuntimeWorkload(
            name="tcp-alo", fabric="tcp", batch=1, at_least_once=True,
            warmup=500, saturated=3000, rate=500.0, paced=1500),
    }


WORKLOADS = ("inproc-b1", "inproc-b64", "tcp-alo", "sim-chaos")


def _repeat(step, seconds: float, minimum: int = MIN_ROUNDS) -> list:
    """Call *step* until *seconds* are spent (at least *minimum* times),
    never starting a call the remaining time cannot hold.  A round that
    failed its checks ends the repetition: the run is invalid already."""
    results = []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        hostspeed.sample(hostspeed.STEP_SAMPLES)
        results.append(step())
        took = time.monotonic() - started
        if not getattr(results[-1], "correct", True):
            return results
        if len(results) >= minimum and time.monotonic() + took > deadline:
            return results


def run_runtime(name: str, seed: int, seconds: float, trace: bool):
    import report
    import swarm
    from ledger import Ledger

    workload = runtime_workloads()[name]
    inputs = swarm.Inputs(seed)
    if not trace:
        # End-to-end figures come from the saturated phase alone.
        rounds = _repeat(lambda: swarm.run_round(workload, seed, inputs,
                                                 paced=False), seconds)
        metrics = report.runtime_end_to_end(rounds)
        return rounds, metrics, report.END_TO_END
    untraced = _repeat(lambda: swarm.run_round(workload, seed, inputs),
                       seconds / 2)
    with Ledger() as ledger:
        traced = _repeat(lambda: swarm.run_round(workload, seed, inputs,
                                                 ledger), seconds / 2)
    plain = report.runtime_end_to_end(untraced)["cpu_us_per_tuple"]
    spanned = report.runtime_end_to_end(traced)["cpu_us_per_tuple"]
    metrics = report.runtime_layers(untraced, traced, ledger,
                                    spanned / plain)
    return untraced + traced, metrics, report.PER_LAYER


def run_sim(seed: int, seconds: float, trace: bool):
    import report
    import simchaos
    from ledger import Ledger

    def passes():
        """A step that runs the next pass, counting from pass 0."""
        numbers = itertools.count()
        return lambda: simchaos.run_pass(seed, next(numbers),
                                         time_setups=not trace)

    if not trace:
        runs = _repeat(passes(), seconds)
        metrics = report.sim_end_to_end(runs)
        return runs, metrics, report.END_TO_END
    untraced = _repeat(passes(), seconds / 2, minimum=1)
    with Ledger() as ledger:
        next_pass = passes()

        def traced_pass():
            before = ledger.snapshot()
            result = next_pass()
            result.spans = ledger.snapshot().minus(before)
            return result
        # The traced half starts again at pass 0, so both halves run the
        # same schedules first.
        traced = _repeat(traced_pass, seconds / 2, minimum=1)
    ratio = (statistics.median(p.cpu / p.emitted for p in traced)
             / statistics.median(p.cpu / p.emitted for p in untraced))
    metrics = report.sim_layers(untraced, traced, ledger, ratio)
    return untraced + traced, metrics, report.PER_LAYER


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object of the last line."""
    hostspeed.reset()
    hostspeed.sample(hostspeed.START_SAMPLES)
    if name == "sim-chaos":
        runs, metrics, units = run_sim(seed, seconds, trace)
        attempted = sum(p.schedules for p in runs)
        failed = sum(p.violations for p in runs)
        correct = failed == 0
    else:
        runs, metrics, units = run_runtime(name, seed, seconds, trace)
        attempted = sum(r.emitted for r in runs)
        failed = sum(r.failed for r in runs)
        correct = all(r.correct for r in runs)
    if trace:
        metrics["host.reference_ms"] = hostspeed.reference_ms()
    else:
        print("host: reference loop %.2f ms, scale %.4f; unscaled "
              "cpu_us_per_tuple %.4f, setup_s %.6f"
              % (hostspeed.reference_ms(), hostspeed.scale(),
                 metrics["cpu_us_per_tuple"], metrics["setup_s"]))
        for metric in SCALED:
            metrics[metric] *= hostspeed.scale()
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {metric: {"value": metrics[metric], "unit": unit}
                        for metric, unit in units.items()}}


def print_table(title: str, result: dict) -> None:
    print("== %s  correct=%s attempted=%d failed=%d"
          % (title, result["correct"], result["attempted"],
             result["failed"]))
    for metric, entry in result["metrics"].items():
        print("  %-40s %14.4f %s" % (metric, entry["value"], entry["unit"]))
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        print_table("%s trace=%d" % (args.workload, args.trace), result)
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, args.seed, args.seconds, trace)
            print_table("%s trace=%d" % (name, trace), result)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"]["%s:%s" % (name, metric)] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
