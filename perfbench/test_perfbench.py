"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Checks that a traced round delivers exactly what an untraced one does,
that the ledger restores every wrapper it installs, and that each
workload reports every metric named in BENCHMARK.json with its unit.
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import ledger as ledger_mod  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import simchaos  # noqa: E402
import swarm  # noqa: E402
from repro.runtime import dispatcher, serialization, worker  # noqa: E402

TINY = dict(warmup=20, saturated=200, paced=100)
FULL = run.runtime_workloads()


def tiny_workloads():
    return {name: dataclasses.replace(workload, **TINY)
            for name, workload in FULL.items()}


@pytest.mark.parametrize("name", ["inproc-b1", "inproc-b64", "tcp-alo"])
def test_traced_round_delivers_what_untraced_does(monkeypatch, name):
    workload = tiny_workloads()[name]
    inputs = swarm.Inputs(7)
    captured = []
    original = swarm.Collector.record

    def record(self, data):
        captured.append((data.seq, data.values["crc"]))
        original(self, data)

    monkeypatch.setattr(swarm.Collector, "record", record)
    outputs = []
    for traced in (False, True):
        captured.clear()
        if traced:
            with ledger_mod.Ledger() as ledger:
                result = swarm.run_round(workload, 7, inputs, ledger)
        else:
            result = swarm.run_round(workload, 7, inputs)
        assert result.correct, name
        outputs.append(sorted(set(captured)))
    expected = sorted((seq, inputs.crc(seq))
                      for seq in range(sum(TINY.values())))
    assert outputs[0] == outputs[1] == expected


def test_ledger_patches_resolved_names_and_restores_everything():
    originals = {(holder, attr): ledger_mod._lookup(holder, attr)
                 for _layer, holder, attr, _mode, _bytes
                 in ledger_mod.ENTRY_POINTS}
    decode = serialization.decode_tuple
    with ledger_mod.Ledger() as ledger:
        # Callers that imported the name see the wrapper too.
        assert worker.decode_tuple is not decode
        assert worker.decode_tuple.__wrapped__ is decode
        assert dispatcher.encode_tuple is serialization.encode_tuple
        patched = ledger.originals()
        assert {(h, a) for h, a, _o in patched} >= set(originals)
    for (holder, attr), original in originals.items():
        assert ledger_mod._lookup(holder, attr) is original, attr
    for holder, attr, original in patched:
        assert ledger_mod._lookup(holder, attr) is original, attr
    assert worker.decode_tuple is decode


def test_traced_sim_pass_generates_each_schedule_once(monkeypatch):
    # Timing set-ups would generate every schedule twice under the ledger
    # and charge the copies to the schedule layer.
    monkeypatch.setattr(simchaos, "BLOCK", 2)
    with ledger_mod.Ledger() as ledger:
        before = ledger.snapshot()
        simchaos.run_pass(3, 0, time_setups=False)
        window = ledger.snapshot().minus(before)
    totals = ledger_mod.Totals(ledger, [window])
    assert totals.layer("schedule", ledger_mod.CALLS) == 2


def benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_names_the_reported_metrics():
    spec = benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == report.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(monkeypatch, name, trace):
    monkeypatch.setattr(run, "runtime_workloads", tiny_workloads)
    monkeypatch.setattr(simchaos, "BLOCK", 2)
    result = run.measure(name, seed=3, seconds=0.1, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = report.PER_LAYER if trace else report.END_TO_END
    assert {metric: entry["unit"]
            for metric, entry in result["metrics"].items()} == expected
    for metric, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), metric
    if trace and name.startswith("inproc"):
        # The in-process fabric never runs the envelope codec, sockets
        # or replay retention.
        for metric in ("messages.encode_us_per_tuple",
                       "channels.send_us_per_msg", "delivery.us_per_tuple"):
            assert result["metrics"][metric]["value"] == 0.0
    if trace and name == "tcp-alo":
        assert result["metrics"]["messages.bytes_per_tuple"]["value"] > 0
    if not trace:
        for metric, entry in result["metrics"].items():
            assert entry["value"] > 0, metric
