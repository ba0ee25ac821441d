"""Smoke test of the system benchmark (about a minute).

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with

    python3 -m pytest benchmarks/system/tests -q
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SYSTEM = os.path.dirname(HERE)
ROOT = os.path.normpath(os.path.join(SYSTEM, os.pardir, os.pardir))
sys.path.insert(0, SYSTEM)

from sysbench import metrics, workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: The time each rung's ``self_ms`` is a part of.
RUNG_MS = {"engine.executor.self_ms": "engine.executor.query_ms",
           "engine.cluster.self_ms": "engine.cluster.query_ms",
           "engine.serving.self_ms": "engine.serving.turnaround_ms",
           "engine.server.self_ms": "engine.server.roundtrip_ms"}


def noise_floor_ms(rung_ms: float) -> float:
    """How far below zero timer noise can push a rung's self time.

    A self time is the median of paired differences between two replays
    of the same requests; each replay's own timing wanders by a few
    percent, worker processes taking turns on one CPU by more.
    """
    return -max(0.05, 0.1 * rung_ms)


def run_benchmark(*arguments: str) -> dict:
    """Run ``run.py``; returns the JSON object on its last output line."""
    done = subprocess.run(
        [sys.executable, os.path.join(SYSTEM, "run.py"), *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke() -> dict:
    return run_benchmark("--smoke")


def test_benchmark_json_meets_the_contract(declared):
    assert sorted(declared) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert declared["paths"] == ["benchmarks/system"]
    assert declared["command"][1].startswith("benchmarks/system/")
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int)
    assert 1 <= declared["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in declared["end_to_end"]:
        assert sorted(entry) == ["better", "bound", "name", "unit"]
        assert 0 < entry["bound"] <= 0.25
    for entry in declared["per_layer"]:
        assert sorted(entry) == ["better", "name", "unit"]
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = [entry for entry in declared["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"]
                                    for entry in declared["end_to_end"])


def test_benchmark_json_agrees_with_the_code(declared):
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == \
        [(spec.name, spec.why) for spec in workloads.WORKLOADS]
    assert [(e["name"], e["unit"], e["better"], e["bound"])
            for e in declared["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [(e["name"], e["unit"], e["better"])
            for e in declared["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]


def test_every_declared_metric_is_printed_and_finite(declared, smoke):
    assert smoke["failed"] == 0
    for workload in declared["workloads"]:
        for key in ("end_to_end", "per_layer"):
            printed = smoke[key][workload["name"]]
            for entry in declared[key]:
                value = printed[entry["name"]]
                assert value["unit"] == entry["unit"]
                assert math.isfinite(value["value"]), entry["name"]
        for entry in declared["end_to_end"]:
            assert smoke["end_to_end"][workload["name"]][
                entry["name"]]["value"] > 0, entry["name"]


def test_no_rung_has_negative_self_time(smoke):
    for workload, printed in smoke["per_layer"].items():
        for name, rung in RUNG_MS.items():
            assert printed[name]["value"] > noise_floor_ms(
                printed[rung]["value"]), (workload, name)


def test_spans_sit_under_their_parent_rung(smoke):
    """Each rung is a separate call of the same request, so a span lies
    inside its parent's by duration, not by clock: a request's span has
    its parent rung's span, and over the sample the parent takes longer.
    """
    for workload in smoke["per_layer"]:
        path = os.path.join(SYSTEM, "out", "trace_%s.jsonl" % workload)
        with open(path) as handle:
            spans = [json.loads(line) for line in handle]
        assert spans
        seconds = {}
        for span in spans:
            assert span["end_ms"] >= span["start_ms"]
            seconds.setdefault(span["name"], {})[span["request"]] = \
                span["end_ms"] - span["start_ms"]
        for span in spans:
            parent = span["parent"]
            assert parent is None or span["request"] in seconds[parent], \
                (workload, span)
        for name, durations in seconds.items():
            parents = {span["parent"] for span in spans
                       if span["name"] == name and span["parent"]}
            for parent in parents:
                shared = [request for request in durations
                          if request in seconds[parent]]
                assert statistics.median(
                    seconds[parent][r] - durations[r] for r in shared) \
                    > noise_floor_ms(statistics.median(
                        seconds[parent][r] for r in shared)), \
                    (workload, name, parent)


def test_io_counts_repeat_exactly(smoke):
    again = run_benchmark("--smoke", "--workload", "embedded_suite")
    assert again["loadgen"]["embedded_suite"]["ios_per_query"] == \
        smoke["loadgen"]["embedded_suite"]["ios_per_query"]
    assert again["per_layer"]["embedded_suite"][
        "engine.executor.ios_per_query"] == smoke["per_layer"][
        "embedded_suite"]["engine.executor.ios_per_query"]


def test_a_uniformly_slower_host_reads_the_same():
    """Latencies, samples and CPU all 1.5 times larger: same figures; and
    on the reference host at its reference speed, the raw ones."""
    import numpy as np
    from sysbench import endtoend, hostspeed

    rng = np.random.default_rng(1)
    latencies = rng.uniform(1e-3, 3e-3, 400)
    samples = hostspeed.REFERENCE_S * rng.uniform(0.98, 1.02, 400)
    is_query = rng.random(400) < 0.8
    ok = np.ones(400, dtype=bool)

    def figures(slowdown: float) -> dict:
        result = endtoend.RunResult("w", 0, {}, {}, 0, 0)
        return endtoend._figures(slowdown * latencies, slowdown * samples,
                                 is_query, ok, slowdown * 1.0, result)

    quiet, slow = figures(1.0), figures(1.5)
    assert quiet.keys() == slow.keys()
    for name in quiet:
        assert slow[name] == pytest.approx(quiet[name], rel=1e-9), name
    assert quiet["query_p50_ms"] == pytest.approx(
        1e3 * np.percentile(latencies[is_query], 50), rel=0.02)
