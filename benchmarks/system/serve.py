"""Benchmark-owned launcher: one workload's program in a fresh process.

Builds the engine the workload's spec describes, reports ``setup_s``,
then serves until told to stop.  It talks to the benchmark over its
standard streams, one JSON object per line:

* it prints ``{"event": "ready", "setup_s": ..., "address": ...}`` once
  datasets are registered, workers are up and the server is listening;
* ``{"cmd": "cpu"}`` is answered with the CPU seconds used so far by
  this process and its worker processes (theirs read from ``/proc``);
* ``{"cmd": "run", "requests": [...], "warmup": n}`` (``embedded_suite``
  only) calls ``engine.query`` for each request from this one thread and
  answers with per-request latency, count, I/Os and a sample of the
  host's speed taken by the same thread after each;
* ``{"cmd": "stop"}`` shuts the server and engine down and answers with
  final CPU seconds and the peak resident set size.

``setup_s`` runs from the first ``QueryEngine(...)`` call, so interpreter
start, imports and input generation are outside it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from repro import LinearConstraint, QueryEngine  # noqa: E402
from repro.engine.server import ApiKey  # noqa: E402

from sysbench import procfs, workloads  # noqa: E402

def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def run_embedded(engine, command: dict) -> dict:
    """The single embedded caller: ``engine.query`` per request."""
    # Imported here: it holds 8 MB that the HTTP launchers' peak_rss_mb
    # should not carry.
    from sysbench import hostspeed

    requests = [(name, LinearConstraint(coeffs=tuple(coeffs), offset=offset))
                for name, coeffs, offset in command["requests"]]
    warmup = command["warmup"]
    deadline = time.perf_counter() + command["max_seconds"]
    latencies, counts, ios, cached, samples = [], [], [], [], []
    cpu_started = wall_started = sampling_s = 0.0
    for position, (name, constraint) in enumerate(requests):
        if position == warmup:
            cpu_started = procfs.serving_cpu_seconds()
            wall_started = time.perf_counter()
            sampling_s = 0.0
        started = time.perf_counter()
        answer = engine.query(name, constraint)
        ended = time.perf_counter()
        latencies.append(ended - started)
        counts.append(answer.count)
        ios.append(answer.total_ios)
        cached.append(bool(answer.from_result_cache))
        samples.append(hostspeed.sample())
        sampling_s += time.perf_counter() - ended
        if ended > deadline:
            break
    # Sampling ran on this thread's clock too; it is not the program's.
    return {"latencies": latencies, "counts": counts, "ios": ios,
            "cached": cached, "samples": samples,
            "wall_s": time.perf_counter() - wall_started,
            "cpu_s": procfs.serving_cpu_seconds() - cpu_started
            - sampling_s}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--points-scale", type=float, default=1.0)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="report setup_s, tear down and exit")
    args = parser.parse_args()
    spec = workloads.BY_NAME[args.workload]
    sizing = workloads.Sizing(seconds=0.0, points_scale=args.points_scale)
    points = workloads.all_points(spec, args.seed, sizing)

    os.makedirs(args.data_dir, exist_ok=True)

    started = time.perf_counter()
    engine = QueryEngine(**workloads.engine_keywords(
        spec.engine_options, args.seed, args.data_dir))
    server = None
    try:
        workloads.register(engine, spec.datasets, points)
        if spec.entry == "http":
            server = engine.serve_http([ApiKey(key=workloads.API_KEY, tenant="bench")])
        setup_s = time.perf_counter() - started
        emit({"event": "ready", "setup_s": setup_s,
              "address": list(server.address) if server else None})
        while not args.setup_only:
            line = sys.stdin.readline()
            if not line:
                break                       # the benchmark went away
            command = json.loads(line)
            if command["cmd"] == "cpu":
                emit({"cpu_s": procfs.serving_cpu_seconds()})
            elif command["cmd"] == "run":
                emit(run_embedded(engine, command))
            elif command["cmd"] == "stop":
                break
    finally:
        cpu_s = procfs.serving_cpu_seconds()
        if server is not None:
            server.stop()
        engine.close()
    emit({"event": "stopped", "cpu_s": cpu_s,
          "peak_rss_mb": procfs.peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
