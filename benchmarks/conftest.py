"""Shared helpers for the benchmark suite.

Every benchmark prints a plain-text table of *measured I/Os* (the quantity
the paper's Table 1 bounds) in addition to the wall-clock numbers collected
by pytest-benchmark, and persists it under ``benchmarks/results/`` (not
committed).
"""

from __future__ import annotations

import json
import math
import os

import pytest

#: Directory where every experiment table is persisted as plain text, so the
#: measured numbers survive pytest's output capturing.
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
#: The fitted and measured Table-1 figures, committed at the repository
#: root: one section per experiment (:func:`persist_table1`).
TABLE1_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_table1.json")


def print_experiment(result) -> None:
    """Print an ExperimentResult table and persist it under benchmarks/results/."""
    table = result.to_table()
    print()
    print("=" * 78)
    print(table)
    print("=" * 78)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    filename = result.experiment_id.replace("/", "_").replace(" ", "_") + ".txt"
    with open(os.path.join(RESULTS_DIR, filename), "w") as handle:
        handle.write(table + "\n")


def persist_table1(section: str, table: dict) -> None:
    """Write ``table`` as ``section`` of the committed ``BENCH_table1.json``
    at the repository root, keeping every other section as it is."""
    try:
        with open(TABLE1_PATH) as handle:
            persisted = json.load(handle)
    except (OSError, ValueError):
        persisted = {}
    persisted[section] = table
    with open(TABLE1_PATH, "w") as handle:
        json.dump(persisted, handle, indent=2, sort_keys=True)
        handle.write("\n")


def blocks(num_records: int, block_size: int) -> int:
    """⌈N/B⌉."""
    return max(1, math.ceil(num_records / block_size))
