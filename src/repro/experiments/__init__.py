"""Experiment harness: run query workloads, collect I/O statistics, print tables.

The benchmarks under ``benchmarks/`` use these helpers to regenerate the
evidence for every row of the paper's Table 1 and for the claims of
Section 1.2, printing the measured outcomes next to the paper's
asymptotic statements.
"""

from repro.experiments.harness import (
    ExperimentResult,
    QueryCostSummary,
    format_table,
    log_fit_exponent,
    run_query_workload,
)

__all__ = [
    "ExperimentResult",
    "QueryCostSummary",
    "run_query_workload",
    "format_table",
    "log_fit_exponent",
]
