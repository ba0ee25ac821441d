"""Helpers for measuring query I/O costs and summarising them as tables."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.geometry.primitives import LinearConstraint


@dataclass
class QueryCostSummary:
    """I/O statistics of one query batch against one index."""

    label: str
    num_queries: int
    total_ios: int
    max_ios: int
    total_reported: int
    block_size: int
    space_blocks: int

    @property
    def mean_ios(self) -> float:
        """Average I/Os per query."""
        return self.total_ios / self.num_queries if self.num_queries else 0.0

    @property
    def mean_output_blocks(self) -> float:
        """Average output size in blocks (the paper's t)."""
        if not self.num_queries:
            return 0.0
        return (self.total_reported / self.num_queries) / self.block_size

    @property
    def overhead_per_output_block(self) -> float:
        """Mean I/Os divided by (1 + t): how far from the output lower bound."""
        return self.mean_ios / (1.0 + self.mean_output_blocks)

    def row(self) -> List[str]:
        """Format the summary as a table row."""
        return [
            self.label,
            str(self.num_queries),
            "%.1f" % self.mean_ios,
            str(self.max_ios),
            "%.1f" % self.mean_output_blocks,
            "%.2f" % self.overhead_per_output_block,
            str(self.space_blocks),
        ]


@dataclass
class ExperimentResult:
    """A collection of summaries forming one experiment (one table/figure)."""

    experiment_id: str
    description: str
    summaries: List[QueryCostSummary] = field(default_factory=list)

    def add(self, summary: QueryCostSummary) -> None:
        self.summaries.append(summary)

    def to_table(self) -> str:
        header = ["config", "#q", "mean I/Os", "max I/Os", "mean t", "I/Os/(1+t)",
                  "space (blocks)"]
        rows = [summary.row() for summary in self.summaries]
        return format_table(header, rows,
                            title="%s — %s" % (self.experiment_id, self.description))


def run_query_workload(index, queries: Sequence[LinearConstraint],
                       label: str) -> QueryCostSummary:
    """Run every query through ``index.query_with_stats`` (each from a
    cold buffer pool) and aggregate."""
    total_ios = 0
    max_ios = 0
    total_reported = 0
    for constraint in queries:
        result = index.query_with_stats(constraint)
        total_ios += result.total_ios
        max_ios = max(max_ios, result.total_ios)
        total_reported += result.count
    return QueryCostSummary(
        label=label,
        num_queries=len(queries),
        total_ios=total_ios,
        max_ios=max_ios,
        total_reported=total_reported,
        block_size=index.block_size,
        space_blocks=index.space_blocks,
    )


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]],
                 title: Optional[str] = None) -> str:
    """Render a plain-text table (what the benchmark harness prints)."""
    columns = len(header)
    widths = [len(str(header[i])) for i in range(columns)]
    for row in rows:
        for i in range(columns):
            widths[i] = max(widths[i], len(str(row[i])))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(header[i]).ljust(widths[i]) for i in range(columns)))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in rows:
        lines.append("  ".join(str(row[i]).ljust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def log_fit_exponent(sizes: Sequence[float], costs: Sequence[float]) -> float:
    """Least-squares slope of log(cost) against log(size).

    Used to check the polynomial growth rates of Table 1 (for example the
    measured exponent of the linear-size structure should be close to
    1 - 1/d, and the measured exponent of the optimal structures should be
    close to 0 once the output term is subtracted).
    """
    if len(sizes) != len(costs) or len(sizes) < 2:
        raise ValueError("need at least two (size, cost) pairs")
    xs = [math.log(value) for value in sizes]
    ys = [math.log(max(value, 1e-9)) for value in costs]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    numerator = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    denominator = sum((x - mean_x) ** 2 for x in xs)
    if denominator == 0:
        return 0.0
    return numerator / denominator
