"""Post-hoc analysis of multi-query runs: breakdowns, comparisons, costs."""

from repro.analysis.breakdowns import accuracy_by_neighbor_count
from repro.analysis.comparison import StrategyComparison, compare_runs, mcnemar_counts
from repro.analysis.costs import CostSummary, cost_summary, extrapolate_cost

__all__ = [
    "accuracy_by_neighbor_count",
    "compare_runs",
    "StrategyComparison",
    "mcnemar_counts",
    "cost_summary",
    "CostSummary",
    "extrapolate_cost",
]
