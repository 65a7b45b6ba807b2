"""Benchmark harness: runners, aggregation, and paper-style report rendering."""

from .runner import BenchmarkRunner, RunRecord, run_on_tgds, run_perf_capture
from .reports import (
    cactus_report,
    end_to_end_report,
    figure_summary_report,
    format_table,
    full_figure_report,
    pairwise_report,
    render_capture,
    table1_report,
)
_LAZY_PERFCAPTURE = ("capture_perf", "compare_captures", "write_bench_json")


def __getattr__(name: str):
    # perfcapture pulls in the whole rewriting + workloads stack; defer that
    # import until one of its entry points is actually requested
    if name in _LAZY_PERFCAPTURE:
        from . import perfcapture

        return getattr(perfcapture, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


from .stats import (
    AlgorithmSummary,
    both_fail_matrix,
    cactus_series,
    group_by_algorithm,
    inputs_unprocessed_by_all,
    pairwise_slowdown_matrix,
    summarize,
    summarize_algorithm,
)

__all__ = [
    "AlgorithmSummary",
    "BenchmarkRunner",
    "RunRecord",
    "both_fail_matrix",
    "cactus_report",
    "capture_perf",
    "compare_captures",
    "render_capture",
    "run_perf_capture",
    "write_bench_json",
    "cactus_series",
    "end_to_end_report",
    "figure_summary_report",
    "format_table",
    "full_figure_report",
    "group_by_algorithm",
    "inputs_unprocessed_by_all",
    "pairwise_report",
    "pairwise_slowdown_matrix",
    "run_on_tgds",
    "summarize",
    "summarize_algorithm",
    "table1_report",
]
