"""Benchmark harness: runners, aggregation, and perf-capture report rendering."""

from .runner import BenchmarkRunner, RunRecord, run_perf_capture
from .reports import format_table, render_capture
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
    "capture_perf",
    "compare_captures",
    "render_capture",
    "run_perf_capture",
    "write_bench_json",
    "cactus_series",
    "format_table",
    "group_by_algorithm",
    "inputs_unprocessed_by_all",
    "pairwise_slowdown_matrix",
    "summarize",
    "summarize_algorithm",
]
