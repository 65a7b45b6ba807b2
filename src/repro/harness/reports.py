"""Plain-text report rendering in the shape of the paper's tables and figures.

Every benchmark script prints its results through these helpers so that the
rows and columns line up with the corresponding artefact of the paper
(Table 1, Figure 4, Table 2, Figure 5) and can be compared side by side in
EXPERIMENTS.md.  :func:`render_capture` renders a ``repro perf`` capture,
as text or as markdown, without naming any scenario or field.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from .runner import RunRecord
from .stats import (
    AlgorithmSummary,
    both_fail_matrix,
    cactus_series,
    pairwise_slowdown_matrix,
    summarize,
)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple fixed-width text table."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)] if rows else [
        [header] for header in headers
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines: List[str] = []
    header_line = "  ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def table1_report(statistics: Mapping[str, Mapping[str, float]], input_count: int) -> str:
    """Render the Table 1 "Input GTGDs at a Glance" block."""
    headers = ["Inputs #", "kind", "Min", "Max", "Avg", "Med"]
    rows = []
    for kind, label in (("full", "Full TGDs"), ("non_full", "Non-Full TGDs")):
        block = statistics[kind]
        rows.append(
            [
                input_count,
                label,
                int(block["min"]),
                int(block["max"]),
                round(block["avg"], 1),
                round(block["med"], 1),
            ]
        )
    return "Table 1: Input GTGDs at a Glance\n" + format_table(headers, rows)


def figure_summary_report(records: Sequence[RunRecord], title: str) -> str:
    """Render the per-algorithm statistics block of Figure 4 / Figure 5."""
    summaries = summarize(records)
    headers = [
        "Metric",
        *[summary.algorithm for summary in summaries],
    ]
    metric_rows: List[List[object]] = []
    metrics: List[Tuple[str, str]] = [
        ("# of Processed Inputs", "processed_inputs"),
        ("Max. Processed Input Size", "max_processed_input_size"),
        ("Max. Output Size", "max_output_size"),
        ("Max. Size Blowup", "max_blowup"),
        ("Max. Body Atoms in Output", "max_body_atoms"),
        ("# Blowup >= 1.5", "blowup_at_least_1_5"),
        ("Time (s) Min.", "min_time"),
        ("Time (s) Max.", "max_time"),
        ("Time (s) Avg.", "avg_time"),
        ("Time (s) Med.", "median_time"),
    ]
    for label, attribute in metrics:
        row: List[object] = [label]
        for summary in summaries:
            row.append(summary.as_dict()[attribute if attribute != "max_blowup" else "max_blowup"])
        metric_rows.append(row)
    return f"{title}\n" + format_table(headers, metric_rows)


def cactus_report(records: Sequence[RunRecord], points: int = 8) -> str:
    """Render a textual cactus plot: time needed to process the n fastest inputs."""
    series = cactus_series(records)
    lines = ["Cactus plot (inputs processed vs. time in seconds):"]
    for algorithm, values in sorted(series.items()):
        if not values:
            lines.append(f"  {algorithm}: no processed inputs")
            continue
        step = max(1, len(values) // points)
        samples = values[::step]
        if samples[-1] != values[-1]:
            samples.append(values[-1])
        rendered = ", ".join(f"{count}@{time_value:.2f}s" for count, time_value in samples)
        lines.append(f"  {algorithm}: {rendered}")
    return "\n".join(lines)


def pairwise_report(records: Sequence[RunRecord], factor: float = 10.0) -> str:
    """Render the "time(Y)/time(X) ≥ 10" and "X and Y both fail" matrices."""
    slowdown = pairwise_slowdown_matrix(records, factor)
    failures = both_fail_matrix(records)
    algorithms = sorted({record.algorithm for record in records})
    headers = ["Y \\ X"] + algorithms
    slowdown_rows = []
    for slower in algorithms:
        row: List[object] = [slower]
        for faster in algorithms:
            row.append("" if slower == faster else slowdown.get((slower, faster), 0))
        slowdown_rows.append(row)
    failure_rows = []
    for left in algorithms:
        row = [left]
        for right in algorithms:
            row.append(failures.get((left, right), 0))
        failure_rows.append(row)
    return (
        f"time(Y)/time(X) >= {factor:g}\n"
        + format_table(headers, slowdown_rows)
        + "\n\nX and Y both fail\n"
        + format_table(headers, failure_rows)
    )


def end_to_end_report(rows: Sequence[Mapping[str, object]]) -> str:
    """Render the Table 2 "Computing the Fixpoint of the Rewriting" block."""
    headers = ["Input", "# Rules", "# Input Facts", "# Output Facts", "Ratio", "Time (s)"]
    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row["input_id"],
                row["rule_count"],
                row["input_facts"],
                row["output_facts"],
                round(row["output_facts"] / max(1, row["input_facts"]), 1),
                round(row["elapsed_seconds"], 2),
            ]
        )
    return "Table 2: Computing the Fixpoint of the Rewriting\n" + format_table(
        headers, table_rows
    )


Table = Tuple[str, Sequence[str], List[List[object]]]

#: overview columns; every other scalar field lands in the scenario's own table
_OVERVIEW_FIELDS = ("wall_seconds", "status")


#: longer cells (free-text notes) are cut so a table stays readable
_MAX_CELL = 60


def _cell(value: object) -> object:
    """One table cell: numbers as-is, text cut short, collections summarized."""
    if isinstance(value, (Mapping, list)):
        if _is_block(value):  # flat counters, e.g. a batch-size histogram
            return ", ".join(f"{key}: {item}" for key, item in value.items())
        if value and all(isinstance(item, (int, float)) for item in value):
            return ", ".join(map(str, value))
        return f"{len(value)} entr{'y' if len(value) == 1 else 'ies'}"
    if value is None:
        return "–"
    if isinstance(value, str) and len(value) > _MAX_CELL:
        return value[: _MAX_CELL - 3] + "..."
    return value


def _is_block(value: object) -> bool:
    """A stats block: a mapping holding at least one scalar counter."""
    return isinstance(value, Mapping) and any(
        not isinstance(item, (Mapping, list)) for item in value.values()
    )


def _columns_table(title: str, columns: Mapping[str, Mapping[str, object]]) -> Table:
    """A table with one column per entry and one row per key any entry has."""
    keys: List[str] = []
    for column in columns.values():
        keys.extend(key for key in column if key not in keys)
    rows = [
        [key] + [_cell(column.get(key, "–")) for column in columns.values()]
        for key in keys
    ]
    return title, ["field", *columns], rows


def _capture_tables(payload: Mapping[str, object]) -> Tuple[str, List[Table]]:
    """The heading and ``(title, headers, rows)`` tables of a perf capture.

    Nothing here names a scenario or a field: the overview lists every
    scenario's wall time, status and baseline comparison; each scenario then
    gets a table of its scalar fields, and each stats block (a mapping of
    counters, e.g. ``fact_store``) one table with a column per scenario
    that records it.  Failing checks
    (:func:`repro.harness.perfcapture.failed_checks`) follow the overview.
    """
    from .perfcapture import failed_checks

    heading = (
        f"Perf capture ({payload.get('scale', '?')} scale, "
        f"{payload.get('wall_seconds', 0.0):.2f}s total)"
    )
    scenarios = {
        name: scenario
        for name, scenario in (payload.get("scenarios") or {}).items()
        if isinstance(scenario, Mapping)
    }
    baseline = payload.get("speedup_vs_baseline_file")
    baseline = baseline if isinstance(baseline, Mapping) else {}
    status_changes = payload.get("scenario_status_vs_baseline")
    status_changes = status_changes if isinstance(status_changes, Mapping) else {}
    failures = failed_checks(payload)

    overview = []
    for name, scenario in scenarios.items():
        change = status_changes.get(name)
        if isinstance(change, Mapping):
            versus = f"{change.get('baseline')} -> {change.get('current')}"
        else:
            ratio = baseline.get(name)
            versus = f"{ratio}x" if isinstance(ratio, (int, float)) else "–"
        failed = sum(1 for scenario_name, _ in failures if scenario_name == name)
        overview.append(
            [name]
            + [_cell(scenario.get(field, "–")) for field in _OVERVIEW_FIELDS]
            + [versus, f"{failed} failed" if failed else "ok"]
        )
    tables: List[Table] = [
        ("Scenarios", ["scenario", *_OVERVIEW_FIELDS, "vs baseline", "checks"], overview)
    ]
    if failures:
        tables.append(("Failed checks", ["scenario", "check"], [list(f) for f in failures]))
    if "error" in baseline:
        tables.append(("Baseline comparison failed", ["error"], [[baseline["error"]]]))
    blocks: Dict[str, Dict[str, Mapping[str, object]]] = {}
    for name, scenario in scenarios.items():
        fields = []
        for key, value in scenario.items():
            if _is_block(value):
                blocks.setdefault(key, {})[name] = value
            elif key not in _OVERVIEW_FIELDS:
                fields.append([key, _cell(value)])
        tables.append((name, ["field", "value"], fields))
    tables.extend(_columns_table(key, columns) for key, columns in blocks.items())
    interning = payload.get("interning")
    if isinstance(interning, Mapping) and interning:
        tables.append(_columns_table("interning", interning))
    return heading, tables


def render_capture(payload: Mapping[str, object], markdown: bool = False) -> str:
    """Render a BENCH_rewriting capture as plain text, or as GitHub markdown.

    Both formats draw the same tables (:func:`_capture_tables`); the markdown one is
    what ``perf --step-summary`` appends to ``$GITHUB_STEP_SUMMARY``.
    """
    heading, tables = _capture_tables(payload)
    if not markdown:
        return "\n\n".join(
            [heading]
            + [f"{title}\n{format_table(headers, rows)}" for title, headers, rows in tables]
        )
    parts = [f"## {heading}"]
    for title, headers, rows in tables:
        lines = [
            f"### {title}",
            "",
            "| " + " | ".join(map(str, headers)) + " |",
            "|" + " --- |" * len(headers),
        ]
        lines.extend(
            "| " + " | ".join(str(cell).replace("|", "\\|") for cell in row) + " |"
            for row in rows
        )
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def full_figure_report(records: Sequence[RunRecord], title: str) -> str:
    """The complete Figure 4/5-style report: summary, cactus plot, pairwise matrices."""
    return "\n\n".join(
        [
            figure_summary_report(records, title),
            cactus_report(records),
            pairwise_report(records),
        ]
    )
