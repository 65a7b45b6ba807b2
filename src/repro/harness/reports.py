"""Plain-text and markdown rendering of a ``repro perf`` capture.

:func:`render_capture` draws every table of the report without naming any
scenario or field: a scenario's field holding one stats block per key (the
``paper_figures`` scenario's Table 1, Figures 4-5 and ablations) draws as
its own table with a column per key, so the paper's metric x algorithm
tables need no per-figure code; a list of records (Table 2) and a mapping
of number lists (the cactus series) likewise draw as their own tables.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Dict, List, Mapping, Sequence, Tuple


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


def _is_block_map(value: object) -> bool:
    """A mapping of stats blocks, e.g. one summary row per algorithm."""
    return (
        isinstance(value, Mapping)
        and bool(value)
        and all(_is_block(item) for item in value.values())
    )


def _rows_table(title: str, records: Sequence[Mapping[str, object]]) -> Table:
    """A table with one row per record, e.g. Table 2's ``end_to_end.rows``."""
    keys: List[str] = []
    for record in records:
        keys.extend(key for key in record if key not in keys)
    return title, keys, [[_cell(record.get(key, "–")) for key in keys] for record in records]


def _series_table(title: str, series: Mapping[str, Sequence[object]]) -> Table:
    """A column per number list (e.g. a cactus series); row x holds the x-th values."""
    ranks = zip_longest(*series.values(), fillvalue="–")
    return title, ["rank", *series], [[x, *row] for x, row in enumerate(ranks, 1)]


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
    gets a table of its scalar fields, followed by one table per field that
    maps keys to stats blocks (a column per key, e.g. ``paper_figures.figure4``
    with a column per algorithm), lists records or maps keys to number lists,
    and each stats block (a mapping of
    counters, e.g. ``fact_store``) gets one table with a column per scenario
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
        own: List[Table] = []
        for key, value in scenario.items():
            if _is_block(value):
                blocks.setdefault(key, {})[name] = value
            elif _is_block_map(value):
                own.append(_columns_table(f"{name}.{key}", value))
            elif value and isinstance(value, list) and all(
                isinstance(item, Mapping) for item in value
            ):
                own.append(_rows_table(f"{name}.{key}", value))
            elif value and isinstance(value, Mapping) and all(
                isinstance(item, list) and all(isinstance(n, (int, float)) for n in item)
                for item in value.values()
            ):
                own.append(_series_table(f"{name}.{key}", value))
            elif key not in _OVERVIEW_FIELDS:
                fields.append([key, _cell(value)])
        tables.append((name, ["field", "value"], fields))
        tables.extend(own)
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
