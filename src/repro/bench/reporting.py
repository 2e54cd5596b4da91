"""Rendering for benchmark output and EXPERIMENTS.md.

:func:`format_table` is the aligned-markdown form used in terminals and
documents; :func:`format_output` renders the same rows as a table, CSV
or JSON for machine consumers (``python -m repro bench --format csv``).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, List, Sequence

FORMATS = ("table", "csv", "json")


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned text table (markdown-compatible)."""
    materialized: List[List[str]] = [
        [_cell(value) for value in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, value in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(value))
            else:
                widths.append(len(value))

    def line(values: Sequence[str]) -> str:
        cells = [
            value.ljust(widths[index]) for index, value in enumerate(values)
        ]
        return "| " + " | ".join(cells) + " |"

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in materialized:
        parts.append(line(row))
    return "\n".join(parts)


def format_output(
    rows: Iterable[Sequence[object]],
    columns: Sequence[str],
    fmt: str = "table",
    title: str = "",
) -> str:
    """Render ``rows`` in the requested format (table, csv, or json).

    ``rows`` are sequences ordered like ``columns``.  The table form is
    :func:`format_table`; CSV carries a header row; JSON is an object
    with the title and a list of ``{column: value}`` records (floats
    and ints pass through unformatted so downstream tooling keeps full
    precision).
    """
    materialized = [list(row) for row in rows]
    if fmt == "table":
        return format_table(columns, materialized, title=title)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(list(columns))
        for row in materialized:
            writer.writerow(row)
        return buffer.getvalue().rstrip("\n")
    if fmt == "json":
        records = [
            {column: value for column, value in zip(columns, row)}
            for row in materialized
        ]
        return json.dumps(
            {"title": title, "rows": records}, indent=2, default=str
        )
    raise ValueError(
        "unknown format %r (expected one of %s)" % (fmt, list(FORMATS))
    )


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return "%.0f" % value
        if abs(value) >= 1:
            return "%.2f" % value
        return "%.3f" % value
    return str(value)


def human_bytes(count: int) -> str:
    """1234567 -> '1.2 MB' (decimal units, as in the paper)."""
    if count >= 1_000_000:
        return "%.1f MB" % (count / 1_000_000)
    if count >= 1_000:
        return "%.1f KB" % (count / 1_000)
    return "%d B" % count
