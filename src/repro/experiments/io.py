"""Persistence of experiment results.

Reproduction studies need results that outlive the terminal: every
:class:`~repro.experiments.tables.ExperimentResult` can be written to
JSON (lossless, reloadable) or CSV (one file per table, for plotting
tools), and reloaded for later comparison -- e.g. diffing a paper-scale
run against a quick run, or against the numbers recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

import csv
import json
import os
import re
from typing import Any, Dict, List

from repro.experiments.tables import ExperimentResult, Series, Table
from repro.obs.exporters import open_text

#: Schema version written into every JSON file.
SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# JSON (lossless)
# ----------------------------------------------------------------------
def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """A plain-dict representation (stable, schema-versioned)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment_id": result.experiment_id,
        "description": result.description,
        "paper_expectations": list(result.paper_expectations),
        "tables": [
            {
                "title": table.title,
                "x_label": table.x_label,
                "y_label": table.y_label,
                "notes": list(table.notes),
                "series": [
                    {
                        "label": series.label,
                        # JSON keys must be strings; keep x explicit.
                        "points": [
                            [x, y] for x, y in sorted(series.points.items())
                        ],
                    }
                    for series in table.series
                ],
            }
            for table in result.tables
        ],
    }


def result_from_dict(payload: Dict[str, Any]) -> ExperimentResult:
    """Inverse of :func:`result_to_dict`."""
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {version!r} "
            f"(this library writes {SCHEMA_VERSION})"
        )
    tables: List[Table] = []
    for table_payload in payload["tables"]:
        table = Table(
            title=table_payload["title"],
            x_label=table_payload["x_label"],
            y_label=table_payload["y_label"],
            notes=list(table_payload.get("notes", [])),
        )
        for series_payload in table_payload["series"]:
            series = Series(label=series_payload["label"])
            for x, y in series_payload["points"]:
                series.add(float(x), float(y))
            table.add_series(series)
        tables.append(table)
    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        description=payload["description"],
        tables=tables,
        paper_expectations=list(payload.get("paper_expectations", [])),
    )


def save_json(result: ExperimentResult, path: str) -> None:
    """Write one experiment result as JSON (gzipped for ``.gz`` paths)."""
    with open_text(path, "w") as handle:
        json.dump(result_to_dict(result), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_json(path: str) -> ExperimentResult:
    """Reload a result written by :func:`save_json` (plain or ``.gz``)."""
    with open_text(path, "r") as handle:
        return result_from_dict(json.load(handle))


# ----------------------------------------------------------------------
# CSV (one file per table)
# ----------------------------------------------------------------------
def _slug(text: str) -> str:
    """Filesystem-safe fragment of a table title."""
    cleaned = re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_").lower()
    return cleaned[:60] or "table"


def save_csv(result: ExperimentResult, directory: str) -> List[str]:
    """Write each table as ``<experiment>_<k>_<title>.csv``.

    Returns the paths written.  The first column is the x axis; one
    column per series, ``nan`` for gaps -- directly loadable by any
    plotting tool.
    """
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, table in enumerate(result.tables):
        filename = (
            f"{result.experiment_id}_{index:02d}_{_slug(table.title)}.csv"
        )
        path = os.path.join(directory, filename)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [table.x_label] + [series.label for series in table.series]
            )
            for row in table.to_rows():
                writer.writerow(row)
        paths.append(path)
    return paths


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def max_relative_difference(
    a: ExperimentResult, b: ExperimentResult
) -> float:
    """Largest relative gap between matching points of two results.

    Used to compare runs across scales or code versions.  Only points
    present in both results (matched by table index, series label and
    x value) are compared; returns 0.0 when nothing overlaps.
    """
    worst = 0.0
    for table_a, table_b in zip(a.tables, b.tables):
        labels_b = {series.label: series for series in table_b.series}
        for series_a in table_a.series:
            series_b = labels_b.get(series_a.label)
            if series_b is None:
                continue
            for x, y_a in series_a.points.items():
                if x not in series_b.points:
                    continue
                y_b = series_b.points[x]
                denominator = max(abs(y_a), abs(y_b), 1e-12)
                worst = max(worst, abs(y_a - y_b) / denominator)
    return worst
