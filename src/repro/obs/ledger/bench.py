"""Benchmark trajectory points: ``BENCH_<name>.json`` files.

Each benchmark in ``benchmarks/`` appends one *point* per run to its
trajectory file, so performance history accumulates across sessions the
same way the run ledger accumulates simulation history.  A point is
``{value, units, seed, git_sha, timestamp}``; the file keeps the whole
trajectory, newest last.

Environment overrides:

``REPRO_BENCH_DIR``
    Where trajectory files live (default ``.repro/bench``).
``REPRO_BENCH_TIMESTAMP``
    Inject a fixed timestamp (hermetic tests; CI stamps the build time).
"""

from __future__ import annotations

import json
import os
import re
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.ledger.provenance import git_revision

#: Schema version of a trajectory file.
BENCH_SCHEMA_VERSION = 1

#: Environment variable overriding the trajectory directory.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"
#: Environment variable injecting a fixed point timestamp.
BENCH_TIMESTAMP_ENV = "REPRO_BENCH_TIMESTAMP"
#: Default directory, relative to the current working directory.
DEFAULT_BENCH_DIR = os.path.join(".repro", "bench")

_POINT_KEYS = {"value", "units", "seed", "git_sha", "timestamp"}


def bench_dir(directory: Optional[str] = None) -> str:
    if directory is not None:
        return directory
    return os.environ.get(BENCH_DIR_ENV, "").strip() or DEFAULT_BENCH_DIR


def _slug(name: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")
    if not slug:
        raise ValueError(f"benchmark name {name!r} has no usable characters")
    return slug


def trajectory_path(name: str, directory: Optional[str] = None) -> str:
    return os.path.join(bench_dir(directory), f"BENCH_{_slug(name)}.json")


def _timestamp() -> str:
    injected = os.environ.get(BENCH_TIMESTAMP_ENV, "").strip()
    if injected:
        return injected
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def record_bench_point(
    name: str,
    value: float,
    units: str = "s",
    seed: Optional[int] = None,
    directory: Optional[str] = None,
) -> Dict[str, Any]:
    """Append one point to ``BENCH_<name>.json``; returns the point."""
    path = trajectory_path(name, directory)
    if os.path.exists(path):
        trajectory = load_trajectory(name, directory)
    else:
        trajectory = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "name": name,
            "units": units,
            "points": [],
        }
    sha, _ = git_revision()
    point = {
        "value": float(value),
        "units": units,
        "seed": seed,
        "git_sha": sha,
        "timestamp": _timestamp(),
    }
    trajectory["points"].append(point)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return point


def load_trajectory(
    name: str, directory: Optional[str] = None
) -> Dict[str, Any]:
    path = trajectory_path(name, directory)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def validate_trajectory(trajectory: Dict[str, Any]) -> List[str]:
    """Schema problems of a trajectory dict (empty list == valid)."""
    problems: List[str] = []
    if trajectory.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version is {trajectory.get('schema_version')!r}, "
            f"expected {BENCH_SCHEMA_VERSION}"
        )
    if not trajectory.get("name"):
        problems.append("missing name")
    points = trajectory.get("points")
    if not isinstance(points, list) or not points:
        problems.append("points must be a non-empty list")
        return problems
    for index, point in enumerate(points):
        missing = _POINT_KEYS - set(point)
        if missing:
            problems.append(
                f"points[{index}] missing {sorted(missing)}"
            )
            continue
        if not isinstance(point["value"], (int, float)) or isinstance(
            point["value"], bool
        ):
            problems.append(f"points[{index}].value is not a number")
        elif point["value"] < 0:
            problems.append(f"points[{index}].value is negative")
        if not point["timestamp"]:
            problems.append(f"points[{index}].timestamp is empty")
    return problems


def list_trajectories(directory: Optional[str] = None) -> List[str]:
    """Benchmark names with a trajectory file, sorted."""
    root = bench_dir(directory)
    if not os.path.isdir(root):
        return []
    names = []
    for filename in os.listdir(root):
        if filename.startswith("BENCH_") and filename.endswith(".json"):
            names.append(filename[len("BENCH_") : -len(".json")])
    return sorted(names)


def trajectory_files(
    directory: Optional[str] = None,
) -> List[Tuple[str, bytes]]:
    """``(name, raw bytes)`` of every trajectory file, sorted by name."""
    root = bench_dir(directory)
    files = []
    for name in list_trajectories(directory):
        with open(os.path.join(root, f"BENCH_{name}.json"), "rb") as handle:
            files.append((name, handle.read()))
    return files


def trajectory_summaries(
    files: List[Tuple[str, bytes]],
) -> List[Dict[str, Any]]:
    """One row per trajectory: name, point count, latest point, problems.

    The listing behind both ``repro runs bench`` and ``GET /api/bench``,
    over the files :func:`trajectory_files` read.
    """
    rows = []
    for name, raw in files:
        trajectory = json.loads(raw)
        points = trajectory.get("points", [])
        rows.append(
            {
                "name": name,
                "points": len(points),
                "latest": points[-1] if points else None,
                "problems": validate_trajectory(trajectory),
            }
        )
    return rows
