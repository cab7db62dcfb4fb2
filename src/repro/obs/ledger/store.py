"""The run ledger: an append-only JSONL store under ``.repro/ledger/``.

Layout (all files human-readable, all writes append-or-replace):

``runs.jsonl``
    One JSON object per recorded run: id, creation time, the full
    :class:`~repro.obs.ledger.manifest.RunManifest` dict, the
    deterministic outcome block, and the timing block.
``baselines.json``
    Pinned baselines: ``label -> {id, manifest_hash, pinned_utc}``.
``check_state.json``
    The SRAA-style persistence counters of ``repro runs check``
    (consecutive exceedances per baseline; see
    :mod:`repro.obs.ledger.regress`).

Selection: the directory defaults to ``.repro/ledger`` under the
current working directory; ``REPRO_LEDGER_DIR`` overrides it and
``REPRO_LEDGER=0`` disables recording entirely.  Recording is
best-effort by design -- :func:`record_run` never lets a ledger failure
kill the simulation whose result it is trying to persist.
"""

from __future__ import annotations

import json
import os
import sys
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.appendlog import AppendLog
from repro.obs.ledger.manifest import RunManifest

#: Schema version stamped into every ledger entry.
ENTRY_SCHEMA_VERSION = 1

#: Environment variable overriding the ledger directory.
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"
#: Environment variable disabling recording (``0``/``off``/``false``).
LEDGER_ENV = "REPRO_LEDGER"
#: Default directory, relative to the current working directory.
DEFAULT_LEDGER_DIR = os.path.join(".repro", "ledger")


def ledger_enabled() -> bool:
    """Whether CLI invocations should record entries (env-controlled)."""
    raw = os.environ.get(LEDGER_ENV, "1").strip().lower()
    return raw not in {"0", "off", "false", "no"}


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class Ledger:
    """Append-only access to one ledger directory; thread-safe.

    One instance may be shared by many threads (``repro serve`` does):
    it caches the parsed entries and re-reads only what was appended
    since, so a read costs what the new entries cost.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        if directory is None:
            directory = (
                os.environ.get(LEDGER_DIR_ENV, "").strip()
                or DEFAULT_LEDGER_DIR
            )
        self.directory = directory
        self._runs = AppendLog(self.runs_path)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def runs_path(self) -> str:
        return os.path.join(self.directory, "runs.jsonl")

    @property
    def baselines_path(self) -> str:
        return os.path.join(self.directory, "baselines.json")

    @property
    def check_state_path(self) -> str:
        return os.path.join(self.directory, "check_state.json")

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """Every recorded entry, oldest first.

        Reads are incremental (see :class:`~repro.obs.appendlog.AppendLog`):
        only bytes appended since the last call are parsed, and a
        half-written last line stays invisible until its newline lands.
        """
        return self._runs.records()

    def snapshot(self) -> Tuple[int, List[Dict[str, Any]]]:
        """``(generation, entries)`` from one read of ``runs.jsonl``.

        The generation changes exactly when the entries do (see
        :class:`~repro.obs.appendlog.AppendLog`), so anything rendered
        from these entries stays valid while it is unchanged.
        """
        return self._runs.snapshot()

    def append(
        self,
        manifest: RunManifest,
        outcomes: Dict[str, Any],
        timing: Optional[Dict[str, Any]] = None,
        artifacts: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Record one run; returns the full entry (with its new id).

        ``artifacts`` maps artifact names to filesystem paths the run
        left behind (e.g. ``{"trace": "/abs/path/trace.rcol"}``); the
        block sits outside the manifest, so it never perturbs the
        manifest hash.
        """
        os.makedirs(self.directory, exist_ok=True)
        manifest_dict = manifest.to_dict()
        # Held across numbering and writing: threads sharing this
        # instance never mint the same id.
        with self._runs.lock:
            seq = len(self.entries()) + 1
            entry = {
                "schema_version": ENTRY_SCHEMA_VERSION,
                "id": (
                    f"{manifest.kind[:3]}-{seq:04d}-"
                    f"{manifest_dict['manifest_hash'][:8]}"
                ),
                "created_utc": _utc_now(),
                "kind": manifest.kind,
                "label": manifest.label,
                "manifest": manifest_dict,
                "outcomes": outcomes,
                "timing": timing or {},
            }
            if artifacts:
                entry["artifacts"] = dict(artifacts)
            self._runs.append(json.dumps(entry, separators=(",", ":")))
        return entry

    def get(self, ref: str) -> Dict[str, Any]:
        """Resolve ``ref``: an id, a unique id prefix, or ``latest``."""
        return self.resolve(ref, self.entries())

    def resolve(
        self, ref: str, entries: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Resolve ``ref`` (as :meth:`get`) among ``entries``."""
        if not entries:
            raise LookupError(
                f"ledger {self.directory} is empty -- run something with "
                "the ledger enabled first"
            )
        if ref in ("latest", "last"):
            return entries[-1]
        matches = [e for e in entries if e["id"] == ref]
        if not matches:
            matches = [e for e in entries if e["id"].startswith(ref)]
        if not matches:
            raise LookupError(f"no ledger entry matches {ref!r}")
        if len(matches) > 1:
            ids = ", ".join(e["id"] for e in matches[:5])
            raise LookupError(f"ambiguous ref {ref!r}: matches {ids}")
        return matches[0]

    def latest(
        self, manifest_hash: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """The newest entry, optionally restricted to one manifest hash."""
        for entry in reversed(self.entries()):
            if (
                manifest_hash is None
                or entry["manifest"]["manifest_hash"] == manifest_hash
            ):
                return entry
        return None

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    def baselines(self) -> Dict[str, Dict[str, Any]]:
        return parse_baselines(self.baselines_bytes())

    def baselines_bytes(self) -> Optional[bytes]:
        """The raw ``baselines.json``, or ``None`` when it is absent."""
        try:
            with open(self.baselines_path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def set_baseline(self, label: str, entry: Dict[str, Any]) -> None:
        """Pin ``entry`` as the baseline under ``label``."""
        os.makedirs(self.directory, exist_ok=True)
        pins = self.baselines()
        pins[label] = {
            "id": entry["id"],
            "manifest_hash": entry["manifest"]["manifest_hash"],
            "pinned_utc": _utc_now(),
        }
        with open(self.baselines_path, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def baseline_entry(self, label: str) -> Dict[str, Any]:
        """The full ledger entry pinned under ``label``."""
        pins = self.baselines()
        if label not in pins:
            known = ", ".join(sorted(pins)) or "(none pinned)"
            raise LookupError(
                f"no baseline {label!r}; pinned baselines: {known} -- "
                "pin one with 'repro runs baseline <id>'"
            )
        return self.get(pins[label]["id"])

    # ------------------------------------------------------------------
    # Check persistence state
    # ------------------------------------------------------------------
    def check_state(self) -> Dict[str, Any]:
        if not os.path.exists(self.check_state_path):
            return {}
        with open(self.check_state_path, encoding="utf-8") as handle:
            return json.load(handle)

    def save_check_state(self, state: Dict[str, Any]) -> None:
        os.makedirs(self.directory, exist_ok=True)
        with open(self.check_state_path, "w", encoding="utf-8") as handle:
            json.dump(state, handle, indent=2, sort_keys=True)
            handle.write("\n")


def parse_baselines(raw: Optional[bytes]) -> Dict[str, Dict[str, Any]]:
    """The pins in raw ``baselines.json`` bytes (``None``: no pins)."""
    return {} if raw is None else json.loads(raw)


def record_run(
    manifest: RunManifest,
    outcomes: Dict[str, Any],
    timing: Optional[Dict[str, Any]] = None,
    directory: Optional[str] = None,
    artifacts: Optional[Dict[str, Any]] = None,
) -> Optional[Dict[str, Any]]:
    """Best-effort CLI recording: never raises, honours ``REPRO_LEDGER``.

    Returns the appended entry, or ``None`` when recording is disabled
    or failed (the failure is reported on stderr, not raised -- losing
    a ledger line must not lose the run that produced it).
    """
    if not ledger_enabled():
        return None
    try:
        return Ledger(directory).append(
            manifest, outcomes, timing, artifacts=artifacts
        )
    except Exception as error:
        print(f"ledger: recording failed: {error}", file=sys.stderr)
        return None
