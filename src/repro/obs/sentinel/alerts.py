"""The append-only alert ledger (``alerts.jsonl``).

Same discipline as the run ledger: one JSON object per line, append
only, human-greppable.  Each record is an incident *transition*
(``{"action": "open"|"close", "incident": {...}}``) wrapped in an
envelope carrying the ledger sequence number and a wall-clock stamp.
The wall clock lives **only** in the envelope -- incident bodies are a
pure function of the observation stream, so tests diff them exactly
while operators still see when a page actually happened.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.appendlog import AppendLog

__all__ = ["AlertLedger", "DEFAULT_ALERTS_DIR"]

#: Where alerts live unless overridden (sibling of the run ledger).
DEFAULT_ALERTS_DIR = os.path.join(".repro", "alerts")

#: Environment override for the alerts directory.
ALERTS_DIR_ENV = "REPRO_ALERTS_DIR"


class AlertLedger:
    """Append-only JSONL store of incident transitions."""

    def __init__(self, root: Optional[str] = None):
        if root is None:
            root = os.environ.get(ALERTS_DIR_ENV) or DEFAULT_ALERTS_DIR
        self.root = Path(root)
        self._log = AppendLog(str(self.path))

    @property
    def path(self) -> Path:
        return self.root / "alerts.jsonl"

    # ------------------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one transition; returns the stamped envelope."""
        self.root.mkdir(parents=True, exist_ok=True)
        with self._log.lock:
            envelope = {
                "seq": self._next_seq(),
                "created_utc": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
            }
            envelope.update(record)
            self._log.append(json.dumps(envelope, sort_keys=True))
        return envelope

    def records(self) -> List[Dict[str, Any]]:
        """Every transition, in append order (read incrementally)."""
        return self._log.records()

    def _next_seq(self) -> int:
        records = self.records()
        return (records[-1]["seq"] + 1) if records else 1

    # ------------------------------------------------------------------
    def incidents(self) -> List[Dict[str, Any]]:
        """Latest state of every incident mentioned, in id order.

        Replays the transition log: a ``close`` supersedes its ``open``.
        """
        latest: Dict[str, Dict[str, Any]] = {}
        for record in self.records():
            incident = record.get("incident")
            if incident and "id" in incident:
                latest[incident["id"]] = incident
        return [latest[key] for key in sorted(latest)]

    def open_incidents(self) -> List[Dict[str, Any]]:
        return [i for i in self.incidents() if i.get("status") == "open"]
