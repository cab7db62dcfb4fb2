"""Machine-readable run listings, shared by the CLI and the serve API.

``repro runs list`` (text and ``--json``) and ``GET /api/runs`` must
never drift apart, so all three render :func:`runs_payload`: one
function that filters, paginates, and summarises ledger entries into
plain JSON-safe data.  The round trip is pinned by
``tests/serve/test_serve_api.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Payload schema version (bumped on shape changes).
LIST_SCHEMA_VERSION = 1


def entry_summary(
    entry: Dict[str, Any],
    pinned: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """One run's listing row: identity, provenance, timing.

    ``pinned`` maps entry id -> baseline label (see
    :meth:`~repro.obs.ledger.store.Ledger.baselines`).
    """
    manifest = entry.get("manifest", {})
    timing = entry.get("timing") or {}
    return {
        "id": entry.get("id"),
        "created_utc": entry.get("created_utc"),
        "kind": entry.get("kind"),
        "label": entry.get("label"),
        "manifest_hash": manifest.get("manifest_hash"),
        "baseline": (pinned or {}).get(entry.get("id")),
        "wall_clock_s": timing.get("wall_clock_s"),
    }


def page(
    items: Sequence[Any],
    limit: Optional[int] = None,
    offset: int = 0,
    last: Optional[int] = None,
) -> Tuple[int, Sequence[Any]]:
    """``(offset, window)`` of ``items``: forward pagination or a tail.

    ``offset`` skips that many items from the start and ``limit`` caps
    what remains; ``last`` (the CLI's ``--last N``) overrides both with
    the ``N`` newest items.  Raises ``ValueError`` naming a negative
    bound.
    """
    for name, value in (("limit", limit), ("offset", offset), ("last", last)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0")
    if last is not None:
        offset, limit = max(0, len(items) - last), last
    window = items[offset:]
    return offset, window if limit is None else window[:limit]


def runs_payload(
    entries: Sequence[Dict[str, Any]],
    baselines: Optional[Dict[str, Dict[str, Any]]] = None,
    kind: Optional[str] = None,
    limit: Optional[int] = None,
    offset: int = 0,
    last: Optional[int] = None,
) -> Dict[str, Any]:
    """The paginated listing payload over ``entries`` (oldest first).

    ``kind`` filters before pagination; ``limit``/``offset``/``last``
    then window the filtered entries (see :func:`page`).  ``total``
    always reports the filtered count so clients can page without a
    second request.
    """
    pinned = {
        pin["id"]: label for label, pin in (baselines or {}).items()
    }
    filtered: List[Dict[str, Any]] = [
        entry
        for entry in entries
        if kind is None or entry.get("kind") == kind
    ]
    offset, window = page(filtered, limit, offset, last)
    return {
        "schema_version": LIST_SCHEMA_VERSION,
        "total": len(filtered),
        "offset": offset,
        "count": len(window),
        "runs": [entry_summary(entry, pinned) for entry in window],
    }
