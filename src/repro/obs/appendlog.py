"""Incremental reader and single-write appender of one JSONL file.

The run ledger (``runs.jsonl``) and the alert ledger (``alerts.jsonl``)
are append-only logs that long-lived readers -- ``repro serve``, the
alert engine -- consult on every request.  Re-parsing the whole file
each time makes every read O(file) and a server's cost grow with the
state it has accumulated; :class:`AppendLog` parses each byte once.

It remembers the records parsed so far, the byte offset it has read up
to, the file's ``(st_dev, st_ino)``, its ``st_mtime_ns`` at that read
and the raw bytes of the last line it consumed.  A read parses only the
bytes after that offset when the file is still the same inode, is not
shorter than the offset, has not been modified since if it is exactly
as long, and still holds the remembered last line (plus its ``\\n``)
just before it; otherwise -- rotated, truncated, rewritten in place --
it starts over from byte 0.  A same-length rewrite within one tick of
the file system's clock keeps the old mtime and stays unseen.  Only
``\\n``-terminated lines are consumed, so a reader racing an append
sees the state before it instead of half a record.

``generation`` counts the changes to what :meth:`AppendLog.records`
returns: it rises when a read consumes new records or drops a
non-empty state, and never otherwise, so a reader can key anything it
derives from the records on it.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["AppendLog"]


class AppendLog:
    """One append-only JSONL file, parsed incrementally; thread-safe.

    ``lock`` is re-entrant: a writer that numbers its record from the
    current contents holds it across :meth:`records` and
    :meth:`append`, so threads sharing one instance never mint the same
    number twice.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.lock = threading.RLock()
        #: Bumped each time the parsed records change (module docstring).
        self.generation = 0
        self._records: List[Dict[str, Any]] = []
        self._reset(None)

    def _reset(self, identity: Optional[Tuple[int, int]]) -> None:
        if self._records:
            self.generation += 1
        self._records = []
        self._offset = 0
        self._lineno = 0
        self._last_line = b""
        self._identity = identity
        self._mtime_ns: Optional[int] = None

    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """Every record, in file order (a fresh list; records shared)."""
        return self.snapshot()[1]

    def snapshot(self) -> Tuple[int, List[Dict[str, Any]]]:
        """``(generation, records)`` as of one read of the file."""
        with self.lock:
            self._refresh()
            return self.generation, list(self._records)

    def append(self, line: str) -> None:
        """Write ``line`` plus its ``\\n`` in one write, at end of file."""
        data = (line + "\n").encode("utf-8")
        with self.lock, open(self.path, "ab", buffering=0) as handle:
            handle.write(data)

    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            self._reset(None)
            return
        with handle:
            stat = os.fstat(handle.fileno())
            identity = (stat.st_dev, stat.st_ino)
            if (
                identity != self._identity
                or stat.st_size < self._offset
                or (
                    stat.st_size == self._offset
                    and stat.st_mtime_ns != self._mtime_ns
                )
                or not self._tail_matches(handle)
            ):
                self._reset(identity)
            handle.seek(self._offset)
            self._consume(handle, stat.st_mtime_ns)

    def _tail_matches(self, handle: Any) -> bool:
        """Whether the remembered last line still ends at the offset."""
        if not self._offset:
            return True
        expected = self._last_line + b"\n"
        handle.seek(self._offset - len(expected))
        return handle.read(len(expected)) == expected

    def _consume(self, handle: Any, mtime_ns: int) -> None:
        """Parse complete lines from the handle's position on.

        State is committed only after every new line parsed, so a
        corrupt line raises on this read and on every later one.
        """
        offset, lineno, last_line = self._offset, self._lineno, None
        fresh: List[Dict[str, Any]] = []
        for raw in handle:
            if not raw.endswith(b"\n"):
                break  # half-written: invisible until its newline lands
            lineno += 1
            offset += len(raw)
            last_line = raw[:-1]
            text = raw.strip()
            if not text:
                continue
            try:
                fresh.append(json.loads(text))
            except ValueError as error:
                raise ValueError(
                    f"{self.path}:{lineno}: corrupt ledger line ({error})"
                ) from None
        if last_line is None:
            return
        if fresh:
            self._records.extend(fresh)
            self.generation += 1
        self._offset, self._lineno, self._last_line = (
            offset,
            lineno,
            last_line,
        )
        self._mtime_ns = mtime_ns
