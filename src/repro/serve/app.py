"""``repro serve``: the HTTP observability plane (stdlib only).

A :class:`ReproServer` wraps one ``http.server.ThreadingHTTPServer``
(one thread per request, daemonic) and exposes three surfaces over the
subsystems earlier PRs built:

* a JSON API over the run ledger (:mod:`repro.obs.ledger`) -- list,
  show, diff, baselines, bench trajectories -- sharing its list
  serialisation with ``repro runs list --json`` so the two can't drift;
* a live-telemetry channel: ``GET /api/events`` streams the
  :class:`~repro.serve.broker.EventBroker` as Server-Sent Events
  (fault/rejuvenation/trigger incidents, flight-dump notices, GK-sketch
  snapshots) while jobs run, and ``GET /api/live`` serves the latest
  snapshot for pollers (``repro top --follow``);
* campaign launches: ``POST /api/campaigns`` hands a request to the
  :class:`~repro.serve.jobs.JobManager`, ``GET /api/campaigns[/<id>]``
  polls status.

The server is strictly an *observer* of the ledger directory it was
pointed at: every GET picks up what was appended to ``runs.jsonl``
since the last one (one shared :class:`~repro.obs.ledger.Ledger`
parses only the new bytes), so entries recorded by concurrent CLI runs
appear without restarts, and nothing in the API mutates simulation
state.  A corrupt ``runs.jsonl`` line is a 500 naming ``PATH:LINE``
on every route that reads the ledger; the connection stays open.

Response cache: the 200 bodies of the ledger routes (``/api/runs``,
``/api/runs/<ref>``, ``/api/diff``, ``/api/baselines``) and the bench
routes (``/api/bench``, ``/api/bench/<name>``) are rendered once per
state and kept by request path, query string included.  The ledger
routes' state is the ledger's generation (it changes exactly when its
entries do) plus the bytes of ``baselines.json``; the bench routes'
state is the ``(name, bytes)`` of every ``BENCH_*.json`` file.  Every
GET still reads that state afresh and renders from what it read, so a
cached body is exactly as fresh as an uncached one; a state change
clears the family's bodies.  Errors and every other route are never
cached, and a family keeps at most :data:`BODY_CACHE_BYTES` of paths
and bodies (it is cleared when the next one would not fit).

Endpoints (see docs/observability.md for the curl tour):

====  =========================  =======================================
GET   ``/``                      self-contained HTML dashboard
GET   ``/api/health``            server facts (version, counts, uptime)
GET   ``/api/runs``              ledger listing; ``kind``/``limit``/
                                 ``offset``/``last`` query parameters
GET   ``/api/runs/<ref>``        one full entry (id, prefix or latest)
GET   ``/api/runs/<ref>/trace/summary``  event counts + latency
                                 quantiles of the run's ``--trace``
                                 artifact (``limit``/``offset``
                                 paginate the per-run rows)
GET   ``/api/diff``              ``left`` vs ``right`` field-by-field
GET   ``/api/baselines``         pinned baselines
GET   ``/api/bench``             benchmark trajectory listing
GET   ``/api/bench/<name>``      one full trajectory + validation
GET   ``/api/policies``          every policy + parameter schema/labels
GET   ``/api/scenarios``         the fault zoo (``horizon`` parameter)
GET   ``/api/live``              latest live snapshot (or ``{}``)
GET   ``/api/events``            Server-Sent Events stream
                                 (``Last-Event-ID`` or ``last_event_id``
                                 replays missed buffered events)
GET   ``/api/campaigns``         job listing
GET   ``/api/campaigns/<id>``    one job's status
POST  ``/api/campaigns``         launch a campaign (JSON body)
POST  ``/api/campaigns/<id>/cancel``  request job cancellation
GET   ``/api/schedules``         recurring-campaign schedules
POST  ``/api/schedules``         add a schedule (JSON spec)
POST  ``/api/schedules/tick``    fire due schedules (virtual clock:
                                 optional ``{"now": seconds}`` body)
GET   ``/api/alerts``            incident table + rule set
====  =========================  =======================================
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.ledger.bench import (
    trajectory_files,
    trajectory_summaries,
    validate_trajectory,
)
from repro.obs.ledger.store import parse_baselines
from repro.serve.broker import EventBroker
from repro.serve.jobs import JobManager

#: Default bind address and port of ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

#: SSE keepalive comment interval (seconds without an event).
SSE_KEEPALIVE_S = 15.0

#: Maximum request body accepted by POST endpoints.
MAX_BODY_BYTES = 1 << 20

#: Most bytes of request paths plus rendered bodies one route family's
#: cache holds: an item that would pass it clears the family first, and
#: a larger one is never kept.  A count bound would let distinct query
#: strings pin that many copies of a whole-ledger listing, and a bound
#: on bodies alone would let long query strings pin their keys.
BODY_CACHE_BYTES = 1 << 20


class ApiError(Exception):
    """An error with an HTTP status, rendered as ``{"error": ...}``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class BodyCache:
    """Rendered 200 JSON bodies of one route family, for one state.

    ``state`` is whatever the family's bodies are rendered from (see
    the module docstring).  A lookup under a new state drops every body
    of the old one, and a body is stored only while the state it was
    rendered from is still the current one.  Rendering happens outside
    the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: Any = None
        self._bodies: Dict[str, bytes] = {}
        #: Total length of the kept keys and bodies.
        self.nbytes = 0

    def get(self, state: Any, key: str) -> Optional[bytes]:
        with self._lock:
            if state != self._state:
                self._state, self._bodies, self.nbytes = state, {}, 0
            return self._bodies.get(key)

    def put(self, state: Any, key: str, body: bytes) -> None:
        size = len(key) + len(body)
        with self._lock:
            if state != self._state or size > BODY_CACHE_BYTES:
                return
            # Two requests for one path may both have rendered it.
            if key in self._bodies:
                self.nbytes -= len(key) + len(self._bodies.pop(key))
            if self.nbytes + size > BODY_CACHE_BYTES:
                self._bodies, self.nbytes = {}, 0
            self._bodies[key] = body
            self.nbytes += size


class ReproServer:
    """The observability server: state + the threaded HTTP listener."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        ledger_dir: Optional[str] = None,
        bench_dir: Optional[str] = None,
        title: str = "repro serve",
        rules: Any = None,
        alerts_dir: Optional[str] = None,
    ) -> None:
        from repro.obs.ledger import Ledger
        from repro.obs.ledger.provenance import version_string
        from repro.obs.sentinel import AlertEngine, AlertLedger, Scheduler
        from repro.obs.sentinel.rules import rules_from_dict

        self.ledger_dir = ledger_dir
        self.bench_dir = bench_dir
        self.title = title
        #: The code this process loaded: computed once (it runs git).
        self.version = version_string()
        #: One incrementally-read ledger shared by every handler
        #: thread, the job manager and the alert engine.
        self._ledger = Ledger(ledger_dir)
        self.broker = EventBroker()
        self.jobs = JobManager(broker=self.broker, ledger=self._ledger)
        self.scheduler = Scheduler(self.jobs)
        if isinstance(rules, dict):
            rules = rules_from_dict(rules)
        self.sentinel = AlertEngine(
            rules=rules or (),
            ledger=self._ledger,
            alerts=(
                AlertLedger(alerts_dir) if alerts_dir is not None else None
            ),
        )
        self.sentinel.attach(self.broker)
        self.ledger_bodies = BodyCache()
        self.bench_bodies = BodyCache()
        self.started = time.monotonic()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        # The handler reaches back through the server object.
        self._httpd.repro = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        #: Whether a serve loop was entered (or is about to be): only
        #: then does ``close`` have a loop to wait for.
        self._serving = False
        self._ticker: Optional[threading.Thread] = None
        self._ticker_stop = threading.Event()

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def ledger(self):
        return self._ledger

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Block serving requests (the ``repro serve`` foreground path)."""
        self._serving = True
        self._httpd.serve_forever(poll_interval=0.2)

    def start(self) -> "ReproServer":
        """Serve on a daemon thread (tests, benchmarks); returns self."""
        self._serving = True
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def start_ticker(self, every_s: float) -> None:
        """Drive the scheduler from the wall clock (foreground serving).

        Tests and CI never call this: they disable the ticker and POST
        ``/api/schedules/tick`` with explicit virtual times instead, so
        schedule behaviour stays deterministic.
        """
        if self._ticker is not None:
            return

        def _run() -> None:
            while not self._ticker_stop.wait(every_s):
                try:
                    self.scheduler.tick(time.time())
                except Exception:  # pragma: no cover - keep ticking
                    pass

        self._ticker = threading.Thread(
            target=_run, name="repro-serve-ticker", daemon=True
        )
        self._ticker.start()

    def close(self) -> None:
        self._ticker_stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=5.0)
            self._ticker = None
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class _Handler(BaseHTTPRequestHandler):
    """Routing, JSON envelopes, and the SSE writer."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # A buffered wfile sends headers and body in one write when both
    # fit its 8 KiB buffer (the per-request flush in handle_one_request
    # pushes it out; the SSE writers flush themselves).  TCP_NODELAY
    # keeps Nagle from holding a keep-alive response -- or the second
    # send of a larger body -- until the client's delayed ACK.
    disable_nagle_algorithm = True
    wbufsize = -1

    # Quiet by default: per-request lines are noise under test/CI.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def app(self) -> ReproServer:
        return self.server.repro  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        path, query = self._split()
        try:
            if path in ("/", "/dashboard"):
                return self._send_html(self._dashboard())
            if path == "/api/health":
                return self._send_json(self._health())
            if path == "/api/runs":
                return self._send_ledger(
                    lambda entries, pins: self._runs(entries, pins, query)
                )
            if path.startswith("/api/runs/") and path.endswith(
                "/trace/summary"
            ):
                ref = path[
                    len("/api/runs/") : -len("/trace/summary")
                ]
                return self._send_json(self._trace_summary(ref, query))
            if path.startswith("/api/runs/"):
                ref = path[len("/api/runs/") :]
                return self._send_ledger(
                    lambda entries, _pins: self._run_entry(entries, ref)
                )
            if path == "/api/diff":
                return self._send_ledger(
                    lambda entries, _pins: self._diff(entries, query)
                )
            if path == "/api/baselines":
                return self._send_ledger(
                    lambda _entries, pins: {"baselines": pins}
                )
            if path == "/api/bench":
                return self._send_bench(
                    lambda files: {"trajectories": trajectory_summaries(files)}
                )
            if path.startswith("/api/bench/"):
                name = path[len("/api/bench/") :]
                return self._send_bench(
                    lambda files: self._bench_one(files, name)
                )
            if path == "/api/policies":
                return self._send_json(self._policies())
            if path == "/api/scenarios":
                return self._send_json(self._scenarios(query))
            if path == "/api/live":
                return self._send_json(
                    self.app.broker.latest_snapshot or {}
                )
            if path == "/api/events":
                return self._stream_events(query)
            if path == "/api/campaigns":
                return self._send_json({"jobs": self.app.jobs.jobs()})
            if path.startswith("/api/campaigns/"):
                job_id = path[len("/api/campaigns/") :]
                return self._send_json({"job": self.app.jobs.get(job_id)})
            if path == "/api/schedules":
                return self._send_json(
                    {"schedules": self.app.scheduler.states()}
                )
            if path.startswith("/api/schedules/"):
                name = path[len("/api/schedules/") :]
                return self._send_json(
                    {"schedule": self.app.scheduler.get(name)}
                )
            if path == "/api/alerts":
                return self._send_json(self.app.sentinel.to_payload())
            raise ApiError(404, f"no such endpoint: {path}")
        except ApiError as error:
            self._send_json({"error": str(error)}, status=error.status)
        except LookupError as error:
            self._send_json({"error": str(error)}, status=404)
        except ValueError as error:  # a corrupt ledger line or file
            self._send_json({"error": str(error)}, status=500)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        path, _ = self._split()
        try:
            if path == "/api/campaigns":
                job = self.app.jobs.submit_campaign(self._read_json_body())
                return self._send_json({"job": job}, status=202)
            if path.startswith("/api/campaigns/") and path.endswith(
                "/cancel"
            ):
                job_id = path[len("/api/campaigns/") : -len("/cancel")]
                job = self.app.jobs.cancel(job_id)
                return self._send_json({"job": job}, status=202)
            if path == "/api/schedules":
                body = self._read_json_body()
                # Virtual-clock add time: a client driving explicit
                # ticks pins "now" so first-due is deterministic.
                now = self._now(body.pop("now", time.time()))
                schedule = self.app.scheduler.add(body, now=now)
                return self._send_json({"schedule": schedule}, status=201)
            if path == "/api/schedules/tick":
                body = self._read_json_body(optional=True)
                now = self._now(body.get("now", time.time()))
                launched = self.app.scheduler.tick(now)
                return self._send_json(
                    {"now": now, "launched": launched}, status=200
                )
            raise ApiError(404, f"no such endpoint: {path}")
        except ApiError as error:
            self._send_json({"error": str(error)}, status=error.status)
        except ValueError as error:  # a body the validators rejected
            self._send_json({"error": str(error)}, status=400)
        except LookupError as error:  # an unknown job id
            self._send_json({"error": str(error)}, status=404)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    # ------------------------------------------------------------------
    # Endpoint bodies
    # ------------------------------------------------------------------
    def _health(self) -> Dict[str, Any]:
        app = self.app
        return {
            "status": "ok",
            "version": app.version,
            "ledger_dir": app.ledger().directory,
            "runs": len(app.ledger().entries()),
            "subscribers": app.broker.subscriber_count,
            "events_published": app.broker.published,
            "jobs": len(app.jobs.jobs()),
            "schedules": len(app.scheduler),
            "alerts_open": app.sentinel.open_count,
            "uptime_s": round(time.monotonic() - app.started, 3),
        }

    def _runs(
        self,
        entries: List[Dict[str, Any]],
        baselines: Dict[str, Any],
        query: Dict[str, str],
    ) -> Dict[str, Any]:
        from repro.obs.ledger.summary import runs_payload

        try:
            return runs_payload(
                entries,
                baselines,
                kind=query.get("kind"),
                limit=self._int_param(query, "limit"),
                offset=self._int_param(query, "offset") or 0,
                last=self._int_param(query, "last"),
            )
        except ValueError as error:
            raise ApiError(400, str(error)) from None

    def _run_entry(
        self, entries: List[Dict[str, Any]], ref: str
    ) -> Dict[str, Any]:
        if not ref:
            raise ApiError(404, "missing run ref")
        return self.app.ledger().resolve(ref, entries)

    def _trace_summary(
        self, ref: str, query: Dict[str, str]
    ) -> Dict[str, Any]:
        """Event counts and latency quantiles of a run's trace artifact.

        The entry must carry a ``trace`` artifact path (runs recorded
        by ``--trace`` do); the file may be JSONL or columnar, plain or
        gzipped -- both summarise identically.  Per-run rows paginate
        with ``limit``/``offset`` exactly like ``GET /api/runs``
        (``total`` reports the unpaginated run count).
        """
        import os

        import numpy as np

        from repro.obs.columnar.io import sniff_format
        from repro.obs.columnar.query import (
            exact_percentile,
            load_query,
        )
        from repro.obs.events import (
            REQUEST_COMPLETE,
            SYSTEM_REJUVENATION,
        )
        from repro.obs.ledger.summary import page

        if not ref:
            raise ApiError(404, "missing run ref")
        entry = self.app.ledger().get(ref)
        trace_path = (entry.get("artifacts") or {}).get("trace")
        if not trace_path:
            raise ApiError(
                404,
                f"run {entry['id']} has no trace artifact -- re-run "
                "with --trace PATH to record one",
            )
        if not os.path.exists(trace_path):
            raise ApiError(
                404, f"trace artifact missing on disk: {trace_path}"
            )
        trace_query = load_query(trace_path)
        values = np.sort(
            np.asarray(trace_query.response_times(), dtype=np.float64)
        )
        quantiles = (
            {
                f"p{int(q * 100):02d}": float(
                    exact_percentile(values, q)
                )
                for q in (0.50, 0.90, 0.95, 0.99)
            }
            if values.shape[0]
            else {}
        )
        views = trace_query.run_views()
        try:
            offset, window = page(
                views,
                self._int_param(query, "limit"),
                self._int_param(query, "offset") or 0,
            )
        except ValueError as error:
            raise ApiError(400, str(error)) from None
        runs = []
        for view in window:
            meta = view.meta or {}
            counts = view.counts()
            runs.append(
                {
                    "run": view.run_id,
                    "records": view.n_records,
                    "tag": list(meta.get("tag") or ()),
                    "seed": meta.get("seed"),
                    "completions": counts.get(REQUEST_COMPLETE, 0),
                    "rejuvenations": counts.get(
                        SYSTEM_REJUVENATION, 0
                    ),
                }
            )
        return {
            "id": entry["id"],
            "trace": trace_path,
            "format": sniff_format(trace_path),
            "records": trace_query.n_records,
            "events_by_kind": trace_query.counts(),
            "latency_quantiles": quantiles,
            "total": len(views),
            "offset": offset,
            "count": len(runs),
            "runs": runs,
        }

    def _diff(
        self, entries: List[Dict[str, Any]], query: Dict[str, str]
    ) -> Dict[str, Any]:
        from repro.obs.ledger import diff_entries

        left_ref = query.get("left")
        right_ref = query.get("right")
        if not left_ref or not right_ref:
            raise ApiError(400, "diff needs left and right query params")
        ledger = self.app.ledger()
        left = ledger.resolve(left_ref, entries)
        right = ledger.resolve(right_ref, entries)
        differences = diff_entries(left, right)
        return {
            "left": left["id"],
            "right": right["id"],
            "identical": not differences,
            "differences": differences,
        }

    @staticmethod
    def _bench_one(
        files: Sequence[Tuple[str, bytes]], name: str
    ) -> Dict[str, Any]:
        raw = dict(files).get(name)
        if raw is None:
            raise ApiError(404, f"no trajectory {name!r}")
        trajectory = json.loads(raw)
        trajectory["problems"] = validate_trajectory(trajectory)
        return trajectory

    def _policies(self) -> Dict[str, Any]:
        """Every constructible policy with its parameter schema.

        ``policies`` mirrors :func:`repro.core.factory.policy_schema`
        (the same validation that rejects a bad ``POST /api/campaigns``
        body), ``labels`` the campaign spellings ``resolve_policies``
        accepts on top of the factory names -- the paper trio at its
        Section-5.6 parameters plus the :mod:`repro.detect` lineup.
        """
        from repro.core.factory import policy_schema
        from repro.detect import DETECTOR_POLICIES
        from repro.faults.campaign import DEFAULT_POLICIES

        labels = [
            {"label": label, "policy": spec.name, "params": dict(spec.params)}
            for mapping in (DEFAULT_POLICIES, DETECTOR_POLICIES)
            for label, spec in mapping.items()
        ]
        return {"policies": policy_schema(), "labels": labels}

    def _scenarios(self, query: Dict[str, str]) -> Dict[str, Any]:
        from repro.faults.zoo import builtin_scenarios, check_horizon

        horizon = self._float_param(query, "horizon")
        try:
            horizon = check_horizon(900.0 if horizon is None else horizon)
        except ValueError as error:
            raise ApiError(400, str(error)) from None
        out = []
        for scenario in builtin_scenarios(horizon).values():
            out.append(
                {
                    "name": scenario.name,
                    "description": scenario.description,
                    "n_transactions": scenario.n_transactions,
                    "injections": len(scenario.injections),
                    "degraded_intervals": len(scenario.degraded),
                }
            )
        return {"horizon_s": horizon, "scenarios": out}

    def _dashboard(self) -> str:
        from repro.serve.dashboard import render_dashboard

        return render_dashboard(
            {
                "title": self.app.title,
                "version": self.app.version,
                "ledger_dir": self.app.ledger().directory,
            }
        )

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------
    def _stream_events(self, query: Dict[str, str]) -> None:
        """The Server-Sent-Events channel over the broker.

        ``max_events`` / ``timeout_s`` close the stream after that many
        events or seconds -- curl- and test-friendly bounds; browsers
        simply reconnect their ``EventSource``.  The stream opens with
        an ``sse.hello`` event (subscription id + replayed count) so a
        client knows it is attached before anything fires.

        A reconnecting client sends the last ``id:`` it saw -- the
        standard ``Last-Event-ID`` header (``EventSource`` does this
        automatically) or a ``last_event_id`` query parameter -- and
        the broker prefills every buffered event after it, so a restart
        of the *client* loses nothing the replay ring still holds.
        """
        max_events = self._int_param(query, "max_events")
        timeout_s = self._float_param(query, "timeout_s")
        after_seq = self._int_param(query, "last_event_id")
        if after_seq is None:
            header = self.headers.get("Last-Event-ID")
            if header is not None:
                try:
                    after_seq = int(header)
                except ValueError:
                    raise ApiError(
                        400, "Last-Event-ID must be an integer"
                    ) from None
        subscription = self.app.broker.subscribe(after_seq=after_seq)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-store")
            # Close-delimited stream: no Content-Length, no keep-alive.
            self.send_header("Connection", "close")
            self.end_headers()
            self._write_sse(
                "sse.hello",
                {
                    "subscription": subscription.id,
                    "replayed": subscription.replayed,
                },
            )
            sent = 0
            deadline = (
                time.monotonic() + timeout_s
                if timeout_s is not None
                else None
            )
            while max_events is None or sent < max_events:
                wait = SSE_KEEPALIVE_S
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    wait = min(wait, remaining)
                try:
                    event = subscription.get(timeout=wait)
                except queue.Empty:
                    if deadline is None:
                        self.wfile.write(b": keepalive\n\n")
                        self.wfile.flush()
                    continue
                self._write_sse(
                    event["event"], event["data"], event["seq"]
                )
                sent += 1
        except (BrokenPipeError, ConnectionResetError):
            pass  # client disconnected; normal SSE lifecycle
        finally:
            subscription.close()

    def _write_sse(
        self, etype: str, data: Dict[str, Any], seq: Optional[int] = None
    ) -> None:
        chunk = [f"event: {etype}"]
        if seq is not None:
            chunk.append(f"id: {seq}")
        chunk.append(f"data: {json.dumps(data, sort_keys=True)}")
        self.wfile.write(("\n".join(chunk) + "\n\n").encode("utf-8"))
        self.wfile.flush()

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _split(self) -> Tuple[str, Dict[str, str]]:
        parts = urlsplit(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parts.query).items()
        }
        path = parts.path.rstrip("/") or "/"
        return path, query

    @staticmethod
    def _int_param(query: Dict[str, str], name: str) -> Optional[int]:
        raw = query.get(name)
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            raise ApiError(400, f"{name} must be an integer") from None

    @staticmethod
    def _now(value: Any) -> float:
        """A body's virtual-clock ``now`` as seconds, or a 400."""
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ApiError(400, "now must be a number") from None

    @staticmethod
    def _float_param(query: Dict[str, str], name: str) -> Optional[float]:
        raw = query.get(name)
        if raw is None:
            return None
        try:
            return float(raw)
        except ValueError:
            raise ApiError(400, f"{name} must be a number") from None

    def _read_json_body(self, optional: bool = False) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ApiError(400, "Content-Length must be an integer") from None
        if length <= 0:
            if optional:
                return {}
            raise ApiError(400, "a JSON request body is required")
        if length > MAX_BODY_BYTES:
            raise ApiError(413, "request body too large")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ApiError(400, f"bad JSON body: {error}") from None
        if not isinstance(body, dict):
            raise ApiError(400, "request body must be a JSON object")
        return body

    def _send_ledger(
        self, render: Callable[[List[Dict[str, Any]], Dict[str, Any]], Any]
    ) -> None:
        """Send ``render(entries, baselines)`` of one ledger read."""
        ledger = self.app.ledger()
        generation, entries = ledger.snapshot()
        raw = ledger.baselines_bytes()
        self._send_cached(
            self.app.ledger_bodies,
            (generation, raw),
            lambda: render(entries, parse_baselines(raw)),
        )

    def _send_bench(
        self, render: Callable[[List[Tuple[str, bytes]]], Any]
    ) -> None:
        """Send ``render(files)`` of one read of the bench directory."""
        files = trajectory_files(self.app.bench_dir)
        self._send_cached(
            self.app.bench_bodies, tuple(files), lambda: render(files)
        )

    def _send_cached(
        self, cache: BodyCache, state: Any, render: Callable[[], Any]
    ) -> None:
        """Send the body ``render()`` gives in ``state``, rendered once.

        A render that raises caches nothing, so errors are re-derived
        on every request.
        """
        body = cache.get(state, self.path)
        if body is None:
            body = _json_body(render())
            cache.put(state, self.path, body)
        self._send_json_bytes(body)

    def _send_json(self, payload: Any, status: int = 200) -> None:
        self._send_json_bytes(_json_body(payload), status)

    def _send_json_bytes(self, body: bytes, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_html(self, page: str, status: int = 200) -> None:
        body = page.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def _json_body(payload: Any) -> bytes:
    # Trailing newline keeps bodies byte-identical to the CLI's
    # printed JSON (``cmp``-able) and curl-friendly.
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
        "utf-8"
    )
