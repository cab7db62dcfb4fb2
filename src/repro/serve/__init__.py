"""``repro serve``: the HTTP observability plane.

One stdlib-only server (:class:`ReproServer`) exposes the run ledger
as a JSON API, streams live telemetry over Server-Sent Events through
an :class:`EventBroker` fed by a :class:`ServeTap` (the tracer-protocol
sink attached to background runs), launches fault campaigns via a
:class:`JobManager`, and renders a self-contained HTML dashboard.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "DEFAULT_HOST": ".app",
    "DEFAULT_PORT": ".app",
    "ReproServer": ".app",
    "EventBroker": ".broker",
    "Subscription": ".broker",
    "render_dashboard": ".dashboard",
    "Job": ".jobs",
    "JobCancelled": ".jobs",
    "JobManager": ".jobs",
    "ServeSpec": ".tap",
    "ServeTap": ".tap",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
