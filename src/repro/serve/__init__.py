"""``repro serve``: a long-running shared-cache experiment service.

Many clients, one warm simulation farm: plans POSTed by concurrent
clients run through one job queue, one grid executor, and
one content-addressed result cache, so identical cells are simulated
exactly once no matter how many clients ask. See
:mod:`repro.serve.protocol` for the wire format,
:mod:`repro.serve.jobs` for the queue, :mod:`repro.serve.server` for
the HTTP surface, and :mod:`repro.serve.client` for the stdlib client.
"""

from .jobs import Job, JobManager
from .protocol import (
    JOB_SCHEMA,
    PROBLEMS_SCHEMA,
    PROTOCOL_SCHEMA,
    STATE_COMPLETED,
    STATE_FAILED,
    STATE_PARTIAL,
    STATE_QUEUED,
    STATE_RUNNING,
    TERMINAL_STATES,
    PlanRejected,
)
from .server import ExperimentService


def __getattr__(name):
    # Imported lazily so `python -m repro.serve.client` doesn't load
    # the module twice (runpy warns when __main__ is already in
    # sys.modules as a plain import).
    if name in ("ServeClient", "ServeError"):
        from . import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ServeClient",
    "ServeError",
    "Job",
    "JobManager",
    "JOB_SCHEMA",
    "PROBLEMS_SCHEMA",
    "PROTOCOL_SCHEMA",
    "STATE_COMPLETED",
    "STATE_FAILED",
    "STATE_PARTIAL",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "TERMINAL_STATES",
    "PlanRejected",
    "ExperimentService",
]
