"""Sweep service: submit/stream/query StudySpecs over plain HTTP.

The multi-frontend layer over the sweep engine (DESIGN.md §11): many
concurrent clients share one content-hash-deduped
:class:`~repro.fabric.store.ShardedResultStore` through a small,
stdlib-only asyncio server —

- :mod:`repro.service.http` — hand-rolled HTTP/1.1 request parsing and
  response rendering, including the Server-Sent Events lines of a
  job's event stream;
- :mod:`repro.service.auth` — static bearer-token auth with
  constant-time comparison;
- :mod:`repro.service.jobs` — spec-hash job dedup and execution via
  ``SweepRunner`` in an executor thread per job;
- :mod:`repro.service.app` — routing, a job's event stream (its run's
  records read straight from the store's ``events.jsonl``), signal
  handling, graceful drain: SIGTERM stops every job at a point
  boundary, its manifest on disk for ``repro sweep --resume``.

Run it with ``repro serve``; talk to it with
:class:`repro.client.ServiceClient` or plain ``curl`` (``curl -N`` for
a job's stream).
"""

from repro.service.app import SweepService
from repro.service.auth import TokenAuth
from repro.service.jobs import Job, JobManager

__all__ = [
    "Job",
    "JobManager",
    "SweepService",
    "TokenAuth",
]
