"""Sweep service: submit/stream/query StudySpecs over plain HTTP.

The multi-frontend layer over the sweep engine (DESIGN.md §11): many
concurrent clients share one content-hash-deduped
:class:`~repro.fabric.store.ShardedResultStore` through the standard
library's threaded HTTP server, one daemon thread per connection —

- :mod:`repro.service.auth` — static bearer-token auth with
  constant-time comparison;
- :mod:`repro.service.jobs` — spec-hash job dedup under a lock and
  execution via ``SweepRunner`` in an executor thread per job;
- :mod:`repro.service.app` — the request handler (the input limits,
  routing, JSON answers), a job's event stream (its run's records
  read straight from the store's ``events.jsonl`` as Server-Sent
  Events), signal handling and the graceful drain: SIGTERM stops
  every job at a point boundary, its manifest on disk for ``repro
  sweep --resume``.

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
