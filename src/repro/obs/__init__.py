"""Observability: execution traces, structured run logs, provenance.

The third leg of the telemetry triad.  :mod:`repro.metrics` (PR 5)
answers *what are the values*; this package answers *when and why*:

- :mod:`repro.obs.trace` — a span-based tracer (``TRACER.span(...)``
  context managers, an allocation-free token form for kernel hot
  paths, a bounded in-memory ring) with Chrome trace-event JSON export
  loadable in Perfetto / ``about://tracing``;
- :mod:`repro.obs.log` — a structured JSONL event stream (run id, span
  id, level, event, payload) with atomic ``O_APPEND`` appends and a
  human console renderer;
- :mod:`repro.obs.provenance` — run manifests recording the git
  revision, package version, interpreter, host, spec hash, worker
  count and per-point wall times of every sweep, written at plan time
  (what a resume reads) and again at the end;
- :mod:`repro.obs.progress` — live sweep progress (rate / ETA) in
  line, JSON, or silent renderings.

The tracer costs nothing measurable while disabled and the differential
tests prove study results are bit-identical with tracing on or off —
observability never changes what is observed (DESIGN.md §7).
"""

from repro.obs.log import (
    EventLog,
    EventTailer,
    LEVELS,
    new_run_id,
    read_events,
    render_event,
    tail_events,
)
from repro.obs.progress import SweepProgress
from repro.obs.provenance import (
    MANIFEST_SCHEMA,
    build_manifest,
    describe_manifest,
    environment_fingerprint,
    git_revision,
    list_runs,
    load_manifest,
    load_run_manifest,
    manifest_path_for,
    spec_hash,
    write_manifest,
)
from repro.obs.trace import (
    TRACER,
    Tracer,
    export_chrome_trace,
    load_spans,
    save_spans,
    to_chrome_trace,
)

__all__ = [
    "EventLog",
    "EventTailer",
    "LEVELS",
    "new_run_id",
    "read_events",
    "render_event",
    "tail_events",
    "SweepProgress",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "describe_manifest",
    "environment_fingerprint",
    "git_revision",
    "list_runs",
    "load_manifest",
    "load_run_manifest",
    "manifest_path_for",
    "spec_hash",
    "write_manifest",
    "TRACER",
    "Tracer",
    "export_chrome_trace",
    "load_spans",
    "save_spans",
    "to_chrome_trace",
]
