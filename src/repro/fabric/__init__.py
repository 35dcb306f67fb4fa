"""Durable state under the sweep engine: the result store.

:class:`~repro.experiments.runner.SweepRunner` is the one sweep engine;
everything it keeps on disk lives in one store directory: the shards
below, ``events.jsonl`` and one ``manifest-<run_id>.json`` per run
(:mod:`repro.obs.provenance`), which ``repro sweep --resume RUN_ID``
reads back.  No batch plan is on disk: the runner's parent process
cuts the pending points into batches, hands them out and tracks them.

* :mod:`repro.fabric.store` — the result store: records sharded into
  JSONL files by key-hash range, which are its only state (a lookup
  reads one shard), and ``compact``.
* :mod:`repro.fabric.io` — the two crash-safe write idioms every byte
  the engine writes goes through (lint rule FAB001).

Attribute access is lazy (PEP 562): ``import repro.fabric`` loads no
submodule until one of its names is used.
"""

from __future__ import annotations

from typing import Any, List

_EXPORTS = {
    "append_record": "repro.fabric.io",
    "atomic_write_text": "repro.fabric.io",
    "atomic_write_json": "repro.fabric.io",
    "canonical_json": "repro.fabric.io",
    "ShardedResultStore": "repro.fabric.store",
    "StoredResult": "repro.fabric.store",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.fabric' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(__all__)
