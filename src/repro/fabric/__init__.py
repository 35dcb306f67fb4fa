"""Durable state under the sweep engine: store and journal.

:class:`~repro.experiments.runner.SweepRunner` is the one sweep engine;
this package holds everything it keeps on disk, all of it in one store
directory.  Which batch a worker process holds is not on disk: the
runner's parent process hands out the batches and tracks them.

* :mod:`repro.fabric.store` — the only writable result store: records
  sharded into JSONL files by key-hash range, which are its only state
  (a lookup reads one shard), ``compact``, and the import of flat
  ``store.jsonl`` files, read only as input.
* :mod:`repro.fabric.journal` — the atomic per-run plan behind
  ``repro sweep --resume RUN_ID``.
* :mod:`repro.fabric.io` — the two crash-safe write idioms every byte
  above goes through (lint rule FAB001).

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
    "read_flat_store": "repro.fabric.store",
    "SweepJournal": "repro.fabric.journal",
    "BatchPlan": "repro.fabric.journal",
    "load_journal": "repro.fabric.journal",
    "journal_path": "repro.fabric.journal",
    "list_runs": "repro.fabric.journal",
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
