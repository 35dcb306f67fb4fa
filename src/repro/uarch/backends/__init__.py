"""Pluggable kernel backends: the simulation engines behind the caches.

``get_backend("reference")`` is the scalar ground truth;
``get_backend("vectorized")`` is the numpy structure-of-arrays engine
(requires the ``fast`` extra).  Both expose the same
:class:`~repro.uarch.backends.base.KernelBackend` surface and are
bit-identical by contract — see DESIGN.md section 10.

This module is the one backend lookup: specs and ``repro sweep
--backend`` validate names against :func:`backend_names`, and
:class:`~repro.uarch.core.TraceDrivenCore` resolves them here.
"""

from __future__ import annotations

from typing import Dict, List

from repro.uarch.backends.base import KernelBackend
from repro.uarch.backends.reference import (
    Cache,
    CacheConfig,
    CacheStats,
    LineState,
    ReferenceBackend,
)

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "KernelBackend",
    "LineState",
    "ReferenceBackend",
    "backend_names",
    "get_backend",
]

#: Singleton per backend: backends are stateless factories.
_INSTANCES: Dict[str, KernelBackend] = {}


def backend_names() -> List[str]:
    """Known backend names, stable order (reference first)."""
    return ["reference", "vectorized"]


def get_backend(name: str) -> KernelBackend:
    """Resolve a backend name to its (singleton) engine.

    Raises :class:`repro.config.specs.SpecError` for unknown names and
    for ``"vectorized"`` when numpy is not installed (the ``fast``
    extra), so bad spec values fail with one consistent error type.
    """
    cached = _INSTANCES.get(name)
    if cached is not None:
        return cached
    if name == "reference":
        backend: KernelBackend = ReferenceBackend()
    elif name == "vectorized":
        # Deferred so the scalar path never imports (or needs) numpy.
        from repro.uarch.backends.vectorized import VectorizedBackend

        backend = VectorizedBackend()
    else:
        from repro.config.specs import SpecError

        known = ", ".join(backend_names())
        raise SpecError(
            f"unknown kernel backend {name!r}; known backends: {known}"
        )
    _INSTANCES[name] = backend
    return backend
