"""The kernel-backend contract: how simulation engines plug in.

A *kernel backend* owns the innermost simulation loop — cache/TLB tag
replay — behind a small factory surface, so the rest of the stack
(cores, schemes, studies, sweeps) can select an engine per run without
knowing its data layout.

The contract is two **structure factories**
(:meth:`KernelBackend.make_cache`, :meth:`KernelBackend.make_tlb`).
They return objects implementing the full scalar
:class:`~repro.uarch.backends.reference.Cache` surface: geometry setup,
per-access ``access``/``probe``, batched ``replay``, the
victim/invert/shadow queries the inversion schemes drive
(``victim_way`` / ``invert_candidate`` / ``shadow_candidate`` /
``invert_line`` / ``set_shadow`` / counters), plus ``reset()`` and the
``metrics()`` tree.  A backend may accelerate any subset of that
surface, but every operation must stay **bit-identical** to the
reference backend — the differential oracle (``tests/test_backends.py``)
compares ``metrics().flatten()`` and full line-state snapshots, not
tolerances.

Batch-granularity rule: backends may reorder *work* inside one
``replay`` call (e.g. process the k-th access of every set in
one array op) but never the *observable effects* — per-set access
order, LRU movement, and counter totals must match a scalar in-order
execution of the same call.  Anything coupled to the global access
order through a shared RNG (the line-granularity schemes) must take
the scalar path; see DESIGN.md section 10.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:  # imports for annotations only: avoids import cycles
    from repro.uarch.backends.reference import Cache, CacheConfig
    from repro.uarch.tlb import TLB, TLBConfig


class KernelBackend(abc.ABC):
    """One pluggable simulation engine (see module docstring)."""

    __slots__ = ()

    #: Registry name (``"reference"``, ``"vectorized"``, ...).
    name: ClassVar[str] = ""

    # -- structure factories -------------------------------------------
    @abc.abstractmethod
    def make_cache(self, config: "CacheConfig") -> "Cache":
        """A cache instance for ``config`` (full scalar surface)."""

    @abc.abstractmethod
    def make_tlb(self, config: "TLBConfig") -> "TLB":
        """A TLB instance for ``config`` (full scalar surface)."""
