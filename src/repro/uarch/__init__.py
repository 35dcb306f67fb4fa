"""Trace-driven microarchitecture substrate.

Open-source stand-in for the "IA32 trace-driven Intel production
simulator" of Section 4.1: a structural model of the blocks the paper
protects, driven by value-carrying uop traces.

- :mod:`repro.uarch.uop` — micro-operation records and Table 2 field
  widths.
- :mod:`repro.uarch.trace` — trace containers and sampling helpers.
- :mod:`repro.uarch.regfile` — physical register files with free lists
  and per-bit-cell residency accounting.
- :mod:`repro.uarch.scheduler` — the reservation-station scheduler with
  the exact Table 2 field layout.
- :mod:`repro.uarch.backends` — set-associative caches with the
  valid/inverted line states the cache-like mechanisms need, behind
  pluggable kernel backends.
- :mod:`repro.uarch.tlb` — the data TLB.
- :mod:`repro.uarch.mob` — Memory Order Buffer id allocation.
- :mod:`repro.uarch.ports` — issue ports and adder-allocation policies.
- :mod:`repro.uarch.core` — :class:`TraceDrivenCore` tying it together.
"""

from repro.uarch.uop import Uop, UopClass, SchedulerLayout, SCHEDULER_LAYOUT
from repro.uarch.trace import Trace, TraceStats
from repro.uarch.regfile import RegisterFile, RegisterFileStats
from repro.uarch.scheduler import Scheduler, SchedulerStats
from repro.uarch.backends import Cache, CacheConfig, CacheStats, LineState
from repro.uarch.tlb import TLB, TLBConfig
from repro.uarch.mob import MemoryOrderBuffer
from repro.uarch.ports import AdderPool, AdderPolicy
from repro.uarch.core import CoreConfig, CoreResult, TraceDrivenCore
from repro.uarch.branch_predictor import (
    BimodalPredictor,
    ProtectedBimodalPredictor,
)
from repro.uarch.traceio import load_trace, save_trace

__all__ = [
    "BimodalPredictor",
    "ProtectedBimodalPredictor",
    "load_trace",
    "save_trace",
    "Uop",
    "UopClass",
    "SchedulerLayout",
    "SCHEDULER_LAYOUT",
    "Trace",
    "TraceStats",
    "RegisterFile",
    "RegisterFileStats",
    "Scheduler",
    "SchedulerStats",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "LineState",
    "TLB",
    "TLBConfig",
    "MemoryOrderBuffer",
    "AdderPool",
    "AdderPolicy",
    "CoreConfig",
    "CoreResult",
    "TraceDrivenCore",
]
