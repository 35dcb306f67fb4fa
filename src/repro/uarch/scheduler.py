"""Reservation-station scheduler with the Table 2 field layout.

Each of the (by default 32) scheduler slots stores one uop as the field
bundle of Table 2 of the paper.  Internally a slot is one flattened
144-bit row of a single :class:`~repro.uarch.bitbias.BitBiasAccumulator`
(per-field accumulators would record ~18x more intervals per dispatch);
field views are recovered by slicing with the layout offsets.
Conceptually each field still behaves as "an independent structure"
(Section 3.2.2): mechanisms address fields by name and the statistics
report per-field bias.

Baseline semantics: a released slot keeps its stale payload and only the
``valid`` bit drops to 0 — which is why flags/shift/latency bits show
near-100% bias in Figure 8 (baseline) and why the valid bit itself cannot
be protected.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    np = None  # type: ignore[assignment]

from repro.metrics import MetricSet
from repro.uarch.bitbias import BitBiasAccumulator
from repro.uarch.uop import SCHEDULER_LAYOUT, SchedulerLayout, Uop


@dataclass(frozen=True)
class SchedulerStats:
    """End-of-run statistics of the scheduler."""

    entries: int
    layout: SchedulerLayout
    allocations: int
    occupancy: float
    port_free_fraction: float
    field_bias: Dict[str, "np.ndarray"]
    special_writes: int
    discarded_special_writes: int

    def flattened_bias(self, include_opcode: bool = False):
        """Per-bit bias in Table 2 order (Figure 8's X axis).

        Figure 8 omits the opcode bits ("they depend strongly on the
        implementation"); pass ``include_opcode=True`` to keep them.
        Returns a float64 array, or a list without numpy.
        """
        parts = []
        for name in self.layout.fields():
            if name == "opcode" and not include_opcode:
                continue
            parts.append(self.field_bias[name])
        if np is None:
            return [b for part in parts for b in part]
        return np.concatenate(parts)

    def worst_bias(self, include_opcode: bool = False) -> float:
        bias = self.flattened_bias(include_opcode)
        return float(max(max(b, 1.0 - b) for b in bias))

    def worst_field(self) -> Tuple[str, float]:
        """(field, worst bias) of the most imbalanced protected field."""
        worst_name, worst_value = "", 0.0
        for name, bias in self.field_bias.items():
            imbalance = float(max(max(b, 1.0 - b) for b in bias))
            if imbalance > worst_value:
                worst_name, worst_value = name, imbalance
        return worst_name, worst_value


class Scheduler:
    """The scheduler structure (explicitly managed, short idle time)."""

    def __init__(
        self,
        entries: int = 32,
        layout: SchedulerLayout = SCHEDULER_LAYOUT,
        alloc_ports: int = 4,
        name: str = "scheduler",
    ) -> None:
        if entries <= 0:
            raise ValueError("entries must be positive")
        if alloc_ports <= 0:
            raise ValueError("alloc_ports must be positive")
        self.name = name
        self.entries = entries
        self.layout = layout
        self.alloc_ports = alloc_ports
        self._offsets = layout.bit_offsets()
        #: field -> (first bit, value mask, mask clearing the field)
        self._spans = {
            field: (start, (1 << width) - 1, ~(((1 << width) - 1) << start))
            for field, (start, width) in self._offsets.items()
        }
        self.bias = BitBiasAccumulator(entries, layout.total_bits)
        self._init_run_state()

    def _init_run_state(self) -> None:
        entries = self.entries
        self._slot_value: List[int] = [0] * entries
        self._free: List[Tuple[float, int, int]] = [
            (0.0, i, i) for i in range(entries)
        ]
        heapq.heapify(self._free)
        self._counter = entries
        self._busy = [False] * entries
        self._busy_since = [0.0] * entries
        self._busy_time = 0.0
        self._allocations = 0
        self._special_writes = 0
        self._discarded_special = 0
        self._port_use: Dict[int, int] = {}
        self._port_checks = 0
        self._port_free_hits = 0
        self._horizon = 0.0

    def reset(self) -> None:
        """Restore the freshly-constructed state (reusable across runs)."""
        self.bias.reset()
        self._init_run_state()

    # ------------------------------------------------------------------
    # Workload interface
    # ------------------------------------------------------------------
    def allocate(self, now: float) -> Optional[int]:
        """Take a slot free at time ``now`` (None when none is)."""
        if not self._free or self._free[0][0] > now:
            return None
        __, __, slot = heapq.heappop(self._free)
        self._busy[slot] = True
        self._busy_since[slot] = now
        self._allocations += 1
        self._horizon = max(self._horizon, now)
        return slot

    def next_free_time(self) -> Optional[float]:
        if not self._free:
            return None
        return self._free[0][0]

    def fill(
        self,
        slot: int,
        uop: Uop,
        mob_id: Optional[int],
        now: float,
        dst_tag: int = 0,
        src1_tag: int = 0,
        src2_tag: int = 0,
    ) -> None:
        """Write a dispatched uop's payload into a slot.

        The tag operands are *physical* register ids from rename — the
        paper relies on their even usage making the tag fields
        self-balanced (Section 4.5).
        """
        self._check_slot(slot)
        self._use_port(now)
        values = self.field_values(uop, mob_id, dst_tag, src1_tag, src2_tag)
        self._write_fields(slot, values, now)

    def set_field(self, slot: int, field: str, value: int, now: float) -> None:
        """Update one field during residency (ready bits, data capture)."""
        self._check_slot(slot)
        self._write_fields(slot, {field: value}, now)

    def release(self, slot: int, now: float) -> None:
        """Free a slot at issue; payload stays stale, valid drops to 0."""
        self._check_slot(slot)
        if not self._busy[slot]:
            raise ValueError(f"slot {slot} is not busy")
        self._write_fields(slot, {"valid": 0}, now)
        self._busy[slot] = False
        self._busy_time += now - self._busy_since[slot]
        self._counter += 1
        heapq.heappush(self._free, (now, self._counter, slot))

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def port_available(self, now: float) -> bool:
        """Whether an allocate port is idle in this cycle (77% on avg)."""
        self._port_checks += 1
        free = self._port_use.get(int(now), 0) < self.alloc_ports
        if free:
            self._port_free_hits += 1
        return free

    def write_special(
        self, slot: int, values: Mapping[str, int], now: float
    ) -> bool:
        """Mechanism write of selected fields into a *free* slot."""
        self._check_slot(slot)
        if "valid" in values:
            raise ValueError("the valid bit cannot hold repair data")
        if self._busy[slot] or not self.port_available(now):
            self._discarded_special += 1
            return False
        self._use_port(now)
        self._write_fields(slot, values, now)
        self._special_writes += 1
        return True

    def is_busy(self, slot: int) -> bool:
        self._check_slot(slot)
        return self._busy[slot]

    def field_value(self, slot: int, field: str) -> int:
        """Current value of one field of a slot."""
        self._check_slot(slot)
        start, width = self._field_span(field)
        return (self._slot_value[slot] >> start) & ((1 << width) - 1)

    # ------------------------------------------------------------------
    # Payload decoding
    # ------------------------------------------------------------------
    def field_values(
        self,
        uop: Uop,
        mob_id: Optional[int],
        dst_tag: int = 0,
        src1_tag: int = 0,
        src2_tag: int = 0,
    ) -> Dict[str, int]:
        """Table 2 payload for a dispatched uop.

        ``ready1``/``ready2`` start at 0 and are raised by
        :meth:`set_field` when operands arrive; ``src*_data`` capture the
        operand values (data-capture scheduler); the tags are physical
        register ids.  ``mob_id`` is None for non-memory uops: the field
        keeps its stale contents, so its residency reflects only the
        evenly-used MOB slot ids (the paper's self-balancing argument).
        """
        layout = self.layout
        data_mask = (1 << layout.src1_data) - 1
        values = {
            "valid": 1,
            "latency": min(uop.latency, (1 << layout.latency) - 1),
            "port": (1 << uop.port) & ((1 << layout.port) - 1),
            "taken": int(uop.taken),
            "tos": uop.tos & ((1 << layout.tos) - 1),
            "flags": uop.flags & ((1 << layout.flags) - 1),
            "shift1": int(uop.shift1),
            "shift2": int(uop.shift2),
            "dst_tag": dst_tag & ((1 << layout.dst_tag) - 1),
            "src1_tag": src1_tag & ((1 << layout.src1_tag) - 1),
            "src2_tag": src2_tag & ((1 << layout.src2_tag) - 1),
            "ready1": 0,
            "ready2": 0,
            "src1_data": uop.src1_value & data_mask,
            "src2_data": uop.src2_value & data_mask,
            "immediate": uop.immediate & ((1 << layout.immediate) - 1),
            "opcode": uop.opcode & ((1 << layout.opcode) - 1),
        }
        if mob_id is not None:
            values["mob_id"] = mob_id & ((1 << layout.mob_id) - 1)
        return values

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def finalize(self, now: Optional[float] = None) -> SchedulerStats:
        end = max(now if now is not None else 0.0, self._horizon)
        for slot in range(self.entries):
            if self._busy[slot]:
                self._busy_time += end - self._busy_since[slot]
                self._busy_since[slot] = end
        self.bias.finalize(end)
        total_time = end * self.entries
        occupancy = self._busy_time / total_time if total_time > 0.0 else 0.0
        port_free = (
            self._port_free_hits / self._port_checks
            if self._port_checks else 1.0
        )
        flat_bias = self.bias.bias_to_zero()
        field_bias = {
            field: flat_bias[start:start + width]
            for field, (start, width) in self._offsets.items()
        }
        return SchedulerStats(
            entries=self.entries,
            layout=self.layout,
            allocations=self._allocations,
            occupancy=occupancy,
            port_free_fraction=port_free,
            field_bias=field_bias,
            special_writes=self._special_writes,
            discarded_special_writes=self._discarded_special,
        )

    # ------------------------------------------------------------------
    # Telemetry (MetricSource)
    # ------------------------------------------------------------------
    def metrics(self) -> MetricSet:
        """Live metric tree over the scheduler's counters.

        ``bias.worst_bias`` covers the whole 144-bit row (valid and
        opcode bits included), unlike ``SchedulerStats.worst_bias``
        which follows Figure 8 in omitting the opcode field.
        """
        ms = MetricSet()
        ms.counter("allocations", read=lambda: self._allocations)
        ms.counter("special_writes", read=lambda: self._special_writes)
        ms.counter("discarded_special_writes",
                   read=lambda: self._discarded_special)
        ms.counter("port_checks", read=lambda: self._port_checks)
        ms.counter("port_free_hits", read=lambda: self._port_free_hits)
        ms.ratio("port_free_fraction", numerator="port_free_hits",
                 denominator="port_checks", zero=1.0,
                 help="no checks yet means every port is free "
                      "(finalize()'s convention)")
        ms.child("bias", self.bias.metrics())
        return ms

    # ------------------------------------------------------------------
    def _write_fields(
        self, slot: int, values: Mapping[str, int], now: float
    ) -> None:
        composed = self._slot_value[slot]
        spans = self._spans
        for field, value in values.items():
            if field not in spans:
                raise KeyError(f"unknown scheduler field {field!r}")
            start, mask, clear = spans[field]
            if value < 0 or value > mask:
                raise ValueError(
                    f"value {value!r} does not fit field {field!r}"
                )
            composed = (composed & clear) | (value << start)
        self._slot_value[slot] = composed
        self.bias.set_value(slot, composed, now)
        if now > self._horizon:
            self._horizon = now

    def _field_span(self, field: str) -> Tuple[int, int]:
        try:
            return self._offsets[field]
        except KeyError:
            raise KeyError(f"unknown scheduler field {field!r}") from None

    def _use_port(self, now: float) -> None:
        cycle = int(now)
        self._port_use[cycle] = self._port_use.get(cycle, 0) + 1

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.entries:
            raise IndexError(f"slot index out of range: {slot}")
