"""Reservation-station scheduler with the Table 2 field layout.

Each of the (by default 32) scheduler slots stores one uop as the field
bundle of Table 2 of the paper.  Internally a slot is one entry of an
:class:`~repro.uarch.entries.EntryArray`: one flattened 144-bit row,
one int (per-field accumulators would record ~18x more intervals per
dispatch); field views decode the row (DESIGN.md, "Scheduler rows").
Conceptually each field still behaves as "an independent structure"
(Section 3.2.2): mechanisms address fields by name and the statistics
report per-field bias.

Baseline semantics: a released slot keeps its stale payload and only the
``valid`` bit drops to 0 — which is why flags/shift/latency bits show
near-100% bias in Figure 8 (baseline) and why the valid bit itself cannot
be protected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    np = None  # type: ignore[assignment]

from repro.uarch.entries import EntryArray
from repro.uarch.uop import SCHEDULER_LAYOUT, SchedulerLayout, Uop


def row_patch(offsets: Mapping[str, Tuple[int, int]],
              values: Mapping[str, int]) -> Tuple[int, int]:
    """The ``(keep_mask, bits)`` patch writing field ``values`` into a
    row laid out by ``offsets`` as ``(row & keep_mask) | bits``; raises
    KeyError for an unknown field, ValueError for an oversize value."""
    cleared = bits = 0
    for field, value in values.items():
        if field not in offsets:
            raise KeyError(f"unknown scheduler field {field!r}")
        start, width = offsets[field]
        if value < 0 or value >> width:
            raise ValueError(f"value {value!r} does not fit field {field!r}")
        cleared |= ((1 << width) - 1) << start
        bits |= value << start
    return ~cleared, bits


@dataclass(frozen=True, slots=True)
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


class Scheduler(EntryArray):
    """The scheduler structure (explicitly managed, short idle time).

    A slot's entry value is its 144-bit row.  ``alloc_ports`` are the
    ports fills and mechanism writes share (idle 77% of the time on
    average).  The ``bias.worst_bias`` metric covers the whole row
    (valid and opcode bits included), unlike
    :meth:`SchedulerStats.worst_bias`, which follows Figure 8 in
    omitting the opcode field.

    The trace-driven core makes the writes of :meth:`fill`,
    :meth:`set_ready` and :meth:`release` in its own loop, with rows
    from :meth:`compose_row` and values through ``bias.set_value``;
    these methods are the reference it is tested against (see
    :class:`~repro.uarch.entries.EntryArray`).
    """

    __slots__ = ("layout", "_offsets", "_at", "_mask", "_valid_bit",
                 "_ready_bits", "_mob_bits", "_row_constants")

    def __init__(
        self,
        entries: int = 32,
        layout: SchedulerLayout = SCHEDULER_LAYOUT,
        alloc_ports: int = 4,
        name: str = "scheduler",
    ) -> None:
        super().__init__(entries, layout.total_bits, alloc_ports, name)
        self.layout = layout
        self._offsets = layout.bit_offsets()
        #: field -> first bit, and field -> value mask
        self._at = {f: at for f, (at, __) in self._offsets.items()}
        self._mask = {f: (1 << w) - 1 for f, (__, w) in self._offsets.items()}
        at, mask = self._at, self._mask
        self._valid_bit = 1 << at["valid"]
        self._ready_bits = {1: 1 << at["ready1"], 2: 1 << at["ready2"]}
        self._mob_bits = mask["mob_id"] << at["mob_id"]
        #: :meth:`compose_row`'s masks and shifts, in the order it reads
        #: them: one tuple unpack per row instead of a lookup per field
        self._row_constants = (
            self._valid_bit, mask["latency"], at["latency"], mask["port"],
            at["port"], at["taken"], mask["tos"], at["tos"], mask["flags"],
            at["flags"], at["shift1"], at["shift2"], mask["dst_tag"],
            at["dst_tag"], mask["src1_tag"], at["src1_tag"],
            mask["src2_tag"], at["src2_tag"], mask["src1_data"],
            at["src1_data"], mask["src2_data"], at["src2_data"],
            mask["immediate"], at["immediate"], mask["opcode"],
            at["opcode"], mask["mob_id"], at["mob_id"])

    # ------------------------------------------------------------------
    # Workload interface
    # ------------------------------------------------------------------
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
        self._check_entry(slot)
        row = self.compose_row(uop, mob_id, dst_tag, src1_tag, src2_tag)
        if mob_id is None:  # keep the stale MOB id
            row |= self.values[slot] & self._mob_bits
        cycle = int(now)
        self.port_use[cycle] = self.port_use.get(cycle, 0) + 1
        self.bias.set_value(slot, row, now)

    def set_ready(self, slot: int, operand: int, now: float) -> None:
        """Raise the ready bit of source ``operand`` (1 or 2)."""
        bit = self._ready_bits.get(operand)
        if bit is None:
            raise ValueError(f"operand must be 1 or 2, not {operand!r}")
        self._check_entry(slot)
        self.bias.set_value(slot, self.values[slot] | bit, now)

    def set_field(self, slot: int, field: str, value: int, now: float) -> None:
        """Update one field during residency (ready bits, data capture)."""
        self._check_entry(slot)
        keep, bits = row_patch(self._offsets, {field: value})
        self.bias.set_value(slot, (self.values[slot] & keep) | bits, now)

    def release(self, slot: int, now: float) -> None:
        """Free a slot at issue; payload stays stale, valid drops to 0."""
        super().release(slot, now)
        self.bias.set_value(slot, self.values[slot] & ~self._valid_bit, now)

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def write_special(
        self, slot: int, values: Mapping[str, int], now: float
    ) -> bool:
        """Mechanism write of selected fields into a *free* slot."""
        keep, bits = row_patch(self._offsets, values)
        return self.write_patch(slot, keep, bits, now)

    def write_patch(self, slot: int, keep: int, bits: int,
                    now: float) -> bool:
        """:meth:`write_special` of a precomposed :func:`row_patch`; a
        patch that clears or sets the valid bit raises ValueError
        before any port is looked at."""
        self._check_entry(slot)
        if not keep & self._valid_bit or bits & self._valid_bit:
            raise ValueError("the valid bit cannot hold repair data")
        return self._write_special(slot, (self.values[slot] & keep) | bits,
                                   now)

    def field_value(self, slot: int, field: str) -> int:
        """Current value of one field of a slot."""
        self._check_entry(slot)
        if field not in self._at:
            raise KeyError(f"unknown scheduler field {field!r}")
        return (self.values[slot] >> self._at[field]) & self._mask[field]

    # ------------------------------------------------------------------
    # Payload decoding
    # ------------------------------------------------------------------
    def compose_row(self, uop: Uop, mob_id: Optional[int], dst_tag: int = 0,
                    src1_tag: int = 0, src2_tag: int = 0) -> int:
        """Table 2 row of a dispatched uop; the MOB bits are 0 when
        ``mob_id`` is None (:meth:`fill` keeps the stale ones)."""
        (valid, latency_mask, latency_at, port_mask, port_at, taken_at,
         tos_mask, tos_at, flags_mask, flags_at, shift1_at, shift2_at,
         dst_mask, dst_at, src1_mask, src1_at, src2_mask, src2_at,
         data1_mask, data1_at, data2_mask, data2_at, immediate_mask,
         immediate_at, opcode_mask, opcode_at, mob_mask,
         mob_at) = self._row_constants
        row = (valid
               | min(uop.latency, latency_mask) << latency_at
               | ((1 << uop.port) & port_mask) << port_at
               | uop.taken << taken_at
               | (uop.tos & tos_mask) << tos_at
               | (uop.flags & flags_mask) << flags_at
               | uop.shift1 << shift1_at
               | uop.shift2 << shift2_at
               | (dst_tag & dst_mask) << dst_at
               | (src1_tag & src1_mask) << src1_at
               | (src2_tag & src2_mask) << src2_at
               | (uop.src1_value & data1_mask) << data1_at
               | (uop.src2_value & data2_mask) << data2_at
               | (uop.immediate & immediate_mask) << immediate_at
               | (uop.opcode & opcode_mask) << opcode_at)
        if mob_id is not None:
            row |= (mob_id & mob_mask) << mob_at
        return row

    def field_values(
        self,
        uop: Uop,
        mob_id: Optional[int],
        dst_tag: int = 0,
        src1_tag: int = 0,
        src2_tag: int = 0,
    ) -> Dict[str, int]:
        """Table 2 payload for a dispatched uop, decoded from
        :meth:`compose_row`.

        ``ready1``/``ready2`` start at 0 and are raised by
        :meth:`set_ready` when operands arrive; ``src*_data`` capture the
        operand values (data-capture scheduler); the tags are physical
        register ids.  ``mob_id`` is None for non-memory uops: the field
        keeps its stale contents, so its residency reflects only the
        evenly-used MOB slot ids (the paper's self-balancing argument).
        """
        row = self.compose_row(uop, mob_id, dst_tag, src1_tag, src2_tag)
        return {field: (row >> at) & self._mask[field]
                for field, at in self._at.items()
                if field != "mob_id" or mob_id is not None}

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def finalize(self, now: Optional[float] = None) -> SchedulerStats:
        occupancy, port_free = self._finish(now)
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
