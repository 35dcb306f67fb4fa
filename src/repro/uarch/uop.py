"""Micro-operation records and the Table 2 scheduler field layout.

IA32 instructions are split into uops (Section 4.5); the scheduler holds
one uop per slot with the field layout of Table 2 of the paper.  The
:class:`Uop` record carries both architectural information (registers,
values, memory address) and the pre-decoded Table 2 payload bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Width of integer register data (IA32 general-purpose registers).
INT_WIDTH = 32

#: Width of FP register data (x87 extended precision, matching the
#: ~80-bit x-axis of Figure 6's FP plot).
FP_WIDTH = 80


class UopClass(enum.Enum):
    """Execution class of a uop."""

    ALU = "alu"          # integer ALU op executed on an adder port
    MUL = "mul"          # long-latency integer op
    FP = "fp"            # floating-point op
    LOAD = "load"        # memory read (DL0 + DTLB)
    STORE = "store"      # memory write (DL0 + DTLB)
    BRANCH = "branch"    # control
    NOP = "nop"          # no-op / other

    def __init__(self, value: str) -> None:
        # Plain member attributes, not properties: the core reads them
        # for every uop.
        #: loads and stores (DL0 + DTLB, a MOB entry)
        self.is_memory = value in ("load", "store")
        #: ALU ops and address generation occupy an adder
        self.uses_adder = value in ("alu", "load", "store")


@dataclass(frozen=True, slots=True)
class SchedulerLayout:
    """Bit widths of the scheduler fields, exactly as in Table 2."""

    valid: int = 1
    latency: int = 5
    port: int = 5
    taken: int = 1
    mob_id: int = 6
    tos: int = 3
    flags: int = 6
    shift1: int = 1
    shift2: int = 1
    dst_tag: int = 7
    src1_tag: int = 7
    src2_tag: int = 7
    ready1: int = 1
    ready2: int = 1
    src1_data: int = 32
    src2_data: int = 32
    immediate: int = 16
    opcode: int = 12

    def fields(self) -> Dict[str, int]:
        """Field name -> bit width, in Table 2 order."""
        return {
            "valid": self.valid,
            "latency": self.latency,
            "port": self.port,
            "taken": self.taken,
            "mob_id": self.mob_id,
            "tos": self.tos,
            "flags": self.flags,
            "shift1": self.shift1,
            "shift2": self.shift2,
            "dst_tag": self.dst_tag,
            "src1_tag": self.src1_tag,
            "src2_tag": self.src2_tag,
            "ready1": self.ready1,
            "ready2": self.ready2,
            "src1_data": self.src1_data,
            "src2_data": self.src2_data,
            "immediate": self.immediate,
            "opcode": self.opcode,
        }

    @property
    def total_bits(self) -> int:
        return sum(self.fields().values())

    def bit_offsets(self) -> Dict[str, Tuple[int, int]]:
        """Field name -> (first bit, width) within a flattened slot."""
        offsets: Dict[str, Tuple[int, int]] = {}
        position = 0
        for name, width in self.fields().items():
            offsets[name] = (position, width)
            position += width
        return offsets


#: The canonical layout used throughout the library.
SCHEDULER_LAYOUT = SchedulerLayout()


@dataclass(slots=True)
class Uop:
    """One micro-operation of a trace.

    Only the fields the protected structures consume are modelled; the
    values of the Table 2 payload fields are pre-decoded by the trace
    generator so structure models do not re-derive them.
    """

    seq: int
    uop_class: UopClass
    opcode: int = 0
    #: Architectural source/destination register indices (None = unused).
    src1: Optional[int] = None
    src2: Optional[int] = None
    dst: Optional[int] = None
    #: Operand values as unsigned ints of the appropriate width.
    src1_value: int = 0
    src2_value: int = 0
    result_value: int = 0
    immediate: int = 0
    has_immediate: bool = False
    is_fp: bool = False
    #: Execution latency in cycles (Table 2 "latency" field, 5 bits).
    latency: int = 1
    #: Issue port one-hot index (Table 2 "port" field, 5 bits).
    port: int = 0
    #: Branch outcome (Table 2 "taken" bit).
    taken: bool = False
    #: Whether this branch was mispredicted (frontend redirect).
    mispredicted: bool = False
    #: FP top-of-stack position (Table 2 "tos", 3 bits).
    tos: int = 0
    #: Architectural flags produced (Table 2 "flags", 6 bits).
    flags: int = 0
    #: AH/BH/CH/DH sub-register shifts (Table 2 "shift1"/"shift2").
    shift1: bool = False
    shift2: bool = False
    #: Memory address for loads/stores (byte address).
    address: Optional[int] = None
    #: Carry-in for ALU adds (0 for ADD, 1 for SUB-style a + ~b + 1).
    carry_in: int = 0
    #: True for subtract-style ops (second operand inverted at the adder).
    is_sub: bool = False

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError("seq must be non-negative")
        if not 0 <= self.opcode < (1 << SCHEDULER_LAYOUT.opcode):
            raise ValueError(f"opcode out of range: {self.opcode!r}")
        if not 0 <= self.latency < (1 << SCHEDULER_LAYOUT.latency):
            raise ValueError(f"latency out of range: {self.latency!r}")
        if self.uop_class.is_memory and self.address is None:
            raise ValueError(f"{self.uop_class.value} uop needs an address")

    @property
    def value_width(self) -> int:
        """Width of this uop's register data."""
        return FP_WIDTH if self.is_fp else INT_WIDTH

    @property
    def reads_memory(self) -> bool:
        return self.uop_class is UopClass.LOAD

    @property
    def writes_memory(self) -> bool:
        return self.uop_class is UopClass.STORE

    @property
    def uses_adder(self) -> bool:
        """Whether the uop occupies an adder (ALU op or address generation)."""
        return self.uop_class.uses_adder

    def adder_operands(self) -> Tuple[int, int, int]:
        """(input_a, input_b, carry_in) presented to the adder.

        ALU adds present the two source values; subtracts present the
        inverted second operand with carry-in 1; address generation
        presents base + displacement.
        """
        mask = (1 << INT_WIDTH) - 1
        if self.uop_class.is_memory:
            base = self.src1_value & mask
            displacement = self.immediate & mask
            return base, displacement, 0
        a = self.src1_value & mask
        b = self.src2_value & mask
        if self.is_sub:
            return a, (~b) & mask, 1
        return a, b, self.carry_in
