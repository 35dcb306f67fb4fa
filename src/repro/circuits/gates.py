"""Static-CMOS gate primitives with explicit PMOS transistors.

Keeping the primitive set small (INV, NAND2, NOR2) makes every internal
node of composite functions (AND, OR, XOR, ...) an explicit netlist node,
so the aging simulator can account the zero-signal residency of *every*
PMOS gate terminal in the design — exactly what the paper's electrical
simulator measures.

In static CMOS the pull-up network consists of one PMOS per gate input:

- INV:   one PMOS driven by the input.
- NAND2: two *parallel* PMOS, one per input.
- NOR2:  two *series* PMOS, one per input.

A PMOS is under NBTI stress whenever the node driving its gate is "0",
regardless of the series/parallel arrangement, so for stress accounting
each primitive simply owns one PMOS per input pin.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

from repro.nbti.transistor import PMOSTransistor, WidthClass


class GateKind(enum.Enum):
    """Primitive gate kinds (all inverting, as in static CMOS)."""

    INV = "inv"
    NAND2 = "nand2"
    NOR2 = "nor2"

    @property
    def arity(self) -> int:
        return 1 if self is GateKind.INV else 2


#: Bit-sliced gate functions: each operand packs one logic value per
#: lane, and ``full`` has one set bit per lane (1 for a single vector).
LANE_EVALUATORS: Dict[GateKind, Callable[..., int]] = {
    GateKind.INV: lambda full, a: full ^ a,
    GateKind.NAND2: lambda full, a, b: full ^ (a & b),
    GateKind.NOR2: lambda full, a, b: full ^ (a | b),
}


@dataclass(frozen=True)
class Gate:
    """One primitive gate instance in a netlist.

    Attributes
    ----------
    name:
        Unique instance name within the circuit.
    kind:
        Primitive kind (INV / NAND2 / NOR2).
    inputs:
        Names of the nodes driving the gate's input pins.
    output:
        Name of the node driven by the gate.
    width_class:
        Sizing class applied to all PMOS in the gate's pull-up network.
    """

    name: str
    kind: GateKind
    inputs: Tuple[str, ...]
    output: str
    width_class: WidthClass = WidthClass.NARROW
    pmos: Tuple[PMOSTransistor, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.inputs) != self.kind.arity:
            raise ValueError(
                f"{self.kind.value} gate {self.name!r} needs "
                f"{self.kind.arity} inputs, got {len(self.inputs)}"
            )
        transistors = tuple(
            PMOSTransistor(
                name=f"{self.name}.p{i}",
                gate_node=node,
                width_class=self.width_class,
            )
            for i, node in enumerate(self.inputs)
        )
        object.__setattr__(self, "pmos", transistors)

    def evaluate(self, values: Sequence[int]) -> int:
        """Logic value of the output for the given input pin values."""
        if len(values) != self.kind.arity:
            raise ValueError(
                f"expected {self.kind.arity} values, got {len(values)}"
            )
        for value in values:
            if value not in (0, 1):
                raise ValueError(f"gate inputs must be 0/1, got {value!r}")
        return LANE_EVALUATORS[self.kind](1, *values)

    @property
    def transistor_count(self) -> int:
        """Number of PMOS transistors in the pull-up network."""
        return len(self.pmos)
