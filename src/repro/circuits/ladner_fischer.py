"""32-bit Ladner-Fischer prefix adder netlist.

The Ladner-Fischer adder [Ladner & Fischer, JACM 1980] computes carries
with a minimum-depth parallel-prefix network at the cost of high fanout
on block-boundary nodes.  This module builds the adder out of the
primitive gate library so that every internal node — and therefore every
PMOS gate terminal — is visible to the aging simulator.

Design notes (these match common industrial practice and matter for the
NBTI analysis of Section 4.3 of the paper):

- The *sum* uses the XOR-form propagate ``p_i = a_i ^ b_i``.
- The *carry tree* uses the OR-form propagate ``t_i = a_i | b_i`` (alive
  signal), which is logically equivalent for carry computation because
  ``g_i = a_i & b_i`` dominates whenever both inputs are 1.  The OR form
  is balanced under the all-zeros/all-ones idle pair, whereas the XOR
  form would be stuck at 0 for both.
- Gates whose output fanout reaches ``wide_threshold`` (block-boundary
  prefix nodes: the hallmark of Ladner-Fischer) and gates within
  ``output_stage_depth`` logic levels of a primary output (result-bus
  drivers) are sized WIDE; all others are NARROW minimum-width devices.
  Per ref [19] of the paper, wide PMOS tolerate full bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.circuits.netlist import Circuit, CircuitBuilder
from repro.nbti.transistor import WidthClass

DEFAULT_WIDTH = 32

#: Output fanout at which a driver is implemented with wide transistors.
DEFAULT_WIDE_FANOUT = 4

#: Logic depth from a primary output within which cells are sized wide:
#: the full four-NAND sum-XOR cell (depth 3) drives the result bus /
#: output latch and is upsized in physical designs.  This is what leaves
#: "only few wide PMOS" fully stressed under the paper's chosen idle
#: pair (Section 4.3) — the propagate-driven devices of the sum stage.
DEFAULT_OUTPUT_STAGE_DEPTH = 3


@dataclass
class LadnerFischerAdder:
    """A built adder: the netlist plus named-pin conveniences.

    Attributes
    ----------
    circuit:
        The underlying primitive-gate netlist.
    width:
        Operand width in bits.

    Examples
    --------
    >>> adder = build_ladner_fischer_adder(width=8)
    >>> adder.add(100, 55, 0)
    (155, 0)
    >>> adder.add(255, 1, 0)
    (0, 1)
    """

    circuit: Circuit
    width: int

    # ------------------------------------------------------------------
    # Pin naming
    # ------------------------------------------------------------------
    def a_pin(self, bit: int) -> str:
        return f"a{bit}"

    def b_pin(self, bit: int) -> str:
        return f"b{bit}"

    @property
    def cin_pin(self) -> str:
        return "cin"

    def sum_pin(self, bit: int) -> str:
        return f"s{bit}"

    @property
    def cout_pin(self) -> str:
        return "cout"

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def input_vector(self, a: int, b: int, cin: int) -> Dict[str, int]:
        """Build the primary-input map for integer operands."""
        mask = (1 << self.width) - 1
        if not 0 <= a <= mask or not 0 <= b <= mask:
            raise ValueError(
                f"operands must fit in {self.width} bits: a={a!r} b={b!r}"
            )
        if cin not in (0, 1):
            raise ValueError(f"cin must be 0 or 1, got {cin!r}")
        a_pins, b_pins = _operand_pins(self.width)
        vector = {self.cin_pin: cin}
        vector.update(zip(a_pins, [(a >> bit) & 1 for bit in range(self.width)]))
        vector.update(zip(b_pins, [(b >> bit) & 1 for bit in range(self.width)]))
        return vector

    def add(self, a: int, b: int, cin: int = 0) -> Tuple[int, int]:
        """Add two integers through the netlist; returns (sum, carry-out)."""
        values = self.circuit.evaluate(self.input_vector(a, b, cin))
        total = 0
        for bit in range(self.width):
            total |= values[self.sum_pin(bit)] << bit
        return total, values[self.cout_pin]

    # ------------------------------------------------------------------
    # Structure statistics
    # ------------------------------------------------------------------
    @property
    def gate_count(self) -> int:
        return len(self.circuit)

    @property
    def pmos_count(self) -> int:
        return len(self.circuit.pmos_transistors())

    @property
    def transistor_count(self) -> int:
        """Total transistor count (static CMOS: one NMOS per PMOS)."""
        return 2 * self.pmos_count

    @property
    def narrow_pmos_count(self) -> int:
        return len(self.circuit.narrow_pmos())


@lru_cache(maxsize=8)
def _operand_pins(width: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Input pin names ``a0..`` and ``b0..`` of a ``width``-bit adder."""
    return (tuple(f"a{bit}" for bit in range(width)),
            tuple(f"b{bit}" for bit in range(width)))


def build_ladner_fischer_adder(
    width: int = DEFAULT_WIDTH,
    wide_fanout: int = DEFAULT_WIDE_FANOUT,
    output_stage_depth: int = DEFAULT_OUTPUT_STAGE_DEPTH,
) -> LadnerFischerAdder:
    """Construct a Ladner-Fischer adder netlist.

    Parameters
    ----------
    width:
        Operand width; must be a positive power-of-two-friendly size
        (any positive width works; the prefix tree handles ragged spans).
    wide_fanout:
        Fanout threshold for wide sizing of drivers (0 disables).
    output_stage_depth:
        Logic depth from primary outputs sized wide (0 disables).
    """
    if width <= 0:
        raise ValueError("width must be positive")
    builder = CircuitBuilder(f"ladner_fischer_{width}")
    a = builder.inputs("a", width)
    b = builder.inputs("b", width)
    cin = builder.input("cin")

    # Pre-processing: generate, alive (OR-propagate) and sum-propagate.
    generate: List[str] = []
    alive: List[str] = []
    propagate: List[str] = []
    for i in range(width):
        generate.append(builder.and2(a[i], b[i], name=f"g{i}"))
        alive.append(builder.or2(a[i], b[i], name=f"t{i}"))
        propagate.append(builder.xor2(a[i], b[i], name=f"p{i}"))

    # Ladner-Fischer (Sklansky-style divide and conquer) prefix network:
    # after level k every index i with bit k set combines with the top of
    # the preceding 2^k block, giving log2(width) levels with fanout up
    # to width/2 on block boundaries.
    prefix_g = list(generate)
    prefix_t = list(alive)
    level = 0
    while (1 << level) < width:
        step = 1 << level
        new_g = list(prefix_g)
        new_t = list(prefix_t)
        for i in range(width):
            if (i >> level) & 1:
                j = ((i >> level) << level) - 1
                new_g[i] = builder.aoi21(
                    prefix_t[i], prefix_g[j], prefix_g[i],
                    name=f"G_{i}_{level}",
                )
                new_t[i] = builder.and2(
                    prefix_t[i], prefix_t[j], name=f"T_{i}_{level}"
                )
        prefix_g = new_g
        prefix_t = new_t
        level += 1

    # Carries: c0 = cin; c_i = G_{i-1:0} OR (T_{i-1:0} AND cin).
    carries: List[str] = [cin]
    for i in range(1, width):
        carries.append(
            builder.aoi21(prefix_t[i - 1], cin, prefix_g[i - 1], name=f"c{i}")
        )
    cout = builder.aoi21(prefix_t[width - 1], cin, prefix_g[width - 1],
                         name="cout")

    # Sum bits: s_i = p_i XOR c_i.
    for i in range(width):
        builder.mark_output(builder.xor2(propagate[i], carries[i],
                                         name=f"s{i}"))
    builder.mark_output(cout)

    circuit = builder.circuit
    if wide_fanout:
        circuit.apply_fanout_sizing(wide_fanout)
    if output_stage_depth:
        _apply_output_stage_sizing(circuit, output_stage_depth)
    return LadnerFischerAdder(circuit=circuit, width=width)


def _apply_output_stage_sizing(circuit: Circuit, depth: int) -> int:
    """Size gates within ``depth`` levels of a primary output as WIDE.

    Output-stage cells drive the result bus and downstream latches, so
    physical designs upsize them; Section 4.3 of the paper relies on the
    fully-stressed transistors under the chosen idle pair being wide.
    Returns the number of gates converted.
    """
    if depth <= 0:
        return 0
    frontier = [(node, 0) for node in circuit.outputs]
    wide_gates: Dict[str, int] = {}
    while frontier:
        node, level = frontier.pop()
        gate = circuit.driver_of(node)
        if gate is None or level >= depth:
            continue
        if gate.name in wide_gates and wide_gates[gate.name] <= level:
            continue
        wide_gates[gate.name] = level
        for source in gate.inputs:
            frontier.append((source, level + 1))
    return circuit.resize_gates(wide_gates, WidthClass.WIDE)
