"""Netlist container and builder DSL for combinational circuits.

:class:`Circuit` holds named nodes and primitive gates, computes a
topological evaluation order once, and then evaluates input vectors into
full node-value maps.  Evaluation is bit-sliced: a batch of vectors is
packed into Python ints, one bit (lane) per vector, so one gate walk
evaluates every vector of the batch.  :class:`CircuitBuilder` provides
composite-function helpers (AND, OR, XOR, ...) that expand into
primitives so that every internal node is visible to the aging
simulator.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.circuits.gates import LANE_EVALUATORS, Gate, GateKind
from repro.nbti.transistor import PMOSTransistor, WidthClass

_BITS = frozenset((0, 1))

#: Bytes 0/1 -> ASCII "0"/"1".
_NUMERAL = bytes.maketrans(b"\x00\x01", b"01")


class Circuit:
    """A combinational netlist of primitive gates.

    Nodes are identified by strings.  Primary inputs are nodes not driven
    by any gate; primary outputs are explicitly declared.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._gates: List[Gate] = []
        self._driver: Dict[str, Gate] = {}
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._order: Optional[List[Gate]] = None
        #: (order it was built from, per gate: (lane op, output, inputs))
        self._steps: Tuple[Optional[List[Gate]], List[tuple]] = (None, [])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, node: str) -> str:
        """Declare a primary input node."""
        if node in self._driver:
            raise ValueError(f"node {node!r} is already driven by a gate")
        if node not in self._inputs:
            self._inputs.append(node)
        return node

    def add_output(self, node: str) -> str:
        """Declare a primary output node."""
        if node not in self._outputs:
            self._outputs.append(node)
        return node

    def add_gate(self, gate: Gate) -> Gate:
        """Add a primitive gate; its output node must be undriven so far."""
        if gate.output in self._driver:
            raise ValueError(f"node {gate.output!r} already has a driver")
        if gate.output in self._inputs:
            raise ValueError(f"node {gate.output!r} is a primary input")
        self._gates.append(gate)
        self._driver[gate.output] = gate
        self._order = None
        return gate

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self._outputs)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._gates)

    @property
    def nodes(self) -> Tuple[str, ...]:
        """All nodes: primary inputs followed by gate outputs."""
        return tuple(self._inputs) + tuple(g.output for g in self._gates)

    def pmos_transistors(self) -> Tuple[PMOSTransistor, ...]:
        """Every PMOS transistor in the design."""
        return tuple(p for gate in self._gates for p in gate.pmos)

    def narrow_pmos(self) -> Tuple[PMOSTransistor, ...]:
        return tuple(p for p in self.pmos_transistors() if p.is_narrow)

    def fanout(self, node: str) -> int:
        """Number of gate input pins driven by ``node``."""
        return sum(gate.inputs.count(node) for gate in self._gates)

    def driver_of(self, node: str) -> Optional[Gate]:
        return self._driver.get(node)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Gate]:
        """Gates in dependency order; cached until the netlist changes."""
        if self._order is not None:
            return self._order
        ready = set(self._inputs)
        remaining = list(self._gates)
        order: List[Gate] = []
        while remaining:
            progress = False
            still: List[Gate] = []
            for gate in remaining:
                if all(node in ready for node in gate.inputs):
                    order.append(gate)
                    ready.add(gate.output)
                    progress = True
                else:
                    still.append(gate)
            if not progress:
                dangling = sorted(
                    {n for g in still for n in g.inputs if n not in ready}
                )
                raise ValueError(
                    "netlist has undriven nodes or a combinational loop: "
                    f"{dangling[:8]}"
                )
            remaining = still
        self._order = order
        return order

    def evaluate(self, input_values: Mapping[str, int]) -> Dict[str, int]:
        """Evaluate the circuit for one input vector.

        Parameters
        ----------
        input_values:
            Mapping from every primary-input node to 0/1.

        Returns
        -------
        dict
            Logic value of *every* node (inputs and gate outputs).
        """
        return self.evaluate_packed([input_values])

    def evaluate_packed(
        self, vectors: Sequence[Mapping[str, int]]
    ) -> Dict[str, int]:
        """Evaluate a batch of input vectors in one gate walk.

        Bit ``j`` of each returned value is the node's logic value under
        ``vectors[j]``.  Nodes come in :meth:`evaluate` order: primary
        inputs, then gate outputs in topological order.  Raises the
        :meth:`evaluate` errors for the first vector that has one.
        """
        inputs = self._inputs
        required = set(inputs)
        rows = []
        for vector in vectors:
            if not vector.keys() >= required:
                missing = [n for n in inputs if n not in vector]
                raise ValueError(f"missing values for inputs: {missing[:8]}")
            row = [vector[node] for node in inputs]
            if not _BITS.issuperset(row):
                node, value = next((n, v) for n, v in zip(inputs, row)
                                   if v not in (0, 1))
                raise ValueError(f"input {node!r} must be 0/1, got {value!r}")
            rows.append(row)
        # Lane j of an input is bit j of an int: write each column as a
        # binary numeral, lane 0 last.
        lanes = [int(bytes(map(int, reversed(column))).translate(_NUMERAL), 2)
                 for column in zip(*rows)] or [0] * len(inputs)
        full = (1 << len(rows)) - 1
        values = dict(zip(inputs, lanes))
        for op, output, pins in self._gate_steps():
            if len(pins) == 1:
                values[output] = op(full, values[pins[0]])
            else:
                values[output] = op(full, values[pins[0]], values[pins[1]])
        return values

    def _gate_steps(self) -> List[tuple]:
        """The topological order as ``(lane op, output, inputs)``."""
        order = self.topological_order()
        if self._steps[0] is not order:
            self._steps = (order, [(LANE_EVALUATORS[gate.kind], gate.output,
                                    gate.inputs) for gate in order])
        return self._steps[1]

    def output_values(self, input_values: Mapping[str, int]) -> Dict[str, int]:
        """Evaluate and return only the declared primary outputs."""
        values = self.evaluate(input_values)
        return {node: values[node] for node in self._outputs}

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def resize_gates(
        self, names: Iterable[str], width_class: WidthClass
    ) -> int:
        """Replace the named gates with copies of the given width class.

        Returns the number of gates whose class actually changed.  Gates
        are immutable, so resizing swaps in fresh instances.
        """
        wanted = set(names)
        converted = 0
        for index, gate in enumerate(self._gates):
            if gate.name not in wanted or gate.width_class is width_class:
                continue
            replacement = Gate(
                name=gate.name,
                kind=gate.kind,
                inputs=gate.inputs,
                output=gate.output,
                width_class=width_class,
            )
            self._gates[index] = replacement
            self._driver[gate.output] = replacement
            converted += 1
        self._order = None
        return converted

    def apply_fanout_sizing(self, wide_threshold: int = 4) -> int:
        """Re-size gates whose output fanout meets ``wide_threshold``.

        High-fanout drivers (carry trees, buffers) are implemented with
        wide transistors in real designs; per the paper's Figure 4
        discussion those tolerate full bias.  Returns the number of gates
        converted to WIDE.
        """
        if wide_threshold <= 0:
            raise ValueError("wide_threshold must be positive")
        pins = Counter(node for gate in self._gates for node in gate.inputs)
        heavy = [
            gate.name
            for gate in self._gates
            if pins[gate.output] >= wide_threshold
        ]
        return self.resize_gates(heavy, WidthClass.WIDE)

    def __len__(self) -> int:
        return len(self._gates)


class CircuitBuilder:
    """Composite-function DSL on top of :class:`Circuit`.

    Every helper returns the name of the node holding the function value;
    composite functions expand into INV/NAND2/NOR2 primitives so all
    internal nodes are first-class.

    Examples
    --------
    >>> builder = CircuitBuilder("demo")
    >>> a, b = builder.input("a"), builder.input("b")
    >>> s = builder.xor2(a, b, name="s")
    >>> builder.mark_output(s)
    's'
    >>> builder.circuit.output_values({"a": 1, "b": 0})
    {'s': 1}
    """

    def __init__(self, name: str = "circuit") -> None:
        self.circuit = Circuit(name)
        self._counter = 0

    # ------------------------------------------------------------------
    def input(self, node: str) -> str:
        return self.circuit.add_input(node)

    def inputs(self, prefix: str, width: int) -> List[str]:
        """Declare a bus of primary inputs ``prefix0 .. prefix<width-1>``."""
        return [self.input(f"{prefix}{i}") for i in range(width)]

    def mark_output(self, node: str) -> str:
        return self.circuit.add_output(node)

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------
    def inv(self, a: str, name: Optional[str] = None) -> str:
        return self._emit(GateKind.INV, (a,), name)

    def nand2(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._emit(GateKind.NAND2, (a, b), name)

    def nor2(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self._emit(GateKind.NOR2, (a, b), name)

    # ------------------------------------------------------------------
    # Composites
    # ------------------------------------------------------------------
    def and2(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.inv(self.nand2(a, b), name)

    def or2(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.inv(self.nor2(a, b), name)

    def xor2(self, a: str, b: str, name: Optional[str] = None) -> str:
        """Four-NAND XOR; all three internal nodes are explicit."""
        nab = self.nand2(a, b)
        return self.nand2(self.nand2(a, nab), self.nand2(b, nab), name)

    def xnor2(self, a: str, b: str, name: Optional[str] = None) -> str:
        return self.inv(self.xor2(a, b), name)

    def aoi21(self, a: str, b: str, c: str, name: Optional[str] = None) -> str:
        """(a AND b) OR c — the carry-operator kernel g + p*g'."""
        return self.or2(self.and2(a, b), c, name)

    def and_tree(self, nodes: Sequence[str], name: Optional[str] = None) -> str:
        """Balanced AND over an arbitrary number of nodes."""
        return self._tree(self.and2, nodes, name)

    def or_tree(self, nodes: Sequence[str], name: Optional[str] = None) -> str:
        """Balanced OR over an arbitrary number of nodes."""
        return self._tree(self.or2, nodes, name)

    # ------------------------------------------------------------------
    def _tree(self, op, nodes: Sequence[str], name: Optional[str]) -> str:
        if not nodes:
            raise ValueError("tree reduction needs at least one node")
        level = list(nodes)
        while len(level) > 1:
            nxt: List[str] = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(op(level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        if name is not None and level[0] != name:
            # Buffer through two inverters to land on the requested name.
            return self.inv(self.inv(level[0]), name)
        return level[0]

    def _emit(
        self, kind: GateKind, inputs: Tuple[str, ...], name: Optional[str]
    ) -> str:
        self._counter += 1
        output = name if name is not None else f"n{self._counter}"
        gate = Gate(
            name=f"g{self._counter}_{kind.value}",
            kind=kind,
            inputs=inputs,
            output=output,
        )
        self.circuit.add_gate(gate)
        return output
