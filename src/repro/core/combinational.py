"""Idle-input injection for combinational blocks (Sections 3.1 and 4.3).

The strategy: during idle cycles, hardwired synthetic inputs are written
into the block's input latches, alternating (round-robin) between a small
set chosen so that different inputs stress *different* PMOS transistors.
The paper's adder case study uses the eight combinations of
<InputA, InputB, CarryIn> with each operand all-0s or all-1s, pairs them
exhaustively (Figure 4), and picks the pair — <0,0,0> + <1,1,1> — that
leaves the fewest narrow transistors fully stressed; Figure 5 then shows
the guardband as a function of the block's real utilisation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.circuits.aging import AgingReport, AgingSimulator
from repro.circuits.ladner_fischer import LadnerFischerAdder
from repro.nbti.guardband import DEFAULT_GUARDBAND_MODEL, GuardbandModel

#: (a, b, cin) with operands collapsed to all-0s / all-1s.
SyntheticInput = Tuple[int, int, int]

#: Operand vectors sampled from real traces: (a, b, cin).
RealVector = Tuple[int, int, int]


def synthetic_inputs(width: int) -> List[SyntheticInput]:
    """The eight <InputA, InputB, CarryIn> combinations of Section 4.3.

    Numbered 1..8 in the paper's ascending order: input 1 is <0,0,0>,
    input 2 is <0,0,1>, ..., input 8 is <1,1,1>.
    """
    ones = (1 << width) - 1
    combos = []
    for a_bit, b_bit, cin in itertools.product((0, 1), repeat=3):
        combos.append((ones if a_bit else 0, ones if b_bit else 0, cin))
    return combos


def input_pairs(width: int) -> List[Tuple[int, int]]:
    """All 28 unordered pairs of synthetic inputs (1-based indices)."""
    return list(itertools.combinations(range(1, 9), 2))


def check_input_pair(pair: Sequence[int]) -> Tuple[int, int]:
    """``pair`` as a tuple, or ValueError unless it names two distinct
    synthetic inputs (1-based indices in 1..8)."""
    pair = tuple(pair)
    if (len(pair) != 2 or pair[0] == pair[1]
            or not all(isinstance(index, int) and 1 <= index <= 8
                       for index in pair)):
        raise ValueError(f"pair must be two distinct indices in 1..8: {pair}")
    return pair[0], pair[1]


def evaluate_input_pair(
    adder: LadnerFischerAdder,
    pair: Tuple[int, int],
    guardband_model: GuardbandModel = DEFAULT_GUARDBAND_MODEL,
) -> AgingReport:
    """Age the adder under one round-robin pair of synthetic inputs.

    Round-robin alternation gives every PMOS a zero-signal probability of
    0%, 50% or 100% (Section 4.3); the report's
    ``narrow_fully_stressed_fraction`` is the Figure 4 metric.
    """
    inputs = synthetic_inputs(adder.width)
    first, second = check_input_pair(pair)
    simulator = AgingSimulator(adder.circuit, guardband_model)
    simulator.apply(adder.input_vector(*inputs[first - 1]), 1.0)
    simulator.apply(adder.input_vector(*inputs[second - 1]), 1.0)
    return simulator.report()


def search_best_pair(
    adder: LadnerFischerAdder,
    guardband_model: GuardbandModel = DEFAULT_GUARDBAND_MODEL,
) -> "PairSearchResult":
    """Evaluate all 28 pairs and rank them (Figure 4).

    Returns the full ranking; the paper's winner is pair (1, 8).
    """
    results: Dict[Tuple[int, int], AgingReport] = {}
    for pair in input_pairs(adder.width):
        results[pair] = evaluate_input_pair(adder, pair, guardband_model)
    best = min(
        results,
        key=lambda p: (
            results[p].narrow_fully_stressed_fraction,
            results[p].worst_narrow_duty,
        ),
    )
    return PairSearchResult(reports=results, best_pair=best)


@dataclass(frozen=True)
class PairSearchResult:
    """Outcome of the exhaustive pair search."""

    reports: Mapping[Tuple[int, int], AgingReport]
    best_pair: Tuple[int, int]

    def fractions(self) -> Dict[Tuple[int, int], float]:
        """Figure 4's Y values: narrow fully-stressed fraction per pair."""
        return {
            pair: report.narrow_fully_stressed_fraction
            for pair, report in self.reports.items()
        }


@dataclass
class IdleInputInjector:
    """Round-robin injector of a chosen input pair during idle periods.

    Drives an :class:`AgingSimulator` with a weighted mix: real sampled
    vectors for a ``utilization`` fraction of the time, and the two
    synthetic inputs evenly splitting the idle remainder — "in the long
    run all the low-degrading inputs will be used the same amount of
    time" (Section 3.1).
    """

    adder: LadnerFischerAdder
    pair: Tuple[int, int] = (1, 8)
    guardband_model: GuardbandModel = DEFAULT_GUARDBAND_MODEL

    def __post_init__(self) -> None:
        self.pair = check_input_pair(self.pair)

    def age(
        self,
        real_vectors: Sequence[RealVector],
        utilization: float,
        inject: bool = True,
    ) -> AgingReport:
        """Age the adder for a given utilisation.

        Parameters
        ----------
        real_vectors:
            Operand vectors sampled from traces; they share the busy
            ``utilization`` fraction of time equally.  With ``inject``
            False they also fill the idle time (inputs simply remain in
            the latches — the paper's baseline).
        utilization:
            Fraction of time the block computes real additions.
        inject:
            Whether the idle-input mechanism is active.
        """
        if not 0.0 <= utilization <= 1.0:
            raise ValueError("utilization must be within [0, 1]")
        if not real_vectors:
            raise ValueError("need at least one real vector")
        simulator = AgingSimulator(self.adder.circuit, self.guardband_model)
        busy_share = utilization if inject else 1.0
        simulator.apply_sequence(
            [self.adder.input_vector(*vector) for vector in real_vectors],
            busy_share / len(real_vectors),
        )
        if inject and utilization < 1.0:
            inputs = synthetic_inputs(self.adder.width)
            idle_each = (1.0 - utilization) / 2.0
            for index in self.pair:
                simulator.apply(
                    self.adder.input_vector(*inputs[index - 1]), idle_each
                )
        return simulator.report()


def adder_guardband_study(
    adder: LadnerFischerAdder,
    real_vectors: Sequence[RealVector],
    utilizations: Iterable[float] = (0.30, 0.21, 0.11),
    pair: Tuple[int, int] = (1, 8),
    guardband_model: GuardbandModel = DEFAULT_GUARDBAND_MODEL,
) -> Dict[str, float]:
    """Figure 5: guardband for real inputs vs. injected idle inputs.

    Returns a mapping with the baseline ("real inputs") and one entry per
    utilisation level ("<u>% real + 000 + 111").
    """
    injector = IdleInputInjector(adder, pair, guardband_model)
    results: Dict[str, float] = {}
    baseline = injector.age(real_vectors, utilization=1.0, inject=False)
    results["real inputs"] = guardband_model.guardband_for_duty(
        baseline.worst_narrow_duty
    )
    for utilization in utilizations:
        report = injector.age(real_vectors, utilization, inject=True)
        label = f"{int(round(utilization * 100))}% real + 000 + 111"
        results[label] = guardband_model.guardband_for_duty(
            report.worst_narrow_duty
        )
    return results
