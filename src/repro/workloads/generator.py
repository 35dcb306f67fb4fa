"""Seeded synthetic trace generation.

:class:`TraceGenerator` turns a :class:`~repro.workloads.suites.SuiteProfile`
into a value-carrying uop stream: register dataflow with realistic
dependency locality, operand values from the biased generators, per-suite
address streams, and the Table 2 payload bits (flags, tos, shifts,
latencies, ports, opcodes) pre-decoded.

Everything is deterministic given (seed, suite, trace index), so studies
are reproducible and profiling/evaluation splits (Section 4.5 uses 100
profiling traces out of 531) are stable.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from typing import Iterator, List, Optional, Sequence

from repro.uarch.trace import Trace
from repro.uarch.uop import Uop, UopClass
from repro.workloads.datagen import (
    AddressGenerator,
    BiasedIntGenerator,
    FPValueGenerator,
    randbelow,
)
from repro.workloads.suites import (
    SuiteProfile,
    TABLE1_TRACE_COUNTS,
    get_profile,
    suite_names,
)

#: Architectural register counts (IA32 GPRs + rename temporaries / x87).
ARCH_INT_REGS = 24
ARCH_FP_REGS = 8

#: Default scaled-down trace length (the paper used 10M instructions).
DEFAULT_TRACE_LENGTH = 20_000

#: Per uop class, in ``SuiteProfile.uop_mix`` order: the class, its
#: opcode base, its latency (cycles, a Core(tm)-era integer pipeline)
#: and its issue port (one-hot index in the 5-bit field).  Real opcode
#: encodings are implementation specific (the paper excludes opcode
#: bits from Figure 8 for the same reason) but a smartly-chosen dense
#: encoding avoids huge imbalance.
_CLASSES = (
    (UopClass.ALU, 0x010, 1, 0),
    (UopClass.MUL, 0x120, 4, 1),
    (UopClass.FP, 0x230, 5, 1),
    (UopClass.LOAD, 0x340, 3, 2),
    (UopClass.STORE, 0x450, 1, 3),
    (UopClass.BRANCH, 0x560, 1, 4),
    (UopClass.NOP, 0x001, 1, 0),
)


class TraceGenerator:
    """Deterministic generator of suite-profiled traces.

    Examples
    --------
    >>> gen = TraceGenerator(seed=42)
    >>> trace = gen.generate("kernels", length=1000)
    >>> len(trace)
    1000
    >>> trace.suite
    'kernels'
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def generate(
        self,
        suite: str,
        length: int = DEFAULT_TRACE_LENGTH,
        trace_index: int = 0,
    ) -> Trace:
        """Generate one trace of the given suite."""
        profile = get_profile(suite)
        stream = self.stream(suite, length=length, trace_index=trace_index)
        return Trace(name=f"{suite}-{trace_index:03d}", suite=profile.name,
                     uops=list(stream))

    def stream(
        self,
        suite: str,
        length: int = DEFAULT_TRACE_LENGTH,
        trace_index: int = 0,
    ) -> Iterator[Uop]:
        """Lazily yield the exact uop sequence :meth:`generate` builds.

        The generator is bounded-memory: nothing is materialised, so
        paper-scale trace lengths stream straight into
        :meth:`~repro.uarch.core.TraceDrivenCore.run` (which accepts any
        iterable) without holding a :class:`~repro.uarch.trace.Trace`.
        Bit-identical to :meth:`generate` for the same (seed, suite,
        trace_index) — asserted by ``tests/test_streaming.py``.
        """
        if length <= 0:
            raise ValueError("length must be positive")
        profile = get_profile(suite)
        rng = random.Random(f"{self.seed}/{suite}/{trace_index}")
        return _synthesise_uops(profile, rng, length)

    def generate_suite(
        self,
        suite: str,
        n_traces: int,
        length: int = DEFAULT_TRACE_LENGTH,
    ) -> List[Trace]:
        return [
            self.generate(suite, length=length, trace_index=i)
            for i in range(n_traces)
        ]


def generate_workload(
    seed: int = 0,
    traces_per_suite: Optional[int] = None,
    scale: float = 0.01,
    length: int = DEFAULT_TRACE_LENGTH,
    suites: Optional[Sequence[str]] = None,
) -> List[Trace]:
    """Generate a scaled-down version of the paper's 531-trace workload.

    Parameters
    ----------
    traces_per_suite:
        Fixed number of traces per suite; when None, each suite gets
        ``max(1, round(count * scale))`` traces, proportional to Table 1.
    scale:
        Fraction of Table 1's per-suite trace counts to generate.
    """
    generator = TraceGenerator(seed)
    chosen = list(suites) if suites is not None else suite_names()
    workload: List[Trace] = []
    for suite in chosen:
        if traces_per_suite is not None:
            count = traces_per_suite
        else:
            count = max(1, round(TABLE1_TRACE_COUNTS[suite] * scale))
        workload.extend(generator.generate_suite(suite, count, length))
    return workload


def generate_address_stream(
    suite: str,
    length: int = 50_000,
    seed: int = 0,
    trace_index: int = 0,
) -> List[int]:
    """A bare load/store address stream for cache-only studies.

    The Table 3 evaluation only needs the memory reference stream, which
    is ~18x cheaper to generate than full uop traces.  Addresses follow
    the same per-suite working-set model as :class:`TraceGenerator`.
    """
    return _addresses(suite, length, seed, trace_index).take(length)


#: Addresses per :meth:`AddressGenerator.take` call of a lazy stream.
_STREAM_CHUNK = 4096


def iter_address_stream(
    suite: str,
    length: int = 50_000,
    seed: int = 0,
    trace_index: int = 0,
) -> Iterator[int]:
    """Iterator twin of :func:`generate_address_stream`.

    Yields the bit-identical address sequence, drawn in chunks of 4096,
    without materialising the list, so paper-scale streams replay
    through :meth:`~repro.uarch.backends.reference.Cache.replay` in
    bounded memory.
    """
    take = _addresses(suite, length, seed, trace_index).take
    return itertools.chain.from_iterable(
        take(min(_STREAM_CHUNK, length - start))
        for start in range(0, length, _STREAM_CHUNK))


def _addresses(suite: str, length: int, seed: int,
               trace_index: int) -> AddressGenerator:
    if length <= 0:
        raise ValueError("length must be positive")
    profile = get_profile(suite)
    return AddressGenerator(
        random.Random(f"addr/{seed}/{suite}/{trace_index}"),
        working_set_bytes=profile.working_set_bytes,
        hot_fraction=profile.hot_fraction,
        regions=profile.regions,
    )


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _synthesise_uops(
    profile: SuiteProfile, rng: random.Random, length: int
) -> Iterator[Uop]:
    weights = profile.int_value_weights
    int_values = BiasedIntGenerator(
        rng,
        counter_weight=weights[0],
        address_weight=weights[1],
        constant_weight=weights[2],
        medium_weight=weights[3],
        random_weight=weights[4],
    )
    fp_values = FPValueGenerator(rng)
    addresses = AddressGenerator(
        rng,
        working_set_bytes=profile.working_set_bytes,
        hot_fraction=profile.hot_fraction,
        regions=profile.regions,
    )
    int_reg_values: List[int] = [int_values.next() for _ in range(ARCH_INT_REGS)]
    fp_reg_values: List[int] = [fp_values.next() for _ in range(ARCH_FP_REGS)]
    recent_int: List[int] = list(range(4))
    recent_fp: List[int] = list(range(2))
    tos = 0

    # One loop, one draw sequence: randbelow() draws as randrange() and
    # choice() do, and bisect_right over the accumulated mix as
    # choices(cum_weights=) does (tests/test_synthesis_pins.py).
    random, below = rng.random, randbelow(rng)
    next_int, next_fp, take = int_values.next, fp_values.next, addresses.take
    cum_mix = list(itertools.accumulate(profile.uop_mix))
    total_mix, last_class = cum_mix[-1] + 0.0, len(cum_mix) - 1
    locality = profile.dependency_locality
    immediate_fraction = profile.immediate_fraction
    shift_fraction = profile.shift_fraction
    # Local names: the loop tests every uop's class several times.
    FP, BRANCH = UopClass.FP, UopClass.BRANCH
    ALU, MUL, LOAD, STORE = (UopClass.ALU, UopClass.MUL, UopClass.LOAD,
                             UopClass.STORE)

    for seq in range(length):
        kind, opcode_base, latency, port = _CLASSES[
            bisect_right(cum_mix, random() * total_mix, 0, last_class)]
        has_imm = random() < immediate_fraction
        immediate = next_int() & 0xFFFF if has_imm else 0
        src1: Optional[int] = None
        src2: Optional[int] = None
        dst: Optional[int] = None
        address: Optional[int] = None
        src1_value = src2_value = result = flags = 0
        is_sub = taken = mispredicted = False

        # A source is one of the last six destinations with ``locality``
        # probability, else any register.
        if kind is FP:
            src1 = (recent_fp[below(len(recent_fp))]
                    if random() < locality else below(ARCH_FP_REGS))
            src2 = (recent_fp[below(len(recent_fp))]
                    if random() < locality else below(ARCH_FP_REGS))
            dst = below(ARCH_FP_REGS)
            src1_value = fp_reg_values[src1]
            src2_value = fp_reg_values[src2]
            result = fp_reg_values[dst] = next_fp()
            recent_fp.append(dst)
            del recent_fp[:-6]
        elif kind is ALU or kind is MUL:
            src1 = (recent_int[below(len(recent_int))]
                    if random() < locality else below(ARCH_INT_REGS))
            src2 = (recent_int[below(len(recent_int))]
                    if random() < locality else below(ARCH_INT_REGS))
            dst = below(ARCH_INT_REGS)
            src1_value = int_reg_values[src1]
            src2_value = int_reg_values[src2]
            is_sub = kind is ALU and random() < profile.sub_fraction
            result = int_reg_values[dst] = next_int()
            recent_int.append(dst)
            del recent_int[:-6]
        elif kind is LOAD:
            src1 = (recent_int[below(len(recent_int))]
                    if random() < locality else below(ARCH_INT_REGS))
            dst = below(ARCH_INT_REGS)
            src1_value = int_reg_values[src1]
            address = take(1)[0]
            result = int_reg_values[dst] = next_int()
            recent_int.append(dst)
            del recent_int[:-6]
        elif kind is STORE:
            src1 = (recent_int[below(len(recent_int))]
                    if random() < locality else below(ARCH_INT_REGS))
            src2 = (recent_int[below(len(recent_int))]
                    if random() < locality else below(ARCH_INT_REGS))
            src1_value = int_reg_values[src1]
            src2_value = int_reg_values[src2]
            address = take(1)[0]
        elif kind is BRANCH:
            src1 = (recent_int[below(len(recent_int))]
                    if random() < locality else below(ARCH_INT_REGS))
            src1_value = int_reg_values[src1]
            taken = random() < profile.taken_rate
            mispredicted = random() < profile.mispredict_rate

        opcode = (opcode_base + below(12)) & 0xFFF
        if kind is ALU or kind is MUL:
            # 6-bit flags, mostly clear: ZF (bit 3), CF (0), SF (4), PF
            # (1) now and then, AF/OF (bit 5) practically never -- the
            # "almost 100% bias for some flags" of Figure 8.
            flags = (random() < 0.18) << 3
            flags |= random() < 0.10
            flags |= (random() < 0.12) << 4
            flags |= (random() < 0.04) << 1
            flags |= (random() < 0.01) << 5
        uop = Uop(
            seq=seq,
            uop_class=kind,
            opcode=opcode,
            src1=src1,
            src2=src2,
            dst=dst,
            src1_value=src1_value,
            src2_value=src2_value,
            result_value=result,
            immediate=immediate,
            has_immediate=has_imm,
            is_fp=kind is FP,
            latency=latency,
            port=port,
            taken=taken,
            mispredicted=mispredicted,
            tos=tos if kind is FP else 0,
            flags=flags,
            shift1=random() < shift_fraction,
            shift2=random() < shift_fraction,
            address=address,
            is_sub=is_sub,
        )
        if kind is FP:
            tos = (tos + (0, 1, 7)[below(3)]) % 8
        yield uop
