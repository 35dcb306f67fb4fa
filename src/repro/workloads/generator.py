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
from typing import Iterator, List, Optional, Sequence

from repro.uarch.trace import Trace
from repro.uarch.uop import Uop, UopClass
from repro.workloads.datagen import (
    AddressGenerator,
    BiasedIntGenerator,
    FPValueGenerator,
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

#: Latencies per uop class (cycles), Core(tm)-era integer pipeline.
_LATENCY = {
    UopClass.ALU: 1,
    UopClass.MUL: 4,
    UopClass.FP: 5,
    UopClass.LOAD: 3,
    UopClass.STORE: 1,
    UopClass.BRANCH: 1,
    UopClass.NOP: 1,
}

#: Issue-port assignment per class (one-hot index in the 5-bit field).
_PORT = {
    UopClass.ALU: 0,
    UopClass.MUL: 1,
    UopClass.FP: 1,
    UopClass.LOAD: 2,
    UopClass.STORE: 3,
    UopClass.BRANCH: 4,
    UopClass.NOP: 0,
}

#: Compact opcode assignment per class; real encodings are implementation
#: specific (the paper excludes opcode bits from Figure 8 for the same
#: reason) but a smartly-chosen dense encoding avoids huge imbalance.
_OPCODE_BASE = {
    UopClass.ALU: 0x010,
    UopClass.MUL: 0x120,
    UopClass.FP: 0x230,
    UopClass.LOAD: 0x340,
    UopClass.STORE: 0x450,
    UopClass.BRANCH: 0x560,
    UopClass.NOP: 0x001,
}


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
        trace = Trace(name=f"{suite}-{trace_index:03d}",
                      suite=profile.name)
        for uop in self.stream(suite, length=length,
                               trace_index=trace_index):
            trace.append(uop)
        return trace

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
    is ~50x cheaper to generate than full uop traces.  Addresses follow
    the same per-suite working-set model as :class:`TraceGenerator`.
    """
    return list(iter_address_stream(suite, length=length, seed=seed,
                                    trace_index=trace_index))


def iter_address_stream(
    suite: str,
    length: int = 50_000,
    seed: int = 0,
    trace_index: int = 0,
) -> Iterator[int]:
    """Iterator twin of :func:`generate_address_stream`.

    Yields the bit-identical address sequence without materialising the
    list, so paper-scale streams replay through
    :meth:`~repro.uarch.backends.reference.Cache.replay` in bounded memory.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    profile = get_profile(suite)
    rng = random.Random(f"addr/{seed}/{suite}/{trace_index}")
    addresses = AddressGenerator(
        rng,
        working_set_bytes=profile.working_set_bytes,
        hot_fraction=profile.hot_fraction,
        regions=profile.regions,
    )
    return _iter_addresses(addresses, length)


def _iter_addresses(addresses: AddressGenerator,
                    length: int) -> Iterator[int]:
    next_address = addresses.next
    for __ in range(length):
        yield next_address()


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
    classes = [UopClass.ALU, UopClass.MUL, UopClass.FP, UopClass.LOAD,
               UopClass.STORE, UopClass.BRANCH, UopClass.NOP]
    # choices() accumulates plain weights the same way on every call.
    cum_mix = list(itertools.accumulate(profile.uop_mix))

    int_reg_values: List[int] = [int_values.next() for _ in range(ARCH_INT_REGS)]
    fp_reg_values: List[int] = [fp_values.next() for _ in range(ARCH_FP_REGS)]
    recent_int: List[int] = list(range(4))
    recent_fp: List[int] = list(range(2))
    tos = 0

    for seq in range(length):
        kind = rng.choices(classes, cum_weights=cum_mix)[0]
        is_fp = kind is UopClass.FP
        uop = _make_uop(
            seq, kind, profile, rng,
            int_values, fp_values, addresses,
            int_reg_values, fp_reg_values,
            recent_int, recent_fp, tos,
        )
        if is_fp:
            tos = (tos + rng.choice((0, 1, 7))) % 8
        yield uop


def _pick_source(
    rng: random.Random, recent: List[int], n_regs: int, locality: float
) -> int:
    """A source register: recently-written with ``locality`` probability."""
    if recent and rng.random() < locality:
        return rng.choice(recent)
    return rng.randrange(n_regs)


def _remember_dst(recent: List[int], dst: int, depth: int = 6) -> None:
    recent.append(dst)
    if len(recent) > depth:
        recent.pop(0)


def _flags_value(rng: random.Random) -> int:
    """6-bit flags: mostly clear; ZF/CF occasionally set.

    Bits: 0=CF, 1=PF, 2=AF, 3=ZF, 4=SF, 5=OF.  High bits almost never
    set — the "almost 100% bias for some flags" of Figure 8.
    """
    flags = 0
    if rng.random() < 0.18:
        flags |= 1 << 3  # ZF
    if rng.random() < 0.10:
        flags |= 1 << 0  # CF
    if rng.random() < 0.12:
        flags |= 1 << 4  # SF
    if rng.random() < 0.04:
        flags |= 1 << 1  # PF
    # AF/OF practically never set by real code paths.
    if rng.random() < 0.01:
        flags |= 1 << 5
    return flags


def _make_uop(
    seq: int,
    kind: UopClass,
    profile: SuiteProfile,
    rng: random.Random,
    int_values: BiasedIntGenerator,
    fp_values: FPValueGenerator,
    addresses: AddressGenerator,
    int_reg_values: List[int],
    fp_reg_values: List[int],
    recent_int: List[int],
    recent_fp: List[int],
    tos: int,
) -> Uop:
    locality = profile.dependency_locality
    is_fp = kind is UopClass.FP
    has_imm = rng.random() < profile.immediate_fraction
    immediate = int_values.next() & 0xFFFF if has_imm else 0

    src1: Optional[int] = None
    src2: Optional[int] = None
    dst: Optional[int] = None
    src1_value = 0
    src2_value = 0
    result = 0
    address: Optional[int] = None
    is_sub = False
    taken = False

    if kind is UopClass.FP:
        src1 = _pick_source(rng, recent_fp, ARCH_FP_REGS, locality)
        src2 = _pick_source(rng, recent_fp, ARCH_FP_REGS, locality)
        dst = rng.randrange(ARCH_FP_REGS)
        src1_value = fp_reg_values[src1]
        src2_value = fp_reg_values[src2]
        result = fp_values.next()
        fp_reg_values[dst] = result
        _remember_dst(recent_fp, dst)
    elif kind in (UopClass.ALU, UopClass.MUL):
        src1 = _pick_source(rng, recent_int, ARCH_INT_REGS, locality)
        src2 = _pick_source(rng, recent_int, ARCH_INT_REGS, locality)
        dst = rng.randrange(ARCH_INT_REGS)
        src1_value = int_reg_values[src1]
        src2_value = int_reg_values[src2]
        is_sub = kind is UopClass.ALU and rng.random() < profile.sub_fraction
        result = int_values.next()
        int_reg_values[dst] = result
        _remember_dst(recent_int, dst)
    elif kind is UopClass.LOAD:
        src1 = _pick_source(rng, recent_int, ARCH_INT_REGS, locality)
        dst = rng.randrange(ARCH_INT_REGS)
        src1_value = int_reg_values[src1]
        address = addresses.next()
        result = int_values.next()
        int_reg_values[dst] = result
        _remember_dst(recent_int, dst)
    elif kind is UopClass.STORE:
        src1 = _pick_source(rng, recent_int, ARCH_INT_REGS, locality)
        src2 = _pick_source(rng, recent_int, ARCH_INT_REGS, locality)
        src1_value = int_reg_values[src1]
        src2_value = int_reg_values[src2]
        address = addresses.next()
    mispredicted = False
    if kind is UopClass.BRANCH:
        src1 = _pick_source(rng, recent_int, ARCH_INT_REGS, locality)
        src1_value = int_reg_values[src1]
        taken = rng.random() < profile.taken_rate
        mispredicted = rng.random() < profile.mispredict_rate

    return Uop(
        seq=seq,
        uop_class=kind,
        opcode=(_OPCODE_BASE[kind] + rng.randrange(12)) & 0xFFF,
        src1=src1,
        src2=src2,
        dst=dst,
        src1_value=src1_value,
        src2_value=src2_value,
        result_value=result,
        immediate=immediate,
        has_immediate=has_imm,
        is_fp=is_fp,
        latency=_LATENCY[kind],
        port=_PORT[kind],
        taken=taken,
        mispredicted=mispredicted,
        tos=tos if is_fp else 0,
        flags=_flags_value(rng) if kind in (UopClass.ALU, UopClass.MUL)
        else 0,
        shift1=rng.random() < profile.shift_fraction,
        shift2=rng.random() < profile.shift_fraction,
        address=address,
        is_sub=is_sub,
    )
