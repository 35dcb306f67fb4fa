"""Differential tests of the Penelope fast paths against reference oracles.

Each fast path replaces a per-vector or per-bit inner loop and must stay
bit-identical to it.  The oracles below are those loops, kept small and
obviously correct:

- bit-sliced adder aging vs one gate walk and one ``observe`` per vector;
- one-pass fanout sizing vs per-gate ``Circuit.fanout`` counts;
- by-value bias accounting per bit position vs adding every interval
  to every bit of its cell, and the position folds vs per-bit sums;
- table-driven scheduler repair vs composing ``repair_bit`` per bit,
  with the precomposed row patches vs writing the fields one by one;
- row-counting scheduler profiling vs per-bit one counts;
- the profiling pass fused into the first baseline run vs a separate one;
- scheduler rows composed as one int vs the per-field Table 2 payload;
- hook callbacks bound once per run vs the ``CompositeHooks`` fan-out;
- one call per residency write vs the three-level write path, the
  profiler's masked filled row vs a second composition, the uop-class
  flags vs tuple membership, and the int-cycle issue search (with the
  inlined adder pick) vs the float walk;
- the synthesis kernels vs the per-draw helpers they replaced: the uop
  loop vs ``_make_uop`` and its ``choices``/``choice``/``randrange``
  calls, ``AddressGenerator.take`` vs one ``next`` per address with a
  CDF walk, ``BiasedIntGenerator``'s ``randbelow`` draws vs
  ``choice``/``randrange``, chunked address streams vs a per-address
  generator, and the slice-list interleavers vs element-wise ones.
  Uops are compared field by field, types included, and every test
  compares the final ``getstate()`` too.

Every comparison is exact (``==`` on floats), with and without numpy,
except on fractional durations, where only float rounding may differ.
"""

import dataclasses
import itertools
import random

import pytest

from repro.circuits import build_ladner_fischer_adder
from repro.circuits.aging import (
    FULL_STRESS_THRESHOLD,
    AgingReport,
    AgingSimulator,
)
from repro.circuits.netlist import CircuitBuilder
from repro.core.combinational import IdleInputInjector, synthetic_inputs
from repro.core.memory_like import (
    K_PHASE_STEPS,
    PAPER_SCHEDULER_POLICY,
    SchedulerProfiler,
    SchedulerProtector,
    derive_scheduler_policy,
)
from repro.core.penelope import PenelopeProcessor
from repro.core.policy import BitDirective, Technique, repair_bit
from repro.nbti.guardband import DEFAULT_GUARDBAND_MODEL
from repro.nbti.stress import StressLedger
from repro.uarch import TraceDrivenCore
from repro.uarch.bitbias import (
    FOLD_KEYS,
    BitBiasAccumulator,
    check_fits,
    fold_python,
)
from repro.uarch.core import CompositeHooks, CoreConfig, CoreHooks
from repro.uarch.entries import EntryArray
from repro.uarch.ports import AdderPolicy
from repro.uarch.regfile import RegisterFile
from repro.uarch.scheduler import Scheduler, row_patch
from repro.metrics import ordered_sum
from repro.uarch.uop import SCHEDULER_LAYOUT, Uop, UopClass
from repro.workloads import (
    AddressGenerator,
    BiasedIntGenerator,
    FPValueGenerator,
    TraceGenerator,
    generate_address_stream,
    interleave,
    iter_address_stream,
    suite_names,
)
from repro.workloads.datagen import randbelow
from repro.workloads.generator import (
    ARCH_FP_REGS,
    ARCH_INT_REGS,
    _synthesise_uops,
)
from repro.workloads.suites import get_profile

from test_core_loop_differential import PerEventCore, core_result_view

INT_MASK = (1 << 32) - 1


def floats(vector):
    return [float(x) for x in vector]


# ----------------------------------------------------------------------
# (d) Bit-sliced adder aging
# ----------------------------------------------------------------------
_TRUTH = {
    "inv": lambda a: 1 - a,
    "nand2": lambda a, b: 1 - (a & b),
    "nor2": lambda a, b: 1 - (a | b),
}


class PerVectorAging:
    """Reference aging: one gate walk and one observe per node per vector."""

    def __init__(self, circuit):
        self.circuit = circuit
        self.ledger = StressLedger()
        self.elapsed = 0.0

    def evaluate(self, vector):
        inputs = self.circuit.inputs
        missing = [n for n in inputs if n not in vector]
        if missing:
            raise ValueError(f"missing values for inputs: {missing[:8]}")
        values = {}
        for node in inputs:
            value = vector[node]
            if value not in (0, 1):
                raise ValueError(f"input {node!r} must be 0/1, got {value!r}")
            values[node] = value
        for gate in self.circuit.topological_order():
            values[gate.output] = _TRUTH[gate.kind.value](
                *[values[n] for n in gate.inputs])
        return values

    def apply(self, vector, duration):
        if duration < 0.0:
            raise ValueError("duration must be non-negative")
        if duration == 0.0:
            return
        for node, value in self.evaluate(vector).items():
            self.ledger.observe(node, value, duration)
        self.elapsed += duration

    def report(self, threshold=FULL_STRESS_THRESHOLD):
        duties = [(p, self.ledger.duty(p.gate_node))
                  for p in self.circuit.pmos_transistors()]
        stressed = [p for p, duty in duties if duty >= threshold]
        narrow_stressed = sum(1 for p in stressed if p.is_narrow)
        worst = max((duty for p, duty in duties if p.is_narrow), default=0.0)
        return AgingReport(
            total_transistors=2 * len(duties),
            narrow_count=sum(1 for p, __ in duties if p.is_narrow),
            narrow_fully_stressed=narrow_stressed,
            wide_fully_stressed=len(stressed) - narrow_stressed,
            worst_narrow_duty=worst,
            guardband=DEFAULT_GUARDBAND_MODEL.guardband_for_duty(worst),
        )


def ledger_state(ledger):
    """Every node in insertion order with its exact residencies."""
    return [(node, stress.time_at_zero, stress.time_at_one)
            for node, stress in ledger._nodes.items()]


@pytest.fixture(scope="module")
def adder():
    return build_ladner_fischer_adder(width=8)


def random_vectors(adder, rng, count):
    top = (1 << adder.width) - 1
    return [adder.input_vector(rng.randint(0, top), rng.randint(0, top),
                               rng.randint(0, 1)) for __ in range(count)]


class TestPackedAging:
    #: durations whose repeated sums round differently from products
    DURATIONS = (1.0, 0.3 / 256, 1.0 / 3.0, 0.1, 2.5e-7)

    @pytest.mark.parametrize("duration", DURATIONS)
    def test_fresh_ledger(self, adder, duration):
        vectors = random_vectors(adder, random.Random(1), 200)
        packed = AgingSimulator(adder.circuit)
        packed.apply_sequence(vectors, duration)
        oracle = PerVectorAging(adder.circuit)
        for vector in vectors:
            oracle.apply(vector, duration)
        assert ledger_state(packed.ledger) == ledger_state(oracle.ledger)
        assert packed.elapsed == oracle.elapsed

    def test_non_fresh_ledger(self, adder):
        rng = random.Random(2)
        packed = AgingSimulator(adder.circuit)
        oracle = PerVectorAging(adder.circuit)
        for count, duration in ((37, 0.7 / 37), (1, 0.15), (64, 1.0 / 7.0),
                                (2, 0.15), (5, 0.0), (9, 3.0)):
            vectors = random_vectors(adder, rng, count)
            if count == 1:
                packed.apply(vectors[0], duration)
            else:
                packed.apply_sequence(vectors, duration)
            for vector in vectors:
                oracle.apply(vector, duration)
        assert ledger_state(packed.ledger) == ledger_state(oracle.ledger)
        assert packed.elapsed == oracle.elapsed
        assert packed.report() == oracle.report()

    def test_zero_duration_is_a_no_op(self, adder):
        packed = AgingSimulator(adder.circuit)
        packed.apply_sequence([{"not": "an input"}], 0.0)
        packed.apply({}, 0.0)
        assert len(packed.ledger) == 0 and packed.elapsed == 0.0

    def test_negative_duration_rejected(self, adder):
        vectors = random_vectors(adder, random.Random(3), 3)
        with pytest.raises(ValueError) as oracle_error:
            PerVectorAging(adder.circuit).apply(vectors[0], -1.0)
        with pytest.raises(ValueError) as packed_error:
            AgingSimulator(adder.circuit).apply_sequence(vectors, -1.0)
        assert str(packed_error.value) == str(oracle_error.value)

    @pytest.mark.parametrize("corrupt", [
        lambda v: v.pop("b3"),
        lambda v: (v.pop("a7"), v.pop("cin")),
        lambda v: v.update(a2=2),
        lambda v: v.update(b0="1"),
        lambda v: v.update(cin=None),
    ])
    def test_same_input_errors(self, adder, corrupt):
        vectors = random_vectors(adder, random.Random(4), 6)
        corrupt(vectors[3])
        oracle = PerVectorAging(adder.circuit)
        with pytest.raises(ValueError) as oracle_error:
            for vector in vectors:
                oracle.apply(vector, 1.0)
        with pytest.raises(ValueError) as packed_error:
            AgingSimulator(adder.circuit).apply_sequence(vectors, 1.0)
        assert str(packed_error.value) == str(oracle_error.value)

    def test_one_lane_evaluate_matches_truth_tables(self):
        builder = CircuitBuilder("mix")
        a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
        builder.mark_output(builder.aoi21(a, b, builder.xnor2(b, c), "out"))
        oracle = PerVectorAging(builder.circuit)
        for bits in range(8):
            vector = {"a": bits & 1, "b": (bits >> 1) & 1, "c": bits >> 2}
            values = builder.circuit.evaluate(vector)
            assert list(values.items()) == list(oracle.evaluate(vector).items())

    def test_injector_matches_per_vector_aging(self):
        adder32 = build_ladner_fischer_adder()
        rng = random.Random(5)
        real = [(rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(1))
                for __ in range(256)]
        for utilization, inject in ((0.3, True), (1.0, False), (0.0, True)):
            report = IdleInputInjector(adder32, (1, 8)).age(
                real, utilization, inject=inject)
            oracle = PerVectorAging(adder32.circuit)
            weight = (utilization if inject else 1.0) / len(real)
            for vector in real:
                oracle.apply(adder32.input_vector(*vector), weight)
            if inject and utilization < 1.0:
                inputs = synthetic_inputs(32)
                for index in (1, 8):
                    oracle.apply(adder32.input_vector(*inputs[index - 1]),
                                 (1.0 - utilization) / 2.0)
            assert report == oracle.report()


@pytest.mark.parametrize("width,threshold", [(8, 4), (32, 4), (32, 2)])
def test_linear_fanout_sizing_matches_per_gate_fanout(width, threshold):
    from repro.nbti.transistor import WidthClass

    circuit = build_ladner_fischer_adder(
        width=width, wide_fanout=threshold, output_stage_depth=0).circuit
    wide = {g.name for g in circuit.gates
            if g.width_class is WidthClass.WIDE}
    assert wide == {g.name for g in circuit.gates
                    if circuit.fanout(g.output) >= threshold}


# ----------------------------------------------------------------------
# (a) By-value bias accounting
# ----------------------------------------------------------------------
class PerBitAccumulator:
    """Reference accounting: each closed interval added to every bit of
    its own cell; the bias sums the cells of each position afterwards."""

    def __init__(self, entries, width, initial_value=0):
        self.width = width
        self.zero = [[0.0] * width for __ in range(entries)]
        self.one = [[0.0] * width for __ in range(entries)]
        self.values = [initial_value] * entries
        self.since = [0.0] * entries

    def set_value(self, entry, value, now):
        self._close(entry, now)
        self.values[entry] = value

    def finalize(self, now):
        for entry in range(len(self.values)):
            self._close(entry, now)

    def _close(self, entry, now):
        duration = now - self.since[entry]
        if duration > 0.0:
            for bit in range(self.width):
                if (self.values[entry] >> bit) & 1:
                    self.one[entry][bit] += duration
                else:
                    self.zero[entry][bit] += duration
        self.since[entry] = now

    def bias_to_zero(self):
        zero = [sum(column) for column in zip(*self.zero)]
        one = [sum(column) for column in zip(*self.one)]
        return [z / (z + o) if z + o > 0.0 else 0.5 for z, o in zip(zero, one)]

    def total_observed_time(self):
        return float(sum(map(sum, self.zero)) + sum(map(sum, self.one)))


def whole_cycle_stream(seed, entries, width, events, live=None,
                       steps=(0, 1, 1, 2, 3, 17)):
    """Per-entry monotonic events, globally out of order like the core's,
    over values that repeat often enough to merge keys and vary often
    enough to force several folds.  Only ``live`` entries are written
    (all by default); ``steps`` are the time increments."""
    rng = random.Random(seed)
    live = range(entries) if live is None else live
    pool = [rng.getrandbits(width) for __ in range(8)]
    clock = [0.0] * entries
    stream = []
    for __ in range(events):
        entry = rng.choice(live)
        clock[entry] += float(rng.choice(steps))
        value = (rng.choice(pool) if rng.random() < 0.6
                 else rng.getrandbits(width))
        stream.append((entry, value, clock[entry]))
    return stream, max(clock) + 5.0


def assert_same_accounting(acc, oracle):
    assert floats(acc.bias_to_zero()) == oracle.bias_to_zero()
    assert acc.total_observed_time() == oracle.total_observed_time()


def per_bit_sums(zero, one, items, width):
    """Add ``(value, duration)`` pairs to position totals bit by bit."""
    for value, held in items:
        for bit in range(width):
            if (value >> bit) & 1:
                one[bit] += held
            else:
                zero[bit] += held


class TestByValueAccounting:
    @pytest.mark.parametrize("entries,width,initial", [
        (32, 144, 0), (128, 32, 0), (8, 12, 0xABC), (4, 2, 1),
    ])
    def test_matches_per_bit_accounting(self, entries, width, initial):
        stream, end = whole_cycle_stream(entries * width, entries, width,
                                         4 * FOLD_KEYS + 37)
        acc = BitBiasAccumulator(entries, width, initial)
        oracle = PerBitAccumulator(entries, width, initial)
        for index, (entry, value, now) in enumerate(stream):
            acc.set_value(entry, value, now)
            oracle.set_value(entry, value, now)
            if index % 301 == 0:  # mid-run reads fold a partial batch
                assert_same_accounting(acc, oracle)
        acc.finalize(end)
        oracle.finalize(end)
        assert_same_accounting(acc, oracle)

    def test_reset_and_rerun_is_identical(self):
        stream, end = whole_cycle_stream(7, 16, 40, 3 * FOLD_KEYS)
        acc = BitBiasAccumulator(16, 40)
        runs = []
        for __ in range(2):
            for entry, value, now in stream:
                acc.set_value(entry, value, now)
            acc.finalize(end)
            runs.append((floats(acc.bias_to_zero()),
                         acc.total_observed_time()))
            acc.reset()
        assert runs[0] == runs[1]
        assert acc.total_observed_time() == 0.0

    def test_python_fold_matches_numpy_fold(self):
        np = pytest.importorskip("numpy")
        from repro.uarch.bitbias import fold_numpy

        rng = random.Random(8)
        width = 80
        zero_np, one_np = np.zeros(width), np.zeros(width)
        zero_py, one_py = [0.0] * width, [0.0] * width
        zero, one = [0.0] * width, [0.0] * width
        for __ in range(3):  # non-zero totals from the second batch on
            items = [(rng.getrandbits(width), float(rng.randint(1, 1000)))
                     for __ in range(FOLD_KEYS)]
            fold_numpy(zero_np, one_np, items, width)
            fold_python(zero_py, one_py, items, width)
            per_bit_sums(zero, one, items, width)
            assert zero_np.tolist() == zero_py == zero
            assert one_np.tolist() == one_py == one

    @pytest.mark.parametrize("entries,live", [(12, (1, 5, 6)), (4, (3,)),
                                              (32, tuple(range(0, 32, 3)))])
    def test_grouped_numpy_fold_matches_per_bit_sums(self, entries, live):
        # Pending intervals are grouped by value across entries; entries
        # outside ``live`` hold their initial value throughout.
        pytest.importorskip("numpy")
        width = 144
        stream, end = whole_cycle_stream(entries, entries, width,
                                         3 * FOLD_KEYS, live=live)
        acc = BitBiasAccumulator(entries, width, 0x5A5)
        oracle = PerBitAccumulator(entries, width, 0x5A5)
        for entry, value, now in stream:
            acc.set_value(entry, value, now)
            oracle.set_value(entry, value, now)
        acc.finalize(end)
        oracle.finalize(end)
        assert_same_accounting(acc, oracle)

    def test_fractional_durations_stay_close(self):
        # Off whole cycles the regrouped sums may round differently from
        # the per-bit order, but only by float rounding; a bit that is
        # always one still reads exactly 0.0 (the zero total is kept,
        # not derived as total minus one).
        entries, width = 8, 24
        stream, end = whole_cycle_stream(3, entries, width, 3 * FOLD_KEYS,
                                         steps=(0.1, 1 / 3, 0.7))
        always_one = 1 << (width - 1)
        acc = BitBiasAccumulator(entries, width, always_one)
        oracle = PerBitAccumulator(entries, width, always_one)
        for entry, value, now in stream:
            acc.set_value(entry, value | always_one, now)
            oracle.set_value(entry, value | always_one, now)
        acc.finalize(end)
        oracle.finalize(end)
        bias = floats(acc.bias_to_zero())
        assert bias[-1] == 0.0
        assert bias == pytest.approx(oracle.bias_to_zero(), abs=1e-12)
        assert acc.total_observed_time() == pytest.approx(
            oracle.total_observed_time(), rel=1e-12)

    @pytest.mark.parametrize("width", [4, 12])
    def test_oversize_values_rejected(self, width):
        top = (1 << width) - 1
        message = f"does not fit in {width} bits"
        acc = BitBiasAccumulator(2, width)
        acc.set_value(0, top, 1.0)
        with pytest.raises(ValueError, match=message):
            acc.set_value(0, 0xABCD, 2.0)
        with pytest.raises(ValueError, match="non-negative"):
            acc.set_value(1, -1, 2.0)
        assert acc.current_value(0) == top

    def test_register_file_rejects_oversize_write(self):
        from repro.uarch.regfile import RegisterFile

        rf = RegisterFile(entries=2, width=12)
        rf.write(0, 0xBCD, 1.0)
        with pytest.raises(ValueError, match="does not fit in 12 bits"):
            rf.write(0, 0xABCD, 2.0)
        assert rf.read(0) == 0xBCD


# ----------------------------------------------------------------------
# (b) Table-driven scheduler repair, (c) row-counting profiler
# ----------------------------------------------------------------------
def composed_repair_values(policy, rinv, step):
    """Reference repair: one ``repair_bit`` call per bit per release."""
    phase = (step % K_PHASE_STEPS) / K_PHASE_STEPS
    values = {}
    for fieldname, directives in policy.items():
        register = rinv.get(fieldname)
        composed, any_bit = 0, False
        for bit_index, directive in enumerate(directives):
            sampled = None
            if register is not None:
                sampled = 1 - ((register.value >> bit_index) & 1)
            bit = repair_bit(directive, phase, sampled)
            if bit is not None:
                any_bit = True
                composed |= bit << bit_index
        if any_bit:
            values[fieldname] = composed
    return values


class RecordingScheduler:
    """Accepts every row patch and records it."""

    def __init__(self):
        self.writes = []

    def write_patch(self, slot, keep, bits, now):
        self.writes.append((keep, bits))
        return True


def write_fields(row, values):
    """Write field ``values`` into a row one field at a time."""
    for fieldname, value in values.items():
        start, width = SCHEDULER_LAYOUT.bit_offsets()[fieldname]
        row &= ~(((1 << width) - 1) << start)
        row |= value << start
    return row


def mixed_policy():
    """Every technique in every field, K-duty bits at assorted K."""
    cycle = [BitDirective(Technique.ALL1), BitDirective(Technique.ISV),
             BitDirective(Technique.ALL0_K, 0.35),
             BitDirective(Technique.SELF_BALANCED),
             BitDirective(Technique.ALL1_K, 0.8), BitDirective(Technique.ALL0),
             BitDirective(Technique.UNPROTECTED)]
    policy = {}
    for offset, (name, width) in enumerate(SCHEDULER_LAYOUT.fields().items()):
        if name != "valid":
            policy[name] = [cycle[(offset + bit) % len(cycle)]
                            for bit in range(width)]
    return policy


@pytest.fixture(scope="module")
def profiled():
    trace = TraceGenerator(seed=9).generate("specint2000", length=1500)
    profiler = SchedulerProfiler()
    result = TraceDrivenCore(hooks=profiler).run(trace)
    return profiler, result


class TestTableDrivenRepair:
    @pytest.mark.parametrize("which", ["paper", "derived", "mixed"])
    def test_matches_repair_bit_composition(self, which, profiled):
        profiler, result = profiled
        policy = {
            "paper": PAPER_SCHEDULER_POLICY,
            "derived": derive_scheduler_policy(
                profiler, result.scheduler.occupancy),
            "mixed": mixed_policy(),
        }[which]
        protector = SchedulerProtector(policy)
        rng = random.Random(len(which))
        sched = RecordingScheduler()
        width = SCHEDULER_LAYOUT.total_bits
        for step in range(2 * K_PHASE_STEPS):
            if step % 7 == 0:
                for register in protector.rinv.values():
                    register.update_from_sample(
                        rng.getrandbits(register.width))
            expected = composed_repair_values(policy, protector.rinv, step)
            protector.on_scheduler_release(sched, 0, float(step))
            keep, bits = sched.writes[-1]
            # All-zero and all-one rows expose any stray set or cleared
            # bit; random rows mix both.
            for prior in [0, (1 << width) - 1] + [rng.getrandbits(width)
                                                  for __ in range(4)]:
                assert (prior & keep) | bits == write_fields(prior, expected)
        assert len(sched.writes) == protector.updates_written == \
            2 * K_PHASE_STEPS

    def test_policy_with_nothing_to_repair_writes_nothing(self):
        policy = {name: [BitDirective(Technique.SELF_BALANCED)] * width
                  for name, width in SCHEDULER_LAYOUT.fields().items()}
        protector = SchedulerProtector(policy)
        sched = RecordingScheduler()
        protector.on_scheduler_release(sched, 0, 1.0)
        assert sched.writes == [] and protector.updates_written == 0


class PerBitProfiler(CoreHooks):
    """Reference profiler: per-bit one counts at every fill."""

    def __init__(self):
        self.ones = {name: [0] * width
                     for name, width in SCHEDULER_LAYOUT.fields().items()}
        self.fills = {name: 0 for name in SCHEDULER_LAYOUT.fields()}

    def on_scheduler_fill(self, sched, slot, uop, now):
        mob_id = 0 if uop.uop_class.is_memory else None
        values = sched.field_values(uop, mob_id=mob_id)
        for name, counts in self.ones.items():
            if name in values:
                self.fills[name] += 1
                for bit in range(len(counts)):
                    counts[bit] += (values[name] >> bit) & 1

    def busy_bias_to_zero(self):
        return {name: [1.0 - ones / max(1, self.fills[name])
                       for ones in counts]
                for name, counts in self.ones.items()}


@pytest.mark.parametrize("fold_values", [None, 8])
def test_value_counting_profiler_matches_per_bit_counts(monkeypatch,
                                                        fold_values):
    from repro.core import memory_like

    if fold_values is not None:  # force many mid-run folds
        monkeypatch.setattr(memory_like, "PROFILE_FOLD_VALUES", fold_values)
    trace = TraceGenerator(seed=3).generate("office", length=1200)
    profiler, oracle = SchedulerProfiler(), PerBitProfiler()
    core = TraceDrivenCore(hooks=CompositeHooks([profiler, oracle]))
    core.run(trace[:500])
    assert profiler.busy_bias_to_zero() == oracle.busy_bias_to_zero()
    core.run(trace[500:])
    assert profiler.busy_bias_to_zero() == oracle.busy_bias_to_zero()


# ----------------------------------------------------------------------
# (e) Profiling fused into the first baseline run
# ----------------------------------------------------------------------
def report_view(report):
    return (
        [core_result_view(r) for r in report.baseline + report.protected],
        report.block_costs, report.adder_guardband, report.int_rf_bias,
        report.fp_rf_bias, report.scheduler_bias, report.combined_cpi,
        report.efficiency, report.baseline_efficiency,
    )


class TestFusedProfiling:
    @pytest.fixture(scope="class")
    def workload(self):
        return [TraceGenerator(seed=12).generate(suite, length=1200)
                for suite in ("office", "specfp2000")]

    def test_same_policy_and_core_result(self, workload):
        processor = PenelopeProcessor()
        separate_policy = processor.derive_policy(workload[0])
        separate = processor.run_baseline(workload[0])
        profiler = SchedulerProfiler()
        fused = processor.run_baseline(workload[0], profiler)
        fused_policy = derive_scheduler_policy(profiler,
                                               fused.scheduler.occupancy)
        assert fused_policy == separate_policy
        assert core_result_view(fused) == core_result_view(separate)

    def test_evaluate_matches_separately_derived_policy(self, workload):
        policy = PenelopeProcessor().derive_policy(workload[0])
        fused = PenelopeProcessor(seed=5).evaluate(workload)
        pinned = PenelopeProcessor(scheduler_policy=policy,
                                   seed=5).evaluate(workload)
        assert report_view(fused) == report_view(pinned)


# ----------------------------------------------------------------------
# (f) Scheduler rows as one int
# ----------------------------------------------------------------------
def table2_fields(layout, uop, mob_id, dst_tag=0, src1_tag=0, src2_tag=0):
    """Reference Table 2 payload: one dict entry per field."""
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


@pytest.mark.parametrize("suite", ["specint2000", "office", "specfp2000"])
def test_row_decode_matches_per_field_payload(suite):
    rng = random.Random(suite)
    trace = TraceGenerator(seed=4).generate(suite, length=600)
    sched = Scheduler(entries=1)
    layout = sched.layout
    stale_mob = 0
    now = 0.0
    for uop in trace:
        mob_id = rng.getrandbits(8) if rng.random() < 0.5 else None
        tags = [rng.getrandbits(9) for __ in range(3)]
        expected = table2_fields(layout, uop, mob_id, *tags)
        assert sched.field_values(uop, mob_id, *tags) == expected
        slot = sched.allocate(now)
        sched.fill(slot, uop, mob_id, now, *tags)
        if mob_id is not None:
            stale_mob = expected["mob_id"]
        # A fill without a MOB id keeps the previous MOB bits.
        expected["mob_id"] = stale_mob
        assert {name: sched.field_value(slot, name)
                for name in layout.fields()} == expected
        sched.release(slot, now + 1.0)
        now += 2.0


# ----------------------------------------------------------------------
# (g) Hook callbacks bound once per run
# ----------------------------------------------------------------------
class Recorder(CoreHooks):
    """Logs every callback it overrides, tagged with its name."""

    def __init__(self, name, log):
        self.name = name
        self.log = log


class FillsOnly(Recorder):
    def on_scheduler_fill(self, sched, slot, uop, now):
        self.log.append((self.name, "fill", slot, uop.seq, now))


class Releases(Recorder):
    def on_scheduler_release(self, sched, slot, now):
        self.log.append((self.name, "sched_release", slot, now))

    def on_regfile_release(self, rf, entry, now):
        self.log.append((self.name, "rf_release", rf.name, entry, now))


class Everything(FillsOnly, Releases):
    def on_regfile_write(self, rf, entry, value, now):
        self.log.append((self.name, "rf_write", rf.name, entry, value, now))


class Unbound(CoreHooks):
    """Calls every callback of ``inner`` by hand, so a run reaches the
    hooks through the ``CompositeHooks`` fan-out."""

    def __init__(self, inner):
        self.inner = inner

    def on_regfile_write(self, rf, entry, value, now):
        self.inner.on_regfile_write(rf, entry, value, now)

    def on_regfile_release(self, rf, entry, now):
        self.inner.on_regfile_release(rf, entry, now)

    def on_scheduler_fill(self, sched, slot, uop, now):
        self.inner.on_scheduler_fill(sched, slot, uop, now)

    def on_scheduler_release(self, sched, slot, now):
        self.inner.on_scheduler_release(sched, slot, now)


def recorders(log):
    return CompositeHooks([
        FillsOnly("a", log), CoreHooks(), Everything("b", log),
        CompositeHooks([Releases("c", log), FillsOnly("d", log),
                        CompositeHooks([])]),
        Releases("e", log),
    ])


def test_bound_callbacks_see_the_fan_out_events():
    from repro.uarch.core import _bind

    trace = TraceGenerator(seed=6).generate("specfp2000", length=800)
    bound_log, unbound_log = [], []
    TraceDrivenCore(hooks=recorders(bound_log)).run(trace)
    TraceDrivenCore(hooks=Unbound(recorders(unbound_log))).run(trace)
    assert bound_log == unbound_log
    kinds = {(entry[0], entry[1]) for entry in bound_log}
    assert kinds == {("a", "fill"), ("b", "fill"), ("b", "sched_release"),
                     ("b", "rf_write"), ("b", "rf_release"), ("d", "fill"),
                     ("c", "sched_release"), ("c", "rf_release"),
                     ("e", "sched_release"), ("e", "rf_release")}
    # Callbacks inherited unchanged from CoreHooks are never bound.
    for name in ("on_scheduler_fill", "on_scheduler_release",
                 "on_regfile_write", "on_regfile_release"):
        assert _bind(CompositeHooks([CoreHooks(), CompositeHooks([])]),
                     name) == ()
    assert [cb.__self__.name
            for cb in _bind(recorders([]), "on_scheduler_fill")] == \
        ["a", "b", "d"]


# ----------------------------------------------------------------------
# (h) One call per residency write
# ----------------------------------------------------------------------
class ThreeLevelAccumulator(BitBiasAccumulator):
    """The accumulator's write before it was fused: ``set_value``
    checks the value and calls ``_close``, which closes the interval;
    ``latest`` is never advanced."""

    def set_value(self, entry, value, now):
        if value < 0 or value >> self.width:
            check_fits(value, self.width)
        self._close(entry, now)
        self.values[entry] = value

    def finalize(self, now):
        for entry in range(self.entries):
            self._close(entry, now)

    def _close(self, entry, now):
        since = self._since[entry]
        if now > since:
            value = self.values[entry]
            pending = self._pending
            if value in pending:
                pending[value] += now - since
            else:
                pending[value] = now - since
                if len(pending) >= FOLD_KEYS:
                    self._fold()
        elif now < since:
            raise ValueError(
                f"time went backwards for entry {entry}: {since} -> {now}")
        self._since[entry] = now


def field_bits(*names):
    """The row bits of the named scheduler fields."""
    bits = 0
    for name in names:
        start, width = SCHEDULER_LAYOUT.bit_offsets()[name]
        bits |= ((1 << width) - 1) << start
    return bits


class ThreeLevelWrites:
    """The entry write path before it was fused: ``_write`` books a
    port and calls ``_set``, which calls the accumulator and advances
    the horizon; the special-write gate asks ``port_available``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bias = ThreeLevelAccumulator(self.entries, self.width,
                                          self.bias.initial_value)
        self._init_run_state()

    def _set(self, entry, value, now):
        self.bias.set_value(entry, value, now)
        if now > self._horizon:
            self._horizon = now

    def _write(self, entry, value, now):
        cycle = int(now)
        self.port_use[cycle] = self.port_use.get(cycle, 0) + 1
        self._set(entry, value, now)

    def port_available(self, now):
        self._port_checks += 1
        free = self.port_use.get(int(now), 0) < self.ports
        if free:
            self._port_free_hits += 1
        return free

    def _write_special(self, entry, value, now):
        if self._busy[entry] or not self.port_available(now):
            self._discarded_special += 1
            return False
        self._write(entry, value, now)
        self._special_writes += 1
        return True


class ThreeLevelRegisterFile(ThreeLevelWrites, RegisterFile):
    pass


class ThreeLevelScheduler(ThreeLevelWrites, Scheduler):
    def fill(self, slot, uop, mob_id, now, dst_tag=0, src1_tag=0,
             src2_tag=0):
        row = self.compose_row(uop, mob_id, dst_tag, src1_tag, src2_tag)
        if mob_id is None:
            row |= self.values[slot] & field_bits("mob_id")
        self._write(slot, row, now)

    def set_ready(self, slot, operand, now):
        self._set(slot, self.values[slot] | field_bits(f"ready{operand}"),
                  now)

    def release(self, slot, now):
        EntryArray.release(self, slot, now)
        self._set(slot, self.values[slot] & ~field_bits("valid"), now)

    def write_patch(self, slot, keep, bits, now):
        return self._write_special(slot, (self.values[slot] & keep) | bits,
                                   now)


def stats_view(stats):
    view = {}
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if field.name == "bias_to_zero":
            value = floats(value)
        elif field.name == "field_bias":
            value = {name: floats(bias) for name, bias in value.items()}
        view[field.name] = value
    return view


def assert_same_structure(fused, oracle):
    assert floats(fused.bias.bias_to_zero()) == \
        floats(oracle.bias.bias_to_zero())
    assert fused.bias.total_observed_time() == \
        oracle.bias.total_observed_time()
    assert fused.port_use == oracle.port_use
    assert fused.metrics().flatten() == oracle.metrics().flatten()


def lockstep(fused, oracle, seed, events, fill, write, special):
    """Drive both structures through one seeded whole-cycle stream:
    allocations (with ``fill``), workload writes (``write``), releases
    followed by a special write (``special``) at the release time,
    special writes into busy entries (always discarded), and mid-run
    reads.  Times are monotonic per entry, not globally, as in the core;
    several releases share a cycle, so some special writes find no
    port."""
    rng = random.Random(seed)
    clock = [0.0] * fused.entries
    busy = []
    now = 0.0
    for index in range(events):
        now += rng.choice((0.0, 0.0, 1.0, 2.0))
        op = rng.random()
        if op < 0.3:
            entry = fused.allocate(now)
            assert oracle.allocate(now) == entry
            if entry is not None:
                busy.append(entry)
                clock[entry] = now
                for structure in (fused, oracle):
                    fill(structure, entry, now, random.Random(index))
        elif busy and op < 0.6:
            entry = rng.choice(busy)
            clock[entry] = max(clock[entry], now) + rng.choice((0.0, 1.0, 3.0))
            for structure in (fused, oracle):
                write(structure, entry, clock[entry], random.Random(index))
        elif busy and op < 0.9:
            entry = busy.pop(rng.randrange(len(busy)))
            clock[entry] = max(clock[entry], now) + rng.choice((0.0, 1.0))
            accepted = []
            for structure in (fused, oracle):
                structure.release(entry, clock[entry])
                accepted.append(special(structure, entry, clock[entry],
                                        random.Random(index)))
            assert accepted[0] == accepted[1]
        elif busy:
            entry = rng.choice(busy)
            for structure in (fused, oracle):
                assert not special(structure, entry, now,
                                   random.Random(index))
        if index % 97 == 0:
            assert_same_structure(fused, oracle)
    counts = fused.metrics().flatten()
    assert counts["special_writes"] > 0
    assert counts["discarded_special_writes"] > counts["port_checks"] - \
        counts["port_free_hits"] > 0


def rf_values(rf):
    return [rf.read(entry) for entry in range(rf.entries)]


@pytest.mark.parametrize("entries,width,ports", [(8, 32, 1), (24, 80, 2)])
def test_fused_register_file_writes_match_three_level(entries, width,
                                                       ports):
    pool_rng = random.Random(width)
    pool = [pool_rng.getrandbits(width) for __ in range(6)]

    def value(rng):
        return rng.choice(pool) if rng.random() < 0.5 else \
            rng.getrandbits(width)

    fused = RegisterFile(entries, width, ports)
    oracle = ThreeLevelRegisterFile(entries, width, ports)
    lockstep(fused, oracle, entries * width, 4000,
             fill=lambda rf, entry, now, rng: None,
             write=lambda rf, entry, now, rng: rf.write(entry, value(rng),
                                                        now),
             special=lambda rf, entry, now, rng: rf.write_special(
                 entry, value(rng), now))
    assert rf_values(fused) == rf_values(oracle)
    assert stats_view(fused.finalize()) == stats_view(oracle.finalize())
    assert_same_structure(fused, oracle)


@pytest.mark.parametrize("entries,ports", [(8, 1), (32, 4)])
def test_fused_scheduler_writes_match_three_level(entries, ports):
    trace = TraceGenerator(seed=entries).generate("specint2000", length=600)
    offsets = SCHEDULER_LAYOUT.bit_offsets()
    patches = [row_patch(offsets, {"flags": flags, "src1_data": data})
               for flags in (0, 0x3F) for data in (0, 0xFFFFFFFF, 0x5A5A)]

    def fill(sched, slot, now, rng):
        uop = trace[rng.randrange(len(trace))]
        mob_id = rng.randrange(64) if uop.uop_class.is_memory else None
        sched.fill(slot, uop, mob_id, now,
                   *(rng.randrange(128) for __ in range(3)))

    fused = Scheduler(entries, alloc_ports=ports)
    oracle = ThreeLevelScheduler(entries, alloc_ports=ports)
    lockstep(fused, oracle, entries, 4000, fill=fill,
             write=lambda sched, slot, now, rng: sched.set_ready(
                 slot, rng.choice((1, 2)), now),
             special=lambda sched, slot, now, rng: sched.write_patch(
                 slot, *rng.choice(patches), now))
    assert fused.values == oracle.values
    assert stats_view(fused.finalize()) == stats_view(oracle.finalize())
    assert_same_structure(fused, oracle)


class FilledRows(CoreHooks):
    """Each filled row as the profiler sees it, and composed anew."""

    def __init__(self):
        self.rows = []

    def on_scheduler_fill(self, sched, slot, uop, now):
        self.rows.append((sched.values[slot], sched.compose_row(uop, None)))


@pytest.mark.parametrize("suite", ["office", "specfp2000"])
def test_masked_filled_row_is_the_composed_row(suite):
    keep = ~field_bits("dst_tag", "src1_tag", "src2_tag", "mob_id")
    trace = TraceGenerator(seed=12).generate(suite, length=1200)
    hook = FilledRows()
    TraceDrivenCore(hooks=hook).run(trace)
    assert len(hook.rows) == 1200
    assert [filled & keep for filled, __ in hook.rows] == \
        [composed for __, composed in hook.rows]
    # The mask matters: most filled rows carry tags or a MOB id.
    assert sum(filled != composed for filled, composed in hook.rows) > 600


def test_uop_class_flags_match_tuple_membership():
    for kind in UopClass:
        assert kind.is_memory is (kind in (UopClass.LOAD, UopClass.STORE))
        assert kind.uses_adder is (
            kind in (UopClass.ALU, UopClass.LOAD, UopClass.STORE))


def float_walk_adder_issue(pool, uop, cycle, duration=1.0):
    """``AdderPool.issue`` before the pick and the reservoir sample were
    inlined: ``_select``, then ``_sample``, then ``max()``."""
    adders, n = pool.adders, len(pool.adders)
    adder = None
    if pool.policy is AdderPolicy.PRIORITY:
        adder = next((a for a in adders if a.busy_until <= cycle), None)
    else:
        for offset in range(n):
            candidate = adders[(pool._rr + offset) % n]
            if candidate.busy_until <= cycle:
                pool._rr = (candidate.index + 1) % n
                adder = candidate
                break
    if adder is None:
        return None
    adder.busy_until = cycle + duration
    adder.busy_cycles += duration
    adder.operations += 1
    vector = uop.adder_operands()
    pool._seen[adder.index] += 1
    samples = pool._samples[adder.index]
    if len(samples) < pool.sample_capacity:
        samples.append(vector)
    else:
        slot = pool._rng.randrange(pool._seen[adder.index])
        if slot < pool.sample_capacity:
            samples[slot] = vector
    pool._horizon = max(pool._horizon, cycle + duration)
    return adder.index


def float_walk_issue_cycle(core, uop, ready_t):
    """``_find_issue_cycle`` before it walked int cycles: float cycles
    from ``ceil(ready_t)`` by two conversions and a ``max()``.  The
    int-cycle search is the per-event core's; the core loop inlines it
    and ``test_core_loop_differential.py`` holds the two loops equal."""
    t = float(int(ready_t)) if ready_t == int(ready_t) else float(
        int(ready_t) + 1)
    t = max(t, ready_t)
    while True:
        cycle = int(t)
        if core._issue_use.get(cycle, 0) < core.config.issue_width:
            if uop.uop_class in (UopClass.ALU, UopClass.LOAD,
                                 UopClass.STORE):
                if float_walk_adder_issue(core.adders, uop, t) is None:
                    t += 1.0
                    continue
            core._issue_use[cycle] = core._issue_use.get(cycle, 0) + 1
            return t
        t += 1.0


@pytest.mark.parametrize("policy", list(AdderPolicy))
def test_issue_search_matches_float_walk(policy):
    trace = TraceGenerator(seed=13).generate("specint2000", length=1500)
    config = CoreConfig(issue_width=2, n_adders=2, adder_policy=policy)
    fused, oracle = PerEventCore(config), PerEventCore(config)
    rng = random.Random(policy.value)
    front = 1.0
    for uop in trace:
        front += rng.choice((0.0, 0.0, 0.5, 1.0))
        ready_t = front + rng.choice((0.0, 0.25, 0.75, 4.0))
        issue_t = fused._find_issue_cycle(uop, ready_t)
        assert type(issue_t) is float
        assert issue_t == float_walk_issue_cycle(oracle, uop, ready_t)
    assert fused._issue_use == oracle._issue_use
    assert fused.adders.utilization() == oracle.adders.utilization()
    assert fused.adders._seen == oracle.adders._seen
    assert min(fused.adders._seen) > fused.adders.sample_capacity
    assert fused.adders.all_sampled_vectors() == \
        oracle.adders.all_sampled_vectors()


@pytest.mark.parametrize("kind", [UopClass.BRANCH, UopClass.ALU])
@pytest.mark.parametrize("ready_t,first", [
    (0.0, 0.0), (3.0, 3.0), (3.25, 4.0), (7.999, 8.0), (12.5, 13.0),
])
def test_issue_search_starts_at_ceil_of_ready_time(kind, ready_t, first):
    core = PerEventCore()
    uop = Uop(seq=0, uop_class=kind)
    assert core._find_issue_cycle(uop, ready_t) == first
    assert core._issue_use == {int(first): 1}


# ----------------------------------------------------------------------
# Workload synthesis kernels
# ----------------------------------------------------------------------
class HelperIntGenerator(BiasedIntGenerator):
    """``BiasedIntGenerator`` drawing through ``choice``/``randrange``."""

    def __post_init__(self):
        weights = [self.counter_weight, self.address_weight,
                   self.constant_weight, self.medium_weight,
                   self.random_weight]
        total = ordered_sum(weights)
        self._cdf = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._counter = self.rng.randrange(256) * 4

    def next(self):
        draw = self.rng.random()
        if draw < self._cdf[0]:
            bits = self.rng.choice((3, 4, 5, 6, 8, 10))
            value = (self.rng.randrange(1 << bits)
                     & self.rng.randrange(1 << bits)) * 4
            if self.rng.random() < 0.08:
                return (-value - 4) & INT_MASK
            return value
        if draw < self._cdf[1]:
            bits = self.rng.choice((6, 8, 10, 12, 14, 16))
            offset = (self.rng.randrange(1 << bits)
                      & self.rng.randrange(1 << bits)) * 4
            return (self.region_base + offset) & INT_MASK
        if draw < self._cdf[2]:
            choice = self.rng.random()
            if choice < 0.5:
                return self.rng.choice((0, 1, 2, 4, 8))
            if choice < 0.85:
                return 1 << self.rng.randrange(12)
            return INT_MASK
        if draw < self._cdf[3]:
            return (self.rng.randrange(1 << 16)
                    & self.rng.randrange(1 << 16))
        return self.rng.randrange(1 << 32)


class HelperAddressGenerator(AddressGenerator):
    """``AddressGenerator`` before ``take``: one ``next`` per address,
    its region picked by a walk over the CDF."""

    def _pick_region(self):
        draw = self.rng.random()
        for region, edge in enumerate(self._region_cdf):
            if draw < edge:
                return region
        return len(self._region_cdf) - 1

    def next(self):
        if self.rng.random() < self.hot_fraction:
            region = self._pick_region()
            if self.rng.random() < 0.9:
                self._cursors[region] = (
                    self._cursors[region] + self.stride_bytes
                ) % self._region_bytes
                offset = self._cursors[region]
            else:
                offset = self.rng.randrange(self._region_bytes // 4) * 4
            return self._bases[region] + offset
        if self.rng.random() < 0.6:
            self._cold_cursor += 64
            return self._cold_base + self._cold_cursor
        lookback = min(self._cold_cursor, self.cold_bytes)
        offset = self.rng.randrange(max(1, lookback // 64)) * 64
        return self._cold_base + self._cold_cursor - offset

    def take(self, n):
        return [self.next() for __ in range(n)]


_LATENCY = {UopClass.ALU: 1, UopClass.MUL: 4, UopClass.FP: 5,
            UopClass.LOAD: 3, UopClass.STORE: 1, UopClass.BRANCH: 1,
            UopClass.NOP: 1}
_PORT = {UopClass.ALU: 0, UopClass.MUL: 1, UopClass.FP: 1,
         UopClass.LOAD: 2, UopClass.STORE: 3, UopClass.BRANCH: 4,
         UopClass.NOP: 0}
_OPCODE_BASE = {UopClass.ALU: 0x010, UopClass.MUL: 0x120,
                UopClass.FP: 0x230, UopClass.LOAD: 0x340,
                UopClass.STORE: 0x450, UopClass.BRANCH: 0x560,
                UopClass.NOP: 0x001}


def _pick_source(rng, recent, n_regs, locality):
    if recent and rng.random() < locality:
        return rng.choice(recent)
    return rng.randrange(n_regs)


def _remember_dst(recent, dst, depth=6):
    recent.append(dst)
    if len(recent) > depth:
        recent.pop(0)


def _flags_value(rng):
    flags = 0
    if rng.random() < 0.18:
        flags |= 1 << 3
    if rng.random() < 0.10:
        flags |= 1 << 0
    if rng.random() < 0.12:
        flags |= 1 << 4
    if rng.random() < 0.04:
        flags |= 1 << 1
    if rng.random() < 0.01:
        flags |= 1 << 5
    return flags


def _make_uop(seq, kind, profile, rng, int_values, fp_values, addresses,
              int_reg_values, fp_reg_values, recent_int, recent_fp, tos):
    locality = profile.dependency_locality
    is_fp = kind is UopClass.FP
    has_imm = rng.random() < profile.immediate_fraction
    immediate = int_values.next() & 0xFFFF if has_imm else 0
    src1 = src2 = dst = address = None
    src1_value = src2_value = result = 0
    is_sub = taken = False
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
        seq=seq, uop_class=kind,
        opcode=(_OPCODE_BASE[kind] + rng.randrange(12)) & 0xFFF,
        src1=src1, src2=src2, dst=dst, src1_value=src1_value,
        src2_value=src2_value, result_value=result, immediate=immediate,
        has_immediate=has_imm, is_fp=is_fp, latency=_LATENCY[kind],
        port=_PORT[kind], taken=taken, mispredicted=mispredicted,
        tos=tos if is_fp else 0,
        flags=_flags_value(rng) if kind in (UopClass.ALU, UopClass.MUL)
        else 0,
        shift1=rng.random() < profile.shift_fraction,
        shift2=rng.random() < profile.shift_fraction,
        address=address, is_sub=is_sub,
    )


def helper_uops(profile, rng, length):
    """``_synthesise_uops`` before its kernel: one ``_make_uop`` per uop,
    the class drawn by ``choices``."""
    weights = profile.int_value_weights
    int_values = HelperIntGenerator(
        rng, counter_weight=weights[0], address_weight=weights[1],
        constant_weight=weights[2], medium_weight=weights[3],
        random_weight=weights[4])
    fp_values = FPValueGenerator(rng)
    addresses = HelperAddressGenerator(
        rng, working_set_bytes=profile.working_set_bytes,
        hot_fraction=profile.hot_fraction, regions=profile.regions)
    classes = [UopClass.ALU, UopClass.MUL, UopClass.FP, UopClass.LOAD,
               UopClass.STORE, UopClass.BRANCH, UopClass.NOP]
    cum_mix = list(itertools.accumulate(profile.uop_mix))
    int_reg_values = [int_values.next() for _ in range(ARCH_INT_REGS)]
    fp_reg_values = [fp_values.next() for _ in range(ARCH_FP_REGS)]
    recent_int = list(range(4))
    recent_fp = list(range(2))
    tos = 0
    for seq in range(length):
        kind = rng.choices(classes, cum_weights=cum_mix)[0]
        uop = _make_uop(seq, kind, profile, rng, int_values, fp_values,
                        addresses, int_reg_values, fp_reg_values,
                        recent_int, recent_fp, tos)
        if kind is UopClass.FP:
            tos = (tos + rng.choice((0, 1, 7))) % 8
        yield uop


def element_round_robin(iterators, slice_length):
    live = list(iterators)
    while live:
        survivors = []
        for iterator in live:
            chunk = list(itertools.islice(iterator, slice_length))
            yield from chunk
            if len(chunk) == slice_length:
                survivors.append(iterator)
        live = survivors


def element_random_slice(iterators, slice_length, seed):
    rng = random.Random(f"multiprog/{seed}")
    live = list(iterators)
    while live:
        index = rng.randrange(len(live))
        chunk = list(itertools.islice(live[index], slice_length))
        yield from chunk
        if len(chunk) < slice_length:
            live.pop(index)


class EdgeRandom(random.Random):
    """A ``Random`` whose ``random()`` returns one of ``edges`` exactly
    on a quarter of its draws, so draws land on CDF edges, and whose
    ``getrandbits`` gives up after ``budget`` calls, so a redraw loop
    that cannot end fails instead of hanging.  Defining ``getrandbits``
    keeps ``randrange`` on its ``getrandbits`` rule."""

    edges = (0.5,)
    budget = 10 ** 6

    def random(self):
        value = super().random()
        if value < 0.25:
            return self.edges[int(value * 4 * len(self.edges))]
        return value

    def getrandbits(self, k):
        self.budget -= 1
        if self.budget < 0:
            raise RuntimeError("getrandbits budget exhausted")
        return super().getrandbits(k)


def uop_rows(uops):
    """Every field of every uop, types included (``True`` is not ``1``)."""
    return [repr(dataclasses.astuple(uop)) for uop in uops]


def first_difference(fast, slow):
    """``(index, fast, slow)`` where two sequences first differ, else
    None: a short failure report where a full diff would take minutes."""
    fast, slow = list(fast), list(slow)
    for index, pair in enumerate(zip(fast, slow)):
        if pair[0] != pair[1]:
            return (index,) + pair
    if len(fast) != len(slow):
        return min(len(fast), len(slow)), len(fast), len(slow)
    return None


#: Exact binary fractions, so ``random() * total`` can hit every edge.
EDGE_MIX = (0.25, 0.125, 0.125, 0.25, 0.125, 0.0625, 0.0625)


class TestSynthesisKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("suite", suite_names())
    def test_uop_kernel_matches_helpers(self, suite, seed):
        profile = get_profile(suite)
        rng, oracle = (random.Random(f"{seed}/{suite}/0") for __ in "ab")
        rows = uop_rows(helper_uops(profile, oracle, 1500))
        assert first_difference(
            uop_rows(_synthesise_uops(profile, rng, 1500)), rows) is None
        assert rng.getstate() == oracle.getstate()
        assert first_difference(
            uop_rows(TraceGenerator(seed).generate(suite, 1500)),
            rows) is None

    def test_uop_kernel_on_cdf_edges(self):
        profile = dataclasses.replace(get_profile("specfp2000"),
                                      uop_mix=EDGE_MIX)
        edges = tuple(itertools.accumulate(EDGE_MIX))
        rng, oracle = EdgeRandom(5), EdgeRandom(5)
        rng.edges = oracle.edges = edges
        assert edges[-1] == 1.0
        assert first_difference(
            uop_rows(_synthesise_uops(profile, rng, 3000)),
            uop_rows(helper_uops(profile, oracle, 3000))) is None
        assert rng.getstate() == oracle.getstate()

    def test_uop_kernel_with_outside_draws(self):
        profile = get_profile("multimedia")
        rng, oracle = random.Random(3), random.Random(3)
        kernel = _synthesise_uops(profile, rng, 2000)
        helper = helper_uops(profile, oracle, 2000)
        for piece in (1, 5, 300, 37, 1000, 657):
            assert first_difference(
                uop_rows(itertools.islice(kernel, piece)),
                uop_rows(itertools.islice(helper, piece))) is None
            assert rng.getrandbits(piece % 33) == \
                oracle.getrandbits(piece % 33)
            assert rng.random() == oracle.random()
        assert next(kernel, None) is next(helper, None) is None
        assert rng.getstate() == oracle.getstate()

    @pytest.mark.parametrize("seed", [0, 9])
    def test_int_generator_matches_helper_draws(self, seed):
        for weights in ((0.35, 0.25, 0.15, 0.15, 0.10), (0, 0, 0, 0, 1),
                        (1, 1, 1, 1, 1), (0, 0, 3, 1, 0)):
            rng, oracle = random.Random(seed), random.Random(seed)
            fast = BiasedIntGenerator(rng, *weights)
            slow = HelperIntGenerator(oracle, *weights)
            assert first_difference(
                [fast.next() for __ in range(3000)],
                [slow.next() for __ in range(3000)]) is None
            assert rng.getstate() == oracle.getstate()

    @pytest.mark.parametrize("config", [
        {},
        {"regions": 1},
        {"stride_bytes": 0},
        {"cold_bytes": 0, "hot_fraction": 0.3},
        {"cold_bytes": -64, "hot_fraction": 0.3},
        {"hot_fraction": 0.0},
        {"hot_fraction": 1.0},
        {"working_set_bytes": 24 * 1024, "regions": 12, "stride_bytes": 12},
    ])
    def test_take_matches_next_per_address(self, config):
        seed = len(repr(config))
        rng, oracle = EdgeRandom(seed), EdgeRandom(seed)
        fast = AddressGenerator(rng, **config)
        slow = HelperAddressGenerator(oracle, **config)
        rng.edges = oracle.edges = tuple(fast._region_cdf)
        for n in (1, 4095, 1, 4097, 700):
            assert first_difference(fast.take(n), slow.take(n)) is None
            assert fast.next() == slow.next()
            assert rng.random() == oracle.random()
        assert rng.getstate() == oracle.getstate()
        assert fast._cursors == slow._cursors
        assert fast._cold_cursor == slow._cold_cursor

    @pytest.mark.parametrize("length", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    def test_address_streams_match_next_per_address(self, length):
        profile = get_profile("server")
        oracle = HelperAddressGenerator(
            random.Random("addr/4/server/2"),
            working_set_bytes=profile.working_set_bytes,
            hot_fraction=profile.hot_fraction, regions=profile.regions)
        expected = oracle.take(length)
        assert first_difference(
            generate_address_stream("server", length, 4, 2), expected) is None
        assert first_difference(
            iter_address_stream("server", length, 4, 2), expected) is None

    def test_iter_address_stream_in_uneven_pieces(self):
        length = 3 * 4096 + 5
        stream = iter_address_stream("office", length, seed=6)
        pieces = []
        for size in itertools.cycle((1, 4095, 2, 37, 5000, 4096)):
            piece = list(itertools.islice(stream, size))
            if not piece:
                break
            pieces.append(piece)
        assert [len(piece) for piece in pieces][:4] == [1, 4095, 2, 37]
        assert first_difference(
            itertools.chain(*pieces),
            generate_address_stream("office", length, seed=6)) is None

    @pytest.mark.parametrize("slice_length", [1, 37, 64])
    @pytest.mark.parametrize("policy", ["round_robin", "random_slice"])
    def test_interleave_matches_element_wise(self, policy, slice_length):
        def element_wise(streams):
            if policy == "round_robin":
                return element_round_robin(streams, slice_length)
            return element_random_slice(streams, slice_length, 4)

        def streams():
            return [iter(range(500)), iter(range(1000, 1131)), iter(()),
                    iter(range(5000, 5064))]

        assert first_difference(
            interleave(streams(), policy=policy, slice_length=slice_length,
                       seed=4), element_wise(streams())) is None

        def unbounded(start):
            for value in itertools.count(start):
                assert value - start < 1000, "pulled far ahead of the output"
                yield value

        merged = interleave([unbounded(0), unbounded(10 ** 6)],
                            policy=policy, slice_length=slice_length, seed=4)
        assert first_difference(itertools.islice(merged, 300), itertools.islice(
            element_wise([unbounded(0), unbounded(10 ** 6)]), 300)) is None

    def test_below_is_randrange(self):
        bounds = list(range(1, 300)) + [1 << 31, (1 << 32) - 1, 1 << 32,
                                        10 ** 12, 3 << 70]
        rng, oracle = random.Random(11), random.Random(11)
        below = randbelow(rng)
        for n in bounds:
            for __ in range(5):
                assert below(n) == oracle.randrange(n), n
        assert rng.getstate() == oracle.getstate()
