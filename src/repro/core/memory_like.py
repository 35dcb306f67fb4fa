"""RINV registers and protectors for explicitly managed blocks.

Section 3.2.2: every explicitly managed structure (or field thereof) gets
a special register, RINV, holding the value to write into entries when
they are released.  RINV contents follow the per-bit techniques chosen by
the Figure 3 casuistic:

- ISV fields sample a workload value periodically and store its
  inversion;
- ALL1 / ALL0 / ALL1-K% fields hold constants or duty-cycled constants;
- self-balanced and unprotected fields are left alone.

Updates go through ports left idle by the workload and are discarded when
none is available — Section 4.4 measures that this happens rarely (ports
free 92% / 86% of the time for INT / FP register files).

The protectors plug into :class:`repro.uarch.core.TraceDrivenCore` via
its :class:`~repro.uarch.core.CoreHooks` observer interface.  They are
registered by name in :data:`repro.config.registry.RF_PROTECTORS`
(``isv``) and :data:`repro.config.registry.SCHEDULER_PROTECTORS`
(``derived_policy``, ``paper_policy``) and built by
:func:`repro.config.registry.build_memory_hooks`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.policy import BitDirective, Technique, choose_technique, repair_bit
from repro.uarch import bitbias
from repro.uarch.core import CoreHooks
from repro.uarch.regfile import RegisterFile
from repro.uarch.scheduler import Scheduler, row_patch
from repro.uarch.uop import SCHEDULER_LAYOUT, Uop

#: Default RINV sampling period in cycles ("we can update RINV with the
#: value flowing through a given write port ... every one million
#: cycles"; scaled to the library's shorter traces).
DEFAULT_SAMPLE_PERIOD = 512.0

#: Resolution of the K-duty phase counter for ALL1-K% techniques.
K_PHASE_STEPS = 20

#: Distinct rows a :class:`SchedulerProfiler` counts before it unpacks
#: them into per-bit counts (one fold batch); bounds its memory on long
#: profiling traces.
PROFILE_FOLD_VALUES = bitbias.FOLD_KEYS


class RINVRegister:
    """The special register holding inverted sampled values."""

    __slots__ = ("width", "_mask", "value", "updates")

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self._mask = (1 << width) - 1
        self.value = self._mask  # inversion of the all-zeros reset value
        self.updates = 0

    def update_from_sample(self, sample: int) -> None:
        """Store the inversion of a sampled workload value."""
        self.value = (~sample) & self._mask
        self.updates += 1


class ISVRegisterFileProtector(CoreHooks):
    """ISV protection of a register file (Section 4.4).

    Registers are free more than 50% of the time, so the Figure 3
    casuistic selects ISV: released registers are overwritten with RINV
    (an inverted sampled value) — but only while entries have spent more
    time non-inverted than inverted, which the mechanism decides by
    timestamping a *single sampled entry* ("statistically, all entries
    will spend the same time inverted ... we choose a fixed entry for the
    sake of simplicity").
    """

    __slots__ = ("rf_name", "rinv", "sample_period", "_last_sample",
                 "_inverted", "_inv_integral", "_total_integral",
                 "_last_event", "updates_written", "updates_skipped")

    def __init__(
        self,
        rf_name: str,
        width: int,
        sample_period: float = DEFAULT_SAMPLE_PERIOD,
    ) -> None:
        if sample_period <= 0.0:
            raise ValueError("sample_period must be positive")
        self.rf_name = rf_name
        self.rinv = RINVRegister(width)
        self.sample_period = sample_period
        self._last_sample = -sample_period  # sample immediately
        # Inverted-residency tracker.  The paper timestamps one sampled
        # entry ("tracking all entries or any entry gives the same
        # results"); we integrate over the whole population, which is the
        # same estimator without single-entry sampling noise: in the
        # simulation the single entry's phase correlates with the global
        # decision and systematically under-inverts.
        self._inverted: set = set()
        self._inv_integral = 0.0
        self._total_integral = 0.0
        self._last_event = 0.0
        self.updates_written = 0
        self.updates_skipped = 0

    # -- CoreHooks ------------------------------------------------------
    def on_regfile_write(self, rf: RegisterFile, entry: int, value: int,
                         now: float) -> None:
        if rf.name != self.rf_name:
            return
        if now - self._last_sample >= self.sample_period:
            self.rinv.update_from_sample(value)
            self._last_sample = now
        self._integrate(now, rf.entries)
        self._inverted.discard(entry)

    def on_regfile_release(self, rf: RegisterFile, entry: int,
                           now: float) -> None:
        if rf.name != self.rf_name:
            return
        self._integrate(now, rf.entries)
        if self._should_invert():
            if rf.write_special(entry, self.rinv.value, now):
                self.updates_written += 1
                self._inverted.add(entry)
            else:
                self.updates_skipped += 1

    # -- internals ------------------------------------------------------
    def _should_invert(self) -> bool:
        """Invert while cumulative inverted residency trails 50%."""
        return self._inv_integral <= 0.5 * self._total_integral

    def _integrate(self, now: float, entries: int) -> None:
        elapsed = now - self._last_event
        if elapsed > 0.0:
            self._inv_integral += elapsed * len(self._inverted)
            self._total_integral += elapsed * entries
            self._last_event = now

    @property
    def inverted_time_fraction(self) -> float:
        """Fraction of entry-time spent holding inverted contents."""
        if self._total_integral <= 0.0:
            return 0.0
        return self._inv_integral / self._total_integral


#: Fields whose activity is self-balanced by construction (register file
#: entries and MOB slots are used evenly — Section 4.5).
SELF_BALANCED_FIELDS = ("dst_tag", "src1_tag", "src2_tag", "mob_id")

#: Per-field, per-bit directives for the scheduler.
SchedulerPolicy = Dict[str, List[BitDirective]]


def _directives(technique: Technique, width: int, k: float = 1.0) -> List[BitDirective]:
    return [BitDirective(technique, k) for _ in range(width)]


def _paper_policy() -> SchedulerPolicy:
    """The field classification published in Section 4.5.

    - ALL1: latency bits 4-5, port, flags, shift1, shift2.
    - ALL1-K%: latency bits 1-3 (K = 95/75/95%), taken (50%), tos (50%),
      ready1/ready2 (60%).
    - ISV: src1_data, src2_data, immediate (and opcode, which the paper
      leaves implementation-defined).
    - Self-balanced: register tags and MOB id.
    - Unprotected: valid.
    """
    layout = SCHEDULER_LAYOUT
    policy: SchedulerPolicy = {
        "valid": _directives(Technique.UNPROTECTED, layout.valid),
        "latency": [
            BitDirective(Technique.ALL1_K, 0.95),
            BitDirective(Technique.ALL1_K, 0.75),
            BitDirective(Technique.ALL1_K, 0.95),
            BitDirective(Technique.ALL1),
            BitDirective(Technique.ALL1),
        ],
        "port": _directives(Technique.ALL1, layout.port),
        "taken": _directives(Technique.ALL1_K, layout.taken, k=0.50),
        "mob_id": _directives(Technique.SELF_BALANCED, layout.mob_id),
        "tos": _directives(Technique.ALL1_K, layout.tos, k=0.50),
        "flags": _directives(Technique.ALL1, layout.flags),
        "shift1": _directives(Technique.ALL1, layout.shift1),
        "shift2": _directives(Technique.ALL1, layout.shift2),
        "dst_tag": _directives(Technique.SELF_BALANCED, layout.dst_tag),
        "src1_tag": _directives(Technique.SELF_BALANCED, layout.src1_tag),
        "src2_tag": _directives(Technique.SELF_BALANCED, layout.src2_tag),
        "ready1": _directives(Technique.ALL1_K, layout.ready1, k=0.60),
        "ready2": _directives(Technique.ALL1_K, layout.ready2, k=0.60),
        "src1_data": _directives(Technique.ISV, layout.src1_data),
        "src2_data": _directives(Technique.ISV, layout.src2_data),
        "immediate": _directives(Technique.ISV, layout.immediate),
        "opcode": _directives(Technique.ISV, layout.opcode),
    }
    return policy


#: The classification published in the paper (Section 4.5).
PAPER_SCHEDULER_POLICY: SchedulerPolicy = _paper_policy()

#: ISV fields sample these uop attributes (pre-inversion).
_ISV_SOURCES = {
    "src1_data": lambda uop: uop.src1_value,
    "src2_data": lambda uop: uop.src2_value,
    "immediate": lambda uop: uop.immediate,
    "opcode": lambda uop: uop.opcode,
}


def _repair_tables(
    policy: SchedulerPolicy, isv_fields: Iterable[str]
) -> Tuple[List[Dict[str, int]], Dict[str, int]]:
    """The RINV contents of a policy, as tables built once.

    Returns, per phase step, the constant value of every repaired field
    (ALL1/ALL0 and K-duty bits, from :func:`repair_bit`), and, per field
    with an RINV register, the mask of its ISV bits.  A release writes
    ``constants[step][field] | (rinv.value & isv_mask[field])``.  Bits a
    directive leaves untouched read 0 in a repaired field; a field with
    no repaired bit is not written at all.
    """
    isv_fields = set(isv_fields)
    constants: List[Dict[str, int]] = [{} for _ in range(K_PHASE_STEPS)]
    isv_masks: Dict[str, int] = {}
    for fieldname, directives in policy.items():
        isv_mask = 0
        if fieldname in isv_fields:
            for bit_index, directive in enumerate(directives):
                if directive.technique is Technique.ISV:
                    isv_mask |= 1 << bit_index
        repaired = isv_mask != 0
        for step, values in enumerate(constants):
            phase = step / K_PHASE_STEPS
            composed = 0
            for bit_index, directive in enumerate(directives):
                bit = repair_bit(directive, phase)
                if bit is not None:
                    repaired = True
                    composed |= bit << bit_index
            values[fieldname] = composed
        if not repaired:
            for values in constants:
                del values[fieldname]
        elif isv_mask:
            isv_masks[fieldname] = isv_mask
    return constants, isv_masks


class SchedulerProtector(CoreHooks):
    """Applies a :data:`SchedulerPolicy` at slot release (Section 4.5)."""

    __slots__ = ("policy", "sample_period", "rinv", "_patches", "_isv",
                 "_last_sample", "_phase_counter", "updates_written",
                 "updates_skipped")

    def __init__(
        self,
        policy: Optional[SchedulerPolicy] = None,
        sample_period: float = DEFAULT_SAMPLE_PERIOD,
    ) -> None:
        self.policy = policy if policy is not None else PAPER_SCHEDULER_POLICY
        self.sample_period = sample_period
        layout = SCHEDULER_LAYOUT.fields()
        self.rinv: Dict[str, RINVRegister] = {
            name: RINVRegister(width)
            for name, width in layout.items()
            if name in _ISV_SOURCES
        }
        constants, isv_masks = _repair_tables(self.policy, self.rinv)
        offsets = SCHEDULER_LAYOUT.bit_offsets()
        #: per phase step, the row patch of the constant bits (none
        #: when the policy repairs no field)
        self._patches = ([row_patch(offsets, values) for values in constants]
                         if constants[0] else [])
        #: (RINV register, ISV bit mask, first row bit) per ISV field
        self._isv = [(self.rinv[name], mask, offsets[name][0])
                     for name, mask in isv_masks.items()]
        self._last_sample = -sample_period
        self._phase_counter = 0
        self.updates_written = 0
        self.updates_skipped = 0

    # -- CoreHooks ------------------------------------------------------
    def on_scheduler_fill(self, sched: Scheduler, slot: int, uop: Uop,
                          now: float) -> None:
        if now - self._last_sample < self.sample_period:
            return
        self._last_sample = now
        for fieldname, source in _ISV_SOURCES.items():
            width = self.rinv[fieldname].width
            self.rinv[fieldname].update_from_sample(
                source(uop) & ((1 << width) - 1)
            )

    def on_scheduler_release(self, sched: Scheduler, slot: int,
                             now: float) -> None:
        """Write the phase step's patch; ISV bits copy RINV, which
        already holds the inverted sample."""
        if not self._patches:
            return
        keep, bits = self._patches[self._phase_counter % K_PHASE_STEPS]
        for register, mask, start in self._isv:
            bits |= (register.value & mask) << start
        if sched.write_patch(slot, keep, bits, now):
            self.updates_written += 1
        else:
            self.updates_skipped += 1
        self._phase_counter += 1


class SchedulerProfiler(CoreHooks):
    """Profiling pass: collects busy-time bit statistics at dispatch.

    The paper derives K for each field from 100 profiling traces
    (Section 4.5); this hook accumulates the per-bit one-frequency of
    dispatched payloads, which :func:`derive_scheduler_policy` combines
    with the measured occupancy.  A fill counts the filled row with the
    tag and MOB fields cleared, which is ``compose_row(uop, None)``, and,
    for a memory uop, one memory fill; so the hook must see each fill
    before any ready bit is set, as the trace-driven core calls it.
    """

    __slots__ = ("fills", "memory_fills", "_keep", "_zero", "_one", "_seen")

    def __init__(self) -> None:
        self.fills = 0
        self.memory_fills = 0
        #: clears the fields a fill writes from its arguments
        self._keep, __ = row_patch(
            SCHEDULER_LAYOUT.bit_offsets(),
            dict.fromkeys(("dst_tag", "src1_tag", "src2_tag", "mob_id"), 0))
        width = SCHEDULER_LAYOUT.total_bits
        #: fills holding 0 / 1 per row bit
        self._zero = bitbias.totals(width)
        self._one = bitbias.totals(width)
        #: dispatched row -> fills, not yet folded
        self._seen: Dict[int, int] = {}

    def on_scheduler_fill(self, sched: Scheduler, slot: int, uop: Uop,
                          now: float) -> None:
        self.fills += 1
        if uop.uop_class.is_memory:
            self.memory_fills += 1
        row = sched.values[slot] & self._keep
        seen = self._seen
        if row in seen:
            seen[row] += 1
        else:
            seen[row] = 1
            if len(seen) >= PROFILE_FOLD_VALUES:
                self._fold()

    def busy_bias_to_zero(self) -> Dict[str, List[float]]:
        """Per-field, per-bit fraction of dispatched payloads with a 0
        (``mob_id`` over memory uops only)."""
        if self.fills == 0:
            raise ValueError("no fills profiled yet")
        self._fold()
        one = bitbias.as_list(self._one)
        return {
            name: [1.0 - one[bit] / max(
                1, self.memory_fills if name == "mob_id" else self.fills)
                for bit in range(start, start + width)]
            for name, (start, width) in SCHEDULER_LAYOUT.bit_offsets().items()
        }

    def _fold(self) -> None:
        if self._seen:
            bitbias.fold(self._zero, self._one, list(self._seen.items()),
                         SCHEDULER_LAYOUT.total_bits)
        self._seen.clear()


def derive_scheduler_policy(
    profiler: SchedulerProfiler,
    occupancy: float,
    field_occupancy: Optional[Mapping[str, float]] = None,
) -> SchedulerPolicy:
    """Build a policy from profiling data via the Figure 3 casuistic.

    Parameters
    ----------
    profiler:
        A :class:`SchedulerProfiler` that observed a profiling run.
    occupancy:
        Measured scheduler occupancy (the paper's is 63%).
    field_occupancy:
        Per-field overrides — the data fields are effectively available
        70-75% of the time "because they remain unused beyond the
        allocation or are not used at all for some instructions".
    """
    bias = profiler.busy_bias_to_zero()
    overrides = dict(field_occupancy or {})
    policy: SchedulerPolicy = {}
    for name, bit_biases in bias.items():
        occ = overrides.get(name, occupancy)
        directives = []
        for bit_bias in bit_biases:
            directives.append(
                choose_technique(
                    occupancy=occ,
                    busy_bias_to_zero=bit_bias,
                    self_balanced=name in SELF_BALANCED_FIELDS,
                    protectable=name != "valid",
                )
            )
        policy[name] = directives
    return policy
