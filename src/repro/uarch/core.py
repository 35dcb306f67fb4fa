"""Trace-driven core model.

:class:`TraceDrivenCore` replays a uop trace through the structures the
paper protects — register files, scheduler, MOB, adder-equipped issue
ports, DL0 and DTLB — computing per-uop event times (allocate, issue,
complete) with a simplified out-of-order timing model:

- up to ``alloc_width`` uops allocate per cycle, stalling on scheduler /
  register-file space;
- a uop issues once its sources are complete and an issue slot (and, for
  adder uops, an adder) is free;
- loads/stores translate through the DTLB and access the DL0 at issue,
  adding miss penalties to their latency;
- the scheduler slot frees one cycle after issue; the previous physical
  mapping of the destination architectural register frees when the uop
  completes (approximating retirement).

The model is *structural*, not validated-cycle-accurate: occupancies,
value residency and event ordering are faithful, absolute CPI is
qualitative (see DESIGN.md).

NBTI mechanisms observe the run through :class:`CoreHooks` callbacks, so
the substrate stays mechanism-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.metrics import MetricSet
from repro.obs.trace import TRACER as _TRACER
from repro.uarch.backends import get_backend
from repro.uarch.backends import CacheConfig, CacheStats
from repro.uarch.mob import MemoryOrderBuffer
from repro.uarch.ports import AdderPolicy, AdderPool
from repro.uarch.regfile import RegisterFile, RegisterFileStats
from repro.uarch.scheduler import Scheduler, SchedulerStats
from repro.uarch.tlb import TLBConfig
from repro.uarch.uop import FP_WIDTH, INT_WIDTH, Uop


class CoreHooks:
    """Observer interface for NBTI mechanisms.

    Subclass and override the callbacks of interest; every callback is a
    no-op by default.  ``rf`` is the :class:`RegisterFile` involved,
    ``sched`` the :class:`Scheduler`.

    :meth:`TraceDrivenCore.run` resolves the callbacks once, at its
    start: one inherited unchanged from this class is never called, and
    a hook swapped in mid-run is not seen until the next run.

    The base class is slotted (the callbacks run per uop event);
    subclasses declare their own ``__slots__`` — or none, at the cost
    of an instance dict.
    """

    __slots__ = ()

    def on_regfile_write(self, rf: RegisterFile, entry: int, value: int,
                         now: float) -> None:
        """A workload value was written to a physical register."""

    def on_regfile_release(self, rf: RegisterFile, entry: int,
                           now: float) -> None:
        """A physical register was returned to the free list."""

    def on_scheduler_fill(self, sched: Scheduler, slot: int, uop: Uop,
                          now: float) -> None:
        """A uop was dispatched into a scheduler slot."""

    def on_scheduler_release(self, sched: Scheduler, slot: int,
                             now: float) -> None:
        """A scheduler slot was freed at issue."""


class CompositeHooks(CoreHooks):
    """Fans every callback out to a list of hooks."""

    __slots__ = ("hooks",)

    def __init__(self, hooks) -> None:
        self.hooks = list(hooks)

    def on_regfile_write(self, rf, entry, value, now):
        for hook in self.hooks:
            hook.on_regfile_write(rf, entry, value, now)

    def on_regfile_release(self, rf, entry, now):
        for hook in self.hooks:
            hook.on_regfile_release(rf, entry, now)

    def on_scheduler_fill(self, sched, slot, uop, now):
        for hook in self.hooks:
            hook.on_scheduler_fill(sched, slot, uop, now)

    def on_scheduler_release(self, sched, slot, now):
        for hook in self.hooks:
            hook.on_scheduler_release(sched, slot, now)


def _bind(hooks, name: str) -> Tuple[Callable[..., None], ...]:
    """The callables a ``name`` event reaches, in call order: a
    :class:`CompositeHooks` gives its hooks' callbacks, and no-ops
    inherited from :class:`CoreHooks` are left out."""
    if type(hooks) is CompositeHooks:
        return tuple(call for hook in hooks.hooks for call in _bind(hook, name))
    method = getattr(hooks, name)
    inherited = getattr(method, "__func__", None) is getattr(CoreHooks, name)
    return () if inherited else (method,)


@dataclass(frozen=True, slots=True)
class CoreConfig:
    """Configuration of the trace-driven core (Core(tm)-like defaults)."""

    alloc_width: int = 4
    issue_width: int = 6
    retire_width: int = 4
    rob_entries: int = 96
    redirect_penalty: int = 6
    int_regs: int = 128
    fp_regs: int = 32
    scheduler_entries: int = 32
    regfile_write_ports: int = 4
    n_adders: int = 4
    adder_policy: AdderPolicy = AdderPolicy.UNIFORM
    mob_entries: int = 64
    dl0: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="DL0-32K-8w", size_bytes=32 * 1024, ways=8
        )
    )
    dtlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(name="DTLB-128", entries=128)
    )
    dl0_miss_penalty: int = 6
    dtlb_miss_penalty: int = 20
    seed: int = 0
    #: Kernel backend building the DL0/DTLB engines ("reference" or
    #: "vectorized"); see :mod:`repro.uarch.backends`.
    backend: str = "reference"

    def __post_init__(self) -> None:
        if self.alloc_width <= 0 or self.issue_width <= 0:
            raise ValueError("pipeline widths must be positive")
        if self.scheduler_entries <= 0:
            raise ValueError("scheduler_entries must be positive")


@dataclass(slots=True)
class CoreResult:
    """Everything a run produces."""

    uops: int
    cycles: float
    int_rf: RegisterFileStats
    fp_rf: RegisterFileStats
    scheduler: SchedulerStats
    dl0: CacheStats
    dtlb: CacheStats
    adder_utilization: List[float]
    adder_samples: Tuple[Tuple[int, int, int], ...]

    @property
    def cpi(self) -> float:
        return self.cycles / self.uops if self.uops else 0.0

    @property
    def ipc(self) -> float:
        return self.uops / self.cycles if self.cycles else 0.0


class TraceDrivenCore:
    """Replays traces through the modelled structures.

    Examples
    --------
    >>> from repro.workloads import TraceGenerator
    >>> trace = TraceGenerator(seed=7).generate("specint2000", length=500)
    >>> result = TraceDrivenCore().run(trace)
    >>> result.cycles > 0
    True
    """

    __slots__ = (
        "config",
        "hooks",
        "int_rf",
        "fp_rf",
        "scheduler",
        "mob",
        "adders",
        "dl0",
        "dtlb",
        "_ready",
        "_mapping",
        "_issue_use",
    )

    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        hooks: Optional[CoreHooks] = None,
        dl0=None,
        dtlb=None,
    ) -> None:
        """``dl0``/``dtlb`` may be overridden with protected wrappers
        (anything exposing ``access``/``translate`` and ``stats``)."""
        self.config = config or CoreConfig()
        self.hooks = hooks or CoreHooks()
        cfg = self.config
        self.int_rf = RegisterFile(
            entries=cfg.int_regs,
            width=INT_WIDTH,
            write_ports=cfg.regfile_write_ports,
            name="int_rf",
        )
        self.fp_rf = RegisterFile(
            entries=cfg.fp_regs,
            width=FP_WIDTH,
            write_ports=cfg.regfile_write_ports,
            name="fp_rf",
        )
        self.scheduler = Scheduler(entries=cfg.scheduler_entries)
        self.mob = MemoryOrderBuffer(entries=cfg.mob_entries)
        self.adders = AdderPool(
            n_adders=cfg.n_adders, policy=cfg.adder_policy, seed=cfg.seed
        )
        engine = get_backend(cfg.backend)
        self.dl0 = dl0 if dl0 is not None else engine.make_cache(cfg.dl0)
        self.dtlb = dtlb if dtlb is not None else engine.make_tlb(cfg.dtlb)
        #: architectural register namespace -> ready time of last writer
        self._ready: Dict[Tuple[bool, int], float] = {}
        #: architectural register namespace -> current physical mapping
        self._mapping: Dict[Tuple[bool, int], int] = {}
        #: sliding window of per-cycle issued-uop counts for issue-width
        #: contention; cycles older than the allocation front are pruned
        #: by :meth:`run`, so its size stays bounded by the run-ahead
        #: distance instead of growing with trace length.
        self._issue_use: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore all per-run state so the core can replay a new trace.

        Called automatically at the top of :meth:`run`: replaying the
        same trace twice through one core yields identical results.
        Externally-supplied ``dl0``/``dtlb`` substitutes are reset when
        they expose a ``reset()`` method and left untouched otherwise.
        """
        self.int_rf.reset()
        self.fp_rf.reset()
        self.scheduler.reset()
        self.mob.reset()
        self.adders.reset()
        for unit in (self.dl0, self.dtlb):
            unit_reset = getattr(unit, "reset", None)
            if unit_reset is not None:
                unit_reset()
        self._ready.clear()
        self._mapping.clear()
        self._issue_use.clear()

    # ------------------------------------------------------------------
    # Telemetry (MetricSource)
    # ------------------------------------------------------------------
    def metrics(self) -> MetricSet:
        """Live metric tree over every structure of the core.

        Paths are dotted (``dl0.miss_rate``, ``int_rf.allocations``).
        The tree reads through the component objects, so it stays valid
        across :meth:`reset` / repeated :meth:`run` calls, and —
        because ``run`` fully processes uop k (``dl0.access`` counters
        included) before pulling uop k+1 from the trace iterable — an
        :class:`~repro.metrics.telemetry.IntervalTelemetry` ``watch``
        wrapper snapshots exact N-uop interval state on streaming runs.
        """
        ms = MetricSet()
        ms.child("int_rf", self.int_rf.metrics())
        ms.child("fp_rf", self.fp_rf.metrics())
        ms.child("scheduler", self.scheduler.metrics())
        ms.child("mob", self.mob.metrics())
        for name, unit in (("dl0", self.dl0), ("dtlb", self.dtlb)):
            unit_metrics = getattr(unit, "metrics", None)
            if unit_metrics is not None:
                ms.child(name, unit_metrics())
        return ms

    # ------------------------------------------------------------------
    def run(self, trace: Iterable[Uop]) -> CoreResult:
        """Replay one trace and return the collected statistics.

        ``trace`` may be a materialised :class:`~repro.uarch.trace.Trace`
        or any iterable of uops — e.g. the lazy
        :meth:`~repro.workloads.generator.TraceGenerator.stream` or
        :func:`~repro.uarch.traceio.stream_trace` generators — and is
        consumed exactly once, so the whole replay is bounded-memory.
        """
        _t = _TRACER.begin()
        self.reset()
        # Hoisted hot-loop state: the per-uop loop below runs for every
        # trace uop, so config fields, structures and bound methods are
        # bound to locals once.
        config = self.config
        alloc_width = config.alloc_width
        retire_width = config.retire_width
        redirect_penalty = config.redirect_penalty
        dtlb_miss_penalty = config.dtlb_miss_penalty
        dl0_miss_penalty = config.dl0_miss_penalty
        rob = config.rob_entries
        scheduler = self.scheduler
        set_ready = scheduler.set_ready
        sched_next_free = scheduler.next_free_time
        on_fill, on_sched_release, on_rf_write, on_rf_release = (
            _bind(self.hooks, name) for name in (
                "on_scheduler_fill", "on_scheduler_release",
                "on_regfile_write", "on_regfile_release"))
        int_rf, fp_rf = self.int_rf, self.fp_rf
        mob_allocate = self.mob.allocate
        dtlb_translate = self.dtlb.translate
        dl0_access = self.dl0.access
        ready_times = self._ready
        mapping = self._mapping
        port_use = (self._issue_use, scheduler.port_use, int_rf.port_use,
                    fp_rf.port_use)
        prune_at = 1024.0
        find_issue_cycle = self._find_issue_cycle

        alloc_cycle = 0.0
        allocs_this_cycle = 0
        last_complete = 0.0
        # In-order retirement pointer: a uop retires (and frees the
        # previous mapping of its destination) no earlier than every
        # older uop's completion.  Since the pointer never moves
        # backwards, retire-width spreading needs only the count within
        # the current retire cycle, not a per-cycle map.
        retire_t = 0.0
        retire_cycle = -1
        retired_in_cycle = 0
        #: ring buffer of the last ``rob`` retirement times, for the
        #: ROB-occupancy stall (slot ``index % rob`` holds the time of
        #: uop ``index - rob`` when uop ``index`` allocates).
        retire_ring = [0.0] * rob

        index = -1
        for index, uop in enumerate(trace):
            # --- allocate ------------------------------------------------
            if allocs_this_cycle >= alloc_width:
                alloc_cycle += 1.0
                allocs_this_cycle = 0
            # Stall until the scheduler and the register file have room.
            is_fp = uop.is_fp
            rf = fp_rf if is_fp else int_rf
            alloc_t = sched_next_free()
            if alloc_t is None:
                raise RuntimeError("scheduler free list exhausted permanently")
            if alloc_cycle > alloc_t:
                alloc_t = alloc_cycle
            if uop.dst is not None:
                rf_free = rf.next_free_time()
                if rf_free is None:
                    raise RuntimeError(f"{rf.name} exhausted: trace holds "
                                       f"too many live values")
                if rf_free > alloc_t:
                    alloc_t = rf_free
            if index >= rob:
                # The ROB entry of the (index - rob)-th uop must retire
                # before this uop can allocate.
                rob_free_t = retire_ring[index % rob]
                if rob_free_t > alloc_t:
                    alloc_t = rob_free_t
            if alloc_t > alloc_cycle:
                alloc_cycle = alloc_t
                allocs_this_cycle = 0
            allocs_this_cycle += 1
            if alloc_cycle >= prune_at:
                # Port lookups never fall behind the allocation front
                # (issue, fills, repairs, writes, retirement): drop the
                # dead cycles so the counters stay bounded.
                floor = int(alloc_cycle)
                for use in port_use:
                    for cycle in [c for c in use if c < floor]:
                        del use[cycle]
                prune_at = alloc_cycle + 1024.0

            slot = scheduler.allocate(alloc_t)
            assert slot is not None  # the stall above guaranteed room
            is_memory = uop.uop_class.is_memory
            mob_id = mob_allocate() if is_memory else None
            dst_entry: Optional[int] = None
            if uop.dst is not None:
                dst_entry = rf.allocate(alloc_t)
                assert dst_entry is not None
            src1 = uop.src1
            src2 = uop.src2
            src1_tag = mapping.get((is_fp, src1), 0) if src1 is not None else 0
            src2_tag = mapping.get((is_fp, src2), 0) if src2 is not None else 0
            scheduler.fill(slot, uop, mob_id, alloc_t, dst_entry or 0,
                           src1_tag, src2_tag)
            for callback in on_fill:
                callback(scheduler, slot, uop, alloc_t)

            # --- source readiness ---------------------------------------
            ready_t = alloc_t + 1.0
            ready1 = ready2 = None
            if src1 is not None:
                ready1 = max(alloc_t, ready_times.get((is_fp, src1), 0.0))
                ready_t = max(ready_t, ready1)
            if src2 is not None:
                ready2 = max(alloc_t, ready_times.get((is_fp, src2), 0.0))
                ready_t = max(ready_t, ready2)
            # Apply in time order, ready1 first on a tie: a slot's residency
            # intervals must close monotonically even when src2 is first.
            if ready1 is not None:
                if ready2 is not None and ready2 < ready1:
                    set_ready(slot, 2, ready2)
                    ready2 = None
                set_ready(slot, 1, ready1)
            if ready2 is not None:
                set_ready(slot, 2, ready2)

            # --- issue ---------------------------------------------------
            issue_t = find_issue_cycle(uop, ready_t)
            scheduler.release(slot, issue_t + 1.0)
            for callback in on_sched_release:
                callback(scheduler, slot, issue_t + 1.0)

            # --- execute -------------------------------------------------
            latency = float(uop.latency)
            if is_memory:
                assert uop.address is not None
                if not dtlb_translate(uop.address):
                    latency += dtlb_miss_penalty
                if not dl0_access(uop.address):
                    latency += dl0_miss_penalty
            complete_t = issue_t + latency
            if complete_t > last_complete:
                last_complete = complete_t
            # Retirement is in order and capacity-limited: without the
            # retire-width spread, long-latency stragglers make whole
            # backlogs retire in one cycle and transiently exhaust the
            # register-file write ports.
            if complete_t > retire_t:
                retire_t = complete_t
            cycle = int(retire_t)
            if cycle > retire_cycle:
                retire_cycle = cycle
                retired_in_cycle = 0
            if retired_in_cycle >= retire_width:
                retire_cycle += 1
                retired_in_cycle = 0
                retire_t = float(retire_cycle)
            retired_in_cycle += 1
            retire_ring[index % rob] = retire_t

            # --- writeback / retire -------------------------------------
            if uop.dst is not None and dst_entry is not None:
                rf.write(dst_entry, uop.result_value, complete_t)
                for callback in on_rf_write:
                    callback(rf, dst_entry, uop.result_value, complete_t)
                namespace = (is_fp, uop.dst)
                previous = mapping.get(namespace)
                if previous is not None:
                    rf.release(previous, retire_t)
                    for callback in on_rf_release:
                        callback(rf, previous, retire_t)
                mapping[namespace] = dst_entry
                ready_times[namespace] = complete_t

            # --- mispredict redirect ------------------------------------
            if uop.mispredicted:
                # The frontend refills from the resolved target: younger
                # uops cannot allocate until the redirect completes.
                drain_until = complete_t + redirect_penalty
                if drain_until > alloc_cycle:
                    alloc_cycle = drain_until
                    allocs_this_cycle = 0

        cycles = max(last_complete, alloc_cycle, 1.0)
        if _t is not None:
            _TRACER.end(_t, "core.run", uops=index + 1, cycles=cycles)
        return CoreResult(
            uops=index + 1,
            cycles=cycles,
            int_rf=self.int_rf.finalize(cycles),
            fp_rf=self.fp_rf.finalize(cycles),
            scheduler=self.scheduler.finalize(cycles),
            dl0=self.dl0.stats,
            dtlb=self.dtlb.stats,
            adder_utilization=self.adders.utilization(cycles),
            adder_samples=tuple(self.adders.all_sampled_vectors()),
        )

    # ------------------------------------------------------------------
    def _find_issue_cycle(self, uop: Uop, ready_t: float) -> float:
        """First cycle >= ``ready_t`` with an issue slot (and adder)."""
        issue_use = self._issue_use
        issue_width = self.config.issue_width
        adder_issue = self.adders.issue if uop.uop_class.uses_adder else None
        cycle = math.ceil(ready_t)
        while True:
            used = issue_use.get(cycle, 0)
            if used < issue_width and (
                    adder_issue is None
                    or adder_issue(uop, float(cycle)) is not None):
                issue_use[cycle] = used + 1
                return float(cycle)
            cycle += 1
