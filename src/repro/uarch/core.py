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

from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import ceil
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
        # run() indexes its ROB ring modulo rob_entries and retires at
        # most retire_width uops a cycle; a negative penalty would put
        # an event before its cause, and a fractional one between two
        # cycles, where bias accounting no longer regroups exactly.
        for least, names in (
                (1, ("alloc_width", "issue_width", "retire_width",
                     "rob_entries", "int_regs", "fp_regs",
                     "scheduler_entries", "regfile_write_ports",
                     "n_adders", "mob_entries")),
                (0, ("redirect_penalty", "dl0_miss_penalty",
                     "dtlb_miss_penalty"))):
            for name in names:
                value = getattr(self, name)
                if not isinstance(value, int) or isinstance(value, bool) \
                        or value < least:
                    kind = "positive" if least else "non-negative"
                    raise ValueError(
                        f"{name} must be a {kind} integer, got {value!r}")


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
        "_ready_times",
        "_rename",
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
        #: per register namespace (int, fp): architectural register ->
        #: ready time of its last writer
        self._ready_times: Tuple[Dict[int, float], Dict[int, float]] = ({}, {})
        #: per register namespace (int, fp): architectural register ->
        #: current physical mapping
        self._rename: Tuple[Dict[int, int], Dict[int, int]] = ({}, {})
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
        for ready_times, rename in zip(self._ready_times, self._rename):
            ready_times.clear()
            rename.clear()
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

        The loop does the scheduler's and the register files' entry
        bookkeeping itself, on their own free heaps, busy flags, port
        counters and counters, exactly as their per-event methods
        (``allocate``, ``fill``, ``set_ready``, ``release``, ``write``)
        do it; each uop's events are complete before its hooks run and
        before the next uop is pulled.  Rows are still composed only by
        :meth:`Scheduler.compose_row`, and every value still enters
        through ``bias.set_value`` (DESIGN.md §1).
        """
        _t = _TRACER.begin()
        self.reset()
        # Hoisted hot-loop state: the per-uop loop below runs for every
        # trace uop, so config fields, the structures' containers (made
        # anew by reset()) and bound methods are bound to locals once.
        config = self.config
        alloc_width = config.alloc_width
        issue_width = config.issue_width
        retire_width = config.retire_width
        redirect_penalty = config.redirect_penalty
        dtlb_miss_penalty = config.dtlb_miss_penalty
        dl0_miss_penalty = config.dl0_miss_penalty
        rob = config.rob_entries
        on_fill, on_sched_release, on_rf_write, on_rf_release = (
            _bind(self.hooks, name) for name in (
                "on_scheduler_fill", "on_scheduler_release",
                "on_regfile_write", "on_regfile_release"))
        scheduler = self.scheduler
        sched_free = scheduler._free
        sched_busy = scheduler._busy
        sched_busy_since = scheduler._busy_since
        sched_ports = scheduler.port_use
        sched_values = scheduler.values
        sched_set_value = scheduler.bias.set_value
        compose_row = scheduler.compose_row
        clear_valid = ~scheduler._valid_bit
        ready1_bit = scheduler._ready_bits[1]
        ready2_bit = scheduler._ready_bits[2]
        mob_bits = scheduler._mob_bits
        int_rf, fp_rf = self.int_rf, self.fp_rf
        # One tuple per register namespace: the register file, its
        # containers and its rename and ready-time maps.
        int_side, fp_side = (
            (rf, rf._free, rf._busy, rf._busy_since, rf.port_use,
             rf.bias.set_value, rename, ready_times)
            for rf, rename, ready_times in zip(
                (int_rf, fp_rf), self._rename, self._ready_times))
        mob_allocate = self.mob.allocate
        adder_issue = self.adders.issue
        dtlb_translate = self.dtlb.translate
        dl0_access = self.dl0.access
        issue_use = self._issue_use
        port_use = (issue_use, sched_ports, int_rf.port_use, fp_rf.port_use)
        prune_at = 1024.0

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
            (rf, rf_free, rf_busy, rf_busy_since, rf_ports, rf_set_value,
             rename, ready_times) = fp_side if uop.is_fp else int_side
            # Stall until the scheduler and the register file have room.
            if not sched_free:
                raise RuntimeError("scheduler free list exhausted permanently")
            alloc_t = sched_free[0][0]
            if alloc_cycle > alloc_t:
                alloc_t = alloc_cycle
            dst = uop.dst
            if dst is not None:
                if not rf_free:
                    raise RuntimeError(f"{rf.name} exhausted: trace holds "
                                       f"too many live values")
                rf_free_t = rf_free[0][0]
                if rf_free_t > alloc_t:
                    alloc_t = rf_free_t
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

            # The stall above guaranteed an entry free at alloc_t in
            # each heap: take it (Scheduler.allocate, RegisterFile.allocate).
            slot = heappop(sched_free)[2]
            sched_busy[slot] = True
            sched_busy_since[slot] = alloc_t
            scheduler._allocations += 1
            if alloc_t > scheduler._horizon:
                scheduler._horizon = alloc_t
            uop_class = uop.uop_class
            is_memory = uop_class.is_memory
            mob_id = mob_allocate() if is_memory else None
            dst_entry = 0
            if dst is not None:
                dst_entry = heappop(rf_free)[2]
                rf_busy[dst_entry] = True
                rf_busy_since[dst_entry] = alloc_t
                rf._allocations += 1
                if alloc_t > rf._horizon:
                    rf._horizon = alloc_t
            src1 = uop.src1
            src2 = uop.src2
            src1_tag = rename.get(src1, 0) if src1 is not None else 0
            src2_tag = rename.get(src2, 0) if src2 is not None else 0
            # Scheduler.fill: a stale MOB id stays when the uop has none.
            row = compose_row(uop, mob_id, dst_entry, src1_tag, src2_tag)
            if mob_id is None:
                row |= sched_values[slot] & mob_bits
            cycle = int(alloc_t)
            sched_ports[cycle] = sched_ports.get(cycle, 0) + 1
            sched_set_value(slot, row, alloc_t)
            for callback in on_fill:
                callback(scheduler, slot, uop, alloc_t)

            # --- source readiness ---------------------------------------
            # An operand is ready at allocation at the earliest, the uop
            # the cycle after.
            ready_t = alloc_t + 1.0
            ready1 = ready2 = None
            if src1 is not None:
                ready1 = ready_times.get(src1, alloc_t)
                if ready1 < alloc_t:
                    ready1 = alloc_t
                elif ready1 > ready_t:
                    ready_t = ready1
            if src2 is not None:
                ready2 = ready_times.get(src2, alloc_t)
                if ready2 < alloc_t:
                    ready2 = alloc_t
                elif ready2 > ready_t:
                    ready_t = ready2
            # Apply in time order, ready1 first on a tie: a slot's residency
            # intervals must close monotonically even when src2 is first.
            if ready1 is not None:
                if ready2 is not None and ready2 < ready1:
                    sched_set_value(slot, sched_values[slot] | ready2_bit,
                                    ready2)
                    ready2 = None
                sched_set_value(slot, sched_values[slot] | ready1_bit, ready1)
            if ready2 is not None:
                sched_set_value(slot, sched_values[slot] | ready2_bit, ready2)

            # --- issue ---------------------------------------------------
            # The first cycle from ready_t with an issue slot and, for an
            # adder uop, an adder.
            cycle = ceil(ready_t)
            if uop_class.uses_adder:
                while True:
                    used = issue_use.get(cycle, 0)
                    if (used < issue_width
                            and adder_issue(uop, float(cycle)) is not None):
                        break
                    cycle += 1
            else:
                used = issue_use.get(cycle, 0)
                while used >= issue_width:
                    cycle += 1
                    used = issue_use.get(cycle, 0)
            issue_use[cycle] = used + 1
            # Scheduler.release: the slot frees the cycle after issue; its
            # payload stays, with the valid bit dropped.
            release_t = cycle + 1.0
            sched_busy[slot] = False
            scheduler._busy_time += release_t - alloc_t
            counter = scheduler._counter + 1
            scheduler._counter = counter
            heappush(sched_free, (release_t, counter, slot))
            scheduler._releases += 1
            if release_t > scheduler._horizon:
                scheduler._horizon = release_t
            sched_set_value(slot, sched_values[slot] & clear_valid, release_t)
            for callback in on_sched_release:
                callback(scheduler, slot, release_t)

            # --- execute -------------------------------------------------
            issue_t = float(cycle)
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
            if dst is not None:
                # RegisterFile.write: book a write port, store the value.
                value = uop.result_value
                cycle = int(complete_t)
                rf_ports[cycle] = rf_ports.get(cycle, 0) + 1
                rf_set_value(dst_entry, value, complete_t)
                for callback in on_rf_write:
                    callback(rf, dst_entry, value, complete_t)
                previous = rename.get(dst)
                if previous is not None:
                    # RegisterFile.release of the previous mapping; the
                    # method itself raises, naming the entry, should the
                    # entry be free or the release precede its allocation.
                    since = rf_busy_since[previous]
                    if retire_t < since or not rf_busy[previous]:
                        rf.release(previous, retire_t)
                    rf_busy[previous] = False
                    rf._busy_time += retire_t - since
                    counter = rf._counter + 1
                    rf._counter = counter
                    heappush(rf_free, (retire_t, counter, previous))
                    rf._releases += 1
                    if retire_t > rf._horizon:
                        rf._horizon = retire_t
                    for callback in on_rf_release:
                        callback(rf, previous, retire_t)
                rename[dst] = dst_entry
                ready_times[dst] = complete_t

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
