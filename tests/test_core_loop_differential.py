"""The trace-driven core's loop against its per-event oracle.

``TraceDrivenCore.run`` does the scheduler's and the register files'
entry bookkeeping in its own body: free-heap pops and pushes, busy
flags and time, port counts, the allocation and release counters and
the rename and ready-time maps.  :class:`PerEventCore` keeps the loop
it replaced, unchanged: every structure event goes through the
structure's per-event method (``next_free_time``, ``allocate``,
``fill``, ``set_ready``, ``release``, ``write``), and issue goes
through ``_find_issue_cycle``.

Both run every suite, with no hooks, the scheduler profiler, ISV on
both register files, and the full memory protection with line-fixed
DL0 and DTLB, on both kernel backends, with the bias and profiler folds
at their sizes and forced every 4 values.  They must agree exactly on
the result, on the end state of every structure and hook, and on
interval telemetry snapshots taken while the trace streams in, so a
counter the loop updated late would show.
"""

import math
from typing import Dict, Iterable, Optional, Tuple

import pytest

from repro.config.registry import CACHE_SCHEMES, build_memory_hooks
from repro.config.specs import ProtectionSpec
from repro.core import memory_like
from repro.core.cache_like import ProtectedCache
from repro.core.memory_like import (
    ISVRegisterFileProtector,
    SchedulerProfiler,
    SchedulerProtector,
)
from repro.metrics.telemetry import IntervalTelemetry
from repro.obs.trace import TRACER as _TRACER
from repro.uarch import bitbias
from repro.uarch.backends import get_backend
from repro.uarch.bitbias import as_list
from repro.uarch.core import (
    CompositeHooks,
    CoreConfig,
    CoreResult,
    TraceDrivenCore,
    _bind,
)
from repro.uarch.entries import EntryArray
from repro.uarch.uop import FP_WIDTH, INT_WIDTH, Uop
from repro.workloads import TraceGenerator, suite_names


class PerEventCore(TraceDrivenCore):
    """The core loop before the per-uop bookkeeping moved into it:
    rename and ready times keyed by ``(is_fp, reg)``, every structure
    event through its per-event method."""

    __slots__ = ("_ready", "_mapping")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: architectural register namespace -> ready time of last writer
        self._ready: Dict[Tuple[bool, int], float] = {}
        #: architectural register namespace -> current physical mapping
        self._mapping: Dict[Tuple[bool, int], int] = {}

    def reset(self) -> None:
        super().reset()
        self._ready.clear()
        self._mapping.clear()

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


def core_result_view(result):
    return (
        result.uops, result.cycles,
        as_list(result.int_rf.bias_to_zero), result.int_rf.worst_bias,
        as_list(result.fp_rf.bias_to_zero), result.fp_rf.worst_bias,
        result.scheduler.occupancy, result.scheduler.allocations,
        as_list(result.scheduler.flattened_bias(include_opcode=True)),
        (result.dl0.hits, result.dl0.misses),
        (result.dtlb.hits, result.dtlb.misses),
        result.adder_utilization, result.adder_samples,
    )


# ----------------------------------------------------------------------
# Hook sets: each builds fresh hooks and DL0/DTLB units for one core
# ----------------------------------------------------------------------
def no_hooks(config):
    return None, None, None


def profiler(config):
    return SchedulerProfiler(), None, None


def isv(config):
    return CompositeHooks([ISVRegisterFileProtector("int_rf", INT_WIDTH),
                           ISVRegisterFileProtector("fp_rf", FP_WIDTH)]), \
        None, None


def protected(config):
    """What ``PenelopeProcessor.run_protected`` builds by default: ISV
    on both register files, the scheduler protector, and line-fixed
    DL0 and DTLB."""
    spec = ProtectionSpec()
    engine = get_backend(config.backend)
    dl0, dtlb = (
        ProtectedCache(make(geometry),
                       CACHE_SCHEMES.build(mechanism.name, mechanism.params),
                       seed=seed)
        for seed, (make, geometry, mechanism) in enumerate((
            (engine.make_cache, config.dl0, spec.dl0),
            (engine.make_tlb, config.dtlb, spec.dtlb))))
    return build_memory_hooks(spec), dl0, dtlb


HOOK_SETS = {"none": no_hooks, "profiler": profiler, "isv": isv,
             "protected": protected}


def hook_view(hooks):
    """The end state of every hook a set built."""
    members = hooks.hooks if isinstance(hooks, CompositeHooks) else [hooks]
    view = []
    for hook in members:
        if hook is None:
            continue
        if isinstance(hook, SchedulerProfiler):
            view.append((hook.fills, hook.memory_fills,
                         hook.busy_bias_to_zero()))
        elif isinstance(hook, ISVRegisterFileProtector):
            view.append((hook.updates_written, hook.updates_skipped,
                         hook.rinv.value, hook.rinv.updates,
                         sorted(hook._inverted), hook._inv_integral,
                         hook._total_integral, hook._last_event))
        elif isinstance(hook, SchedulerProtector):
            view.append((hook.updates_written, hook.updates_skipped,
                         hook._phase_counter, hook._last_sample,
                         {name: register.value
                          for name, register in hook.rinv.items()}))
        else:
            raise TypeError(f"no view of {type(hook).__name__}")
    return view


def entry_view(array):
    """Everything an entry array holds: values, free heap, busy flags
    and time, port counts, counters and horizon, and its bias state."""
    view = {name: getattr(array, name) for name in EntryArray.__slots__
            if name not in ("bias", "values")}
    bias = array.bias
    view["bias"] = (bias.values, bias.latest, bias._since,
                    dict(bias._pending), as_list(bias._zero),
                    as_list(bias._one))
    return view


def core_view(core):
    """The end state of a core's structures and rename state."""
    if isinstance(core, PerEventCore):
        rename, ready = core._mapping, core._ready
    else:
        rename, ready = ({(is_fp, reg): value
                          for is_fp, table in enumerate(tables)
                          for reg, value in table.items()}
                         for tables in (core._rename, core._ready_times))
    adders = core.adders
    return {
        "int_rf": entry_view(core.int_rf),
        "fp_rf": entry_view(core.fp_rf),
        "scheduler": entry_view(core.scheduler),
        "issue_use": core._issue_use,
        "rename": rename,
        "ready": ready,
        "mob": (core.mob._next, core.mob._outstanding, core.mob.allocations),
        "adders": (adders.adders, adders._samples, adders._seen, adders._rr,
                   adders._horizon, adders._rng.getstate()),
        "dl0": core.dl0.metrics().flatten(),
        "dtlb": core.dtlb.metrics().flatten(),
    }


def run_watched(cls, config, hook_set, trace, every):
    """One run of ``trace`` streamed through interval telemetry: the
    result, the snapshots, and the end state of the core and hooks."""
    hooks, dl0, dtlb = hook_set(config)
    core = cls(config, hooks, dl0=dl0, dtlb=dtlb)
    telemetry = IntervalTelemetry(core, every=every)
    result = core.run(telemetry.watch(iter(trace)))
    snapshots = [(s.label, s.values) for s in telemetry.snapshots]
    return result, snapshots, core_view(core), hook_view(hooks)


def assert_same_run(config, hook_set, trace, every):
    loop = run_watched(TraceDrivenCore, config, hook_set, trace, every)
    oracle = run_watched(PerEventCore, config, hook_set, trace, every)
    result, snapshots, structures, hooks = loop
    assert core_result_view(result) == core_result_view(oracle[0])
    assert len(snapshots) == len(oracle[1]) == -(-len(trace) // every) + 1
    for (label, values), (oracle_label, oracle_values) in zip(snapshots,
                                                              oracle[1]):
        assert label == oracle_label
        assert values == oracle_values, f"snapshot after {label} uops"
    for name, state in structures.items():
        assert state == oracle[2][name], name
    assert hooks == oracle[3]
    return result, structures


@pytest.fixture(scope="module")
def traces():
    return {suite: TraceGenerator(seed=21).generate(suite, length=400)
            for suite in suite_names()}


@pytest.fixture(params=["reference", "vectorized"])
def backend(request):
    if request.param == "vectorized":
        pytest.importorskip("numpy")
    return request.param


@pytest.fixture(params=[None, 4], ids=["fold-default", "fold-4"])
def folds(request, monkeypatch):
    """The bias and profiler fold sizes; 4 forces folds mid-run."""
    if request.param is not None:
        monkeypatch.setattr(bitbias, "FOLD_KEYS", request.param)
        monkeypatch.setattr(memory_like, "PROFILE_FOLD_VALUES",
                            request.param)
    return request.param


@pytest.mark.parametrize("hook_set", list(HOOK_SETS))
@pytest.mark.parametrize("suite", suite_names())
def test_loop_matches_per_event_oracle(traces, suite, hook_set, backend,
                                       folds):
    result, structures = assert_same_run(CoreConfig(backend=backend),
                                         HOOK_SETS[hook_set],
                                         traces[suite], every=50)
    assert result.uops == 400
    if hook_set in ("isv", "protected"):  # special writes reached a file
        assert any(structures[rf]["_special_writes"]
                   for rf in ("int_rf", "fp_rf"))


@pytest.mark.parametrize("config", [
    CoreConfig(),
    # Narrow and small: stalls on every structure, the ROB and retire
    # width, and a single adder serialising address generation.
    CoreConfig(alloc_width=2, issue_width=2, retire_width=1,
               rob_entries=8, int_regs=40, fp_regs=20,
               scheduler_entries=4, regfile_write_ports=1, n_adders=1,
               redirect_penalty=0, dl0_miss_penalty=0),
], ids=["default", "narrow"])
def test_long_stream_prunes_port_counters_alike(config):
    """Long enough to cross many 1024-cycle prune points."""
    trace = TraceGenerator(seed=5).generate("specint2000", length=6000)
    result, structures = assert_same_run(config, protected, trace,
                                         every=1000)
    assert result.cycles > 3 * 1024
    assert min(structures["issue_use"]) >= 2 * 1024
