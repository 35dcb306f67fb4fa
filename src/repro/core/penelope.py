"""The Penelope processor: whole-chip integration (Section 4.7).

Running every mechanism together:

- the adder injects the <0,0,0>/<1,1,1> pair during idle cycles,
- both register files run ISV at release,
- the scheduler applies the per-field policy at release,
- the DL0 and DTLB run a line-granularity inversion scheme,

and the block costs combine into the processor-level NBTIefficiency via
eqs. (2)–(4).  The paper's bottom line: Penelope 1.28 vs 1.73 for paying
the full guardband (inverting periodically cannot even cover the adder).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

from repro.circuits.ladner_fischer import (
    LadnerFischerAdder,
    build_ladner_fischer_adder,
)
from repro.core.cache_like import ProtectedCache
from repro.core.combinational import IdleInputInjector
from repro.core.memory_like import (
    PAPER_SCHEDULER_POLICY,
    SchedulerPolicy,
    SchedulerProfiler,
    derive_scheduler_policy,
)
from repro.core.metric import BlockCost, ProcessorCost, baseline_block_cost
from repro.metrics import ordered_sum
from repro.nbti.guardband import DEFAULT_GUARDBAND_MODEL, GuardbandModel
from repro.uarch.backends import get_backend
from repro.uarch.core import (
    CoreConfig,
    CoreHooks,
    CoreResult,
    TraceDrivenCore,
)
from repro.uarch.trace import Trace

if TYPE_CHECKING:
    from repro.config.specs import ProtectionSpec


@dataclass
class PenelopeReport:
    """Measured outcome of a Penelope run over a workload."""

    baseline: List[CoreResult]
    protected: List[CoreResult]
    block_costs: List[BlockCost]
    processor: ProcessorCost
    baseline_processor: ProcessorCost
    adder_guardband: float
    int_rf_bias: Tuple[float, float]  # (baseline worst, protected worst)
    fp_rf_bias: Tuple[float, float]
    scheduler_bias: Tuple[float, float]
    combined_cpi: float

    @property
    def efficiency(self) -> float:
        return self.processor.efficiency

    @property
    def baseline_efficiency(self) -> float:
        return self.baseline_processor.efficiency


class PenelopeProcessor:
    """Builds and evaluates the NBTI-aware processor end to end.

    ``protection`` (a :class:`~repro.config.specs.ProtectionSpec`) names
    the mechanism guarding each structure; every one is built from it
    through the component registries of :mod:`repro.config.registry`.
    The default spec is the paper's full Penelope configuration, and a
    ``"none"`` slot leaves its structure unprotected.  Only the
    ``derived_policy`` scheduler mechanism profiles a trace: any other
    pins the published policy unless ``scheduler_policy`` is given.
    :func:`repro.api.build_penelope` builds one from a study spec.

    Examples
    --------
    >>> from repro.workloads import generate_workload
    >>> workload = generate_workload(traces_per_suite=1, length=2000,
    ...                              suites=["specint2000"])
    >>> report = PenelopeProcessor().evaluate(workload)
    >>> report.efficiency < report.baseline_efficiency
    True
    """

    def __init__(
        self,
        config: Optional[CoreConfig] = None,
        protection: Optional[ProtectionSpec] = None,
        scheduler_policy: Optional[SchedulerPolicy] = None,
        adder: Optional[LadnerFischerAdder] = None,
        guardband_model: GuardbandModel = DEFAULT_GUARDBAND_MODEL,
        seed: int = 0,
    ) -> None:
        from repro.config.registry import ADDER_MECHANISMS
        from repro.config.specs import ProtectionSpec

        self.config = config or CoreConfig()
        self.protection = (protection if protection is not None
                           else ProtectionSpec())
        if (scheduler_policy is None
                and self.protection.scheduler.name != "derived_policy"):
            scheduler_policy = PAPER_SCHEDULER_POLICY
        self.scheduler_policy = scheduler_policy
        self.guardband_model = guardband_model
        self.seed = seed
        self._adder = adder
        adder_settings = ADDER_MECHANISMS.build(
            self.protection.adder.name, self.protection.adder.params,
            where="protection.adder",
        ) or {"pair": (1, 8), "inject": False}
        self.injector_pair: Tuple[int, int] = adder_settings["pair"]
        self.inject_idle: bool = adder_settings["inject"]
        # Each protected pass builds fresh schemes; building them once
        # here makes a bad parameter fail before any pass runs.
        self._cache_schemes()

    def _cache_schemes(self) -> List[Any]:
        """Fresh DL0 and DTLB schemes (``None`` for an unprotected one)."""
        from repro.config.registry import CACHE_SCHEMES

        return [CACHE_SCHEMES.build(mechanism.name, mechanism.params,
                                    where=f"protection.{structure}")
                for structure, mechanism in (("dl0", self.protection.dl0),
                                             ("dtlb", self.protection.dtlb))]

    # ------------------------------------------------------------------
    def run_baseline(
        self, trace: Trace, hooks: Optional[CoreHooks] = None
    ) -> CoreResult:
        """One unprotected run; ``hooks`` may observe it, not change it."""
        return TraceDrivenCore(self.config, hooks).run(trace)

    def derive_policy(self, profiling_trace: Trace) -> SchedulerPolicy:
        """Profile one trace and derive the scheduler policy (Sec. 4.5).

        Mirrors the paper's two-step flow: K values come from profiling
        traces, then the policy is applied to the evaluation traces.
        """
        profiler = SchedulerProfiler()
        result = TraceDrivenCore(self.config, profiler).run(profiling_trace)
        return derive_scheduler_policy(
            profiler, result.scheduler.occupancy
        )

    def run_protected(
        self,
        trace: Trace,
        policy: Optional[SchedulerPolicy] = None,
    ) -> CoreResult:
        """One run with every configured Penelope mechanism engaged."""
        from repro.config.registry import build_memory_hooks

        hooks = build_memory_hooks(
            self.protection,
            policy if policy is not None else self.scheduler_policy,
        )
        engine = get_backend(self.config.backend)
        dl0_scheme, dtlb_scheme = self._cache_schemes()
        dl0 = (
            ProtectedCache(engine.make_cache(self.config.dl0), dl0_scheme,
                           seed=self.seed)
            if dl0_scheme is not None else None
        )
        dtlb = (
            ProtectedCache(engine.make_tlb(self.config.dtlb), dtlb_scheme,
                           seed=self.seed + 1)
            if dtlb_scheme is not None else None
        )
        core = TraceDrivenCore(self.config, hooks, dl0=dl0, dtlb=dtlb)
        return core.run(trace)

    # ------------------------------------------------------------------
    def evaluate(self, workload: Sequence[Trace]) -> PenelopeReport:
        """Run baseline and protected passes and combine block costs."""
        if not workload:
            raise ValueError("workload must contain at least one trace")
        policy = self.scheduler_policy
        # Without a fixed policy, the first baseline run doubles as the
        # profiling run of derive_policy(): the profiler only observes,
        # so that run is the same as an unobserved one.
        profiler = SchedulerProfiler() if policy is None else None
        baseline = [self.run_baseline(trace, None if index else profiler)
                    for index, trace in enumerate(workload)]
        if profiler is not None:
            policy = derive_scheduler_policy(
                profiler, baseline[0].scheduler.occupancy
            )
        protected = [self.run_protected(trace, policy) for trace in workload]

        # -- adder: idle injection at the measured utilisation ----------
        adder = self._adder or build_ladner_fischer_adder()
        vectors = [v for res in baseline for v in res.adder_samples]
        if not vectors:
            vectors = [(0, 0, 0)]
        per_trace = [
            ordered_sum(res.adder_utilization)
            / max(1, len(res.adder_utilization))
            for res in baseline
        ]
        utilization = ordered_sum(per_trace) / max(1, len(per_trace))
        injector = IdleInputInjector(adder, self.injector_pair,
                                     self.guardband_model)
        adder_report = injector.age(vectors[:256], min(1.0, utilization),
                                    inject=self.inject_idle)
        adder_guardband = self.guardband_model.guardband_for_duty(
            adder_report.worst_narrow_duty
        )

        # -- storage blocks: bias -> guardband ---------------------------
        int_base, int_prot, fp_base, fp_prot, sched_base, sched_prot = (
            _merged_bias(results, bias_of)
            for bias_of in (lambda res: res.int_rf.bias_to_zero,
                            lambda res: res.fp_rf.bias_to_zero,
                            lambda res: res.scheduler.flattened_bias())
            for results in (baseline, protected))

        gb = self.guardband_model.guardband_for_bias
        block_costs = [
            BlockCost("adder", delay=1.0, guardband=adder_guardband,
                      tdp=1.0),
            BlockCost("int_rf", delay=1.0, guardband=gb(int_prot),
                      tdp=1.01),
            BlockCost("fp_rf", delay=1.0, guardband=gb(fp_prot), tdp=1.01),
            BlockCost("scheduler", delay=1.0, guardband=gb(sched_prot),
                      tdp=1.02),
            BlockCost("dl0+dtlb", delay=1.0,
                      guardband=self.guardband_model.min_guardband,
                      tdp=1.01),
        ]

        combined_cpi = _combined_cpi(baseline, protected)
        processor = ProcessorCost(blocks=block_costs,
                                  combined_cpi=combined_cpi)
        baseline_processor = ProcessorCost(
            blocks=[baseline_block_cost(b.name) for b in block_costs],
            combined_cpi=1.0,
        )
        return PenelopeReport(
            baseline=baseline,
            protected=protected,
            block_costs=block_costs,
            processor=processor,
            baseline_processor=baseline_processor,
            adder_guardband=adder_guardband,
            int_rf_bias=(int_base, int_prot),
            fp_rf_bias=(fp_base, fp_prot),
            scheduler_bias=(sched_base, sched_prot),
            combined_cpi=combined_cpi,
        )


# ----------------------------------------------------------------------
# Aggregation helpers
# ----------------------------------------------------------------------
def _merged_bias(results: Sequence[CoreResult],
                 bias_of: Callable[[CoreResult], Any]) -> float:
    """Worst per-bit bias aggregated over traces (cycle-weighted);
    ``bias_of(result)`` is one structure's per-bit bias vector."""
    total: Optional[List[float]] = None
    weight = 0.0
    for res in results:
        contribution = [float(b) * res.cycles for b in bias_of(res)]
        total = (contribution if total is None
                 else [t + c for t, c in zip(total, contribution)])
        weight += res.cycles
    bias = [t / weight for t in total]
    return float(max(max(b, 1.0 - b) for b in bias))


def _combined_cpi(
    baseline: Sequence[CoreResult], protected: Sequence[CoreResult]
) -> float:
    """Normalised CPI of the protected runs vs the baseline (eq. 2)."""
    base = ordered_sum(r.cycles for r in baseline) / max(
        1, sum(r.uops for r in baseline)
    )
    prot = ordered_sum(r.cycles for r in protected) / max(
        1, sum(r.uops for r in protected)
    )
    if base <= 0.0:
        return 1.0
    return max(1.0, prot / base)
