"""Penelope: the paper's contribution.

- :mod:`repro.core.metric` — the NBTIefficiency metric (eq. 1) and the
  whole-processor combination rules (eqs. 2–4).
- :mod:`repro.core.combinational` — idle-input injection for
  combinational blocks (Section 3.1) and the synthetic-input-pair search
  of the adder case study (Section 4.3, Figures 4 and 5).
- :mod:`repro.core.policy` — the Figure 3 casuistic choosing ALL1 /
  ALL0 / ALL1-K% / ISV per bit cell.
- :mod:`repro.core.memory_like` — RINV registers and the protectors for
  explicitly managed blocks: register files (Section 4.4) and the
  scheduler (Section 4.5).
- :mod:`repro.core.cache_like` — invalidate-and-invert schemes for
  cache-like blocks: SetFixed / LineFixed / LineDynamic (Sections 3.2.1
  and 4.6).
- :mod:`repro.core.penelope` — the whole-processor integration
  (Section 4.7).
"""

from repro.core.metric import (
    nbti_efficiency,
    BlockCost,
    ProcessorCost,
    baseline_block_cost,
    invert_periodically_cost,
    BASELINE_GUARDBAND,
    INVERT_MODE_DELAY,
)
from repro.core.policy import (
    Technique,
    BitDirective,
    choose_technique,
    ideal_k,
)
from repro.core.combinational import (
    IdleInputInjector,
    synthetic_inputs,
    input_pairs,
    evaluate_input_pair,
    search_best_pair,
    adder_guardband_study,
)
from repro.core.memory_like import (
    RINVRegister,
    ISVRegisterFileProtector,
    SchedulerProtector,
    SchedulerPolicy,
    SchedulerProfiler,
    derive_scheduler_policy,
    PAPER_SCHEDULER_POLICY,
)
from repro.core.cache_like import (
    InversionScheme,
    SetFixedScheme,
    WayFixedScheme,
    LineFixedScheme,
    LineDynamicScheme,
    ProtectedCache,
    CacheStudyResult,
    run_cache_study,
    performance_loss,
)
from repro.core.penelope import (
    PenelopeBaseline,
    PenelopeProcessor,
    PenelopeReport,
)
from repro.core.resizing import (
    ResizingPlan,
    apply_resizing,
    plan_resizing,
    resizing_tradeoff,
)
from repro.core.inverted_mode import (
    PeriodicInversionScheme,
    inverted_mode_block_cost,
)

__all__ = [
    "ResizingPlan",
    "apply_resizing",
    "plan_resizing",
    "resizing_tradeoff",
    "PeriodicInversionScheme",
    "inverted_mode_block_cost",
    "nbti_efficiency",
    "BlockCost",
    "ProcessorCost",
    "baseline_block_cost",
    "invert_periodically_cost",
    "BASELINE_GUARDBAND",
    "INVERT_MODE_DELAY",
    "Technique",
    "BitDirective",
    "choose_technique",
    "ideal_k",
    "IdleInputInjector",
    "synthetic_inputs",
    "input_pairs",
    "evaluate_input_pair",
    "search_best_pair",
    "adder_guardband_study",
    "RINVRegister",
    "ISVRegisterFileProtector",
    "SchedulerProtector",
    "SchedulerPolicy",
    "SchedulerProfiler",
    "derive_scheduler_policy",
    "PAPER_SCHEDULER_POLICY",
    "InversionScheme",
    "SetFixedScheme",
    "WayFixedScheme",
    "LineFixedScheme",
    "LineDynamicScheme",
    "ProtectedCache",
    "CacheStudyResult",
    "run_cache_study",
    "performance_loss",
    "PenelopeBaseline",
    "PenelopeProcessor",
    "PenelopeReport",
]
