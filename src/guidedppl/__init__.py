"""Guided sampling for discrete probabilistic programs.

Model programs make random choices through a runtime context; guide
programs run alongside and substitute their own distributions, steering
execution toward the posterior given the evidence.  The package provides
the trace runtime, free-energy and importance-sampling estimators with
distribution-free lower confidence bounds, an exact enumeration oracle
for desk-scale models, parameterized guide families with a search loop,
and worked example models behind a CLI.
"""

from types import ModuleType as _ModuleType

from .dists import (
    Dist,
    DuplicateValueError,
    EmptyRangeError,
    Value,
    ZeroMassError,
    dist_from_weights,
    point_mass,
    uniform_range,
)
from .runtime import (
    ChoiceRecord,
    ChoiceSite,
    EventFE,
    ExtraChoiceRecord,
    FunctionGuide,
    Guide,
    GuideContext,
    ModelContext,
    PriorGuide,
    RunStatus,
    Trace,
    derive_seeds,
    run_trace,
    run_traces,
)
from .estimators import (
    BatchStats,
    EmptyError,
    FreeEnergyEstimate,
    HypothesisEstimate,
    LowerBoundResult,
    NoAcceptedRunsError,
    UndefinedRatioError,
    WeightError,
    batch_stats,
    estimate_free_energy,
    evidence_functional,
    evidence_lower_bound,
    hypothesis_estimate,
    hypothesis_evidence_functional,
    importance_weight,
    lower_confidence_bound,
    lower_confidence_bound_batch,
)
from .enumeration import (
    ConditioningOnNullError,
    CrashEntry,
    EnumerationCapError,
    ExtraChoicesUnsupportedError,
    GuidedSamplingProfile,
    PathEntry,
    PathEnumeration,
    enumerate_paths,
    exact_conditional_expectation,
    exact_evidence,
    exact_guided_profile,
)
from .guideopt import (
    PointGuideFamily,
    SearchReport,
    TabularGuideFamily,
    UtilityConfig,
    guide_utility,
    optimize_guide,
)

__version__ = "0.1.0"

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
