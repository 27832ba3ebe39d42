"""The package's public surface: the names the benchmark's tracer wraps,
and the names `guidedppl` exports."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import guidedppl

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spanned() -> dict:
    # The tracer imports only the standard library; it is read, not changed.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANNED


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in _spanned().items() for name in names])
def test_every_traced_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"guidedppl.{layer}"), name))


# Sorted; a name added to or removed from the package shows here.
PUBLIC = [
    "BatchStats",
    "ChoiceRecord",
    "ChoiceSite",
    "ConditioningOnNullError",
    "CrashEntry",
    "Dist",
    "DuplicateValueError",
    "EmptyError",
    "EmptyRangeError",
    "EnumerationCapError",
    "EventFE",
    "ExtraChoiceRecord",
    "ExtraChoicesUnsupportedError",
    "FreeEnergyEstimate",
    "FunctionGuide",
    "Guide",
    "GuideContext",
    "GuidedSamplingProfile",
    "HypothesisEstimate",
    "LowerBoundResult",
    "ModelContext",
    "NoAcceptedRunsError",
    "PathEntry",
    "PathEnumeration",
    "PointGuideFamily",
    "PriorGuide",
    "RunStatus",
    "SearchReport",
    "StatusError",
    "TabularGuideFamily",
    "Trace",
    "UndefinedRatioError",
    "UtilityConfig",
    "Value",
    "WeightError",
    "ZeroMassError",
    "batch_stats",
    "derive_seeds",
    "dist_from_weights",
    "enumerate_paths",
    "estimate_free_energy",
    "evidence_functional",
    "evidence_lower_bound",
    "exact_conditional_expectation",
    "exact_evidence",
    "exact_guided_profile",
    "guide_utility",
    "hypothesis_estimate",
    "hypothesis_evidence_functional",
    "importance_weight",
    "lower_confidence_bound",
    "lower_confidence_bound_batch",
    "optimize_guide",
    "point_mass",
    "run_trace",
    "run_traces",
    "uniform_range",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert guidedppl.__all__ == PUBLIC
    for name in PUBLIC:
        getattr(guidedppl, name)
