import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedppl import (
    EmptyError,
    FunctionGuide,
    NoAcceptedRunsError,
    PriorGuide,
    RunStatus,
    UndefinedRatioError,
    WeightError,
    batch_stats,
    derive_seeds,
    estimate_free_energy,
    evidence_functional,
    evidence_lower_bound,
    exact_evidence,
    hypothesis_estimate,
    importance_weight,
    lower_confidence_bound,
    lower_confidence_bound_batch,
    point_mass,
    run_trace,
    uniform_range,
)
from guidedppl.estimators import BatchStats, merge_batch_stats
from guidedppl.models import DicePosteriorGuide, three_dice

from helpers import DICE_FE_TARGET, always_false_model, guided_paths, single_choice_model

P_E = 15 / 216


def dkw_eps(n, delta):
    return math.sqrt(math.log(1 / delta) / (2 * n))


class TestOneRunFreeEnergy:
    def test_posterior_guide_is_constant_across_paths(self):
        for seed in range(100):
            t = run_trace(three_dice, DicePosteriorGuide(), seed)
            assert t.completed
            assert t.fe_total == pytest.approx(DICE_FE_TARGET, abs=1e-9)

    def test_prior_guide_no_evidence_is_zero(self):
        t = run_trace(single_choice_model, PriorGuide(), 3)
        assert t.completed
        assert t.fe_total == 0.0

    def test_single_evidence_quarter(self):
        def model(ctx):
            ctx.choose(uniform_range(1, 2))
            ctx.evidence(0.25)

        t = run_trace(model, PriorGuide(), 3)
        assert t.completed
        assert t.fe_total == pytest.approx(math.log(4), abs=1e-12)


class TestEstimateFreeEnergy:
    def test_posterior_guide_zero_spread(self):
        est = estimate_free_energy(three_dice, DicePosteriorGuide(), 1000, 7)
        assert est.n_accepted == est.n_total == 1000
        assert est.acceptance_rate == 1.0
        assert est.adjusted_fe == pytest.approx(DICE_FE_TARGET, abs=1e-9)
        assert est.std_error <= 1e-12  # identical runs up to float rounding

    def test_prior_echo_with_rejection(self, dice_pe):
        est = estimate_free_energy(three_dice, PriorGuide(ceiling=500.0), 10_000, 3)
        assert est.mean_fe == 0.0  # accepted runs have fe exactly zero
        sigma = math.sqrt(P_E * (1 - P_E) / 10_000)
        assert abs(est.acceptance_rate - P_E) < 3 * sigma
        assert abs(est.adjusted_fe - DICE_FE_TARGET) < 3 * est.std_error

    def test_single_run(self):
        est = estimate_free_energy(three_dice, DicePosteriorGuide(), 1, 5)
        t = run_trace(three_dice, DicePosteriorGuide(), int(derive_seeds(5, 1)[0]))
        assert t.completed
        assert est.adjusted_fe == t.fe_total
        assert est.std_error == 0.0

    def test_all_rejected_raises(self):
        with pytest.raises(NoAcceptedRunsError) as info:
            estimate_free_energy(always_false_model, PriorGuide(ceiling=10.0), 50, 0)
        assert info.value.n_total == 50

    def test_infinite_fe_propagates_without_ceiling(self):
        est = estimate_free_energy(three_dice, PriorGuide(), 200, 0)
        assert est.mean_fe == math.inf
        assert est.adjusted_fe == math.inf

    def test_counts_events(self):
        est = estimate_free_energy(three_dice, DicePosteriorGuide(), 25, 0)
        assert est.total_events == 25 * 4

    def test_crashes_count_in_the_acceptance_denominator(self):
        from helpers import crash_on_three_model

        est = estimate_free_energy(crash_on_three_model, PriorGuide(), 600, 1)
        assert est.n_total == 600
        assert est.n_accepted < 600  # v == 3 paths crash
        assert est.acceptance_rate == est.n_accepted / 600


class TestImportanceWeights:
    def test_posterior_guide_weights_are_constant(self):
        for seed in range(200):
            t = run_trace(three_dice, DicePosteriorGuide(), seed)
            assert importance_weight(t, evidence_functional) == pytest.approx(P_E, abs=1e-12)

    def test_prior_guide_weights_are_boolean(self):
        ws = [
            importance_weight(run_trace(three_dice, PriorGuide(), s), evidence_functional)
            for s in range(2000)
        ]
        assert set(round(w, 12) for w in ws) == {0.0, 1.0}
        se = np.std(ws, ddof=1) / math.sqrt(len(ws))
        assert abs(np.mean(ws) - P_E) < 3 * se

    def test_rejected_trace_weight_zero_without_calling_f(self):
        t = run_trace(always_false_model, PriorGuide(ceiling=10.0), 0)

        def f(trace):
            raise AssertionError("must not be called")

        assert importance_weight(t, f) == 0.0

    def test_zero_ratio_skips_f(self):
        guide = FunctionGuide(lambda site: point_mass(5))
        t = run_trace(single_choice_model, guide, 0)
        assert t.status is RunStatus.COMPLETED

        def f(trace):
            raise AssertionError("must not be called")

        assert importance_weight(t, f) == 0.0

    def test_bad_f_values_raise(self):
        t = run_trace(three_dice, DicePosteriorGuide(), 0)
        with pytest.raises(WeightError):
            importance_weight(t, lambda trace: -1.0)
        with pytest.raises(WeightError):
            importance_weight(t, lambda trace: float("nan"))

    def test_exact_expectation_matches_covered_sum(self, dice_pe):
        # E_G[w] over all guide-reachable paths equals sum P(x) f(x) when
        # the guide covers the support of f * P.
        guide = DicePosteriorGuide()
        covered = math.fsum(
            math.exp(e.log_prior + e.log_evidence) for e, _ in guided_paths(dice_pe, guide)
        )
        assert covered == pytest.approx(exact_evidence(dice_pe), abs=1e-12)

    def test_incomplete_coverage_underestimates(self, dice_pe):
        point = FunctionGuide(lambda site: point_mass((5, 1, 1)[site.index]))
        covered = math.fsum(
            math.exp(e.log_prior + e.log_evidence) for e, _ in guided_paths(dice_pe, point)
        )
        assert covered == pytest.approx(1 / 216, abs=1e-12)
        assert covered < exact_evidence(dice_pe)


class TestLowerConfidenceBound:
    def test_constant_samples_closed_form(self):
        for n in (1, 5, 100, 600):
            r = lower_confidence_bound([0.25] * n, 0.05)
            eps = dkw_eps(n, 0.05)
            assert r.bound == pytest.approx(0.25 * max(0.0, 1 - eps), abs=1e-12)
            assert r.sample_mean == pytest.approx(0.25, abs=1e-12)

    def test_single_sample_at_five_percent_is_zero(self):
        # eps = sqrt(ln 20 / 2) ~ 1.224 > 1 wipes the whole band out.
        assert lower_confidence_bound([3.0], 0.05).bound == 0.0

    def test_bernoulli_closed_form(self):
        rng = np.random.default_rng(5)
        xs = (rng.random(500) < P_E).astype(float)
        r = lower_confidence_bound(xs, 0.05)
        phat = xs.mean()
        assert r.bound == pytest.approx(max(0.0, phat - dkw_eps(500, 0.05)), abs=1e-12)

    def test_validation(self):
        with pytest.raises(EmptyError):
            lower_confidence_bound([], 0.05)
        with pytest.raises(ValueError):
            lower_confidence_bound([1.0], 0.0)
        with pytest.raises(ValueError):
            lower_confidence_bound([1.0], 1.0)
        with pytest.raises(ValueError):
            lower_confidence_bound([-0.1, 1.0], 0.05)
        with pytest.raises(ValueError):
            lower_confidence_bound([math.inf], 0.05)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(0)
        rows = rng.random((8, 40))
        batch = lower_confidence_bound_batch(rows, 0.1)
        for i, row in enumerate(rows):
            assert batch[i] == lower_confidence_bound(row, 0.1).bound

    @pytest.mark.parametrize("rows", [[0.5, 1.0], np.zeros((3, 0))], ids=["1-d", "no-columns"])
    def test_batch_needs_a_2d_array_with_samples(self, rows):
        with pytest.raises(EmptyError, match="need a 2-d array with at least one sample per row"):
            lower_confidence_bound_batch(rows, 0.05)

    def test_quick_coverage_sanity(self):
        rng = np.random.default_rng(11)
        rows = (rng.random((300, 400)) < P_E).astype(float)
        bounds = lower_confidence_bound_batch(rows, 0.05)
        assert (bounds <= P_E).mean() >= 0.95


@given(
    st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
    st.floats(min_value=0.005, max_value=0.5),
)
@settings(max_examples=150, deadline=None)
def test_lcb_never_exceeds_sample_mean(samples, delta):
    r = lower_confidence_bound(samples, delta)
    assert r.bound <= r.sample_mean + 1e-15
    assert r.bound >= 0.0


@given(
    st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), min_size=1, max_size=40),
    st.floats(min_value=0.01, max_value=0.4),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=100, deadline=None)
def test_lcb_scale_equivariance(samples, delta, c):
    base = lower_confidence_bound(samples, delta).bound
    scaled = lower_confidence_bound([c * x for x in samples], delta).bound
    assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-12)


@given(
    st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30),
    st.floats(min_value=0.01, max_value=0.4),
    st.integers(min_value=0, max_value=29),
    st.floats(min_value=0, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_lcb_monotone_under_pointwise_increase(samples, delta, idx, bump):
    lo = lower_confidence_bound(samples, delta).bound
    bigger = list(samples)
    bigger[idx % len(bigger)] += bump
    hi = lower_confidence_bound(bigger, delta).bound
    assert hi >= lo - 1e-12


class TestEvidenceLowerBound:
    def test_posterior_guide_closed_form(self):
        r = evidence_lower_bound(three_dice, DicePosteriorGuide(), 100, 0.05, 7)
        # All weights equal P(e), so the bound is (1 - eps) P(e).
        assert r.bound == pytest.approx((1 - dkw_eps(100, 0.05)) * P_E, abs=1e-12)
        assert r.bound <= P_E

    def test_prior_guide_bound_is_valid_but_loose(self):
        r = evidence_lower_bound(three_dice, PriorGuide(), 100, 0.05, 7)
        assert 0.0 <= r.bound <= P_E
        posterior = evidence_lower_bound(three_dice, DicePosteriorGuide(), 100, 0.05, 7)
        assert r.bound < posterior.bound

    def test_all_false_evidence_bound_zero(self):
        r = evidence_lower_bound(always_false_model, PriorGuide(), 50, 0.05, 0)
        assert r.bound == 0.0


class TestHypothesisEstimate:
    def test_perfect_guides_ratio_cancels_the_band(self):
        numerator_guide = FunctionGuide(lambda site: point_mass((5, 1, 1)[site.index]))
        est = hypothesis_estimate(three_dice, numerator_guide, DicePosteriorGuide(), 5000, 0.05, 13)
        # Both weight sets are constants, so (1 - eps) cancels exactly.
        assert est.ratio_of_bounds == pytest.approx(1 / 15, abs=1e-9)
        assert est.numerator_bound.bound <= 1 / 216
        assert est.denominator_bound.bound <= P_E
        assert abs(est.self_normalized - 1 / 15) < 0.02
        assert est.self_normalized_se < 0.01

    def test_constant_hypothesis_is_self_normalized_to_one(self):
        def model(ctx):
            ctx.choose(uniform_range(1, 6))
            ctx.evidence(0.5)

        est = hypothesis_estimate(model, PriorGuide(), PriorGuide(), 200, 0.05, 1)
        assert est.self_normalized == 1.0
        assert est.ratio_of_bounds == pytest.approx(1.0, abs=1e-12)

    def test_zero_hypothesis(self):
        def model(ctx):
            ctx.choose(uniform_range(1, 6))
            ctx.set_hypothesis(0.0)
            ctx.evidence(0.5)

        est = hypothesis_estimate(model, PriorGuide(), PriorGuide(), 200, 0.05, 1)
        assert est.numerator_bound.bound == 0.0
        assert est.self_normalized == 0.0

    def test_undefined_ratio_carries_partial(self):
        with pytest.raises(UndefinedRatioError) as info:
            hypothesis_estimate(always_false_model, PriorGuide(), PriorGuide(), 50, 0.05, 0)
        partial = info.value.partial
        assert partial.denominator_bound.bound == 0.0
        assert partial.ratio_of_bounds is None
        assert partial.self_normalized is None


def test_merge_batch_stats_equals_single_pass():
    seeds = derive_seeds(9, 60)
    whole = batch_stats(three_dice, PriorGuide(ceiling=500.0), seeds)
    parts = [
        batch_stats(three_dice, PriorGuide(ceiling=500.0), seeds[:20]),
        batch_stats(three_dice, PriorGuide(ceiling=500.0), seeds[20:]),
    ]
    merged = merge_batch_stats(parts)
    for f in fields(BatchStats):
        a, b = getattr(merged, f.name), getattr(whole, f.name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), f.name
