import hashlib
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedppl import (
    ConditioningOnNullError,
    CrashEntry,
    Dist,
    EnumerationCapError,
    ExtraChoicesUnsupportedError,
    FunctionGuide,
    Guide,
    PriorGuide,
    RunStatus,
    batch_stats,
    derive_seeds,
    dist_from_weights,
    enumerate_paths,
    exact_conditional_expectation,
    exact_evidence,
    exact_guided_profile,
    point_mass,
    run_trace,
    uniform_range,
)
from guidedppl.enumeration import _value_key
from guidedppl.models import DicePosteriorGuide, expr_tabular_family, make_monkey_model, three_dice

from helpers import (
    DICE_FE_TARGET,
    always_false_model,
    crash_on_three_model,
    forcing_guide_for,
    guided_paths,
    make_hashed_model,
    no_choice_model,
    no_evidence_model,
    random_full_support_guide,
    random_structured_dice_guide,
    random_table_dice_guide,
    structured_dice_guide,
)


def brute_force_dice():
    """Independent combinatorial oracle for the dice model."""
    evidence = Fraction(0)
    hyp = Fraction(0)
    for d1, d2, d3 in product(range(1, 7), repeat=3):
        if d1 + d2 + d3 == 7:
            evidence += Fraction(1, 216)
            if d1 == 5:
                hyp += Fraction(1, 216)
    return evidence, hyp / evidence


class TestEnumerateDice:
    def test_path_count_and_masses(self, dice_pe):
        assert len(dice_pe.entries) == 216
        for e in dice_pe.entries:
            assert e.log_prior == pytest.approx(-3 * math.log(6), abs=1e-12)
        assert math.fsum(math.exp(e.log_prior) for e in dice_pe.entries) == pytest.approx(1.0, abs=1e-9)

    def test_entries_sorted_by_choice_sequence(self, dice_pe):
        seqs = [e.choices for e in dice_pe.entries]
        assert seqs == sorted(seqs)

    def test_evidence_matches_combinatorial_oracle(self, dice_pe):
        want, _ = brute_force_dice()
        assert exact_evidence(dice_pe) == pytest.approx(float(want), abs=1e-12)

    def test_conditional_matches_combinatorial_oracle(self, dice_pe):
        _, want = brute_force_dice()
        assert exact_conditional_expectation(dice_pe) == pytest.approx(float(want), abs=1e-12)


class TestEnumerateEdges:
    def test_zero_choice_model(self):
        pe = enumerate_paths(no_choice_model)
        assert len(pe.entries) == 1
        assert pe.entries[0].log_prior == 0.0

    def test_all_false_evidence(self):
        pe = enumerate_paths(always_false_model)
        assert exact_evidence(pe) == 0.0
        with pytest.raises(ConditioningOnNullError):
            exact_conditional_expectation(pe)

    def test_no_evidence_model(self):
        pe = enumerate_paths(no_evidence_model)
        assert exact_evidence(pe) == pytest.approx(1.0, abs=1e-12)

    def test_path_cap(self):
        with pytest.raises(EnumerationCapError):
            enumerate_paths(three_dice, max_paths=10)

    @pytest.mark.parametrize("max_paths", [0, -5])
    def test_path_cap_below_one_is_rejected_before_any_run(self, max_paths):
        # It ran the model and then reported "more than 0 paths; model too large".
        runs = []

        def model(ctx):
            runs.append(1)
            three_dice(ctx)

        with pytest.raises(ValueError, match=f"^max_paths must be at least 1, got {max_paths}$"):
            enumerate_paths(model, max_paths=max_paths)
        assert runs == []

    def test_event_cap(self):
        def deep(ctx):
            for _ in range(100):
                ctx.choose(point_mass(0))

        with pytest.raises(EnumerationCapError):
            enumerate_paths(deep, max_events=10)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, math.inf])
    def test_bad_hypothesis_is_an_error_as_in_run_trace(self, bad):
        def model(ctx):
            ctx.choose(uniform_range(1, 2))
            ctx.set_hypothesis(bad)

        pe = enumerate_paths(model)
        assert pe.entries == () and len(pe.crashes) == 2
        _assert_same_verdicts(model, pe, PriorGuide())
        assert all("hypothesis" in c.reason for c in pe.crashes)

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, math.inf])
    def test_bad_evidence_is_an_error_as_in_run_trace(self, bad):
        def model(ctx):
            ctx.choose(uniform_range(1, 2))
            ctx.evidence(bad)

        pe = enumerate_paths(model)
        assert pe.entries == () and len(pe.crashes) == 2
        _assert_same_verdicts(model, pe, PriorGuide())
        assert all("evidence" in c.reason and c.n_events == 1 for c in pe.crashes)

    def test_fewer_choices_on_replay(self):
        runs = []

        def model(ctx):
            runs.append(None)
            ctx.choose(uniform_range(1, 2))
            if len(runs) == 1:
                ctx.choose(uniform_range(1, 2))

        with pytest.raises(RuntimeError, match="fewer choices"):
            enumerate_paths(model)

    def test_forced_value_leaving_the_prior_support(self):
        runs = []

        def model(ctx):
            runs.append(None)
            ctx.choose(uniform_range(1, 2) if len(runs) == 1 else point_mass(1))

        with pytest.raises(RuntimeError, match="left the prior support"):
            enumerate_paths(model)

    def test_crash_before_the_forced_prefix_ends_is_not_deterministic(self):
        runs = []

        def model(ctx):
            runs.append(None)
            if len(runs) > 1:
                raise KeyError("boom")
            ctx.choose(uniform_range(1, 2))

        with pytest.raises(RuntimeError, match="not deterministic: KeyError: 'boom', replaying \\(2,\\)"):
            enumerate_paths(model)

    def test_one_model_run_per_path(self, dice_pe):
        runs = []

        def model(ctx):
            runs.append(None)
            three_dice(ctx)

        pe = enumerate_paths(model)
        assert len(runs) == len(pe.entries) == 216
        assert pe.entries == dice_pe.entries


def _leaves(pe):
    """Every leaf of an enumeration, completed or crashed, by its choices."""
    return {leaf.choices: leaf for leaf in (*pe.entries, *pe.crashes)}


def _assert_same_verdicts(model, pe, guide, seeds=range(20)):
    """Each sampled run matches the leaf its choices lead to."""
    leaves = _leaves(pe)
    for seed in seeds:
        t = run_trace(model, guide, seed)
        leaf = leaves[tuple(c.chosen for c in t.choices)]
        if type(leaf) is CrashEntry:
            assert t.status is RunStatus.REJECTED_CRASH
            assert t.crash_reason == leaf.reason
        else:
            assert t.status is RunStatus.COMPLETED
            assert t.hypothesis == leaf.hypothesis
        assert t.n_events == leaf.n_events
        assert t.log_prior_total == pytest.approx(leaf.log_prior, rel=1e-12, abs=1e-12)


class TestCrashLeaves:
    def test_crash_on_three_under_the_prior(self):
        pe = enumerate_paths(crash_on_three_model)
        assert [e.choices for e in pe.entries] == [(1,), (2,)]
        (crash,) = pe.crashes
        assert (crash.choices, crash.n_events) == ((3,), 1)
        assert crash.reason.startswith("ZeroDivisionError: ")
        assert exact_evidence(pe) == pytest.approx(2 / 3, abs=1e-12)
        assert pe.crash_mass() == pytest.approx(1 / 3, abs=1e-12)
        prof = exact_guided_profile(pe, PriorGuide())
        assert prof.acceptance_rate == pytest.approx(2 / 3, abs=1e-12)
        assert prof.mean_events_per_run == pytest.approx(5 / 3, abs=1e-12)
        assert prof.adjusted_fe == pytest.approx(math.log(1.5), abs=1e-12)
        assert prof.free_energy == prof.kl == math.inf
        assert [e.choices for e, _ in guided_paths(pe, PriorGuide())] == [(1,), (2,)]
        _assert_same_verdicts(crash_on_three_model, pe, PriorGuide())

    def test_key_error_branch(self):
        def model(ctx):
            v = ctx.choose(uniform_range(1, 3), label="c")
            ctx.evidence(0.5)
            if v == 2:
                raise KeyError("boom")
            ctx.set_hypothesis(v)

        pe = enumerate_paths(model)
        assert [e.choices for e in pe.entries] == [(1,), (3,)]
        (crash,) = pe.crashes
        assert (crash.choices, crash.n_events, crash.reason) == ((2,), 2, "KeyError: 'boom'")
        assert crash.log_prior == pytest.approx(-math.log(3), abs=1e-12)
        _assert_same_verdicts(model, pe, PriorGuide())

    def test_prior_that_is_not_a_dist(self):
        def model(ctx):
            if ctx.choose(uniform_range(1, 2)) == 2:
                ctx.evidence(0.5)
                ctx.choose([1, 2])
            ctx.evidence(1.0)

        pe = enumerate_paths(model)
        assert [e.choices for e in pe.entries] == [(1,)]
        (crash,) = pe.crashes
        assert (crash.choices, crash.n_events, crash.reason) == ((2,), 2, "choose() needs a Dist, got list")
        _assert_same_verdicts(model, pe, PriorGuide())

    def test_ceiling_rejection_before_a_crash_counts_the_events_at_the_rejection(self):
        def model(ctx):
            if ctx.choose(uniform_range(1, 2)) == 2:
                ctx.evidence(0.1)  # ln 10 exceeds the ceiling of 1
                ctx.evidence(1.0)
                raise KeyError("boom")
            ctx.evidence(1.0)

        pe = enumerate_paths(model)
        (crash,) = pe.crashes
        assert crash.n_events == 3
        prof = exact_guided_profile(pe, PriorGuide(ceiling=1.0))
        assert prof.acceptance_rate == pytest.approx(0.5, abs=1e-12)
        assert prof.mean_events_per_run == pytest.approx(2.0, abs=1e-12)
        assert exact_guided_profile(pe, PriorGuide()).mean_events_per_run == pytest.approx(2.5, abs=1e-12)
        for seed in range(10):
            t = run_trace(model, PriorGuide(ceiling=1.0), seed)
            if t.choices[0].chosen == 2:
                assert (t.status, t.n_events) == (RunStatus.REJECTED_THRESHOLD, 2)


@settings(max_examples=15, deadline=None)
@given(structure_seed=st.integers(0, 10_000), guide_seed=st.integers(0, 10_000))
def test_same_verdict_per_path_in_sampling_and_enumeration(structure_seed, guide_seed):
    model = make_hashed_model(structure_seed, crash=True)
    pe = enumerate_paths(model)
    prof = exact_guided_profile(pe, PriorGuide())
    assert prof.acceptance_rate == pytest.approx(1.0 - pe.crash_mass(), abs=1e-12)
    assert math.fsum(math.exp(e.log_prior) for e in pe.entries) + pe.crash_mass() == pytest.approx(1.0, abs=1e-12)
    for guide in (PriorGuide(), random_full_support_guide(guide_seed)):
        _assert_same_verdicts(model, pe, guide, seeds=range(200))


@settings(max_examples=15, deadline=None)
@given(structure_seed=st.integers(0, 10_000))
def test_rebuilt_entries_match_forced_runs(structure_seed):
    # `entries` and `crashes` are rebuilt from the tree and the per-path
    # columns; each must be what a run forced down its choices reports.
    model = make_hashed_model(structure_seed, crash=True)
    pe = enumerate_paths(model)
    entries, crashes = pe.entries, pe.crashes
    for leaf in (*entries, *crashes):
        t = run_trace(model, forcing_guide_for(leaf.choices), 0)
        assert tuple(c.chosen for c in t.choices) == leaf.choices
        assert (t.log_prior_total, t.n_events) == (leaf.log_prior, leaf.n_events)
        if type(leaf) is CrashEntry:
            assert (t.status, t.crash_reason) == (RunStatus.REJECTED_CRASH, leaf.reason)
        else:
            assert (t.status, t.log_evidence, t.hypothesis) == (RunStatus.COMPLETED, leaf.log_evidence, leaf.hypothesis)
    for leaves in (entries, crashes):
        keys = [tuple(map(_value_key, leaf.choices)) for leaf in leaves]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert math.fsum(math.exp(e.log_prior) for e in entries) + pe.crash_mass() == pytest.approx(1.0, abs=1e-12)


def _raises_at_site_1_after_2(site):
    if site.index == 1 and site.history[0] == 2:
        raise ZeroDivisionError("no guide here")
    return None


class TestGuideExceptions:
    """An exception from the guide is a crash of the runs that reach it, in
    sampling and in the exact walk alike."""

    @staticmethod
    def model(ctx):
        a = ctx.choose(uniform_range(1, 2), label="a")
        b = ctx.choose(uniform_range(1, 2), label="b")
        ctx.evidence(a + b > 2)

    def test_a_raise_in_propose_crashes_the_mass_that_reaches_it(self):
        guide = FunctionGuide(_raises_at_site_1_after_2)
        prof = exact_guided_profile(enumerate_paths(self.model), guide)
        # a = 1 runs three events and is accepted; a = 2 crashes at site 1 after one event.
        assert (prof.acceptance_rate, prof.mean_events_per_run) == (0.5, 2.0)
        assert prof.free_energy == prof.kl == prof.adjusted_fe == math.inf
        stats = batch_stats(self.model, guide, derive_seeds(1, 2000))
        assert stats.accepted.mean() == pytest.approx(0.5, abs=0.06)  # five standard errors
        assert stats.events.mean() == pytest.approx(2.0, abs=0.12)
        for seed in derive_seeds(1, 20):
            t = run_trace(self.model, guide, int(seed))
            if t.choices[0].chosen == 2:
                assert (t.status, t.n_events, t.crash_reason) == (
                    RunStatus.REJECTED_CRASH, 1, "ZeroDivisionError: no guide here")

    def test_a_raise_in_begin_crashes_every_run(self):
        class G(Guide):
            def begin(self, ctx):
                raise KeyError("begin")

        prof = exact_guided_profile(enumerate_paths(self.model), G())
        assert (prof.acceptance_rate, prof.mean_events_per_run) == (0.0, 0.0)
        assert prof.free_energy == prof.kl == prof.adjusted_fe == math.inf
        t = run_trace(self.model, G(), 0)
        assert (t.status, t.n_events) == (RunStatus.REJECTED_CRASH, 0)

    def test_a_raise_below_a_ceiling_rejection_costs_the_rejection(self):
        def model(ctx):
            if ctx.choose(uniform_range(1, 2), label="a") == 2:
                ctx.evidence(0.1)  # ln 10 exceeds the ceiling of 1
            ctx.choose(uniform_range(1, 2), label="b")
            ctx.evidence(True)

        guide = FunctionGuide(_raises_at_site_1_after_2, ceiling=1.0)
        prof = exact_guided_profile(enumerate_paths(model), guide)
        # Sampling rejects a = 2 at its evidence, event 2, and never asks the guide at site 1.
        assert (prof.acceptance_rate, prof.mean_events_per_run) == (0.5, 2.5)
        assert prof.adjusted_fe == pytest.approx(math.log(2), abs=1e-12)
        assert prof.free_energy == prof.kl == math.inf
        for seed in derive_seeds(1, 20):
            t = run_trace(model, guide, int(seed))
            if t.choices[0].chosen == 2:
                assert (t.status, t.n_events) == (RunStatus.REJECTED_THRESHOLD, 2)
            else:
                assert (t.status, t.n_events) == (RunStatus.COMPLETED, 3)


class TestExactFreeEnergy:
    def test_posterior_guide_hits_the_floor(self, dice_pe):
        rep = exact_guided_profile(dice_pe, DicePosteriorGuide())
        assert rep.free_energy == pytest.approx(DICE_FE_TARGET, abs=1e-9)
        assert rep.kl == pytest.approx(0.0, abs=1e-9)

    def test_prior_guide_is_infinite_on_boolean_evidence(self, dice_pe):
        # The prior reaches sum != 7 paths, where -log P(e|x) blows up.
        rep = exact_guided_profile(dice_pe, PriorGuide())
        assert rep.free_energy == math.inf
        assert rep.kl == math.inf

    def test_structured_guides_stay_above_the_floor(self, dice_pe):
        for seed in range(10):
            rep = exact_guided_profile(dice_pe, random_structured_dice_guide(seed))
            assert math.isfinite(rep.free_energy)
            assert rep.free_energy > DICE_FE_TARGET + 1e-9
            assert rep.kl > 0.0
            assert rep.kl == pytest.approx(rep.free_energy - DICE_FE_TARGET, abs=1e-9)

    def test_posterior_table_is_the_unique_structured_optimum(self, dice_pe):
        rep = exact_guided_profile(
            dice_pe, structured_dice_guide([1 / 3, 4 / 15, 1 / 5, 2 / 15, 1 / 15])
        )
        assert rep.free_energy == pytest.approx(DICE_FE_TARGET, abs=1e-9)

    def test_guide_mass_on_prior_impossible_value_is_infinite(self, dice_pe):
        leaky = FunctionGuide(lambda site: uniform_range(1, 7))
        rep = exact_guided_profile(dice_pe, leaky)
        assert rep.free_energy == math.inf

    def test_no_evidence_prior_guide_is_zero(self):
        pe = enumerate_paths(no_evidence_model)
        rep = exact_guided_profile(pe, PriorGuide())
        assert rep.free_energy == 0.0
        assert rep.kl == pytest.approx(0.0, abs=1e-12)

    def test_guides_with_extra_choices_are_rejected(self, dice_pe):
        class G(Guide):
            def begin(self, ctx):
                ctx.extra_choice(point_mass(0), lambda trace: point_mass(0))

        with pytest.raises(ExtraChoicesUnsupportedError):
            exact_guided_profile(dice_pe, G())

    @pytest.mark.parametrize("proposal", [[1, 2], "ab"])
    def test_a_guide_that_returns_no_dist_is_a_type_error(self, dice_pe, proposal):
        """The walk raises the runtime's crash reason as a `TypeError`: a
        list failed to unpack its atoms and a str raised `ValueError`."""
        guide = FunctionGuide(lambda site: proposal)
        reason = f"guide returned {type(proposal).__name__}, not a Dist"
        assert run_trace(three_dice, guide, 0).crash_reason == reason
        with pytest.raises(TypeError, match=f"^{reason}$"):
            exact_guided_profile(dice_pe, guide)


class TestGuidedProfile:
    def test_prior_echo_with_ceiling(self, dice_pe):
        prof = exact_guided_profile(dice_pe, PriorGuide(ceiling=500.0))
        assert prof.acceptance_rate == pytest.approx(15 / 216, abs=1e-12)
        assert prof.adjusted_fe == pytest.approx(DICE_FE_TARGET, abs=1e-9)
        # Every run executes all four events; rejection fires at the last.
        assert prof.mean_events_per_run == pytest.approx(4.0, abs=1e-9)

    def test_posterior_guide_accepts_everything(self, dice_pe):
        prof = exact_guided_profile(dice_pe, DicePosteriorGuide())
        assert prof.acceptance_rate == pytest.approx(1.0, abs=1e-12)
        assert prof.adjusted_fe == pytest.approx(DICE_FE_TARGET, abs=1e-9)
        assert prof.mean_events_per_run == pytest.approx(4.0, abs=1e-9)

    def test_guide_mass_normalizes_over_paths(self, dice_pe):
        # G(x) summed over enumerated paths is a probability distribution.
        for guide in (PriorGuide(), DicePosteriorGuide()):
            total = math.fsum(math.exp(lg) for _, lg in guided_paths(dice_pe, guide))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_leak_below_a_rejected_prefix_is_counted(self):
        # a = 2 is rejected at its evidence (ln 100 > 1); the guide then
        # puts half its mass on b = 2, which the prior rules out.  The
        # sampler never gets past the rejection, so that leak costs the
        # two events up to it, and it makes the unrejected F(G) infinite.
        def model(ctx):
            if ctx.choose(uniform_range(1, 2), label="a") == 2:
                ctx.evidence(0.01)
                ctx.choose(point_mass(1), label="b")

        guide = FunctionGuide(lambda site: uniform_range(1, 2) if site.index == 1 else None, ceiling=1.0)
        prof = exact_guided_profile(enumerate_paths(model), guide)
        assert prof.free_energy == prof.kl == math.inf
        assert prof.mean_events_per_run == pytest.approx(1.5, abs=1e-12)
        assert prof.acceptance_rate == pytest.approx(0.5, abs=1e-12)
        assert prof.adjusted_fe == pytest.approx(math.log(2), abs=1e-12)
        stats = batch_stats(model, guide, derive_seeds(1, 4000))
        # Binomial events and acceptance: five standard errors of 0.5/sqrt(4000).
        assert stats.events.mean() == pytest.approx(1.5, abs=0.04)
        assert stats.accepted.mean() == pytest.approx(0.5, abs=0.04)

    def test_no_ceiling_profile_matches_plain_free_energy(self, dice_pe):
        guide = structured_dice_guide([0.3, 0.3, 0.2, 0.1, 0.1])
        prof = exact_guided_profile(dice_pe, guide)
        rep = exact_guided_profile(dice_pe, guide)
        assert prof.acceptance_rate == pytest.approx(1.0, abs=1e-12)
        assert prof.adjusted_fe == pytest.approx(rep.free_energy, abs=1e-9)


    def test_infinite_ceiling_is_no_ceiling(self, dice_pe):
        # Half the first die's guide mass leaks onto 7; a leaked run's fe
        # is +inf, which an infinite ceiling does not exceed, so it completes.
        def guide(ceiling):
            first = dist_from_weights([(7, 0.5), (1, 0.5)])
            return FunctionGuide(lambda site: first if site.index == 0 else None, ceiling=ceiling)

        prof = exact_guided_profile(dice_pe, guide(math.inf))
        assert prof == exact_guided_profile(dice_pe, guide(None))
        assert prof.acceptance_rate == 1.0
        for ceiling in (math.inf, None):
            assert batch_stats(three_dice, guide(ceiling), derive_seeds(1, 4000)).accepted.all()


class TestZeroMassValues:
    """A prior value of zero mass gets no tree node, as sampling never draws it."""

    @staticmethod
    def model(masses):
        def model(ctx):
            ctx.evidence(ctx.choose(Dist([1, 2, 3], masses), label="a") != 3)

        return model

    @pytest.mark.parametrize("masses, values", [([0.5, 0.0, 0.5], {1, 3}), ([0.0, 0.5, 0.5], {2, 3})])
    def test_prior_paths_and_evidence(self, masses, values):
        model = self.model(masses)
        pe = enumerate_paths(model)
        assert {e.choices for e in pe.entries} == {(v,) for v in values}
        assert exact_evidence(pe) == 0.5
        prof = exact_guided_profile(pe, PriorGuide())
        assert (prof.acceptance_rate, prof.mean_events_per_run) == (1.0, 2.0)
        seeds = derive_seeds(1, 4000)
        assert {run_trace(model, PriorGuide(), int(s)).choices[0].chosen for s in seeds[:200]} == values
        stats = batch_stats(model, PriorGuide(), seeds)
        assert stats.accepted.all() and (stats.events == 2).all()
        # Binomial weights: five standard errors of 0.5/sqrt(4000).
        assert stats.weight_evidence.mean() == pytest.approx(0.5, abs=0.04)

    def test_guide_mass_on_a_zero_mass_value_is_a_leak(self):
        # The guide puts half its mass on 1, which the prior gives zero.
        model = self.model([0.0, 0.5, 0.5])
        pe = enumerate_paths(model)
        guide = FunctionGuide(lambda site: uniform_range(1, 2))
        prof = exact_guided_profile(pe, guide)
        stats = batch_stats(model, guide, derive_seeds(1, 4000))
        assert prof.acceptance_rate == stats.accepted.mean() == 1.0
        assert prof.free_energy == prof.adjusted_fe == math.inf
        # Without a ceiling the run cost is a lower bound: the leaked runs' 1 + 1 events count 1.
        assert prof.mean_events_per_run == 1.5 and stats.events.mean() == 2.0
        guide.ceiling = 10.0  # rejects each leaked run at its choice
        prof = exact_guided_profile(pe, guide)
        stats = batch_stats(model, guide, derive_seeds(1, 4000))
        assert (prof.acceptance_rate, prof.mean_events_per_run) == (0.5, 1.5)
        assert prof.adjusted_fe == pytest.approx(math.log(2), abs=1e-12)
        assert stats.accepted.mean() == pytest.approx(0.5, abs=0.04)
        assert stats.events.mean() == pytest.approx(1.5, abs=0.04)

def test_sampling_floor_holds_for_random_full_tables(dice_pe):
    # Full-support tables reach evidence-violating paths: infinite free
    # energy, which still respects the floor.
    for seed in range(5):
        rep = exact_guided_profile(dice_pe, random_table_dice_guide(seed))
        assert rep.free_energy >= DICE_FE_TARGET - 1e-9
        assert rep.kl >= 0.0


class _CountingGuide(Guide):
    def __init__(self, inner):
        self.inner = inner
        self.ceiling = inner.ceiling
        self.begin_calls = 0
        self.propose_calls = 0

    def begin(self, ctx):
        self.begin_calls += 1
        self.inner.begin(ctx)

    def propose(self, site):
        self.propose_calls += 1
        return self.inner.propose(site)


def _reachable_internal_nodes(pe, guide):
    """Distinct proper prefixes of the paths a guide can sample."""
    return {e.choices[:k] for e, _ in guided_paths(pe, guide) for k in range(len(e.choices))}


@pytest.mark.parametrize("inner, nodes", [(PriorGuide(), 43), (DicePosteriorGuide(), 21)])
def test_one_propose_per_reachable_site(dice_pe, inner, nodes):
    assert len(_reachable_internal_nodes(dice_pe, inner)) == nodes
    guide = _CountingGuide(inner)
    exact_guided_profile(dice_pe, guide)
    assert guide.begin_calls == 1
    assert guide.propose_calls == nodes


# Recorded from the per-path replay implementation that the tree walk
# replaced: repr of (acceptance_rate, adjusted_fe, mean_events_per_run,
# free_energy, kl) of exact_guided_profile.  The last two values were
# recorded from the replay's separate free-energy function.
GOLDEN = {
    "dice_prior_500": ("0.06944444444444442", "2.6672282065819553", "4.0000000000000115", "inf", "inf"),
    "dice_posterior": ("0.9999999999999999", "2.6672282065819557", "3.9999999999999996", "2.6672282065819553", "0.0"),
    "dice_posterior_2": ("0.0", "inf", "3.0000000000000004", "2.6672282065819553", "0.0"),
    "dice_leaky": ("0.9999999999999978", "inf", "3.2215743440233147", "inf", "inf"),
    "dice_leaky_5": ("0.04373177842565596", "2.667228206581955", "3.2215743440233147", "inf", "inf"),
    "dice_table_0": ("1.0000000000000007", "inf", "4.000000000000003", "inf", "inf"),
    "dice_table_1": ("1.0", "inf", "4.0", "inf", "inf"),
    "dice_table_2": ("0.9999999999999999", "inf", "3.9999999999999996", "inf", "inf"),
    "dice_table_3": ("0.9999999999999996", "inf", "3.9999999999999982", "inf", "inf"),
    "dice_table_4": ("1.0000000000000009", "inf", "4.0000000000000036", "inf", "inf"),
    "dice_table_0_3": ("0.08456832539254644", "3.01848524282251", "4.000000000000003", "inf", "inf"),
    "expr2_prior": ("0.9999999999999944", "inf", "4.499999999999979", "inf", "inf"),
    "expr2_prior_10": ("0.05000000000000001", "2.995732273553991", "3.6065000000000076", "inf", "inf"),
    "expr2_tabular": ("0.05000000000000001", "2.995732273553991", "3.6065000000000076", "inf", "inf"),
    "hashed3_prior": ("1.0", "0.35907272697615633", "5.5423557083347745", "0.35907272697615633", "0.11585347244200986"),
    "hashed3_prior_1": ("0.9131998053821326", "0.2946482847644372", "5.391203603535465", "0.35907272697615633", "0.11585347244200986"),
    "hashed3_random_1": ("1.0000000000000002", "1.609252532358809", "5.514259111023763", "1.6092525323588096", "1.366033277824663"),
    "hashed3_random_1_05": ("0.26401128680631397", "0.6044699357126163", "2.6456774805550056", "1.6092525323588096", "1.366033277824663"),
}


def _leaky_guide(ceiling=None):
    return FunctionGuide(lambda site: uniform_range(1, 7), ceiling=ceiling)


def _posterior_guide(ceiling):
    guide = DicePosteriorGuide()
    guide.ceiling = ceiling  # rejects at die3, a choice
    return guide


GOLDEN_CASES = {
    "dice_prior_500": ("dice", lambda: PriorGuide(ceiling=500.0)),
    "dice_posterior": ("dice", DicePosteriorGuide),
    "dice_posterior_2": ("dice", lambda: _posterior_guide(2.0)),
    "dice_leaky": ("dice", _leaky_guide),
    "dice_leaky_5": ("dice", lambda: _leaky_guide(5.0)),
    **{f"dice_table_{s}": ("dice", lambda s=s: random_table_dice_guide(s)) for s in range(5)},
    "dice_table_0_3": ("dice", lambda: random_table_dice_guide(0, ceiling=3.0)),
    "expr2_prior": ("expr2", PriorGuide),
    "expr2_prior_10": ("expr2", lambda: PriorGuide(ceiling=10.0)),
    "expr2_tabular": ("expr2", lambda: expr_tabular_family().bind({})),
    "hashed3_prior": ("hashed3", PriorGuide),
    "hashed3_prior_1": ("hashed3", lambda: PriorGuide(ceiling=1.0)),
    "hashed3_random_1": ("hashed3", lambda: random_full_support_guide(1)),
    "hashed3_random_1_05": ("hashed3", lambda: random_full_support_guide(1, ceiling=0.5)),
}


@pytest.fixture(scope="module")
def hashed3_pe():
    return enumerate_paths(make_hashed_model(3))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_values_are_bit_identical(name, request):
    model, make_guide = GOLDEN_CASES[name]
    pe = request.getfixturevalue(f"{model}_pe")
    prof = exact_guided_profile(pe, make_guide())
    got = (prof.acceptance_rate, prof.adjusted_fe, prof.mean_events_per_run, prof.free_energy, prof.kl)
    assert tuple(map(repr, got)) == GOLDEN[name]
    rep = exact_guided_profile(pe, make_guide())
    assert (repr(rep.free_energy), repr(rep.kl)) == GOLDEN[name][3:]


# SHA-256 of the reprs of `entries` then `crashes`, in order, one per line,
# recorded from the enumeration that kept a `PathEntry` or `CrashEntry`
# object per path.
ENTRY_DIGESTS = {
    "dice": "5a813e9bfa9c87831b903e18c618774ae66eed6b14c15ac56a30b6d60269a6e2",
    "expr2": "18e0ed80f2757a22cc42a10f84074b2040b1b774f919e37b306f404e50d6c178",
    "monkey8": "bdb1d524f8e75485381d567b001b001470aa7c3658d65f1d22ffd5cf1bd1c93c",
    "hashed0_crash": "adf257848d5e8ae10ec10f734a93fc00b3de6523d79b653d653e85c9a92105d7",
    "hashed1_crash": "1778e8e6722dd144aae7ec9549cfc974bdee8c61137422cc6be0a782710befd9",
    "hashed2_crash": "bffbac9980d1cfaefa6e6f9fc7b4bb6d46845e4afa7780a2e6315564246adae9",
    "hashed3_crash": "59fe5702967c0622ce3fd5cba1e09df58cf5efac1ee7a451744b2372ea15afd4",
    "hashed4_crash": "5233c2a6c436ac15a847db49e6d2141d31b1585f01ab43ca72ed564dde6bd02f",
}


@pytest.mark.parametrize("name", sorted(ENTRY_DIGESTS))
def test_entries_and_crashes_are_bit_identical(name, request):
    if name.startswith("hashed"):
        pe = enumerate_paths(make_hashed_model(int(name[6]), crash=True))
    elif name == "monkey8":
        pe = enumerate_paths(make_monkey_model(2, 8, "aba"))
    else:
        pe = request.getfixturevalue(f"{name}_pe")
    digest = hashlib.sha256()
    for leaf in (*pe.entries, *pe.crashes):
        digest.update(f"{leaf!r}\n".encode())
    assert digest.hexdigest() == ENTRY_DIGESTS[name]


@settings(max_examples=30, deadline=None)
@given(structure_seed=st.integers(0, 10_000), guide_seed=st.integers(0, 10_000))
def test_walk_identities_on_hashed_models(structure_seed, guide_seed):
    # Evidence values interleave with the choices and may exceed 1.
    pe = enumerate_paths(make_hashed_model(structure_seed))
    p_x = [math.exp(e.log_prior) for e in pe.entries]
    prof = exact_guided_profile(pe, PriorGuide())
    want_fe = -math.fsum(p * e.log_evidence for p, e in zip(p_x, pe.entries))
    assert prof.free_energy == pytest.approx(want_fe, rel=1e-12, abs=1e-12)
    want_events = math.fsum(p * e.n_events for p, e in zip(p_x, pe.entries))
    assert prof.mean_events_per_run == pytest.approx(want_events, rel=1e-12)
    assert prof.acceptance_rate == pytest.approx(1.0, abs=1e-12)
    paths = list(guided_paths(pe, random_full_support_guide(guide_seed)))
    assert len(paths) == len(pe.entries)
    assert math.fsum(math.exp(lg) for _, lg in paths) == pytest.approx(1.0, abs=1e-12)


class _RecordingGuide(Guide):
    """The prior guide, keeping every site it is shown."""

    def __init__(self):
        self.sites = []

    def propose(self, site):
        self.sites.append(site)
        return None


@settings(max_examples=15, deadline=None)
@given(structure_seed=st.integers(0, 10_000), crash=st.booleans())
def test_walk_shows_the_sites_that_sampling_shows(structure_seed, crash):
    model = make_hashed_model(structure_seed, crash=crash)
    walked = _RecordingGuide()
    exact_guided_profile(enumerate_paths(model), walked)
    sampled = _RecordingGuide()
    for seed in range(200):
        run_trace(model, sampled, seed)
    walk_sites = set(walked.sites)
    assert len(walk_sites) == len(walked.sites)  # one visit per node
    assert all(site in walk_sites for site in sampled.sites)
    assert all(site.index == len(site.history) and site.extras == () for site in walked.sites)


def test_retained_memory_per_path():
    # Monkey length 12 has 4,096 paths and 4,095 internal nodes.  A
    # `PathEntry`, its choices tuple and a leaf object per path kept about
    # 570 bytes per path; per-path columns keep about 290.
    model = make_monkey_model(2, 12, "aba")
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        pe = enumerate_paths(model)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(pe.entries) == 4_096
    assert retained / 4_096 < 400


class TestLongPaths:
    def test_default_event_cap_is_the_runtime_one(self):
        def model(ctx):
            for _ in range(12_000):
                ctx.choose(point_mass(0))
            ctx.evidence(0.5)

        (entry,) = enumerate_paths(model).entries
        t = run_trace(model, PriorGuide(), 0)
        assert (t.status, t.n_events, t.log_evidence) == (RunStatus.COMPLETED, entry.n_events, entry.log_evidence)
        assert entry.n_events == 12_001

    def test_tree_memory_is_linear_in_path_length(self):
        # A single path of 4,000 choices: one history tuple per node would
        # take about 64 MB.
        tracemalloc.start()
        try:
            pe = enumerate_paths(make_monkey_model(1, 4_000, "a"))
            prof = exact_guided_profile(pe, PriorGuide())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prof.acceptance_rate == 1.0 and len(pe.entries) == 1
        assert peak < 16 * 2**20

    def test_walk_extends_one_list_along_a_chain(self):
        # A guide that keeps every site of a 4,000-choice chain: a copy of
        # the prefix per site would keep about 64 MB alive.
        pe = enumerate_paths(make_monkey_model(1, 4_000, "a"))
        kept = []
        guide = FunctionGuide(lambda site: kept.append(site))
        tracemalloc.start()
        try:
            exact_guided_profile(pe, guide)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        (path,) = (e.choices for e in pe.entries)
        assert [site.index for site in kept] == list(range(4_000))
        assert all(site.history == path[:site.index] for site in kept)
