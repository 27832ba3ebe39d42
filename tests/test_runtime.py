import functools
import gc
import hashlib
import math
import operator
import re
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guidedppl import (
    ChoiceRecord,
    Dist,
    ExtraChoiceRecord,
    FunctionGuide,
    Guide,
    PriorGuide,
    RunStatus,
    Trace,
    batch_stats,
    derive_seeds,
    dist_from_weights,
    point_mass,
    run_trace,
    run_traces,
    uniform_range,
)
from guidedppl import runtime
from guidedppl.enumeration import enumerate_paths, exact_guided_profile
from guidedppl.estimators import WeightError, stats_from_summaries
from guidedppl.models import MODELS, DicePosteriorGuide, dice_point_family, dice_tabular_family, three_dice

from helpers import (
    ReferenceStream,
    crash_on_three_model,
    forcing_guide_for,
    make_hashed_model,
    reference_uniform,
    single_choice_model,
    summarize_trace,
)

LN6 = math.log(6)


class TestGuidedDice:
    def test_posterior_guide_always_completes_with_sum_seven(self):
        guide = DicePosteriorGuide()
        for seed in range(50):
            t = run_trace(three_dice, guide, seed)
            assert t.status is RunStatus.COMPLETED
            dice = [c.chosen for c in t.choices]
            assert len(dice) == 3
            assert sum(dice) == 7
            assert t.log_evidence == 0.0

    def test_forced_die3_contributes_log_six(self):
        t = run_trace(three_dice, DicePosteriorGuide(), 11)
        assert t.per_event_fe[2].kind == "choose"
        assert t.per_event_fe[2].fe == pytest.approx(LN6, abs=1e-12)

    def test_labels_recorded(self):
        t = run_trace(three_dice, PriorGuide(), 0)
        assert [c.label for c in t.choices] == ["die1", "die2", "die3"]


class TestPriorEcho:
    def test_boolean_evidence_splits_on_sum(self):
        hits = misses = 0
        for seed in range(200):
            t = run_trace(three_dice, PriorGuide(), seed)
            assert t.status is RunStatus.COMPLETED
            if sum(c.chosen for c in t.choices) == 7:
                assert t.log_evidence == 0.0
                hits += 1
            else:
                assert t.log_evidence == -math.inf
                assert t.fe_total == math.inf
                misses += 1
        assert hits and misses

    def test_ceiling_rejects_failed_evidence(self):
        guide = PriorGuide(ceiling=1000.0)
        statuses = set()
        for seed in range(100):
            t = run_trace(three_dice, guide, seed)
            if sum(c.chosen for c in t.choices) == 7:
                assert t.status is RunStatus.COMPLETED
            else:
                assert t.status is RunStatus.REJECTED_THRESHOLD
                assert t.log_evidence == -math.inf  # recorded before the abort
            statuses.add(t.status)
        assert len(statuses) == 2

    def test_null_guide_matches_prior_exactly(self):
        for seed in range(30):
            t = run_trace(three_dice, PriorGuide(), seed)
            for c in t.choices:
                assert c.log_guide == c.log_prior
            assert t.log_guide_total == t.log_prior_total
            assert all(e.fe == 0.0 for e in t.per_event_fe if e.kind == "choose")


class TestFreeEnergyBookkeeping:
    def test_guide_equals_prior_contribution_zero(self):
        t = run_trace(single_choice_model, PriorGuide(), 4)
        assert t.fe_total == 0.0

    def test_evidence_quarter_adds_log_four(self):
        def model(ctx):
            ctx.choose(uniform_range(1, 2))
            ctx.evidence(0.25)

        t = run_trace(model, PriorGuide(), 0)
        assert t.fe_total == pytest.approx(math.log(4), abs=1e-12)
        assert t.per_event_fe[-1].fe == pytest.approx(1.386294, abs=1e-6)

    def test_prior_impossible_proposal_gives_infinite_fe(self):
        guide = FunctionGuide(lambda site: point_mass(5))
        t = run_trace(single_choice_model, guide, 0)
        assert t.status is RunStatus.COMPLETED
        assert t.choices[0].log_prior == -math.inf
        assert t.fe_total == math.inf

    def test_per_event_sum_is_exact(self):
        for seed in range(20):
            t = run_trace(three_dice, DicePosteriorGuide(), seed)
            assert t.fe_total == sum(e.fe for e in t.per_event_fe)


class TestHypothesis:
    def test_die1_equals_five_indicator(self):
        for seed in range(100):
            t = run_trace(three_dice, PriorGuide(), seed)
            assert t.hypothesis == float(t.choices[0].chosen == 5)

    def test_default_is_one(self):
        t = run_trace(single_choice_model, PriorGuide(), 0)
        assert t.hypothesis == 1.0

    def test_zero_and_last_write_wins(self):
        def model(ctx):
            ctx.choose(uniform_range(1, 2))
            ctx.set_hypothesis(0.7)
            ctx.set_hypothesis(0.0)

        t = run_trace(model, PriorGuide(), 0)
        assert t.hypothesis == 0.0


class TestRejections:
    def test_crash_on_division_by_zero(self):
        crashed = False
        for seed in range(30):
            t = run_trace(crash_on_three_model, PriorGuide(), seed)
            if t.status is RunStatus.REJECTED_CRASH:
                crashed = True
                assert "ZeroDivisionError" in t.crash_reason
        assert crashed

    def test_negative_evidence_is_a_crash(self):
        def model(ctx):
            ctx.choose(uniform_range(1, 2))
            ctx.evidence(-0.5)

        t = run_trace(model, PriorGuide(), 0)
        assert t.status is RunStatus.REJECTED_CRASH

    def test_nan_hypothesis_is_a_crash(self):
        def model(ctx):
            ctx.set_hypothesis(float("nan"))

        assert run_trace(model, PriorGuide(), 0).status is RunStatus.REJECTED_CRASH

    def test_guide_raising_is_a_crash(self):
        def bad(site):
            raise RuntimeError("boom")

        t = run_trace(single_choice_model, FunctionGuide(bad), 0)
        assert t.status is RunStatus.REJECTED_CRASH
        assert "boom" in t.crash_reason

    def test_guide_returning_garbage_is_a_crash(self):
        t = run_trace(single_choice_model, FunctionGuide(lambda site: 42), 0)
        assert t.status is RunStatus.REJECTED_CRASH

    def test_event_cap_is_a_crash(self):
        def loop(ctx):
            while True:
                ctx.choose(uniform_range(1, 2))

        t = run_trace(loop, PriorGuide(), 0, max_events=50)
        assert t.status is RunStatus.REJECTED_CRASH
        assert "event cap" in t.crash_reason

    def test_event_cap_counts_extra_choices(self):
        """The cap counts choose, evidence and extra-choice calls, which
        stops a guide that keeps inserting choices; `n_events` counts only
        choose and evidence calls.  This run makes 20 chooses, one
        evidence call and one extra choice."""
        entry = MODELS["monkey"]
        model = entry.build(length=20)
        guide = entry.guides["pattern_insert"](length=20)
        capped = run_trace(model, guide, 3, max_events=21)
        assert (capped.status, capped.crash_reason) == (RunStatus.REJECTED_CRASH, "event cap 21 exceeded")
        t = run_trace(model, guide, 3, max_events=22)
        assert (t.status, t.n_events, len(t.extras)) == (RunStatus.COMPLETED, 21, 1)

    def test_guide_that_keeps_inserting_extra_choices_is_stopped(self):
        class Inserting(Guide):
            def begin(self, ctx):
                while True:
                    ctx.extra_choice(uniform_range(1, 2), lambda t: uniform_range(1, 2))

        t = run_trace(single_choice_model, Inserting(), 0, max_events=30)
        assert (t.status, t.crash_reason, t.n_events) == (RunStatus.REJECTED_CRASH, "event cap 30 exceeded", 0)
        stats = batch_stats(single_choice_model, Inserting(), derive_seeds(0, 5), max_events=30)
        assert not stats.accepted.any()

    def test_extra_choice_needs_a_dist(self):
        class Listing(Guide):
            def begin(self, ctx):
                ctx.extra_choice([1, 2], lambda t: uniform_range(1, 2))

        t = run_trace(single_choice_model, Listing(), 0)
        assert (t.status, t.crash_reason) == (RunStatus.REJECTED_CRASH, "extra_choice() needs a Dist, got list")

    def test_conditional_that_returns_no_dist_is_a_crash(self):
        class Inserting(Guide):
            def begin(self, ctx):
                ctx.extra_choice(uniform_range(1, 2), lambda t: 0.5)

        t = run_trace(single_choice_model, Inserting(), 0)
        assert (t.status, t.crash_reason) == (
            RunStatus.REJECTED_CRASH, "extra-choice conditional returned float, not a Dist")
        assert t.n_events == 1  # the model ran to completion first


class TestGuideIsolation:
    def test_identical_choices_identical_model_side(self):
        values = (2, 1, 4)
        a = run_trace(three_dice, forcing_guide_for(values), 0)

        skewed = {v: dist_from_weights([(v, 0.9), (v % 6 + 1, 0.1)]) for v in range(1, 7)}
        # Different guide distributions that still sample the same values
        # for these seeds (the forced value carries 90% of the mass).
        b = None
        for seed in range(200):
            cand = run_trace(three_dice, FunctionGuide(lambda s: skewed[values[s.index]]), seed)
            if tuple(c.chosen for c in cand.choices) == values:
                b = cand
                break
        assert b is not None
        for ca, cb in zip(a.choices, b.choices):
            assert ca.prior == cb.prior
            assert ca.label == cb.label
            assert ca.chosen == cb.chosen
            assert ca.log_prior == cb.log_prior
        assert a.log_evidence == b.log_evidence
        assert a.hypothesis == b.hypothesis


class TestExtraChoices:
    def test_matched_conditional_has_unit_weight_factor(self):
        d = uniform_range(0, 3)

        class G(Guide):
            def begin(self, ctx):
                ctx.extra_choice(d, lambda trace: d)

        t = run_trace(single_choice_model, G(), 5)
        assert t.status is RunStatus.COMPLETED
        (x,) = t.extras
        assert x.log_model_conditional == x.log_guide

    def test_conditional_sees_completed_trace(self):
        seen = {}

        class G(Guide):
            def begin(self, ctx):
                def conditional(trace):
                    seen["n_choices"] = len(trace.choices)
                    return point_mass(0)

                ctx.extra_choice(point_mass(0), conditional)

        t = run_trace(three_dice, G(), 1)
        assert t.status is RunStatus.COMPLETED
        assert seen["n_choices"] == 3
        assert t.extras[0].log_model_conditional == 0.0

    def test_crashing_conditional_rejects_the_run(self):
        class G(Guide):
            def begin(self, ctx):
                ctx.extra_choice(point_mass(0), lambda trace: 1 / 0)

        assert run_trace(three_dice, G(), 1).status is RunStatus.REJECTED_CRASH

    def test_extras_not_finalized_on_rejected_runs(self):
        class G(Guide):
            ceiling = 0.5

            def begin(self, ctx):
                ctx.extra_choice(point_mass(0), lambda trace: point_mass(0))

            def propose(self, site):
                return point_mass(site.prior.values[0])

        def model(ctx):
            ctx.choose(uniform_range(1, 6))
            ctx.evidence(False)

        t = run_trace(model, G(), 3)
        assert t.status is RunStatus.REJECTED_THRESHOLD
        assert t.extras[0].log_model_conditional is None


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_replay_determinism_and_bookkeeping(structure_seed, trace_seed):
    model = make_hashed_model(structure_seed)
    guide = PriorGuide()
    a = run_trace(model, guide, trace_seed)
    b = run_trace(model, guide, trace_seed)
    assert a == b
    if a.status is RunStatus.COMPLETED:
        assert a.fe_total == sum(e.fe for e in a.per_event_fe)
        recomputed = (a.log_guide_total - a.log_prior_total) - a.log_evidence
        assert a.fe_total == pytest.approx(recomputed, abs=1e-9)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_null_guide_identity_on_random_models(structure_seed):
    t = run_trace(make_hashed_model(structure_seed), PriorGuide(), 17)
    assert t.log_guide_total == t.log_prior_total


def _canon(x):
    """A structure whose repr is exact for every trace field: floats by
    repr, `Dist` by its support and masses (its own repr rounds), and an
    extra choice's deferred conditional left out (a function object)."""
    if isinstance(x, Dist):
        return ("Dist", x.values, x.masses)
    if isinstance(x, ExtraChoiceRecord):
        return tuple(_canon(getattr(x, f)) for f in x.__slots__ if f != "conditional")
    if isinstance(x, ChoiceRecord):
        return tuple(_canon(getattr(x, f)) for f in x._fields)
    if isinstance(x, Trace):
        return tuple(_canon(getattr(x, f)) for f in _TRACE_FIELDS)
    if isinstance(x, tuple):
        return tuple(_canon(v) for v in x)
    return x


def _trace_digest(traces) -> str:
    h = hashlib.sha256()
    for t in traces:
        h.update(repr(_canon(t)).encode())
        h.update(b"\n")
    return h.hexdigest()


_DICE_TABLE = {
    "die1": [0.5, -0.25, 1.0, -2.0, 0.0, 0.75],
    "die2|2": [-1.0, 2.0, 0.0, 0.5, -0.5, 1.5],
}
_EXPR_TABLE = {
    "prod@e": [1.0, -0.5, 0.25, -1.0],
    "const@el": [0.0, 1.5, -1.0, 0.5, -0.25, 2.0, -2.0, 0.75, 1.0, -0.5],
}


def _golden_trace_configs():
    configs = {}
    for name, entry in MODELS.items():
        for guide_name, factory in entry.guides.items():
            configs[f"{name}/{guide_name}"] = (entry.build(), lambda f=factory: f())
    for name, table in (("three_dice", _DICE_TABLE), ("expr", _EXPR_TABLE)):
        entry = MODELS[name]
        configs[f"{name}/tabular_empty"] = (entry.build(), lambda e=entry: e.family().bind({}))
        configs[f"{name}/tabular_table"] = (entry.build(), lambda e=entry, t=table: e.family().bind(t))
    configs["three_dice/point_empty"] = (three_dice, lambda: dice_point_family().bind({}))
    configs["three_dice/point_table"] = (three_dice, lambda: dice_point_family().bind({"0|": 2, "1|2": 4}))
    return configs


GOLDEN_TRACE_SEEDS = range(40)

# SHA-256 of the repr-exact fields of the traces for seeds 0..39, one
# bound guide reused across the seeds, on random-stream version 2.
GOLDEN_TRACE_DIGESTS = {
    "expr/prior": "66688fd80bc7dd09cd5ec0f2cd6d69a89152b2433321c99ccd90e2a96b47a457",
    "expr/tabular_empty": "6d507015198159b3c05b00b2e2ac214c9679a68ce36b92cf63c0cc56e786dccc",
    "expr/tabular_table": "954302b00220f1704047ac3bdb48b04e771e777331b34536a43c188b4b7e0ef9",
    "monkey/pattern_insert": "d317c14d7f2fa5fadcb92ec3eefc5a2506a78ac02722bf755af307b8d16eadff",
    "monkey/prior": "920d7047c6adeaa48d7d08bb2d685b3f11151056e0adaf3ebca55a4564356e17",
    "three_dice/die1_is_5": "c9cc7302e282c2f721bb9a33dba0967f172db444c911f1f75c5479c0e011fbaf",
    "three_dice/point_empty": "f561c94da94b61f6a965f46c86dcadbdf9607d745244fb7ba932b51f804a46c4",
    "three_dice/point_table": "ce5350f023420603667bffc0ee3306e4d2965a087a95d6343e76f69c10928072",
    "three_dice/posterior": "cacb016db6edc88529317660a7b7d67675e7f1e23a4a0b83dc26141baffc3c85",
    "three_dice/prior": "413cddd053d78191ad9a54b694e470d440a44a76a8f8afa7cdf41573157639dd",
    "three_dice/prior_reject": "f2a157466d9c43fdaa9e944a0ed9f6b255dfdd79ad271409d0e7e574a8ed1aa3",
    "three_dice/tabular_empty": "722ac6e82ac5d6b12ebf3c02ca2dabd49836ffba5a203f181d224c3d935b1652",
    "three_dice/tabular_table": "fc583664d600aa232497ed1e74027908b9e4be4e84213485cd986400587a3095",
}


@pytest.mark.parametrize("name", sorted(_golden_trace_configs()))
def test_golden_traces(name):
    model, make_guide = _golden_trace_configs()[name]
    guide = make_guide()
    traces = (run_trace(model, guide, s) for s in GOLDEN_TRACE_SEEDS)
    assert _trace_digest(traces) == GOLDEN_TRACE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(_golden_trace_configs()))
def test_golden_traces_in_one_batch(name):
    model, make_guide = _golden_trace_configs()[name]
    assert _trace_digest(run_traces(model, make_guide(), GOLDEN_TRACE_SEEDS)) == GOLDEN_TRACE_DIGESTS[name]


# The same digest for monkey/pattern_insert at length 4,000, seeds 0..4,
# on random-stream version 2: a fault in how a guide sees a long history
# shows only at length.
GOLDEN_LONG_TRACE_DIGEST = "1c9e48a6580e6e7e97effc95a4f02ca4bccff266fb0f53612ecf006350d07d96"


def test_golden_long_traces():
    entry = MODELS["monkey"]
    model = entry.build(length=4000)
    traces = [run_trace(model, entry.guides["pattern_insert"](length=4000), s) for s in range(5)]
    assert _trace_digest(traces) == GOLDEN_LONG_TRACE_DIGEST
    assert _trace_digest(run_traces(model, entry.guides["pattern_insert"](length=4000), range(5))) == (
        GOLDEN_LONG_TRACE_DIGEST)


_RECORD_FIELDS = ("index", "label", "prior", "guide", "chosen", "log_prior", "log_guide")

# SHA-256 of the reprs of every `ChoiceRecord` of these golden traces,
# seeds 0..39, one per line, on random-stream version 2: the repr of the
# frozen dataclass that the record type once was.
GOLDEN_RECORD_REPR_DIGESTS = {
    "expr/tabular_table": "acc63b43998f7a8553adad49d964cfac66931d93c4a39ac0ec183f5273804057",
    "monkey/pattern_insert": "eeafb916f5e5d8bc9d183a3c93f9a0ed37ae66f322a0f217a6928711349f04fa",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RECORD_REPR_DIGESTS))
def test_choice_records_keep_their_interface(name):
    model, make_guide = _golden_trace_configs()[name]
    traces = list(run_traces(model, make_guide(), GOLDEN_TRACE_SEEDS))
    again = [run_trace(model, make_guide(), s) for s in GOLDEN_TRACE_SEEDS]
    assert ChoiceRecord.__match_args__ == _RECORD_FIELDS
    h = hashlib.sha256()
    for t, u in zip(traces, again):
        for i, rec in enumerate(t.choices):
            assert rec.index == i
            assert isinstance(rec.prior, Dist) and isinstance(rec.guide, Dist)
            assert rec.log_prior == rec.prior.log_prob(rec.chosen)
            assert rec.log_guide == rec.guide.log_prob(rec.chosen)
            assert rec.label is None or isinstance(rec.label, str)
            twin = u.choices[i]
            assert twin is not rec and twin == rec and hash(twin) == hash(rec)
            assert [getattr(twin, f) for f in _RECORD_FIELDS] == [getattr(rec, f) for f in _RECORD_FIELDS]
            for f in _RECORD_FIELDS:
                with pytest.raises(AttributeError):
                    setattr(rec, f, 0)
            h.update(repr(rec).encode())
            h.update(b"\n")
    assert h.hexdigest() == GOLDEN_RECORD_REPR_DIGESTS[name]


_TRACE_FIELDS = ("seed", "status", "choices", "extras", "log_evidence", "hypothesis", "per_event_fe",
                 "log_prior_total", "log_guide_total", "fe_total", "crash_reason")

# SHA-256 of repr(t.choices) and repr(t.per_event_fe) of these golden
# traces, seeds 0..39, one per line, on random-stream version 2.
GOLDEN_TRACE_RECORDS_DIGESTS = {
    "expr/tabular_table": "46403ff4fd14d4590bba3d9255590feebbc0a8588b8a63f5345b4c4581db5704",
    "monkey/pattern_insert": "4c24d5f4917688d1121c76880a8e90a2ac4ca0e049f2a8bc0d9ae13e8b613bdc",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_RECORDS_DIGESTS))
def test_traces_keep_their_interface(name):
    """A `Trace`'s fields, in order; equality over all of them; its
    counts and chosen values; and its records, read twice as the same
    tuples."""
    model, make_guide = _golden_trace_configs()[name]
    traces = list(run_traces(model, make_guide(), GOLDEN_TRACE_SEEDS))
    again = [run_trace(model, make_guide(), s) for s in GOLDEN_TRACE_SEEDS]
    assert Trace.__match_args__ == _TRACE_FIELDS
    h = hashlib.sha256()
    for i, (t, u) in enumerate(zip(traces, again)):
        assert t is not u and t == u and not t != u
        other = again[i - 1]  # another seed's trace
        assert t != other and not t == other and t != (t.seed,)
        with pytest.raises(TypeError):
            hash(t)
        assert [getattr(t, f) for f in _TRACE_FIELDS] == [getattr(u, f) for f in _TRACE_FIELDS]
        assert t.choices is t.choices and t.per_event_fe is t.per_event_fe
        assert type(t.values) is tuple and t.values == tuple(c.chosen for c in t.choices)
        n_evidence = sum(e.kind == "evidence" for e in t.per_event_fe)
        assert t.n_events == len(t.per_event_fe) == len(t.choices) + n_evidence
        assert t.completed is (t.status is RunStatus.COMPLETED)
        if not t.extras:  # an extra choice's repr shows its conditional's address
            assert repr(t) == f"Trace({', '.join(f'{f}={getattr(t, f)!r}' for f in _TRACE_FIELDS)})"
        for part in (t.choices, t.per_event_fe):
            h.update(repr(part).encode())
            h.update(b"\n")
    assert h.hexdigest() == GOLDEN_TRACE_RECORDS_DIGESTS[name]


_SEED_RANGE_EXAMPLES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def _with_seed_range_examples(test):
    for seed in _SEED_RANGE_EXAMPLES:
        test = example(seed)(test)
    return settings(max_examples=300, deadline=None)(given(st.integers(min_value=0, max_value=2**64 - 1))(test))


class TestStream:
    @_with_seed_range_examples
    def test_blocks_match_the_reference(self, seed):
        """Every block of a seed's stream, wherever it starts, holds the
        reference formula's uniforms bit for bit."""
        seeds = np.array([seed], dtype=np.uint64)
        for start, k in ((0, runtime._FIRST_BLOCK), (runtime._FIRST_BLOCK, 7), (2**40, 3)):
            assert runtime._uniforms(seeds, start, k)[0].tolist() == [
                reference_uniform(seed, j) for j in range(start, start + k)]

    @_with_seed_range_examples
    def test_a_batch_run_past_its_first_block_matches_the_reference(self, seed):
        length = runtime._FIRST_BLOCK + 20
        [trace] = run_traces(lambda ctx: _choose_chain(ctx, length), _ExtraFirstGuide(), [seed])
        assert trace.seed == seed and _values(trace) == _reference_values(seed, length)

    def test_runs_within_their_first_block_compute_no_other_block(self, monkeypatch):
        """Dice and expr cap 3 runs read only their first block, computed
        for the whole batch; a run that reads one uniform past it computes
        one more block, of its own seed."""
        calls = []
        uniforms = runtime._uniforms
        monkeypatch.setattr(runtime, "_uniforms",
                            lambda seeds, start, k: calls.append((len(seeds), start)) or uniforms(seeds, start, k))
        seeds = derive_seeds(25, 3000)
        for model, guide in ((three_dice, MODELS["three_dice"].guides["prior_reject"]()),
                             (MODELS["expr"].build(depth_cap=3), PriorGuide())):
            calls.clear()
            assert len(batch_stats(model, guide, seeds).accepted) == 3000
            assert all(start == 0 for _, start in calls) and sum(n for n, _ in calls) == 3000
        calls.clear()
        chain = list(run_traces(lambda ctx: _choose_chain(ctx, runtime._FIRST_BLOCK), _ExtraFirstGuide(), seeds[:5]))
        assert all(len(t.choices) == runtime._FIRST_BLOCK for t in chain)
        assert calls == [(5, 0)] + [(1, runtime._FIRST_BLOCK)] * 5

    def test_an_array_of_seeds_gives_each_seed_its_own_row(self):
        seeds = derive_seeds(3, 300)
        rows = runtime._uniforms(seeds, 0, runtime._FIRST_BLOCK)
        assert rows.tobytes() == np.concatenate(
            [runtime._uniforms(seeds[i:i + 1], 0, runtime._FIRST_BLOCK) for i in range(len(seeds))]).tobytes()


class TestSeedDomain:
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 1.0, True, "1", None])
    def test_a_seed_outside_the_domain_raises_the_same_error_everywhere(self, seed):
        message = re.escape(f"a seed must be an int in [0, 2**64), got {seed!r}")
        with pytest.raises(ValueError, match=message):
            run_trace(three_dice, PriorGuide(), seed)
        with pytest.raises(ValueError, match=message):
            list(run_traces(three_dice, PriorGuide(), [0, seed]))
        with pytest.raises(ValueError, match=message):
            batch_stats(three_dice, PriorGuide(), [0, seed])

    def test_a_negative_seed_in_an_int_array_raises(self):
        with pytest.raises(ValueError, match=re.escape("got -2")):
            list(run_traces(three_dice, PriorGuide(), np.array([3, -2])))

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)])
    def test_seeds_at_the_ends_of_the_domain(self, seed):
        t = run_trace(three_dice, PriorGuide(), seed)
        assert type(t.seed) is int and t.seed == int(seed)
        assert next(run_traces(three_dice, PriorGuide(), np.array([seed], dtype=np.uint64))) == t


def _batch_configs():
    configs = {
        name: (MODELS[model].build(), MODELS[model].guides[guide]())
        for name in ("three_dice/prior_reject", "expr/prior", "monkey/pattern_insert")
        for model, guide in [name.split("/")]
    }
    configs["hashed/crash"] = (make_hashed_model(5, crash=True), PriorGuide())
    return configs


# Seed blocks of this size let the batch tests cross block boundaries
# with a few hundred runs.
SMALL_SEED_BLOCK = 256

# 600 seeds cross two boundaries of 256-seed blocks.
BATCH_SEEDS = derive_seeds(21, 600)


@pytest.fixture
def small_seed_blocks(monkeypatch):
    monkeypatch.setattr(runtime, "_SEED_BLOCK", SMALL_SEED_BLOCK)


@pytest.mark.parametrize("name", sorted(_batch_configs()))
def test_run_traces_equals_run_trace(name, small_seed_blocks):
    model, guide = _batch_configs()[name]
    assert runtime._SEED_BLOCK * 2 < len(BATCH_SEEDS)
    single = [run_trace(model, guide, int(s)) for s in BATCH_SEEDS]
    batch = list(run_traces(model, guide, BATCH_SEEDS))
    assert [repr(_canon(t)) for t in batch] == [repr(_canon(t)) for t in single]
    want = stats_from_summaries(BATCH_SEEDS, map(summarize_trace, single))
    got = batch_stats(model, guide, BATCH_SEEDS)
    for field in want.__slots__:
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)
    assert _BATCH_CASE_SHOWN[name](single)


# What each configuration must exercise among its 600 runs.
_BATCH_CASE_SHOWN = {
    "three_dice/prior_reject": lambda ts: any(t.status is RunStatus.REJECTED_THRESHOLD for t in ts),
    "expr/prior": lambda ts: any(t.log_evidence == 0.0 for t in ts) and any(t.log_evidence < 0.0 for t in ts),
    "monkey/pattern_insert": lambda ts: any(t.extras and t.extras[0].log_model_conditional is not None for t in ts),
    "hashed/crash": lambda ts: len({t.crash_reason for t in ts} - {None}) >= 3,
}


# ---------------------------------------------------------------------------
# Batch rows read from a run's columns equal the summaries of its `Trace`

_D6, _D7 = uniform_range(1, 6), uniform_range(1, 7)


def _die_hypothesis_model(ctx):
    ctx.set_hypothesis(ctx.choose(_D6, label="die"))
    ctx.evidence(0.5)


def _overflowing_evidence_model(ctx):
    """P(e|x) = 1e400 when the die shows 6: finite factors, a product past
    the float range.  With h = 0, h(x) P(e|x) is NaN, so only the check
    on P(e|x) itself reports the overflow as inf."""
    big = ctx.choose(_D6, label="die") == 6
    ctx.set_hypothesis(0)
    ctx.evidence(1e200 if big else 0.5)
    ctx.evidence(1e200 if big else 0.5)


def _overflowing_hypothesis_weight_model(ctx):
    """h(x) P(e|x) = 1e310 when the die shows 6, with P(e|x) itself finite."""
    big = ctx.choose(_D6, label="die") == 6
    ctx.set_hypothesis(1e300)
    ctx.evidence(1e10 if big else 0.5)


def _row_configs():
    configs = _golden_trace_configs()
    configs["die/prior_impossible_proposal"] = (_die_hypothesis_model, lambda: FunctionGuide(lambda site: _D7))
    configs["die/overflowing_evidence"] = (_overflowing_evidence_model, PriorGuide)
    configs["die/overflowing_hypothesis_weight"] = (_overflowing_hypothesis_weight_model, PriorGuide)
    configs["three_dice/tabular_low_ceiling"] = (
        three_dice, lambda: dice_tabular_family(ceiling=0.5).bind(_DICE_TABLE))
    return configs


# What each added configuration must exercise, given its traces and its
# batch outcome (the stats, or the error that both paths raise).
_ROW_CASE_SHOWN = {
    "die/prior_impossible_proposal": lambda ts, got: any(
        ok and w == 0.0 and h == 7.0 for ok, w, h in zip(got.accepted, got.weight_evidence, got.hypothesis)),
    "die/overflowing_evidence": lambda ts, got: isinstance(got, WeightError) and any(
        t.log_evidence > math.log(sys.float_info.max) for t in ts),
    "die/overflowing_hypothesis_weight": lambda ts, got: isinstance(got, WeightError) and all(
        t.log_evidence < math.log(sys.float_info.max) for t in ts),
    "three_dice/tabular_low_ceiling": lambda ts, got: any(
        t.status is RunStatus.REJECTED_THRESHOLD and t.n_events < 4 for t in ts),
}

# 300 seeds cross one boundary of 256-seed blocks.
ROW_SEEDS = derive_seeds(22, 300)


def _outcome(make_stats):
    try:
        return make_stats()
    except WeightError as exc:
        return exc


@pytest.mark.parametrize("name", sorted(_row_configs()))
def test_batch_rows_equal_trace_summaries(name, small_seed_blocks):
    model, make_guide = _row_configs()[name]
    assert runtime._SEED_BLOCK < len(ROW_SEEDS)
    traces = [run_trace(model, make_guide(), int(s)) for s in ROW_SEEDS]
    want = _outcome(lambda: stats_from_summaries(ROW_SEEDS, map(summarize_trace, traces)))
    got = _outcome(lambda: batch_stats(model, make_guide(), ROW_SEEDS))
    if isinstance(want, WeightError):
        assert type(got) is WeightError and str(got) == str(want)
    else:
        for field in want.__slots__:
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)
    assert _ROW_CASE_SHOWN.get(name, lambda ts, got: True)(traces, got)


def test_long_trace_totals_are_running_sums_in_event_order():
    """The log-mass totals of long traces are left-to-right float sums
    from 0.0, whatever `sum` does on this Python; a correctly rounded sum
    differs from them in the last bits, so the pin tells the orders apart."""
    entry = MODELS["monkey"]
    model = entry.build(length=4000)
    for s in range(5):
        t = run_trace(model, entry.guides["pattern_insert"](length=4000), s)
        for total, masses in ((t.log_prior_total, [c.log_prior for c in t.choices]),
                              (t.log_guide_total, [c.log_guide for c in t.choices])):
            assert total.hex() == functools.reduce(operator.add, masses, 0.0).hex()
            assert total != math.fsum(masses)


# ---------------------------------------------------------------------------
# What a guide sees of the history: O(1) read-only views


class _KeepingGuide(Guide):
    """The prior guide, keeping every site it is shown with the number of
    extra choices it had drawn in that run before the site.  With
    `extra_seed`, it draws an extra choice in `begin` and at every third
    site, through the context that `begin` gets, so `extras` changes in
    the middle of a run."""

    def __init__(self, extra_seed=None):
        self.extra_seed = extra_seed
        self.kept = []

    def begin(self, ctx):
        self.ctx = ctx
        self.n_extra = 0
        self._maybe_draw(-1)

    def _maybe_draw(self, index):
        if self.extra_seed is None or (index >= 0 and (self.extra_seed + index) % 3):
            return
        self.ctx.extra_choice(uniform_range(0, 2), lambda trace: uniform_range(0, 2))
        self.n_extra += 1

    def propose(self, site):
        self.kept.append((site, self.n_extra))
        self._maybe_draw(site.index)
        return None


_MUTATORS = ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
             "__setitem__", "__delitem__", "__iadd__", "__imul__")


def _check_view(view, want: tuple):
    """`view` behaves as the tuple `want` for every read a guide can make."""
    n = len(want)
    assert isinstance(view, runtime.HistoryView)
    assert tuple(view) == want and list(view) == list(want) and len(view) == n
    assert view == want and want == view and not (view != want)
    assert view != want + (None,) and view != list(want)
    assert hash(view) == hash(want) and repr(view) == repr(want) and str(view) == str(want)
    assert [view[i] for i in range(-n, n)] == [want[i] for i in range(-n, n)]
    if n:
        assert view[np.int64(n - 1)] == want[n - 1]
    for sl in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1), slice(-2, None, 2), slice(5, 0)):
        got = view[sl]
        assert type(got) is tuple and got == want[sl]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError, match="tuple index out of range"):
            view[bad]
    with pytest.raises(TypeError, match="tuple indices must be integers or slices, not str"):
        view["0"]
    assert [v in view for v in want] == [True] * n and list(reversed(view)) == list(reversed(want))
    assert not any(hasattr(view, name) for name in _MUTATORS)
    with pytest.raises(TypeError):
        view[0] = 0


@settings(max_examples=25, deadline=None)
@given(structure_seed=st.integers(0, 10_000), crash=st.booleans(), extra_seed=st.integers(0, 2),
       order=st.randoms(use_true_random=False))
def test_history_views_are_snapshots_of_the_run(structure_seed, crash, extra_seed, order):
    """Sampling: every kept site, read after all runs have ended and in
    any order, shows the chosen values and extra values before it."""
    model = make_hashed_model(structure_seed, crash=crash)
    guide = _KeepingGuide(extra_seed)
    traces = [run_trace(model, guide, seed) for seed in range(30)]
    by_run = []
    i = 0
    for t in traces:  # a run shows one site per choice it records
        by_run.append(guide.kept[i:i + len(t.choices)])
        i += len(t.choices)
    assert i == len(guide.kept)
    checks = []
    for t, kept in zip(traces, by_run):
        values = tuple(c.chosen for c in t.choices)
        extras = tuple(x.chosen for x in t.extras)
        for site, n_extra in kept:
            checks.append((site, values[:site.index], extras[:n_extra]))
    assert all(len(site.extras) for site, _, _ in checks)
    order.shuffle(checks)
    for site, want_history, want_extras in checks:
        _check_view(site.history, want_history)
        assert type(site.extras) is tuple and site.extras == want_extras


@settings(max_examples=25, deadline=None)
@given(structure_seed=st.integers(0, 10_000), crash=st.booleans(), order=st.randoms(use_true_random=False))
def test_history_views_of_the_walk(structure_seed, crash, order):
    """The exact walk: one kept site per tree node, each showing the values
    above it, whatever order the views are first read in."""
    pe = enumerate_paths(make_hashed_model(structure_seed, crash=crash))
    guide = _KeepingGuide()
    exact_guided_profile(pe, guide)
    prefixes = {e.choices[:k] for e in pe.entries + pe.crashes for k in range(len(e.choices))}
    sites = [site for site, _ in guide.kept]
    assert len(sites) == len(prefixes)
    order.shuffle(sites)
    views = [site.history for site in sites]
    assert {tuple(v) for v in views} == prefixes and set(views) == prefixes
    for site in sites:
        _check_view(site.history, tuple(site.history))
        assert site.extras == () and site.index == len(site.history)


def test_cost_per_event_is_flat_in_run_length():
    """Monkey under `pattern_insert` costs the same per event at 100 and
    at 16,000 events; a history copy per site made it about 5x dearer."""
    entry = MODELS["monkey"]

    def us_per_event(length):
        model, guide = entry.build(length=length), entry.guides["pattern_insert"](length=length)
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            t = run_trace(model, guide, 3)
            best = min(best, time.perf_counter() - start)
        assert t.completed and t.n_events == length + 1
        return best / t.n_events * 1e6

    short, long = us_per_event(100), us_per_event(16_000)
    assert long / short < 2, (short, long)


def test_building_a_trace_makes_no_python_call_per_event():
    """A `Trace` of a run, and its records and per-event entries, are
    made in C: the Python calls they make do not grow with the run."""
    entry = MODELS["monkey"]

    def python_calls(length):
        guide = entry.guides["pattern_insert"](length=length)
        run = next(runtime._run_batch(entry.build(length=length), guide, [3], runtime.DEFAULT_MAX_EVENTS))
        calls = []
        gc.collect()
        gc.disable()  # a collection may run finalizers of unrelated objects, which are Python calls
        sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code) if event == "call" else None)
        try:
            t = Trace(run)
            t.choices, t.per_event_fe
        finally:
            sys.setprofile(None)
            gc.enable()
        assert t.completed and len(t.choices) == length
        return len(calls)

    assert python_calls(10) == python_calls(2000)


def test_batch_runs_with_extra_choices_build_no_records():
    """`batch_stats` over monkey/`pattern_insert`, whose conditional reads
    each run's `Trace`, allocates at most 150 bytes per event at its
    peak: the run's columns take about 65, and building its
    `ChoiceRecord`s or `EventFE`s would add about 100 each."""
    entry = MODELS["monkey"]
    length = 16_000
    model, guide = entry.build(length=length), entry.guides["pattern_insert"](length=length)
    batch_stats(model, guide, range(1))  # numpy's first calls, outside the measure
    tracemalloc.start()
    try:
        stats = batch_stats(model, guide, range(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.accepted.all() and (stats.events == length + 1).all()
    assert peak / length < 150, peak


def test_traces_keep_nothing_of_their_runs(monkeypatch):
    """A trace holds its run's columns only: once the batch is done, the
    guide's bound `propose` that the runs called and the seed block that
    seeded them are gone."""
    refs = []
    hooks = runtime._hooks

    def recording_hooks(guide):
        propose, begin = hooks(guide)
        refs.append(weakref.ref(propose))
        return propose, begin

    class RecordingSeededRuns(runtime._SeededRuns):  # without __slots__: it takes weak references
        def __init__(self, seeds):
            super().__init__(seeds)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(runtime, "_hooks", recording_hooks)
    monkeypatch.setattr(runtime, "_SeededRuns", RecordingSeededRuns)
    entry = MODELS["monkey"]
    traces = list(run_traces(entry.build(length=20), entry.guides["pattern_insert"](length=20), range(40)))
    gc.collect()
    assert len(refs) == 2 and [r() for r in refs] == [None, None]
    assert all(t.extras[0].log_model_conditional is not None for t in traces if t.completed)
    assert any(t.n_events + len(t.extras) > runtime._FIRST_BLOCK for t in traces)  # a run read past its row


# ---------------------------------------------------------------------------
# One uniform per event, in event order, read in blocks

_CHAIN_DISTS = (uniform_range(1, 6), dist_from_weights([("a", 0.1), ("b", 0.9)]), point_mass(True),
                dist_from_weights([(0, 3.0), (1, 1.0), (2, 0.5)]))
_EXTRA_DIST = uniform_range(0, 9)


def _block_ends(limit):
    """Uniforms a run has read when each of its blocks runs out."""
    ends, used = [], runtime._FIRST_BLOCK
    while used <= limit:
        ends.append(used)
        used += min(used, runtime._MAX_BLOCK)
    return ends


# Model lengths L: every L up to the first block's end, each block end n
# and n +- 1, each L whose L + 1 uniforms (one extra choice first) end a
# block, and 5,000.
STREAM_LENGTHS = sorted({5000, *range(1, runtime._FIRST_BLOCK)}
                        | {end + d for end in _block_ends(5001) for d in (-2, -1, 0, 1)})


def _choose_chain(ctx, length):
    for i in range(length):
        ctx.choose(_CHAIN_DISTS[i % len(_CHAIN_DISTS)], label="c")


class _ExtraFirstGuide(PriorGuide):
    """One extra choice before the model's first choice; keeps every prior."""

    def begin(self, ctx):
        ctx.extra_choice(_EXTRA_DIST, lambda trace: _EXTRA_DIST)


def _reference_values(seed, length):
    """The extra value and the choice values that one `Dist.sample` call
    per event, in event order, gives on the reference stream of `seed`."""
    stream = ReferenceStream(seed)
    extra = _EXTRA_DIST.sample(stream)
    return extra, [_CHAIN_DISTS[i % len(_CHAIN_DISTS)].sample(stream) for i in range(length)]


def _values(trace):
    assert trace.completed and len(trace.extras) == 1
    return trace.extras[0].chosen, [c.chosen for c in trace.choices]


def test_stream_lengths_cross_every_block_end():
    ends = _block_ends(5001)
    assert ends[:2] == [runtime._FIRST_BLOCK, 2 * runtime._FIRST_BLOCK] and ends[-1] > runtime._MAX_BLOCK
    assert 1 in STREAM_LENGTHS and 5000 in STREAM_LENGTHS


@pytest.mark.parametrize("length", STREAM_LENGTHS)
def test_run_trace_reads_one_uniform_per_event_in_order(length):
    for seed in (0, 12345):
        trace = run_trace(lambda ctx: _choose_chain(ctx, length), _ExtraFirstGuide(), seed)
        assert _values(trace) == _reference_values(seed, length)


def test_run_traces_reads_one_uniform_per_event_across_a_block_boundary(small_seed_blocks):
    """Run i of one batch has length STREAM_LENGTHS[i % n]; the batch's
    runs cross a boundary of the seed blocks of `run_traces`."""
    seeds = derive_seeds(23, runtime._SEED_BLOCK + 2)
    runs = iter(range(len(seeds)))

    def cycling_chain(ctx):
        _choose_chain(ctx, STREAM_LENGTHS[next(runs) % len(STREAM_LENGTHS)])

    for i, (seed, trace) in enumerate(zip(seeds.tolist(), run_traces(cycling_chain, _ExtraFirstGuide(), seeds))):
        assert _values(trace) == _reference_values(seed, STREAM_LENGTHS[i % len(STREAM_LENGTHS)]), i


# ---------------------------------------------------------------------------
# Guides that keep `Guide.propose` and `Guide.begin` skip both


@pytest.mark.parametrize("ceiling", [None, 4.0])
@pytest.mark.parametrize("model_name", ["three_dice", "expr", "monkey"])
def test_prior_guide_equals_a_guide_that_proposes_none(model_name, ceiling, small_seed_blocks):
    model = MODELS[model_name].build()
    prior, function = PriorGuide(ceiling), FunctionGuide(lambda site: None, ceiling)
    assert runtime._hooks(prior) == (None, None) and runtime._hooks(function)[0] is not None
    seeds = derive_seeds(24, runtime._SEED_BLOCK + 4)
    assert _trace_digest(run_traces(model, prior, seeds)) == _trace_digest(run_traces(model, function, seeds))
    assert [repr(_canon(run_trace(model, prior, s))) for s in range(20)] == [
        repr(_canon(run_trace(model, function, s))) for s in range(20)]
    want, got = batch_stats(model, function, seeds), batch_stats(model, prior, seeds)
    for field in want.__slots__:
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)
    if ceiling is not None and model_name != "monkey":
        assert not got.accepted.all()


def _first_value(site):
    return point_mass(site.prior.values[0])


class _FirstValueGuide(PriorGuide):
    def propose(self, site):
        return _first_value(site)


def test_overridden_propose_and_begin_are_honoured():
    on_instance = PriorGuide()
    on_instance.propose = _first_value
    for guide in (_FirstValueGuide(), on_instance):
        for run in (run_trace(three_dice, guide, 5), next(run_traces(three_dice, guide, [5]))):
            assert [c.chosen for c in run.choices] == [1, 1, 1]
            assert [c.guide for c in run.choices] == [point_mass(1)] * 3
    for run in (run_trace(three_dice, _ExtraFirstGuide(), 5), next(run_traces(three_dice, _ExtraFirstGuide(), [5]))):
        assert len(run.extras) == 1 and run.extras[0].log_model_conditional == math.log(0.1)
        stream = ReferenceStream(5)
        _EXTRA_DIST.sample(stream)
        assert [c.chosen for c in run.choices] == [_D6.sample(stream) for _ in range(3)]


def test_ceiling_is_read_per_run():
    guide = PriorGuide()
    traces = run_traces(three_dice, guide, range(3))
    assert next(traces).status is not RunStatus.REJECTED_THRESHOLD
    guide.ceiling = -1.0
    assert next(traces).status is RunStatus.REJECTED_THRESHOLD
    guide.ceiling = None
    assert next(traces).completed


# ---------------------------------------------------------------------------
# Evidence and hypothesis values: the boolean fast paths change nothing

_CONTRACT = "{} is not a finite nonnegative number"

# value -> (log evidence or crash reason, hypothesis or crash reason)
_EVIDENCE_HYPOTHESIS_CASES = {
    "True": (True, 0.0, 1.0),
    "False": (False, -math.inf, 0.0),
    "np.True_": (np.True_, 0.0, 1.0),
    "1": (1, 0.0, 1.0),
    "0.0": (0.0, -math.inf, 0.0),
    "0.5": (0.5, math.log(0.5), 0.5),
    "nan": (math.nan, _CONTRACT.format("evidence(nan)"), _CONTRACT.format("hypothesis nan")),
    "-1": (-1, _CONTRACT.format("evidence(-1.0)"), _CONTRACT.format("hypothesis -1.0")),
    "inf": (math.inf, _CONTRACT.format("evidence(inf)"), _CONTRACT.format("hypothesis inf")),
}


@pytest.mark.parametrize("case", list(_EVIDENCE_HYPOTHESIS_CASES))
def test_evidence_and_hypothesis_values(case):
    value, log_evidence, hypothesis = _EVIDENCE_HYPOTHESIS_CASES[case]

    def evidence_model(ctx):
        ctx.choose(_D6)
        ctx.evidence(value)

    def hypothesis_model(ctx):
        ctx.choose(_D6)
        ctx.set_hypothesis(value)

    for model, want, read in ((evidence_model, log_evidence, lambda t: t.log_evidence),
                              (hypothesis_model, hypothesis, lambda t: t.hypothesis)):
        sampled = run_trace(model, PriorGuide(), 3)
        paths = enumerate_paths(model)
        if isinstance(want, str):
            assert sampled.status is RunStatus.REJECTED_CRASH and sampled.crash_reason == want
            assert not paths.entries and {c.reason for c in paths.crashes} == {want}
        else:
            assert sampled.completed and type(read(sampled)) is float and read(sampled) == want
            assert not paths.crashes and {read(e) for e in paths.entries} == {want}
