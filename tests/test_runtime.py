import functools
import gc
import hashlib
import math
import operator
import re
import sys
import time

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
    crash_on_three_model,
    forcing_guide_for,
    make_hashed_model,
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
        return tuple(_canon(getattr(x, f)) for f in x.__slots__)
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
# bound guide reused across the seeds; recorded before `TabularGuide` and
# `PointGuide` were merged into one bound table guide.
GOLDEN_TRACE_DIGESTS = {
    "expr/prior": "3390d59bee5e29b3ed4f935293cba5e2260513412fcd0dd0e4ba25f7c610c281",
    "expr/tabular_empty": "b46f96d63aac2e7fd725d1642867df63e40defc040d6ceca73fc314300e84f85",
    "expr/tabular_table": "978881d19c95ac15ba38989e47e13414b83c900acc9a3378e5e82ba3ca523ccc",
    "monkey/pattern_insert": "b94c37281169385d2eab8d44a9028ed71df6b8de5c8350775b038e16807648a9",
    "monkey/prior": "e7c64ca96487afa6f8ef7819a7b093c6f105e74c37913ea5c7fe4cd4ef7c2c87",
    "three_dice/die1_is_5": "c9cc7302e282c2f721bb9a33dba0967f172db444c911f1f75c5479c0e011fbaf",
    "three_dice/point_empty": "f561c94da94b61f6a965f46c86dcadbdf9607d745244fb7ba932b51f804a46c4",
    "three_dice/point_table": "ce5350f023420603667bffc0ee3306e4d2965a087a95d6343e76f69c10928072",
    "three_dice/posterior": "a89ffe4d9d4cbddbce111767131ea67cae714681bb5b3fa228b444bdef656a2c",
    "three_dice/prior": "1433727feafdc6cf69c7c698c113e9339b2492f40b24957da4ef6f25dd75341f",
    "three_dice/prior_reject": "a30837334ef868e2380a70c6257341d4edf7625cede1fff4c0f45a92c732b37d",
    "three_dice/tabular_empty": "f627ac92b034565ceae236d72acc48c5997dfeb4cd7662caa34f0426ed4bfd35",
    "three_dice/tabular_table": "df27fa9ac6c6c1dc9c030816c81789d250108f4dbffdb909c7ce6232601aef7a",
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


# The same digest for monkey/pattern_insert at length 4,000, seeds 0..4:
# a fault in how a guide sees a long history shows only at length.
GOLDEN_LONG_TRACE_DIGEST = "a6b4751cbd61f452b0dc6df57a7852a24a3c95c472c7e4503ee2610e52e24efd"


def test_golden_long_traces():
    entry = MODELS["monkey"]
    model = entry.build(length=4000)
    traces = [run_trace(model, entry.guides["pattern_insert"](length=4000), s) for s in range(5)]
    assert _trace_digest(traces) == GOLDEN_LONG_TRACE_DIGEST
    assert _trace_digest(run_traces(model, entry.guides["pattern_insert"](length=4000), range(5))) == (
        GOLDEN_LONG_TRACE_DIGEST)


_RECORD_FIELDS = ("index", "label", "prior", "guide", "chosen", "log_prior", "log_guide")

# SHA-256 of the reprs of every `ChoiceRecord` of these golden traces,
# seeds 0..39, one per line; recorded while `ChoiceRecord` was a frozen
# dataclass, whose repr the record type keeps.
GOLDEN_RECORD_REPR_DIGESTS = {
    "expr/tabular_table": "974a4ac96868ba07a899a0beb6e9814ab4e3e8f8f6a00b0bbcdb4249b87c2b0d",
    "monkey/pattern_insert": "5b251bfad6aa4017e2528debb8abcd1e1f2dbe0132652def59764f88e209114c",
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


def _first_uniforms_of(seed):
    rows, states = runtime._first_uniforms(np.array([seed], dtype=np.uint64))
    return rows[0], states[0]


_SEED_RANGE_EXAMPLES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def _with_seed_range_examples(test):
    for seed in _SEED_RANGE_EXAMPLES:
        test = example(seed)(test)
    return settings(max_examples=300, deadline=None)(given(st.integers(min_value=0, max_value=2**64 - 1))(test))


class TestBatchSeeding:
    @_with_seed_range_examples
    def test_states_match_default_rng(self, seed):
        """The PCG64 state after a seed's first block is that of
        ``default_rng(seed)`` after as many draws."""
        rng = np.random.Generator(np.random.PCG64(0))
        runtime._set_pcg64_state(rng.bit_generator, _first_uniforms_of(seed)[1])
        want = np.random.default_rng(seed)
        want.random(runtime._FIRST_BLOCK)
        assert rng.bit_generator.state == want.bit_generator.state

    @_with_seed_range_examples
    def test_rows_and_resumed_runs_match_default_rng(self, seed):
        """A seed's row is ``default_rng(seed).random(_FIRST_BLOCK)`` bit
        for bit, and a batch run that reads past it goes on as
        ``default_rng(seed)`` does."""
        row, _ = _first_uniforms_of(seed)
        assert row.tobytes() == np.random.default_rng(seed).random(runtime._FIRST_BLOCK).tobytes()
        length = runtime._FIRST_BLOCK + 20
        [run] = runtime._SeededRuns(np.array([seed], dtype=np.uint64)).runs(
            lambda ctx: _choose_chain(ctx, length), _ExtraFirstGuide(), [0], runtime.DEFAULT_MAX_EVENTS)
        assert _values(run.trace()) == _reference_values(seed, length)

    def test_states_of_an_array_match_one_by_one(self):
        seeds = derive_seeds(3, 300)
        rows, states = runtime._first_uniforms(seeds)
        singles = [_first_uniforms_of(s) for s in seeds.tolist()]
        assert rows.tobytes() == np.array([row for row, _ in singles]).tobytes()
        assert states.tobytes() == np.array([state for _, state in singles]).tobytes()

    @pytest.mark.parametrize("constant", ["_INIT_A", "_MULT_B", "_PCG64_MULT"])
    def test_guard_names_numpy_version_on_mismatch(self, monkeypatch, constant):
        monkeypatch.setattr(runtime, constant, getattr(runtime, constant) ^ 1)
        with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)} "):
            runtime._check_pcg64_states()

    # A bit of the multiplier's low 16-bit limb, and of the XSL-RR rotation shift.
    @pytest.mark.parametrize("constant, bit", [("_PCG64_MULT", 1 << 9), ("_XSL_RR_SHIFT", 1)])
    def test_guard_checks_the_draws(self, monkeypatch, constant, bit):
        monkeypatch.setattr(runtime, constant, getattr(runtime, constant) ^ bit)
        with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)} "):
            runtime._check_pcg64_states()

    def test_guard_checks_the_state_after_the_block(self, monkeypatch):
        """The rows alone would pass: only the resumed draws show a wrong state."""
        set_state = runtime._set_pcg64_state

        def off_by_one_inc(bit_generator, state):
            set_state(bit_generator, state ^ np.array([0, 0, 0, 2], dtype=np.uint64))

        monkeypatch.setattr(runtime, "_set_pcg64_state", off_by_one_inc)
        with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)} "):
            runtime._check_pcg64_states()

    def test_runs_within_their_first_block_set_no_generator_state(self, monkeypatch):
        calls = []
        set_state = runtime._set_pcg64_state
        monkeypatch.setattr(runtime, "_set_pcg64_state", lambda *args: calls.append(1) or set_state(*args))
        model, guide = MODELS["three_dice"].build(), MODELS["three_dice"].guides["prior_reject"]()
        seeds = derive_seeds(25, 3000)
        stats = batch_stats(model, guide, seeds)
        assert len(stats.accepted) == 3000 and not stats.accepted.all()
        assert calls == []
        # A run that reads one uniform past its row sets the state once.
        chain = list(run_traces(lambda ctx: _choose_chain(ctx, runtime._FIRST_BLOCK), _ExtraFirstGuide(), seeds[:5]))
        assert len(calls) == 5 and all(len(t.choices) == runtime._FIRST_BLOCK for t in chain)

    def test_batch_runs_check_before_the_first_run(self, monkeypatch):
        # A fresh once-cache, so that an earlier batch in this process
        # has not passed the check already.
        monkeypatch.setattr(runtime, "_check_pcg64_states_once", functools.cache(runtime._check_pcg64_states))
        monkeypatch.setattr(runtime, "_MULT_A", runtime._MULT_A ^ 1)
        with pytest.raises(RuntimeError, match="numpy"):
            next(run_traces(three_dice, PriorGuide(), [1]))

    def test_guard_passes_on_this_numpy(self):
        runtime._check_pcg64_states()


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
SMALL_STATE_BLOCK = 256

# 600 seeds cross two boundaries of 256-seed blocks.
BATCH_SEEDS = derive_seeds(21, 600)


@pytest.fixture
def small_state_blocks(monkeypatch):
    monkeypatch.setattr(runtime, "_STATE_BLOCK", SMALL_STATE_BLOCK)


@pytest.mark.parametrize("name", sorted(_batch_configs()))
def test_run_traces_equals_run_trace(name, small_state_blocks):
    model, guide = _batch_configs()[name]
    assert runtime._STATE_BLOCK * 2 < len(BATCH_SEEDS)
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
def test_batch_rows_equal_trace_summaries(name, small_state_blocks):
    model, make_guide = _row_configs()[name]
    assert runtime._STATE_BLOCK < len(ROW_SEEDS)
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


def test_history_view_copies_only_when_siblings_share_a_list():
    root = runtime.HistoryView([], 0)
    a = root._child("a")
    ab, ac = a._child("b"), a._child("c")
    abd = ab._child("d")
    assert tuple(ac) == ("a", "c")  # resolves a and ac by extending root's list in place
    assert tuple(abd) == ("a", "b", "d") and tuple(ab) == ("a", "b")  # a's list has moved on: copy
    assert tuple(a) == ("a",) and tuple(root) == ()
    assert ac._list() is a._list() and abd._list() is ab._list() and ab._list() is not a._list()


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
    """`_RunState.trace` makes its records and per-event entries in C:
    the Python calls it makes do not grow with the run."""
    entry = MODELS["monkey"]

    def python_calls(length):
        guide = entry.guides["pattern_insert"](length=length)
        rng = np.random.default_rng(3)
        run = runtime._run(entry.build(length=length), guide, *runtime._hooks(guide), 3,
                           rng.random(runtime._FIRST_BLOCK).tolist(), lambda: rng, runtime.DEFAULT_MAX_EVENTS)
        run.completed_trace = None  # built by `_run` for the extra choice; build it again
        calls = []
        gc.collect()
        gc.disable()  # a collection may run finalizers of unrelated objects, which are Python calls
        sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code) if event == "call" else None)
        try:
            t = run.trace()
        finally:
            sys.setprofile(None)
            gc.enable()
        assert t.completed and len(t.choices) == length
        return len(calls)

    assert python_calls(10) == python_calls(2000)


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


# Model lengths L: 1, each block end n and n +- 1, each L whose L + 1
# uniforms (one extra choice first) end a block, and 5,000.
STREAM_LENGTHS = sorted({1, 5000} | {end + d for end in _block_ends(5001) for d in (-2, -1, 0, 1)})


def _choose_chain(ctx, length):
    for i in range(length):
        ctx.choose(_CHAIN_DISTS[i % len(_CHAIN_DISTS)], label="c")


class _ExtraFirstGuide(PriorGuide):
    """One extra choice before the model's first choice; keeps every prior."""

    def begin(self, ctx):
        ctx.extra_choice(_EXTRA_DIST, lambda trace: _EXTRA_DIST)


def _reference_values(seed, length):
    """The extra value and the choice values that one `Dist.sample` call
    per event, in event order, gives on ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    extra = _EXTRA_DIST.sample(rng)
    return extra, [_CHAIN_DISTS[i % len(_CHAIN_DISTS)].sample(rng) for i in range(length)]


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


def test_run_traces_reads_one_uniform_per_event_across_a_block_boundary(small_state_blocks):
    """Run i of one batch has length STREAM_LENGTHS[i % n]; the batch's
    runs cross a boundary of the seed blocks of `run_traces`."""
    seeds = derive_seeds(23, runtime._STATE_BLOCK + 2)
    runs = iter(range(len(seeds)))

    def cycling_chain(ctx):
        _choose_chain(ctx, STREAM_LENGTHS[next(runs) % len(STREAM_LENGTHS)])

    for i, (seed, trace) in enumerate(zip(seeds.tolist(), run_traces(cycling_chain, _ExtraFirstGuide(), seeds))):
        assert _values(trace) == _reference_values(seed, STREAM_LENGTHS[i % len(STREAM_LENGTHS)]), i


# ---------------------------------------------------------------------------
# Guides that keep `Guide.propose` and `Guide.begin` skip both


@pytest.mark.parametrize("ceiling", [None, 4.0])
@pytest.mark.parametrize("model_name", ["three_dice", "expr", "monkey"])
def test_prior_guide_equals_a_guide_that_proposes_none(model_name, ceiling, small_state_blocks):
    model = MODELS[model_name].build()
    prior, function = PriorGuide(ceiling), FunctionGuide(lambda site: None, ceiling)
    assert runtime._hooks(prior) == (None, None) and runtime._hooks(function)[0] is not None
    seeds = derive_seeds(24, runtime._STATE_BLOCK + 4)
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
        rng = np.random.default_rng(5)
        _EXTRA_DIST.sample(rng)
        assert [c.chosen for c in run.choices] == [_D6.sample(rng) for _ in range(3)]


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
