import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from guidedppl import (
    PriorGuide,
    RunStatus,
    batch_stats,
    derive_seeds,
    enumerate_paths,
    evidence_functional,
    exact_conditional_expectation,
    exact_evidence,
    importance_weight,
    run_trace,
)
from guidedppl.models import (
    MODELS,
    PatternInsertGuide,
    dice_point_family,
    make_expr_model,
    make_monkey_model,
    monkey_evidence_dp,
)

from helpers import monkey_evidence_bruteforce

# Exact evidence probabilities, frozen from the rational-arithmetic oracle
# rational_expr_posterior below (re-derived and cross-checked on every run).
EXPR2_EVIDENCE = 0.05  # 1/20
EXPR3_EVIDENCE = 0.02211  # 2211/100000
EXPR3_PATHS = 128029
MONKEY_12_ABA = 0.736083984375  # dyadic, exact in binary floating point


class TestMonkeyOracles:
    @pytest.mark.parametrize("length", [8, 12, 16])
    @pytest.mark.parametrize("pattern", ["aba", "abb", "aa", "abab"])
    def test_dp_equals_brute_force_exactly(self, length, pattern):
        dp = monkey_evidence_dp(2, length, pattern)
        bf = monkey_evidence_bruteforce(2, length, pattern)
        assert dp == bf  # both are dyadic rationals: equality is exact

    @pytest.mark.parametrize("pattern", ["aab", "abab", "aabaa", "abaab"])
    def test_dp_with_failure_link_fallbacks_equals_brute_force(self, pattern):
        # Building the failure links of "aab" and "aabaa" falls back along
        # an earlier link, which "aba" never does.
        for length in range(1, 11):
            assert monkey_evidence_dp(2, length, pattern) == monkey_evidence_bruteforce(2, length, pattern)

    def test_frozen_golden_value(self):
        assert monkey_evidence_dp(2, 12, "aba") == MONKEY_12_ABA

    def test_empty_pattern_always_occurs(self):
        assert monkey_evidence_dp(2, 4, "") == 1.0

    def test_pattern_outside_the_alphabet_never_occurs(self):
        assert monkey_evidence_dp(2, 4, "ac") == 0.0
        assert monkey_evidence_bruteforce(2, 4, "ac") == 0.0

    def test_pattern_longer_than_string(self):
        assert monkey_evidence_dp(2, 4, "aaaaa") == 0.0
        assert monkey_evidence_bruteforce(2, 4, "aaaaa") == 0.0

    def test_enumeration_agrees_with_dp(self):
        pe = enumerate_paths(make_monkey_model(2, 8, "aba"))
        assert len(pe.entries) == 256
        assert exact_evidence(pe) == pytest.approx(monkey_evidence_dp(2, 8, "aba"), abs=1e-12)

    def test_three_letter_alphabet(self):
        dp = monkey_evidence_dp(3, 7, "ab")
        bf = monkey_evidence_bruteforce(3, 7, "ab")
        assert dp == pytest.approx(bf, abs=1e-12)


class TestMonkeyGuide:
    def test_planted_pattern_always_satisfies_evidence(self):
        model = make_monkey_model(2, 12, "aba")
        guide = PatternInsertGuide(2, 12, "aba")
        for seed in range(50):
            t = run_trace(model, guide, seed)
            assert t.status is RunStatus.COMPLETED
            assert t.log_evidence == 0.0
            s = "".join(c.chosen for c in t.choices)
            y = t.extras[0].chosen
            assert s[y : y + 3] == "aba"

    def test_weights_take_two_values(self):
        # P(x) P_G(y|x) / (G(x) G(y)) = 2^-12 / (2^-9 / 10) = 1.25 when the
        # planted copy is the first occurrence, else 0.
        model = make_monkey_model(2, 12, "aba")
        guide = PatternInsertGuide(2, 12, "aba")
        ws = []
        for seed in range(1500):
            t = run_trace(model, guide, seed)
            ws.append(importance_weight(t, evidence_functional))
        values = set(round(w, 12) for w in ws)
        assert values == {0.0, 1.25}
        se = np.std(ws, ddof=1) / math.sqrt(len(ws))
        assert abs(np.mean(ws) - MONKEY_12_ABA) < 3 * se

    def test_nonfirst_occurrence_gets_zero_weight(self):
        model = make_monkey_model(2, 12, "aba")
        guide = PatternInsertGuide(2, 12, "aba")
        found = False
        for seed in range(500):
            t = run_trace(model, guide, seed)
            s = "".join(c.chosen for c in t.choices)
            y = t.extras[0].chosen
            if s.find("aba") != y:
                found = True
                assert t.extras[0].log_model_conditional == -math.inf
                assert importance_weight(t, evidence_functional) == 0.0
        assert found

    def test_conditional_is_a_normalized_distribution(self):
        model = make_monkey_model(2, 12, "aba")
        guide = PatternInsertGuide(2, 12, "aba")
        for seed in range(30):
            t = run_trace(model, guide, seed)
            d = t.extras[0].conditional(t)
            assert math.fsum(d.masses) == pytest.approx(1.0, abs=1e-12)

    def test_unplantable_pattern_leaves_run_unguided(self):
        model = make_monkey_model(2, 4, "aaaaa")
        guide = PatternInsertGuide(2, 4, "aaaaa")
        t = run_trace(model, guide, 0)
        assert t.status is RunStatus.COMPLETED
        assert not t.extras
        assert t.log_evidence == -math.inf
        assert importance_weight(t, evidence_functional) == 0.0

    def test_bad_pattern_characters_rejected(self):
        with pytest.raises(ValueError):
            make_monkey_model(2, 8, "abc")


def expr_value_triples(depth, cap):
    """Independent oracle: enumerate every expression tree with its exact
    rational probability and the values of f at 3, 4, and 5."""
    full = [("var", Fraction(3, 10)), ("const", Fraction(3, 10)),
            ("add", Fraction(1, 5)), ("mul", Fraction(1, 5))]
    term = [("var", Fraction(1, 2)), ("const", Fraction(1, 2))]
    for production, p in full if depth < cap else term:
        if production == "var":
            yield p, (3, 4, 5)
        elif production == "const":
            for c in range(10):
                yield p * Fraction(1, 10), (c, c, c)
        else:
            for pl, fl in expr_value_triples(depth + 1, cap):
                for pr, fr in expr_value_triples(depth + 1, cap):
                    if production == "add":
                        yield p * pl * pr, tuple(a + b for a, b in zip(fl, fr))
                    else:
                        yield p * pl * pr, tuple(a * b for a, b in zip(fl, fr))


def rational_expr_posterior(cap):
    p_e = Fraction(0)
    p_eh = Fraction(0)
    total = Fraction(0)
    count = 0
    for p, (f3, f4, f5) in expr_value_triples(1, cap):
        total += p
        count += 1
        if f3 == 9 and f4 == 16:
            p_e += p
            if f5 == 25:
                p_eh += p
    assert total == 1
    return count, p_e, p_eh / p_e


class TestExprModel:
    def test_depth_cap_validation(self):
        with pytest.raises(ValueError):
            make_expr_model(1)

    def test_cap2_matches_rational_oracle(self, expr2_pe):
        count, p_e, cond = rational_expr_posterior(2)
        assert len(expr2_pe.entries) == count == 253
        assert float(p_e) == EXPR2_EVIDENCE
        assert exact_evidence(expr2_pe) == pytest.approx(EXPR2_EVIDENCE, abs=1e-12)
        assert exact_conditional_expectation(expr2_pe) == pytest.approx(float(cond), abs=1e-12)

    def test_cap3_matches_rational_oracle(self, expr3_pe):
        count, p_e, cond = rational_expr_posterior(3)
        assert count == EXPR3_PATHS
        assert float(p_e) == EXPR3_EVIDENCE
        assert float(cond) == 1.0  # every fitting program computes x**2
        assert len(expr3_pe.entries) == EXPR3_PATHS
        assert exact_evidence(expr3_pe) == pytest.approx(EXPR3_EVIDENCE, abs=1e-12)
        assert exact_conditional_expectation(expr3_pe) == pytest.approx(1.0, abs=1e-12)

    def test_squaring_program_satisfies_everything(self):
        # Mul(Var, Var): f(3) = 9, f(4) = 16, f(5) = 25.
        model = make_expr_model(2)
        hit = False
        for seed in range(300):
            t = run_trace(model, PriorGuide(), seed)
            if t.choices[0].chosen == "mul" and all(c.chosen == "var" for c in t.choices[1:]):
                assert t.log_evidence == 0.0
                assert t.hypothesis == 1.0
                hit = True
        assert hit

    def test_evidence_true_runs_have_hypothesis_one(self):
        model = make_expr_model(3)
        seen = 0
        for seed in range(2000):
            t = run_trace(model, PriorGuide(), seed)
            if t.status is RunStatus.COMPLETED and t.log_evidence == 0.0:
                seen += 1
                assert t.hypothesis == 1.0
        assert seen > 0


class TestRegistry:
    def test_every_model_and_guide_builds_and_runs(self):
        for name, entry in MODELS.items():
            model = entry.build()
            for gname, factory in entry.guides.items():
                guide = factory()
                t = run_trace(model, guide, 1)
                assert t.status in (RunStatus.COMPLETED, RunStatus.REJECTED_THRESHOLD)
            if entry.family is not None:
                family = entry.family()
                t = run_trace(model, family.bind({}), 1)
                assert t.seed == 1

    def test_registry_models_are_replay_deterministic(self):
        for name, entry in MODELS.items():
            model = entry.build()
            for seed in derive_seeds(3, 5):
                assert run_trace(model, PriorGuide(), int(seed)) == run_trace(
                    model, PriorGuide(), int(seed)
                )

    @pytest.mark.parametrize("model, factory, default", [
        ("three_dice", "family", 30.0),
        ("expr", "family", 100.0),
        ("three_dice", "prior_reject", 500.0),
        *((m, g, None) for m, gs in (("three_dice", ("prior", "posterior", "die1_is_5")),
                                     ("monkey", ("prior", "pattern_insert")), ("expr", ("prior",)))
          for g in gs),
    ])
    def test_table_ceilings(self, model, factory, default):
        # With no ceiling a factory gives its default (None: no ceiling); a given ceiling wins.
        entry = MODELS[model]
        make = entry.family if factory == "family" else entry.guides[factory]
        assert make().ceiling == default
        assert make(ceiling=None).ceiling == default
        assert make(ceiling=7.0).ceiling == 7.0


# Non-empty tables for each tabular family, so that a bound guide holds cells.
_TABLES = {"three_dice": {"die1": [2.0, 0, 0, 0, 0, 0], "die2|1": [0, 1.0, 0, 0, 0]},
           "expr": {"prod@e": [0, 0, 1.5, 0.5], "const@e": [0, 0, 0, 2.0, 0, 0, 0, 0, 0, 0]}}


def _registry_builds():
    """A (model, guide) param for every guide factory and tabular family of
    the registry, built as the CLI builds them, and for a bound point family."""
    cfg = {"ceiling": None, "alphabet": 2, "length": 12, "pattern": "aba", "depth_cap": 3}
    for name, entry in MODELS.items():
        model = entry.build(**cfg)
        for gname, factory in entry.guides.items():
            yield pytest.param(model, factory(**cfg), id=f"{name}-{gname}")
        if entry.family is not None:
            yield pytest.param(model, entry.family(**cfg).bind(_TABLES[name]), id=f"{name}-tabular")
    yield pytest.param(MODELS["three_dice"].build(), dice_point_family().bind({"0|": 2, "1|2": 4}), id="three_dice-point")


@pytest.mark.parametrize("model, guide", _registry_builds())
def test_built_models_and_guides_survive_pickle(model, guide):
    # The CLI sends each worker process a pickled copy of the model and guide it built.
    model_copy, guide_copy = pickle.loads(pickle.dumps((model, guide)))
    seeds = derive_seeds(11, 200)
    want, got = batch_stats(model, guide, seeds), batch_stats(model_copy, guide_copy, seeds)
    for field in dataclasses.fields(want):
        np.testing.assert_array_equal(getattr(got, field.name), getattr(want, field.name), err_msg=field.name)
