import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedppl import (
    Dist,
    DuplicateValueError,
    EmptyRangeError,
    FunctionGuide,
    PriorGuide,
    RunStatus,
    ZeroMassError,
    dist_from_weights,
    enumerate_paths,
    point_mass,
    uniform_range,
    run_trace,
)
from guidedppl.models import MODELS, dice_point_family

DIE1_GUIDE = [(1, 1 / 3), (2, 4 / 15), (3, 1 / 5), (4, 2 / 15), (5, 1 / 15)]


class TestDistFromWeights:
    def test_symmetric_pair(self):
        d = dist_from_weights([(1, 1), (2, 1)])
        assert d.values == (1, 2)
        assert d.masses == (0.5, 0.5)

    def test_single_atom(self):
        d = dist_from_weights([(5, 3.0)])
        assert d.values == (5,)
        assert d.masses == (1.0,)

    def test_die1_guide_table_sums_to_one_exactly(self):
        d = dist_from_weights(DIE1_GUIDE)
        assert math.fsum(d.masses) == 1.0
        # The five fractions are exactly representable sums: normalization
        # must not perturb them.
        assert d.masses == (1 / 3, 4 / 15, 1 / 5, 2 / 15, 1 / 15)

    def test_zero_weight_entries_dropped(self):
        d = dist_from_weights([(1, 0.0), (2, 2.0), (3, 0.0)])
        assert d.values == (2,)

    def test_all_zero_raises(self):
        with pytest.raises(ZeroMassError):
            dist_from_weights([(1, 0.0), (2, 0.0)])

    def test_duplicate_raises(self):
        with pytest.raises(DuplicateValueError):
            dist_from_weights([(1, 0.5), (1, 0.5)])

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            dist_from_weights([(1, -0.1), (2, 1.0)])

    def test_non_scalar_value_raises(self):
        with pytest.raises(TypeError):
            dist_from_weights([(1.5, 1.0)])

    def test_symbol_support(self):
        d = dist_from_weights([("a", 1), ("b", 3)])
        assert d.prob("b") == 0.75


class TestUniformRange:
    def test_six_sided(self):
        d = uniform_range(1, 6)
        assert len(d) == 6
        assert all(m == pytest.approx(1 / 6, abs=1e-15) for m in d.masses)

    def test_degenerate(self):
        d = uniform_range(3, 3)
        assert d.values == (3,)
        assert d.masses == (1.0,)

    def test_five_values_match_die2_guide(self):
        # uniform(1..6-die1) with die1 = 1
        d = uniform_range(1, 5)
        assert d.masses == (0.2,) * 5

    def test_empty_raises(self):
        with pytest.raises(EmptyRangeError):
            uniform_range(4, 3)


class TestLogProb:
    def test_uniform(self):
        d = uniform_range(1, 6)
        assert d.log_prob(3) == pytest.approx(-math.log(6), abs=1e-12)

    def test_outside_support(self):
        assert uniform_range(1, 6).log_prob(7) == -math.inf

    def test_die1_guide_tail(self):
        d = dist_from_weights(DIE1_GUIDE)
        assert d.log_prob(5) == pytest.approx(math.log(1 / 15), abs=1e-12)


class TestSample:
    def test_point_mass_any_seed(self):
        d = point_mass(5)
        for seed in (0, 1, 99):
            assert d.sample(np.random.default_rng(seed)) == 5

    def test_same_seed_same_value(self):
        d = uniform_range(1, 6)
        for seed in range(20):
            a = d.sample(np.random.default_rng(seed))
            b = d.sample(np.random.default_rng(seed))
            assert a == b

    def test_frequencies_within_five_sigma(self):
        d = uniform_range(1, 6)
        n = 60_000
        rng = np.random.default_rng(2024)
        counts = {v: 0 for v in d.values}
        for _ in range(n):
            counts[d.sample(rng)] += 1
        p = 1 / 6
        tol = 5 * math.sqrt(p * (1 - p) / n)
        for v in d.values:
            assert abs(counts[v] / n - p) < tol

    def test_inverse_cdf_is_order_stable(self):
        # The same distribution built twice maps a stream identically.
        d1 = dist_from_weights([(1, 2), (2, 3), (3, 5)])
        d2 = dist_from_weights([(1, 2), (2, 3), (3, 5)])
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        assert [d1.sample(rng1) for _ in range(200)] == [d2.sample(rng2) for _ in range(200)]


@st.composite
def weight_lists(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    weights = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return list(zip(range(n), weights))


@given(weight_lists())
@settings(max_examples=100, deadline=None)
def test_normalization_property(pairs):
    d = dist_from_weights(pairs)
    assert math.fsum(math.exp(d.log_prob(v)) for v in d.values) == pytest.approx(1.0, abs=1e-9)
    assert all(m > 0 for m in d.masses)
    assert d.log_prob("missing") == -math.inf


@given(st.fractions(min_value=0, max_value=1))
@settings(max_examples=30, deadline=None)
def test_two_atom_masses_are_exact(q: Fraction):
    if q == 0 or q == 1:
        return
    d = dist_from_weights([("x", float(q)), ("y", float(1 - q))])
    assert math.fsum(d.masses) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# The log-mass table that `log_prob` and sampled runs read


def _model_and_family_dists():
    """Every distinct `Dist` (by identity) that runs of the example models
    use, under each of their guides and under bound guide families with
    random tables: priors, proposals, extra-choice proposals and their
    conditionals."""
    rng = np.random.default_rng(0)
    configs = [(entry.build(**kw), make_guide(**kw)) for entry, kw in (
        (MODELS["three_dice"], {}), (MODELS["expr"], {}), (MODELS["expr"], {"depth_cap": 2}),
        *((MODELS["monkey"], {"alphabet": n, "length": 8, "pattern": "a"}) for n in range(1, 27)))
        for make_guide in entry.guides.values()]
    for entry in (MODELS["three_dice"], MODELS["expr"]):
        family = entry.family()
        guide = family.bind({})
        for s in range(200):
            run_trace(entry.build(), guide, s)
        table = {key: list(rng.normal(0.0, 3.0, len(prior))) for key, prior in guide.visited.items()}
        configs.append((entry.build(), family.bind(table)))
    point = dice_point_family()
    configs.append((MODELS["three_dice"].build(), point.bind({"0|": 2, "1|2": 4})))
    found = {}
    for model, guide in configs:
        for s in range(60):
            t = run_trace(model, guide, s)
            for c in t.choices:
                found[id(c.prior)], found[id(c.guide)] = c.prior, c.guide
            for e in t.extras:
                found[id(e.guide_dist)] = e.guide_dist
                if t.completed:
                    d = e.conditional(t)
                    found[id(d)] = d
    return list(found.values())


def test_log_masses_are_math_log_of_each_mass():
    dists = _model_and_family_dists()
    assert len(dists) > 100
    for d in dists:
        want = [math.log(m).hex() for m in d.masses]
        assert [lp.hex() for lp in d._logs] == want
        assert [d.log_prob(v).hex() for v in d.values] == want


def test_zero_mass_has_log_mass_minus_inf():
    """A direct `Dist(...)` call, or weights whose ratio underflows, can
    give an atom zero mass; its log-mass is -inf, as `log_nonneg` gives."""
    d = Dist([1, 2, 3], [0.0, 1.0, 0.0])
    assert d._logs == (-math.inf, 0.0, -math.inf)
    assert d.log_prob(1) == -math.inf and d.log_prob(2) == 0.0
    for seed in range(20):
        assert d.sample(np.random.default_rng(seed)) == 2
    underflow = dist_from_weights([(1, 5e-324), (2, 1e300)])
    assert underflow.masses == (0.0, 1.0) and underflow.log_prob(1) == -math.inf


@pytest.mark.parametrize("values", [[1, 1], ["a", "b", "a"], [1, True], [0, False, 2]])
def test_direct_construction_rejects_repeated_values(values):
    """`Dist(...)` raises for a repeated value (``1 == True`` counts), as
    `dist_from_weights` does: one value must have one mass."""
    with pytest.raises(DuplicateValueError):
        Dist(values, [1.0 / len(values)] * len(values))
    Dist(values[:1], [1.0])


@pytest.mark.parametrize("mass", [math.nan, -0.5])
def test_direct_construction_rejects_a_nan_or_negative_mass(mass):
    """`Dist(...)` raises one clear error for a NaN or negative mass, and a
    guide that builds such a `Dist` has its run rejected as a crash that
    names the mass, rather than a NaN free energy."""
    with pytest.raises(ValueError, match=f"mass {mass!r} is not a nonnegative number"):
        Dist([1, 2], [mass, 1.0])

    def model(ctx):
        ctx.choose(uniform_range(1, 2))

    t = run_trace(model, FunctionGuide(lambda site: Dist([1, 2], [mass, 1.0])), 0)
    assert t.status is RunStatus.REJECTED_CRASH
    assert t.crash_reason == f"ValueError: mass {mass!r} is not a nonnegative number"


def test_all_zero_masses_raise_when_built():
    """A `Dist` needs a positive mass, as `dist_from_weights` does: one
    with none gave its last value to every draw."""
    with pytest.raises(ZeroMassError, match=r"no support value of \(1, 2\) has positive mass"):
        Dist([1, 2], [0.0, 0.0])


def test_an_all_zero_dist_is_the_same_crash_in_sampling_and_enumeration():
    """A model that builds a `Dist` with no positive mass, or with masses
    that do not sum to one: sampling and enumeration give the same
    verdict, a crash with the same reason.  Sampling drew value 2 from an
    all-zero `Dist`, and enumeration raised `IndexError`; masses summing
    to 0.4 made sampling draw 2 in 4 of 5 runs while enumeration gave the
    paths a total prior mass of 0.4."""

    for masses, reason in [
        ((0.0, 0.0), "ZeroMassError: no support value of (1, 2) has positive mass"),
        ((0.2, 0.2), "ValueError: masses of (1, 2) sum to 0.4, not 1"),
        ((0.7, 0.7), "ValueError: masses of (1, 2) sum to 1.4, not 1"),
    ]:
        def model(ctx):
            ctx.choose(uniform_range(1, 2))
            ctx.choose(Dist([1, 2], masses))

        for seed in range(5):
            t = run_trace(model, PriorGuide(), seed)
            assert t.status is RunStatus.REJECTED_CRASH and t.crash_reason == reason and t.n_events == 1
        pe = enumerate_paths(model)
        assert not pe.entries and {(c.reason, c.n_events) for c in pe.crashes} == {(reason, 1)}
        assert pe.crash_mass() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("masses", [(0.5, 0.5 + 1e-12), (0.1,) * 10, (1 / 3,) * 3])
def test_masses_within_the_tolerance_of_one_are_accepted(masses):
    d = Dist(range(len(masses)), masses)
    assert d.masses == masses and d._cum[-1] == 1.0
