import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedppl import (
    ChoiceSite,
    Dist,
    NoAcceptedRunsError,
    PointGuideFamily,
    PriorGuide,
    RunStatus,
    SearchReport,
    TabularGuideFamily,
    Trace,
    batch_stats,
    derive_seeds,
    estimate_free_energy,
    exact_guided_profile,
    guide_utility,
    optimize_guide,
    run_trace,
    uniform_range,
)
from guidedppl import guideopt, runtime
from guidedppl.estimators import estimate_from_batch
from guidedppl.guideopt import UtilityConfig
from guidedppl.runtime import _run_batch
from guidedppl.models import (
    dice_point_family,
    dice_tabular_family,
    expr_tabular_family,
    make_expr_model,
    three_dice,
)

from helpers import DICE_FE_TARGET, always_false_model, make_hashed_model

LN_216 = 3 * math.log(6)


class TestUtilityConfig:
    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            UtilityConfig(k=-1.0)

    def test_nan_k_rejected(self):
        # NaN fails every comparison, so a `k < 0` check lets it through.
        with pytest.raises(ValueError, match="impatience"):
            UtilityConfig(k=math.nan)

    def test_infinite_k_rejected(self):
        # An infinite k made every utility infinite: the search accepted nothing.
        with pytest.raises(ValueError, match="impatience constant k must be finite"):
            UtilityConfig(k=math.inf)


class TestGuideUtility:
    def test_k_zero_equals_adjusted_fe(self):
        family = dice_tabular_family()
        u = guide_utility(three_dice, family, {}, UtilityConfig(k=0.0), 500, 21)
        est = estimate_free_energy(three_dice, family.bind({}), 500, 21)
        assert u == est.adjusted_fe

    def test_k_scales_with_event_cost(self):
        family = dice_tabular_family()
        est = estimate_free_energy(three_dice, family.bind({}), 500, 21)
        cost = est.total_events / est.n_accepted
        for k in (0.5, 2.0):
            u = guide_utility(three_dice, family, {}, UtilityConfig(k=k), 500, 21)
            assert u == pytest.approx(est.adjusted_fe + k * cost, abs=1e-12)

    def test_zero_accepted_is_infinite(self):
        family = dice_tabular_family(ceiling=30.0)
        u = guide_utility(always_false_model, family, {}, UtilityConfig(k=0.0), 50, 0)
        assert u == math.inf

    def test_rejecting_prior_echo_pays_for_its_samples(self, dice_pe):
        # Equal free energies, but the rejecting echo needs ~216/15 runs
        # per accepted sample while the posterior guide needs one.
        echo = exact_guided_profile(dice_pe, PriorGuide(ceiling=500.0))
        from guidedppl.models import DicePosteriorGuide

        posterior = exact_guided_profile(dice_pe, DicePosteriorGuide())
        assert echo.adjusted_fe == pytest.approx(posterior.adjusted_fe, abs=1e-9)
        k = 1.0
        cost = lambda p: p.mean_events_per_run / p.acceptance_rate
        assert echo.adjusted_fe + k * cost(echo) > posterior.adjusted_fe + k * cost(posterior)
        assert cost(echo) == pytest.approx(4 * 216 / 15, rel=1e-9)


class TestOptimizeGuide:
    def test_budget_one_echoes_initial_utility(self):
        family = dice_tabular_family()
        report = optimize_guide(three_dice, family, UtilityConfig(), budget=1, seed=3, n=200)
        assert report.evaluations == 1
        assert report.best_params == {}
        guide, seeds = family.bind({}), derive_seeds(3, 200, stream=3)
        want = guideopt._utility(seeds, guideopt._run_all(guide, _run_batch(three_dice, guide, seeds, 100_000)),
                                 UtilityConfig())
        assert report.best_utility == want

    def test_reruns_of_long_runs_equal_run_trace(self, monkeypatch):
        """Search re-runs its CRN seeds from rows computed once; a run that
        reads past its first block computes its later blocks each time."""
        runs_seen = []
        run_all = guideopt._run_all

        def recording_run_all(guide, runs):
            params = dict(guide.params)
            return run_all(guide, (runs_seen.append((params, run)) or run for run in runs))

        monkeypatch.setattr(guideopt, "_run_all", recording_run_all)
        model, family, n = make_expr_model(4), expr_tabular_family(), 100
        report = optimize_guide(model, family, UtilityConfig(k=0.02), budget=30, seed=6, n=n)
        assert report.evaluations == 30
        crn = derive_seeds(6, n, stream=3).tolist()
        reruns = [(params, run) for params, run in runs_seen[n:]
                  if len(run.history) + len(run.extras) > runtime._FIRST_BLOCK]
        assert len({id(params) for params, _ in reruns}) > 1
        for params, run in reruns:
            assert run.seed in crn
            assert Trace(run) == run_trace(model, family.bind(params), run.seed)

    def test_tabular_search_keeps_a_zero_prior_mass_at_zero(self, monkeypatch):
        """A prior with a zero-mass value starts its cell at logit -inf for
        that value: the search spends its budget (its first cell raised a
        math domain error) and no run it makes draws the value."""
        prior = Dist([1, 2, 3], [0.0, 0.5, 0.5])

        def model(ctx):
            v = ctx.choose(prior, label="v")
            ctx.evidence(0.9 if v == 3 else 0.1)

        drawn = set()
        run_all = guideopt._run_all

        def recording_run_all(guide, runs):
            return run_all(guide, (drawn.update(run.history) or run for run in runs))

        monkeypatch.setattr(guideopt, "_run_all", recording_run_all)
        family = TabularGuideFamily(lambda index, label, history: label)
        report = optimize_guide(model, family, UtilityConfig(), budget=40, seed=1, n=100)
        assert report.evaluations == 40 and len(report.utility_trace) > 1
        assert drawn == {2, 3}
        (cell,) = report.best_params.values()
        assert cell[0] == -math.inf and family.cell_dist(prior, cell).prob(1) == 0.0

    def test_deterministic_given_seed(self):
        family = dice_tabular_family()
        a = optimize_guide(three_dice, family, UtilityConfig(), budget=60, seed=5, n=120)
        b = optimize_guide(three_dice, family, UtilityConfig(), budget=60, seed=5, n=120)
        assert a.best_utility == b.best_utility
        assert a.best_params == b.best_params
        assert a.utility_trace == b.utility_trace

    def test_trace_is_non_increasing(self):
        family = dice_tabular_family()
        report = optimize_guide(
            three_dice, family, UtilityConfig(), budget=150, seed=9, n=150, accept_margin=0.02
        )
        utilities = [u for _, u in report.utility_trace]
        assert utilities == sorted(utilities, reverse=True)
        assert report.best_utility == utilities[-1]

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            optimize_guide(three_dice, dice_tabular_family(), UtilityConfig(), budget=0, seed=1)
        with pytest.raises(ValueError):
            optimize_guide(
                three_dice, dice_tabular_family(), UtilityConfig(), budget=5, seed=1, accept_margin=-1.0
            )

    def test_zero_runs_rejected_before_any_evaluation(self):
        # n = 0 used to report best_utility inf after one empty evaluation.
        model = CountingModel(three_dice)
        with pytest.raises(ValueError, match="at least one run"):
            optimize_guide(model, dice_tabular_family(), UtilityConfig(), budget=5, seed=1, n=0)
        assert model.calls == 0

    def test_nan_margin_rejected_before_any_evaluation(self):
        # NaN fails every comparison: a NaN margin would reject every
        # candidate.
        model = CountingModel(three_dice)
        with pytest.raises(ValueError, match="margin"):
            optimize_guide(model, dice_tabular_family(), UtilityConfig(), budget=5, seed=1, accept_margin=math.nan)
        assert model.calls == 0

    def test_empty_dice_table_already_samples_the_posterior(self, dice_pe):
        # Uniform front sites with the forced completion accept exactly the
        # 15 valid (d1, d2) prefixes, uniformly: the floor is met from the
        # start, and the k = 0 search must merely not drift away from it.
        prof = exact_guided_profile(dice_pe, dice_tabular_family().bind({}))
        assert prof.acceptance_rate == pytest.approx(15 / 36, abs=1e-12)
        assert prof.adjusted_fe == pytest.approx(DICE_FE_TARGET, abs=1e-9)

    def test_margin_keeps_short_search_near_the_floor(self, dice_pe):
        family = dice_tabular_family()
        report = optimize_guide(
            three_dice, family, UtilityConfig(), budget=300, seed=11, n=250, accept_margin=0.05
        )
        prof = exact_guided_profile(dice_pe, family.bind(report.best_params))
        assert prof.adjusted_fe - DICE_FE_TARGET < 0.4

    def test_impatient_search_raises_acceptance(self, dice_pe):
        # With k > 0 the initial table pays ~36/15 runs per accepted sample;
        # learning die1/die2 tables concentrates on valid prefixes.
        family = dice_tabular_family()
        cfg = UtilityConfig(k=1.0)
        report = optimize_guide(
            three_dice, family, cfg, budget=400, seed=11, n=250, accept_margin=0.1
        )
        initial = exact_guided_profile(dice_pe, family.bind({}))
        learned = exact_guided_profile(dice_pe, family.bind(report.best_params))
        assert learned.acceptance_rate > initial.acceptance_rate
        cost = lambda p: p.mean_events_per_run / p.acceptance_rate
        assert learned.adjusted_fe + cost(learned) < initial.adjusted_fe + cost(initial)

    def test_forced_sites_are_not_credited_to_cells(self):
        # The initial table proposes the prior at die1 and die2, so every
        # cell's mean contribution is 0; the forced die3 costs log 6 but
        # reads no cell.
        report = optimize_guide(three_dice, dice_tabular_family(), UtilityConfig(), budget=1, seed=2, n=120)
        assert report.cell_mean_fe == {"die1": 0.0, **{f"die2|{d}": 0.0 for d in range(1, 6)}}

    def test_cell_fe_profile_present(self):
        family = dice_tabular_family()
        report = optimize_guide(three_dice, family, UtilityConfig(), budget=40, seed=2, n=120)
        assert "die1" in report.cell_mean_fe
        assert all(math.isfinite(v) for v in report.cell_mean_fe.values())


class TestPointFamily:
    def test_degenerates_to_maximum_likelihood_path_search(self, dice_pe):
        # Single-point guides make every run follow one path; the best such
        # path has free energy -log(P(x) * 1) = log 216, strictly worse
        # than the posterior guide's log(216/15).
        family = dice_point_family()
        report = optimize_guide(
            three_dice, family, UtilityConfig(k=1.0), budget=400, seed=5, n=150, accept_margin=0.02
        )
        prof = exact_guided_profile(dice_pe, family.bind(report.best_params))
        assert prof.acceptance_rate == pytest.approx(1.0, abs=1e-12)
        assert prof.adjusted_fe == pytest.approx(LN_216, abs=1e-9)
        assert prof.adjusted_fe > DICE_FE_TARGET + 0.5

    def test_guide_is_point_mass_everywhere(self):
        family = dice_point_family()
        guide = family.bind({})
        from guidedppl import run_trace

        t = run_trace(three_dice, guide, 0)
        assert all(len(c.guide) == 1 for c in t.choices)


class TestExprSearch:
    def test_search_reduces_sampling_cost(self):
        # With k > 0 the utility rewards acceptance, so the learned tables
        # must beat the prior-echo table on fresh seeds.
        model = make_expr_model(3)
        from guidedppl.models import expr_tabular_family

        family = expr_tabular_family()
        cfg = UtilityConfig(k=0.02)
        report = optimize_guide(
            model, family, cfg, budget=250, seed=3, n=250, accept_margin=0.05
        )
        u_prior = guide_utility(model, family, {}, cfg, 1500, 99)
        u_best = guide_utility(model, family, report.best_params, cfg, 1500, 99)
        assert u_best < u_prior


class CountingModel:
    """Counts the model runs it is asked for."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def __call__(self, ctx):
        self.calls += 1
        self.model(ctx)


class LoggingFamily:
    """Wraps a guide family and logs, for each `bind`, the table and the
    number of model runs made before it, and each mutated cell's output."""

    def __init__(self, inner, model: CountingModel):
        self.inner = inner
        self.model = model
        self.binds: list[tuple[dict, int]] = []
        self.mutations: list = []

    def bind(self, params):
        self.binds.append((dict(params), self.model.calls))
        return self.inner.bind(params)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def mutate_cell(self, cell, support, rng):
        out = self.inner.mutate_cell(cell, support, rng)
        self.mutations.append(out)
        return out


def _plain(report: SearchReport) -> str:
    """repr of the report with numpy scalars as Python numbers, so the
    text does not depend on numpy's scalar repr."""
    params = {
        k: [x.item() if isinstance(x, np.generic) else x for x in v] if isinstance(v, list) else v
        for k, v in report.best_params.items()
    }
    return repr(dataclasses.replace(report, best_params=params))


# Search reports on random-stream version 2.  dice_point's was recorded
# before evaluation became incremental, when every candidate re-ran all
# n CRN runs; its point guides draw nothing at random.
GOLDEN_CONFIGS = {
    "dice": (three_dice, dice_tabular_family, UtilityConfig(), dict(budget=60, seed=5, n=120)),
    "dice_point": (
        three_dice, dice_point_family, UtilityConfig(k=1.0),
        dict(budget=80, seed=5, n=100, accept_margin=0.02),
    ),
    "dice_k1": (
        three_dice, dice_tabular_family, UtilityConfig(k=1.0),
        dict(budget=100, seed=11, n=150, accept_margin=0.1),
    ),
    "expr3": (
        make_expr_model(3), expr_tabular_family, UtilityConfig(k=0.02),
        dict(budget=60, seed=3, n=100, accept_margin=0.05),
    ),
}

GOLDEN_REPORTS = {
    "dice": (
        "SearchReport(best_params={'die2|5': [-3.489680172252526, -1.5829970226452155, "
        "-2.835711105114495, -0.6247386633166332, -1.865519741386615, -1.642012627937239], 'die2|4': "
        "[0.05862010505406734, -0.19138821394087546, 1.2302713569039145, 0.20686938568622681, "
        "-2.4169183484782506, -1.5466659956978548], 'die2|1': [-2.163146675632077, "
        "-1.5366194774989035, -0.9636501737892486, -3.5633104223524685, -1.549914255556965, "
        "-3.4915329129727297], 'die1': [-3.1145618067533443, -1.7365073692279012, "
        "-2.555324926552548, -3.0806432111525277, -0.4748923732897331, -0.35448550007578844], "
        "'die2|2': [-2.960988261757512, -1.5375969927393636, -2.1000434818174383, "
        "-2.206010465850665, -2.228675682116901, -1.1944111747865929]}, "
        "best_utility=2.5896221283270267, utility_trace=((1, 2.8656791453057933), (6, "
        "2.862992807733791), (7, 2.8215548377018917), (10, 2.8191672257975955), (20, "
        "2.8009941623119463), (21, 2.7866364707446927), (26, 2.718753182273911), (31, "
        "2.668623158953689), (43, 2.5957961484024112), (55, 2.5896221283270267)), evaluations=60, "
        "cell_mean_fe={'die1': -0.7912319764348397, 'die2|1': -1.7073590095581426, 'die2|2': "
        "-0.22659051776217115, 'die2|3': 0.0, 'die2|4': -0.3186648192167687, 'die2|5': "
        "-1.8090966117599439})"
    ),
    "dice_point": (
        "SearchReport(best_params={'2|1,1': 5}, best_utility=9.375278407684164, "
        "utility_trace=((1, inf), (12, 9.375278407684164)), evaluations=80, cell_mean_fe={'0|': "
        "1.7917594692280547, '1|1': 1.7917594692280547, '2|1,1': 1.7917594692280547})"
    ),
    "dice_k1": (
        "SearchReport(best_params={'die1': [-2.499153652905161, -1.9321801602130642, "
        "-1.971938866866344, -2.6890728415671368, -5.070886421783852, -4.889343789539452], 'die2|1': "
        "[0.22898768217274146, -0.6775734626789649, -1.2768150940035619, -0.8285999777097993, "
        "0.14748854773265907, -3.0848986417189765], 'die2|2': [-1.4489494723701142, "
        "-1.1269114060107301, -0.5232140005648866, -0.2920298077946073, -3.622947269741027, "
        "-3.2564406634134375], 'die2|3': [1.5544151618489335, -1.8375482978215065, "
        "-1.4428458557332462, -3.2877411323187546, -2.417204733531398, -2.583214951275403], "
        "'die2|4': [0.9865841382036173, -0.9051174461025726, -3.815431730467734, -3.763870933382357, "
        "-1.9747993462238222, -5.943254270607337]}, best_utility=7.240167463303649, "
        "utility_trace=((1, 10.200534116971733), (13, 9.635379424192251), (17, 9.490571700310419), "
        "(28, 8.977374114492939), (30, 8.676250717425868), (41, 7.947636052032953), (51, "
        "7.651546833317537), (58, 7.546911547154373), (63, 7.438649961967322), (99, "
        "7.240167463303649)), evaluations=100, cell_mean_fe={'die1': 0.42270626771650965, 'die2|1': "
        "0.21743302493657707, 'die2|2': 0.42075619793389946, 'die2|3': 1.4250018644746965, 'die2|4': "
        "0.9970121151440655, 'die2|5': 0.0})"
    ),
    "expr3": (
        "SearchReport(best_params={'prod@er': [-1.2975203532962003, -1.9879785009655655, "
        "-1.595903831806903, -2.630654819353279], 'prod@ell': [-1.8594938862492558, "
        "-2.9703031011998715], 'const@e': [-1.007950782494017, -3.732972284530825, "
        "-2.1902521323438227, -1.308899492271581, -1.6525993664036365, -1.2323430072831343, "
        "-2.8434909612427686, -2.261593392913542, -1.3163007460137315, -4.4012430036612535]}, "
        "best_utility=8.40442191379396, utility_trace=((1, 13.40517018598809), (2, "
        "8.58442191379396), (18, 8.474421913793961), (59, 8.40442191379396)), evaluations=60, "
        "cell_mean_fe={'prod@e': 0.0, 'prod@el': 0.0, 'prod@er': 0.2823989083658156})"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_search_reports(name):
    model, family, cfg, kwargs = GOLDEN_CONFIGS[name]
    assert _plain(optimize_guide(model, family(), cfg, **kwargs)) == GOLDEN_REPORTS[name]


def _reference_search(model, family, cfg, budget, seed, n, accept_margin=0.0):
    """The hill climb with every candidate scored on all n CRN runs."""
    crn = derive_seeds(seed, n, stream=3)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(4,)))
    cells = {}

    def evaluate(params):
        guide = family.bind(params)
        stats = batch_stats(model, guide, crn)
        for key, prior in guide.visited.items():
            if key not in cells:
                cells[key] = (family.cell_init(prior), prior.values)
        try:
            est = estimate_from_batch(stats)
        except NoAcceptedRunsError:
            return math.inf
        if not math.isfinite(est.adjusted_fe):
            return math.inf
        return est.adjusted_fe + cfg.k * (est.total_events / est.n_accepted)

    current = best = {}
    current_u = best_u = evaluate(current)
    evaluations, trace = 1, [(1, best_u)]
    while evaluations < budget and cells:
        keys = sorted(cells)
        key = keys[int(rng.integers(len(keys)))]
        init_cell, support = cells[key]
        cand = dict(current)
        cand[key] = family.mutate_cell(cand.get(key, init_cell), support, rng)
        u = evaluate(cand)
        evaluations += 1
        if u < current_u - accept_margin:
            current, current_u = cand, u
            if u < best_u:
                best, best_u = cand, u
                trace.append((evaluations, u))

    # Credit each choose event of an accepted run to the cell it read;
    # forced sites read no cell.
    sums, counts = {}, {}
    for s in crn:
        t = run_trace(model, family.bind(best), int(s))
        if t.status is not RunStatus.COMPLETED:
            continue
        values = [c.chosen for c in t.choices]
        for event in t.per_event_fe:
            if event.kind != "choose":
                continue
            rec = t.choices[event.index]
            history = tuple(values[: rec.index])
            force = getattr(family, "force", None)
            if force is not None and force(ChoiceSite(rec.index, rec.label, rec.prior, history, ())) is not None:
                continue
            key = family.site_key(rec.index, rec.label, history)
            sums[key] = sums.get(key, 0.0) + event.fe
            counts[key] = counts.get(key, 0) + 1
    profile = {k: sums[k] / counts[k] for k in sorted(sums)}
    return SearchReport(dict(best), best_u, tuple(trace), evaluations, profile)


def _label_key(index, label, history):
    return label


def _history_key(index, label, history):
    return f"{index}|{history}"


@settings(max_examples=20, deadline=None)
@given(
    structure_seed=st.integers(0, 10_000),
    kind=st.sampled_from([TabularGuideFamily, PointGuideFamily]),
    keyed_by=st.sampled_from(["label", "history"]),
    ceiling=st.sampled_from([None, 2.5]),
    k=st.sampled_from([0.0, 0.1]),
    accept_margin=st.sampled_from([0.0, 0.02, 0.2]),
    budget=st.integers(1, 20),
    n=st.integers(1, 25),
    seed=st.integers(0, 2**31),
)
def test_incremental_search_matches_full_reevaluation(
    structure_seed, kind, keyed_by, ceiling, k, accept_margin, budget, n, seed
):
    # Label keys share a cell between sites whose priors differ, so a
    # guide's per-key cache must rebuild a key's proposal when the prior
    # changes; tabular cells then crash on a support of another size, and
    # point cells may leave the prior's support.  History keys give every
    # prefix its own cell.
    model = make_hashed_model(structure_seed)
    site_key = _label_key if keyed_by == "label" else _history_key
    family = kind(site_key, ceiling=ceiling)
    kwargs = dict(budget=budget, seed=seed, n=n, accept_margin=accept_margin)
    got = optimize_guide(model, family, UtilityConfig(k=k), **kwargs)
    want = _reference_search(model, family, UtilityConfig(k=k), **kwargs)
    assert repr(got) == repr(want)


@pytest.mark.parametrize(
    "family, params",
    [
        (TabularGuideFamily(_label_key), {"s1": [0.5, -1.0, 2.0], "s2": [1.0, 0.0, -0.5], "s3": [0.0, 3.0, 1.0]}),
        # A point guide follows one path, so its sites share one key.
        (PointGuideFamily(lambda index, label, history: "all"), {}),
    ],
)
def test_cached_proposals_follow_the_site_prior(family, params):
    # The key is shared by sites whose priors differ; a guide reused
    # across runs must rebuild a key's proposal for each new prior.
    # Tabular cells of the wrong size crash the run at that site.
    model = make_hashed_model(7)
    guide = family.bind(params)
    checked = 0
    for s in range(40):
        for c in run_trace(model, guide, s).choices:
            want = family.cell_dist(c.prior, params.get(family.site_key(c.index, c.label, ())))
            assert c.guide == (c.prior if want is None else want)
            checked += want is not None
    assert checked >= 30


def _runs_per_evaluation(family: LoggingFamily, evaluations: int) -> list[int]:
    # One bind per evaluation and no runs after the last one: the cell
    # profile comes from the records.
    assert len(family.binds) == evaluations
    marks = [calls for _, calls in family.binds]
    return [b - a for a, b in zip(marks, marks[1:] + [family.model.calls])]


@pytest.mark.parametrize(
    "make_model, make_family, cfg, kwargs",
    [
        (lambda: three_dice, dice_tabular_family, UtilityConfig(k=1.0),
         dict(budget=40, seed=2, n=60, accept_margin=0.05)),
        (lambda: make_expr_model(2), expr_tabular_family, UtilityConfig(k=0.02),
         dict(budget=40, seed=4, n=60, accept_margin=0.05)),
    ],
)
def test_candidate_reruns_only_runs_that_read_the_mutated_cell(make_model, make_family, cfg, kwargs):
    model = CountingModel(make_model())
    inner = make_family()
    family = LoggingFamily(inner, model)
    report = optimize_guide(model, family, cfg, **kwargs)
    runs = _runs_per_evaluation(family, report.evaluations)
    assert runs[0] == kwargs["n"]
    crn = derive_seeds(kwargs["seed"], kwargs["n"], stream=3)
    saved = 0
    for j in range(1, report.evaluations):
        params = family.binds[j][0]
        (key,) = [k for k, v in params.items() if v is family.mutations[j - 1]]
        # A run takes the same path under the candidate as under the
        # incumbent up to its first read of the mutated cell, so the runs
        # that read it are the same under both tables.
        reads = 0
        for s in crn:
            guide = inner.bind(params)
            run_trace(model.model, guide, int(s))
            reads += key in guide.visited
        assert runs[j] == reads, (j, key)
        saved += kwargs["n"] - reads
    assert saved > 0


def test_rejected_candidate_cells_join_the_pool():
    # Site "b" is reached only when "a" is 1, which the evidence punishes:
    # the one table that reaches it is rejected, yet "b" must enter the
    # pool and get mutated later, with no run to redo.
    def model(ctx):
        if ctx.choose(uniform_range(0, 1), label="a") == 1:
            ctx.choose(uniform_range(0, 1), label="b")
            ctx.evidence(0.1)

    counting = CountingModel(model)
    family = LoggingFamily(PointGuideFamily(_label_key), counting)
    report = optimize_guide(counting, family, UtilityConfig(), budget=30, seed=1, n=10)
    assert report.best_params == {}
    runs = _runs_per_evaluation(family, report.evaluations)
    tables = [params for params, _ in family.binds[: report.evaluations]]
    reached_b = [j for j, params in enumerate(tables) if params.get("a") == 1]
    mutated_b = [j for j, params in enumerate(tables) if "b" in params]
    assert reached_b and mutated_b and reached_b[0] < mutated_b[0]
    assert all(runs[j] == 0 for j in mutated_b)
