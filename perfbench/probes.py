"""Per-layer probes: timed calls into the public functions of each module.

Every probe runs a fixed amount of work whose inputs derive from the
workload seed, so the counts it reports repeat exactly for a seed.
Timings are medians over repeats.  README.md maps each metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from guidedppl import cli, dists, enumeration, estimators, guideopt, models, runtime
from guidedppl.runtime import ChoiceSite, Guide, PriorGuide, RunStatus

import workloads


class CountingModel:
    """Model program wrapper that counts how often the model is run."""

    def __init__(self, model):
        self.model = model
        self.calls = 0

    def __call__(self, ctx):
        self.calls += 1
        return self.model(ctx)


class CountingGuide(Guide):
    """Guide wrapper that counts `propose` calls."""

    def __init__(self, inner: Guide):
        self.inner = inner
        self.ceiling = inner.ceiling
        self.propose_calls = 0

    def begin(self, ctx):
        self.inner.begin(ctx)

    def propose(self, site):
        self.propose_calls += 1
        return self.inner.propose(site)


@dataclass(frozen=True)
class ProbeSize:
    loop: int  # calls per timing of a sub-microsecond function
    dice_traces: int
    expr_traces: int
    monkey_traces: dict  # length -> traces per timing
    repeats: int
    expr_cap: int
    search_budget: int
    dice_eval_n: int
    expr_eval_n: int
    workers_n: int


SIZES = {
    "full": ProbeSize(loop=20000, dice_traces=4000, expr_traces=4000,
                      monkey_traces={100: 100, 1000: 12, 4000: 3}, repeats=5, expr_cap=3,
                      search_budget=10, dice_eval_n=400, expr_eval_n=250, workers_n=20000),
    "tiny": ProbeSize(loop=200, dice_traces=50, expr_traces=50,
                      monkey_traces={100: 2, 1000: 1, 4000: 1}, repeats=1, expr_cap=2,
                      search_budget=2, dice_eval_n=20, expr_eval_n=20, workers_n=200),
}


def _median_time(fn, repeats: int) -> float:
    """Median wall time of fn() over repeats, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Probes:
    """Runs every probe; `metrics` maps name -> (value, unit) and
    `errors` lists failed probe checks."""

    def __init__(self, seed: int, scale: str):
        self.size = SIZES[scale]
        self.scale = scale
        self.seed = seed
        self.metrics: dict[str, tuple[float, str]] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.notes: list[str] = []

    def _put(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def _check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.errors.append(message)

    def _seeds(self, n: int, stream: int) -> list[int]:
        rng = np.random.default_rng([self.seed, stream])
        return [int(s) for s in rng.integers(0, 2**63, size=n)]

    def run_all(self) -> None:
        self.dists_probe()
        self.runtime_probe()
        self.estimators_probe()
        self.enumeration_probe()
        self.guideopt_probe()
        self.models_probe()
        self.cli_probe()

    # -- dists ---------------------------------------------------------

    def dists_probe(self):
        z = self.size
        rng = np.random.default_rng(self._seeds(1, 1))
        d6 = dists.uniform_range(1, 6)
        d26 = dists.Dist(tuple("abcdefghijklmnopqrstuvwxyz"), (1 / 26,) * 26)
        for tag, d in (("d6", d6), ("d26", d26)):
            values = [d.values[i % len(d)] for i in range(z.loop)]

            def sample(d=d):
                for _ in range(z.loop):
                    d.sample(rng)

            def log_prob(d=d, values=values):
                for v in values:
                    d.log_prob(v)

            self._put(f"dists.sample_ns.{tag}", _median_time(sample, z.repeats) / z.loop * 1e9, "ns")
            self._put(f"dists.log_prob_ns.{tag}", _median_time(log_prob, z.repeats) / z.loop * 1e9, "ns")
        values, masses = d6.values, d6.masses
        n = max(1, z.loop // 10)

        def construct():
            for _ in range(n):
                dists.Dist(values, masses)

        self._put("dists.construct_us", _median_time(construct, z.repeats) / n * 1e6, "us")

    # -- runtime -------------------------------------------------------

    def _time_traces(self, model, guide, seeds):
        """Median time to run one trace per seed, and the traces' statuses
        and event counts (the traces themselves are not kept)."""
        out = []

        def go():
            out[:] = []
            for s in seeds:
                t = runtime.run_trace(model, guide, s)
                out.append((t.status, t.n_events))

        return _median_time(go, self.size.repeats), out

    def runtime_probe(self):
        z = self.size
        dice_seeds = self._seeds(z.dice_traces, 2)
        expr_seeds = self._seeds(z.expr_traces, 3)

        def seed_all():
            for s in dice_seeds:
                np.random.default_rng(s)

        self._put("runtime.seed_us", _median_time(seed_all, z.repeats) / len(dice_seeds) * 1e6, "us")

        dice_guide = PriorGuide(ceiling=500.0)  # the CLI's prior_reject
        t, dice = self._time_traces(models.three_dice, dice_guide, dice_seeds)
        self._put("runtime.trace_us.dice", t / len(dice_seeds) * 1e6, "us")
        expr_model = models.make_expr_model(z.expr_cap)
        t, expr = self._time_traces(expr_model, PriorGuide(), expr_seeds)
        self._put("runtime.trace_us.expr", t / len(expr_seeds) * 1e6, "us")

        traces = dice + expr
        status = [st for st, _ in traces]
        completed = status.count(RunStatus.COMPLETED)
        self._put("runtime.traces", len(traces), "count")
        self._put("runtime.events", sum(ev for _, ev in traces), "count")
        self._put("runtime.rejected_threshold", status.count(RunStatus.REJECTED_THRESHOLD), "count")
        self._put("runtime.rejected_crash", status.count(RunStatus.REJECTED_CRASH), "count")
        self._put("runtime.accept_ratio", completed / len(traces), "ratio")
        dice_acc = [st for st, _ in dice].count(RunStatus.COMPLETED) / len(dice)
        se = math.sqrt(15 / 216 * (1 - 15 / 216) / len(dice))
        self._check(abs(dice_acc - 15 / 216) <= 8 * se, f"dice acceptance {dice_acc} far from 15/216")

        for length, n in z.monkey_traces.items():
            model = models.make_monkey_model(2, length, "aba")
            guide = models.PatternInsertGuide(2, length, "aba")
            t, ts = self._time_traces(model, guide, self._seeds(n, 10 + length))
            events = sum(ev for _, ev in ts)
            self._check(events == n * (length + 1), f"monkey length {length}: {events} events")
            self._put(f"runtime.event_us.len{length}", t / events * 1e6, "us")

        n_seeds = 1000

        def derive():
            runtime.derive_seeds(self.seed, n_seeds)

        reps = max(1, z.loop // 1000)
        self._put("runtime.derive_seeds_us",
                  _median_time(lambda: [derive() for _ in range(reps)], z.repeats) / reps * 1e6, "us")

    # -- estimators ----------------------------------------------------

    def estimators_probe(self):
        z = self.size
        seeds = self._seeds(z.dice_traces, 2)  # the dice seeds timed in runtime_probe
        guide = PriorGuide(ceiling=500.0)
        batch, alone, stats = [], [], None
        # Alternate the two loops so a drift in machine speed hits both.
        for _ in range(z.repeats):
            t0 = perf_counter()
            stats = estimators.batch_stats(models.three_dice, guide, seeds)
            t1 = perf_counter()
            for s in seeds:
                runtime.run_trace(models.three_dice, guide, s)
            t2 = perf_counter()
            batch.append(t1 - t0)
            alone.append(t2 - t1)
        self._put("estimators.batch_stats_us", statistics.median(batch) / len(seeds) * 1e6, "us")
        self._put("estimators.self_us",
                  statistics.median(b - a for b, a in zip(batch, alone)) / len(seeds) * 1e6, "us")
        w = np.concatenate([stats.weight_evidence] * max(1, 10000 // len(seeds)))
        reps = 20
        t = _median_time(lambda: [estimators.lower_confidence_bound(w, 0.05) for _ in range(reps)], z.repeats)
        self._put("estimators.dkw_ms", t / reps * 1e3, "ms")

    # -- enumeration ---------------------------------------------------

    def enumeration_probe(self):
        """One oracle pass on expr, timed with the counting wrappers in place."""
        z = self.size
        model = CountingModel(models.make_expr_model(z.expr_cap))
        guide = CountingGuide(PriorGuide(ceiling=10.0))
        t0 = perf_counter()
        pe = enumeration.enumerate_paths(model)
        t1 = perf_counter()
        enum_calls = model.calls
        report = enumeration.exact_free_energy(pe, guide)
        t2 = perf_counter()
        profile = enumeration.exact_guided_profile(pe, guide)
        t3 = perf_counter()
        self._put("enumeration.enumerate_s", t1 - t0, "s")
        self._put("enumeration.free_energy_s", t2 - t1, "s")
        self._put("enumeration.profile_s", t3 - t2, "s")
        self._put("enumeration.model_calls", model.calls, "count")
        self._put("enumeration.propose_calls", guide.propose_calls, "count")
        self._put("enumeration.paths", len(pe.entries), "count")
        self.notes.append(f"enumeration: {enum_calls} model runs to enumerate "
                          f"({enum_calls - len(pe.entries)} internal nodes), "
                          f"{model.calls - enum_calls} to replay the guide")
        expected = workloads.SCALES[self.scale].expr_paths
        self._check(len(pe.entries) == expected, f"{len(pe.entries)} paths, expected {expected}")
        evidence = enumeration.exact_evidence(pe)
        self._check(abs(profile.acceptance_rate - evidence) <= 1e-12,
                    f"profile acceptance {profile.acceptance_rate} != evidence {evidence}")
        self._check(report.free_energy == math.inf, "prior guide free energy should be inf")

    # -- guideopt ------------------------------------------------------

    def guideopt_probe(self):
        z = self.size
        family = models.dice_tabular_family()
        cfg = guideopt.UtilityConfig(k=0.0)
        reps = 5
        t = _median_time(
            lambda: [guideopt.guide_utility(models.three_dice, family, {}, cfg, z.dice_eval_n, self.seed)
                     for _ in range(reps)], z.repeats)
        self._put("guideopt.eval_ms", t / reps * 1e3, "ms")

        d6 = dists.uniform_range(1, 6)
        guide = family.bind({"die1": [0.5, 0.1, 0.0, -0.2, 0.3, 0.0],
                             "die2|3": [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]})
        sites = [ChoiceSite(0, "die1", d6, (), ()), ChoiceSite(1, "die2", d6, (3,), ())]
        n = z.loop

        def propose():
            for i in range(n):
                guide.propose(sites[i & 1])

        self._put("guideopt.propose_us", _median_time(propose, z.repeats) / n * 1e6, "us")

        model = CountingModel(models.three_dice)
        rep = guideopt.optimize_guide(model, family, cfg, budget=z.search_budget, seed=self.seed,
                                      n=z.dice_eval_n, accept_margin=0.05)
        self._put("guideopt.traces_per_eval", model.calls / rep.evaluations, "count")

        self._put("guideopt.mutation_reach.dice",
                  self._mutation_reach(models.three_dice, family, z.dice_eval_n), "ratio")
        self._put("guideopt.mutation_reach.expr",
                  self._mutation_reach(models.make_expr_model(z.expr_cap), models.expr_tabular_family(),
                                       z.expr_eval_n), "ratio")

    def _mutation_reach(self, model, family, n) -> float:
        """Mean over the cells the initial table discovers of the share of
        CRN runs that visit the cell: the share of runs a one-cell
        mutation can change."""
        visits: dict[str, int] = {}
        for s in runtime.derive_seeds(self.seed, n, stream=3):
            guide = family.bind({})
            runtime.run_trace(model, guide, int(s))
            for key in guide.visited:
                visits[key] = visits.get(key, 0) + 1
        return statistics.fmean(v / n for v in visits.values())

    # -- models --------------------------------------------------------

    def models_probe(self):
        z = self.size
        d6 = dists.uniform_range(1, 6)
        posterior = models.DicePosteriorGuide()
        sites = [ChoiceSite(0, "die1", d6, (), ()), ChoiceSite(1, "die2", d6, (2,), ()),
                 ChoiceSite(2, "die3", d6, (2, 3), ())]
        n = z.loop

        def post():
            for i in range(n):
                posterior.propose(sites[i % 3])

        self._put("models.propose_us.posterior", _median_time(post, z.repeats) / n * 1e6, "us")

        char = dists.Dist(("a", "b"), (0.5, 0.5))
        insert = models.PatternInsertGuide(2, 4000, "aba")
        y = 1000
        monkey_sites = [ChoiceSite(y - 1 + i, None, char, (), (y,)) for i in range(5)]

        def pattern():
            for i in range(n):
                insert.propose(monkey_sites[i % 5])

        self._put("models.propose_us.pattern_insert", _median_time(pattern, z.repeats) / n * 1e6, "us")
        t = _median_time(lambda: models.monkey_evidence_dp(2, 4000, "aba"), z.repeats)
        self._put("models.monkey_dp_ms", t * 1e3, "ms")

    # -- cli -----------------------------------------------------------

    def cli_probe(self):
        z = self.size
        code, out = _call(["trace", "--model", "monkey", "--guide", "pattern_insert",
                           "--length", "4000", "--seed", str(self.seed)])
        self._check(code == 0, f"trace call exited {code}")
        doc = json.loads(out)
        dumped = []
        t = _median_time(lambda: dumped.append(cli.dumps(doc)), z.repeats)
        self._check(json.loads(dumped[-1]) == doc, "dumps does not round-trip the trace document")
        self._put("cli.dumps_ms", t * 1e3, "ms")

        argv = ["run", "--model", "three_dice", "--guide", "prior_reject",
                "--n", str(z.workers_n), "--seed", str(self.seed)]
        timed = {}
        for workers in (1, 2):
            t0 = perf_counter()
            code, out = _call(argv + ["--workers", str(workers)])
            timed[workers] = (perf_counter() - t0, code, json.loads(out)["results"] if code == 0 else None)
        self._check(timed[1][1] == 0 and timed[2][1] == 0, "workers run exited nonzero")
        self._check(timed[1][2] == timed[2][2], "--workers 2 results differ from --workers 1")
        self._put("cli.workers2_speedup", timed[1][0] / timed[2][0], "ratio")


def _call(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()
