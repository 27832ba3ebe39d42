"""Parameterized guide families and utility-driven guide search.

A guide family maps choice sites to table cells through a `site_key`
function; each cell holds unnormalized logits over the site's prior
support.  The bound guide blends the softmax of the cell with the prior
(`mixing` weight toward the prior keeps every prior-possible value
reachable), and unknown cells fall back to the prior unchanged.  Sites
can also be structurally forced to a computed value, which removes them
from the search space.

Guides are scored by

    U = adjusted free energy + k * (events executed / accepted runs)

with impatience constant k >= 0 and time measured in abstract runtime
events (choose + evidence calls) so that utilities are machine
independent.  `optimize_guide` is stochastic hill climbing over single
cells with common random numbers: every candidate is evaluated on the
same fixed seed set, so two evaluations differ only through the guides'
distributions and comparisons are repeatable.  A candidate differs from
the incumbent in one cell, so only the runs that read that cell are run
again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .dists import Dist, Value, point_mass
from .estimators import (
    NoAcceptedRunsError,
    TraceSummary,
    estimate_from_batch,
    stats_from_summaries,
    summarize_trace,
)
from .runtime import (
    ChoiceSite,
    DEFAULT_MAX_EVENTS,
    Guide,
    ModelProgram,
    derive_seeds,
    run_trace,
)

SiteKey = Callable[[int, Optional[str], tuple[Value, ...]], str]


@dataclass(frozen=True, slots=True)
class UtilityConfig:
    """Impatience constant k and the unit in which sampling cost is
    measured (only abstract runtime events are supported)."""

    k: float = 0.0
    time_unit: str = "events"

    def __post_init__(self):
        if self.k < 0.0:
            raise ValueError("impatience constant k must be nonnegative")
        if self.time_unit != "events":
            raise ValueError(f"unsupported time unit {self.time_unit!r}")


@dataclass(frozen=True, slots=True)
class SearchReport:
    best_params: dict
    best_utility: float
    utility_trace: tuple[tuple[int, float], ...]  # (evaluation index, best so far)
    evaluations: int
    cell_mean_fe: dict  # mean per-choose free-energy contribution by cell key


def _softmax(logits: Sequence[float]) -> list[float]:
    top = max(logits)
    exps = [math.exp(l - top) for l in logits]
    total = math.fsum(exps)
    return [e / total for e in exps]


class TabularGuide(Guide):
    """A guide family bound to a concrete parameter table."""

    def __init__(self, family: "TabularGuideFamily", params: Mapping[str, Sequence[float]]):
        self.family = family
        self.params = dict(params)
        self.ceiling = family.ceiling
        self.visited: dict[str, Dist] = {}  # site key -> prior, for discovery
        self.lookups: list[tuple[int, str]] = []  # (site index, site key), this run
        self._dist_cache: dict[str, tuple[Dist, Dist]] = {}
        self._point_cache: dict[Value, Dist] = {}

    def begin(self, ctx) -> None:
        self.lookups = []

    def propose(self, site: ChoiceSite) -> Optional[Dist]:
        family = self.family
        if family.force is not None:
            forced = family.force(site)
            if forced is not None:
                d = self._point_cache.get(forced)
                if d is None:
                    d = point_mass(forced)
                    self._point_cache[forced] = d
                return d
        key = family.site_key(site.index, site.label, site.history)
        if key not in self.visited:
            self.visited[key] = site.prior
        self.lookups.append((site.index, key))
        logits = self.params.get(key)
        if logits is None:
            return None  # unknown cell: keep the prior
        cached = self._dist_cache.get(key)
        if cached is not None and (cached[0] is site.prior or cached[0] == site.prior):
            return cached[1]
        d = self._mixed(site.prior, logits)
        self._dist_cache[key] = (site.prior, d)
        return d

    def _mixed(self, prior: Dist, logits: Sequence[float]) -> Dist:
        if len(logits) != len(prior):
            raise ValueError(
                f"cell has {len(logits)} logits for a support of {len(prior)}"
            )
        mix = self.family.mixing
        soft = _softmax(logits)
        masses = [mix * pm + (1.0 - mix) * sm for pm, sm in zip(prior.masses, soft)]
        return Dist(prior.values, masses)


@dataclass
class TabularGuideFamily:
    """Softmax tables over prior supports, keyed by choice site.

    `mixing` blends each table cell toward the prior, guaranteeing
    absolute continuity with respect to the prior while still allowing
    near-point-mass cells.  `force` (optional) returns a value to pin a
    site to, or None to leave the site to the table.
    """

    site_key: SiteKey
    mixing: float = 0.01
    ceiling: Optional[float] = None
    force: Optional[Callable[[ChoiceSite], Optional[Value]]] = None

    def __post_init__(self):
        if not 0.0 <= self.mixing <= 1.0:
            raise ValueError("mixing must be in [0, 1]")

    def bind(self, params: Mapping[str, Sequence[float]]) -> TabularGuide:
        return TabularGuide(self, params)

    def cell_init(self, prior: Dist) -> list[float]:
        # Log-prior logits make the initial cell reproduce the prior
        # exactly (softmax inverts the log, and mixing blends prior with
        # prior), so search starts from the unguided model.
        return [math.log(m) for m in prior.masses]

    def mutate_cell(self, cell: Sequence[float], support: tuple, rng: np.random.Generator, sigma: float) -> list[float]:
        noise = rng.normal(0.0, sigma, len(cell))
        return [c + z for c, z in zip(cell, noise)]


class PointGuide(Guide):
    """Single-point distributions at every site: the table's value where
    set, the prior's highest-mass value otherwise."""

    def __init__(self, family: "PointGuideFamily", params: Mapping[str, Value]):
        self.family = family
        self.params = dict(params)
        self.ceiling = family.ceiling
        self.visited: dict[str, Dist] = {}
        self.lookups: list[tuple[int, str]] = []
        self._point_cache: dict[Value, Dist] = {}

    def begin(self, ctx) -> None:
        self.lookups = []

    def propose(self, site: ChoiceSite) -> Optional[Dist]:
        key = self.family.site_key(site.index, site.label, site.history)
        if key not in self.visited:
            self.visited[key] = site.prior
        self.lookups.append((site.index, key))
        v = self.params.get(key)
        if v is None:
            v = self.family.cell_init(site.prior)
        d = self._point_cache.get(v)
        if d is None:
            d = point_mass(v)
            self._point_cache[v] = d
        return d


@dataclass
class PointGuideFamily:
    """Deterministic guides: exactly one value per site, so every run
    follows a single path.  Searching this family degenerates into
    maximum-likelihood search for one execution path; pair it with a
    ceiling so paths that kill the evidence are rejected rather than
    scored +inf."""

    site_key: SiteKey
    ceiling: Optional[float] = None

    def bind(self, params: Mapping[str, Value]) -> PointGuide:
        return PointGuide(self, params)

    def cell_init(self, prior: Dist) -> Value:
        i = max(range(len(prior)), key=lambda j: prior.masses[j])
        return prior.values[i]

    def mutate_cell(self, cell: Value, support: tuple, rng: np.random.Generator, sigma: float) -> Value:
        return support[int(rng.integers(len(support)))]


class _Run(NamedTuple):
    """One CRN run under a bound guide: its batch row, the cells it looked
    up in event order, and, if accepted, the free-energy contribution of
    each of those choices."""

    row: TraceSummary
    keys: tuple[str, ...]
    fes: tuple[float, ...]  # empty for rejected runs


def _run_all(model: ModelProgram, guide: Guide, seeds, max_events: int) -> list[_Run]:
    runs = []
    for s in seeds:
        t = run_trace(model, guide, int(s), max_events=max_events)
        row = summarize_trace(t)
        lookups = guide.lookups  # begin() started a fresh list for this run
        fes: tuple[float, ...] = ()
        if t.completed:
            choose_fe = [e.fe for e in t.per_event_fe if e.kind == "choose"]
            fes = tuple(choose_fe[i] for i, _ in lookups)
        runs.append(_Run(row, tuple(key for _, key in lookups), fes))
    return runs


def _utility(seeds: np.ndarray, runs: Sequence[_Run], cfg: UtilityConfig) -> float:
    """Fold seed-ordered runs into U; +inf when no run is accepted."""
    stats = stats_from_summaries(seeds, (r.row for r in runs))
    try:
        est = estimate_from_batch(stats)
    except NoAcceptedRunsError:
        return math.inf  # searchable sentinel, not an exception
    if not math.isfinite(est.adjusted_fe):
        return math.inf
    return est.adjusted_fe + cfg.k * (est.total_events / est.n_accepted)


def _utility_on_seeds(
    model: ModelProgram,
    guide: Guide,
    seeds: np.ndarray,
    cfg: UtilityConfig,
    max_events: int,
) -> float:
    return _utility(seeds, _run_all(model, guide, seeds, max_events), cfg)


def guide_utility(
    model: ModelProgram,
    family,
    params: Mapping,
    cfg: UtilityConfig,
    n: int,
    seed: int,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> float:
    """U = adjusted free energy + k * (events per accepted run), estimated
    from n guided runs; +inf when no run is accepted."""
    if n < 1:
        raise ValueError("need at least one run")
    return _utility_on_seeds(model, family.bind(params), derive_seeds(seed, n), cfg, max_events)


def _key_index(runs: Sequence[_Run]) -> dict[str, list[int]]:
    """Cell key -> positions of the runs that looked it up, ascending."""
    index: dict[str, list[int]] = {}
    for i, run in enumerate(runs):
        for key in run.keys:
            readers = index.setdefault(key, [])
            if not readers or readers[-1] != i:
                readers.append(i)
    return index


def optimize_guide(
    model: ModelProgram,
    family,
    cfg: UtilityConfig,
    budget: int,
    seed: int,
    n: int = 300,
    sigma: float = 1.0,
    accept_margin: float = 0.0,
    restart_after: Optional[int] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> SearchReport:
    """Stochastic hill climbing over single table cells.

    Every candidate is scored on one fixed seed set (common random
    numbers), so the objective is a deterministic surrogate of the true
    utility and acceptance decisions are repeatable.  Cells are
    discovered as runs visit new sites; a proposal perturbs one cell of
    the current table and is accepted when it improves on the incumbent
    by more than `accept_margin` (a nonzero margin stops the climb from
    chasing quirks of the fixed seed set; only accepted tables are ever
    reported).  With `restart_after`, a stretch of that many rejected
    proposals resets the climb to the initial table (the best accepted
    table is kept).

    Evaluation is incremental.  The family's bound guides must propose
    at a site from the site and that site's cell alone, so a run is a
    function of its seed and the cells it looks up; they list a run's
    lookups in `lookups` (cleared by `begin`) and each key's first prior
    in `visited`.  A candidate differs from the incumbent in one cell, so
    only the CRN runs that looked up that cell are run again; the others
    keep their recorded rows, and the utility is folded from all n rows
    in seed order.
    """
    if budget < 1:
        raise ValueError("need at least one evaluation")
    if n < 1:
        raise ValueError("need at least one run")
    if not sigma >= 0.0:
        raise ValueError("mutation scale sigma must be nonnegative")
    if accept_margin < 0.0:
        raise ValueError("accept margin must be nonnegative")
    crn = derive_seeds(seed, n, stream=3)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(4,)))

    cells: dict[str, tuple] = {}  # key -> (init cell, support values)

    def discover(guide) -> None:
        # A guide runs its seeds in order, so each new cell takes the
        # prior of its first lookup.
        for key, prior in guide.visited.items():
            if key not in cells:
                cells[key] = (family.cell_init(prior), prior.values)

    initial: dict = {}
    guide = family.bind(initial)
    initial_runs = _run_all(model, guide, crn, max_events)
    discover(guide)
    initial_u = _utility(crn, initial_runs, cfg)
    initial_index = _key_index(initial_runs)
    current, current_u, current_runs, current_index = initial, initial_u, initial_runs, initial_index
    best, best_u, best_runs = initial, initial_u, initial_runs
    evaluations = 1
    trace = [(1, best_u)]
    stall = 0

    while evaluations < budget and cells:
        keys = sorted(cells)
        key = keys[int(rng.integers(len(keys)))]
        init_cell, support = cells[key]
        cand = dict(current)
        cand[key] = family.mutate_cell(cand.get(key, init_cell), support, rng, sigma)
        affected = current_index.get(key, [])
        guide = family.bind(cand)
        rerun = _run_all(model, guide, [crn[i] for i in affected], max_events)
        discover(guide)
        runs = list(current_runs)
        for i, run in zip(affected, rerun):
            runs[i] = run
        u = _utility(crn, runs, cfg)
        evaluations += 1
        if u < current_u - accept_margin:
            current, current_u, current_runs, current_index = cand, u, runs, _key_index(runs)
            stall = 0
            if u < best_u:
                best, best_u, best_runs = cand, u, runs
                trace.append((evaluations, u))
        else:
            stall += 1
        if restart_after is not None and stall >= restart_after:
            current, current_u, current_runs, current_index = initial, initial_u, initial_runs, initial_index
            stall = 0

    return SearchReport(
        best_params=dict(best),
        best_utility=best_u,
        utility_trace=tuple(trace),
        evaluations=evaluations,
        cell_mean_fe=_cell_fe_profile(best_runs),
    )


def _cell_fe_profile(runs: Sequence[_Run]) -> dict:
    """Mean per-choose free-energy contribution by cell over the accepted
    runs of a table: credit and blame for the search's result.  Only
    choices at sites that looked up a cell are credited (a forced site
    reads no cell), summed in seed order and then event order."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for run in runs:
        for key, fe in zip(run.keys, run.fes):
            sums[key] = sums.get(key, 0.0) + fe
            counts[key] = counts.get(key, 0) + 1
    return {k: sums[k] / counts[k] for k in sorted(sums)}
