"""Parameterized guide families and utility-driven guide search.

A guide family maps choice sites to table cells through a `site_key`
function and binds a parameter table (cell key -> cell) to a
`TableGuide`.  The family turns a site's prior and its cell into the
proposal: a tabular cell holds unnormalized logits over the prior's
support, and the bound guide blends their softmax with the prior (a
fixed `MIXING` weight toward the prior keeps every prior-possible value
reachable; unknown cells fall back to the prior unchanged); a point cell
holds the single value to propose.  Sites can also be structurally
forced to a computed value, which removes them from the search space.

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
from typing import Callable, ClassVar, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .dists import Dist, Value, point_mass
from .estimators import (
    NoAcceptedRunsError,
    TraceSummary,
    estimate_from_batch,
    stats_from_summaries,
    summarize_run,
)
from .runtime import (
    ChoiceSite,
    DEFAULT_MAX_EVENTS,
    Guide,
    ModelProgram,
    RunStatus,
    _run_batch,
    _RunState,
    _SeededRuns,
    derive_seeds,
)

SiteKey = Callable[[int, Optional[str], tuple[Value, ...]], str]

MIXING = 0.01  # weight of the prior in every tabular proposal


@dataclass(frozen=True, slots=True)
class UtilityConfig:
    """Impatience constant k; sampling cost is counted in runtime events."""

    k: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.k < math.inf:
            raise ValueError("impatience constant k must be finite and nonnegative")


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


class TableGuide(Guide):
    """A guide family bound to a concrete parameter table.

    A proposal depends only on the site's prior and its cell, so each
    key's distribution is cached with the prior it was built for.  The
    guide lists a run's `(site index, key)` lookups in `lookups` (cleared
    by `begin`; forced sites read no cell) and keeps each key's first
    prior in `visited`, which `optimize_guide` needs."""

    def __init__(self, family, params: Mapping):
        self.family = family
        self.params = dict(params)
        self.ceiling = family.ceiling
        self.visited: dict[str, Dist] = {}
        self.lookups: list[tuple[int, str]] = []
        self._cache: dict[str, tuple[Dist, Optional[Dist]]] = {}
        self._forced: dict[Value, Dist] = {}

    def begin(self, ctx) -> None:
        self.lookups = []

    def propose(self, site: ChoiceSite) -> Optional[Dist]:
        family = self.family
        if family.force is not None:
            forced = family.force(site)
            if forced is not None:
                d = self._forced.get(forced)
                if d is None:
                    d = self._forced[forced] = point_mass(forced)
                return d
        key = family.site_key(site.index, site.label, site.history)
        prior = site.prior
        if key not in self.visited:
            self.visited[key] = prior
        self.lookups.append((site.index, key))
        cached = self._cache.get(key)
        if cached is not None and (cached[0] is prior or cached[0] == prior):
            return cached[1]
        d = family.cell_dist(prior, self.params.get(key))
        self._cache[key] = (prior, d)
        return d


@dataclass
class TabularGuideFamily:
    """Softmax tables over prior supports, keyed by choice site.

    Each cell is blended toward the prior with weight `MIXING`,
    guaranteeing absolute continuity with respect to the prior while
    still allowing near-point-mass cells.  `force` (optional) returns a
    value to pin a site to, or None to leave the site to the table.
    """

    site_key: SiteKey
    ceiling: Optional[float] = None
    force: Optional[Callable[[ChoiceSite], Optional[Value]]] = None

    def bind(self, params: Mapping[str, Sequence[float]]) -> TableGuide:
        return TableGuide(self, params)

    def cell_dist(self, prior: Dist, cell: Optional[Sequence[float]]) -> Optional[Dist]:
        if cell is None:
            return None  # unknown cell: keep the prior
        if len(cell) != len(prior):
            raise ValueError(f"cell has {len(cell)} logits for a support of {len(prior)}")
        soft = _softmax(cell)
        return Dist(prior.values, [MIXING * pm + (1.0 - MIXING) * sm for pm, sm in zip(prior.masses, soft)])

    def cell_init(self, prior: Dist) -> list[float]:
        # Log-prior logits make the initial cell reproduce the prior
        # exactly (softmax inverts the log, and mixing blends prior with
        # prior), so search starts from the unguided model.  A zero mass
        # has logit -inf, which no mutation moves, so the guide never
        # puts mass where the prior has none.
        return list(prior._logs)

    def mutate_cell(self, cell: Sequence[float], support: tuple, rng: np.random.Generator) -> list[float]:
        """The cell with standard normal noise added to each logit."""
        noise = rng.normal(0.0, 1.0, len(cell))
        return [c + z for c, z in zip(cell, noise)]


@dataclass
class PointGuideFamily:
    """Deterministic guides: exactly one value per site (the table's value
    where set, the prior's highest-mass value otherwise), so every run
    follows a single path.  Searching this family degenerates into
    maximum-likelihood search for one execution path; pair it with a
    ceiling so paths that kill the evidence are rejected rather than
    scored +inf."""

    site_key: SiteKey
    ceiling: Optional[float] = None
    force: ClassVar[None] = None

    def bind(self, params: Mapping[str, Value]) -> TableGuide:
        return TableGuide(self, params)

    def cell_dist(self, prior: Dist, cell: Optional[Value]) -> Dist:
        return point_mass(self.cell_init(prior) if cell is None else cell)

    def cell_init(self, prior: Dist) -> Value:
        i = max(range(len(prior)), key=lambda j: prior.masses[j])
        return prior.values[i]

    def mutate_cell(self, cell: Value, support: tuple, rng: np.random.Generator) -> Value:
        return support[int(rng.integers(len(support)))]


class _Run(NamedTuple):
    """One CRN run under a bound guide: its batch row, the cells it looked
    up in event order, and, if accepted, the free-energy contribution of
    each of those choices."""

    row: TraceSummary
    keys: tuple[str, ...]
    fes: tuple[float, ...]  # empty for rejected runs


def _run_all(guide: Guide, runs: Iterator[_RunState]) -> list[_Run]:
    """The `_Run`s of `runs`, which `guide` must be producing lazily: its
    `lookups` are read as each run arrives."""
    out = []
    for run in runs:
        lookups = guide.lookups  # begin() started a fresh list for this run
        fes: tuple[float, ...] = ()
        if run.status is RunStatus.COMPLETED:
            fes = tuple(run.log_guides[i] - run.log_priors[i] for i, _ in lookups)
        out.append(_Run(summarize_run(run), tuple(key for _, key in lookups), fes))
    return out


def _utility(seeds: np.ndarray, runs: Sequence[_Run], cfg: UtilityConfig) -> float:
    """Fold seed-ordered runs into U; +inf when no run is accepted."""
    stats = stats_from_summaries(seeds, (r.row for r in runs))
    try:
        est = estimate_from_batch(stats)
    except NoAcceptedRunsError:
        return math.inf  # searchable sentinel, not an exception
    return est.adjusted_fe + cfg.k * (est.total_events / est.n_accepted)


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
    guide, seeds = family.bind(params), derive_seeds(seed, n)
    return _utility(seeds, _run_all(guide, _run_batch(model, guide, seeds, max_events)), cfg)


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
    accept_margin: float = 0.0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> SearchReport:
    """Stochastic hill climbing over single table cells.

    Every candidate is scored on one fixed seed set (common random
    numbers), so the objective is a deterministic surrogate of the true
    utility and acceptance decisions are repeatable.  Cells are
    discovered as runs visit new sites; a proposal perturbs one cell of
    the current table (a tabular cell gets standard normal noise on each
    logit, a point cell a uniformly drawn support value) and is accepted
    when it improves on the incumbent by more than `accept_margin` (a
    nonzero margin stops the climb from chasing quirks of the fixed seed
    set; only accepted tables are ever reported).  The climb never moves
    to a worse table, so the current table is the best one found.

    Evaluation is incremental.  The family binds tables to `TableGuide`s,
    which propose at a site from the site's prior and cell alone, so a
    run is a function of its seed and the cells it looks up; the guide
    lists a run's lookups in `lookups` and each key's first prior in
    `visited`.  A candidate differs from the incumbent in one cell, so
    only the CRN runs that looked up that cell are run again; the others
    keep their recorded rows, and the utility is folded from all n rows
    in seed order.
    """
    if budget < 1:
        raise ValueError("need at least one evaluation")
    if not 0.0 <= accept_margin < math.inf:
        raise ValueError("accept margin must be finite and nonnegative")
    crn = derive_seeds(seed, n, stream=3)
    crn_runs = _SeededRuns(crn)  # each seed's first uniforms, computed once for every re-run
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(4,)))

    def run_all(guide, indices) -> list[_Run]:
        return _run_all(guide, crn_runs.runs(model, guide, indices, max_events))

    cells: dict[str, tuple] = {}  # key -> (init cell, support values)

    def discover(guide) -> None:
        # A guide runs its seeds in order, so each new cell takes the
        # prior of its first lookup.
        for key, prior in guide.visited.items():
            if key not in cells:
                cells[key] = (family.cell_init(prior), prior.values)

    current: dict = {}
    guide = family.bind(current)
    current_runs = run_all(guide, range(n))
    discover(guide)
    current_u = _utility(crn, current_runs, cfg)
    current_index = _key_index(current_runs)
    evaluations = 1
    trace = [(1, current_u)]

    while evaluations < budget and cells:
        keys = sorted(cells)
        key = keys[int(rng.integers(len(keys)))]
        init_cell, support = cells[key]
        cand = dict(current)
        cand[key] = family.mutate_cell(cand.get(key, init_cell), support, rng)
        affected = current_index.get(key, [])
        guide = family.bind(cand)
        rerun = run_all(guide, affected)
        discover(guide)
        runs = list(current_runs)
        for i, run in zip(affected, rerun):
            runs[i] = run
        u = _utility(crn, runs, cfg)
        evaluations += 1
        if u < current_u - accept_margin:
            current, current_u, current_runs, current_index = cand, u, runs, _key_index(runs)
            trace.append((evaluations, u))

    return SearchReport(
        best_params=dict(current),
        best_utility=current_u,
        utility_trace=tuple(trace),
        evaluations=evaluations,
        cell_mean_fe=_cell_fe_profile(current_runs),
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
