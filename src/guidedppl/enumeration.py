"""Exact enumeration of finite discrete models.

`enumerate_paths` runs the model once per terminating path and keeps the
execution as a prefix tree.  Each run replays a forced prefix of choices,
then takes the first positive-mass value, in sorted order, at every later
site and sets the other positive-mass values aside as prefixes for later
runs; so every run ends at a new leaf, and leaves come out in sorted
order.  A value of zero prior mass gets no child: sampling never draws
it.  An internal node holds the log evidence declared since its parent
choice, the site's label and prior and one child per positive-mass prior
value; a leaf holds its trailing log evidence and the path's
`PathEntry`, the one place that stores the path's values.  This needs
nothing from the host language beyond the determinism contract the
runtime already imposes.

Each run goes through the runtime's context core (`ModelContext`) with
replay as its value policy.  A run that crashes after its forced prefix
ends in a *crash leaf* (`CrashEntry`, in `PathEnumeration.crashes`; its
prior mass is `crash_mass()`) with the reason and event count that
`run_trace` reports there.  Evidence and conditional expectations sum
over completed paths.  These still raise: the event cap (by default the
runtime's, as in `run_trace`), a model that is not deterministic on
replay (fewer choices, a forced value outside the prior's support, or a
crash before the forced prefix is replayed), and guide exceptions.

Guides are scored without running the model again: one depth-first walk
of the tree calls ``guide.begin`` once, then ``guide.propose`` once at
each site the guide can reach, and carries the values chosen so far,
log G(x), the running free energy and the ceiling trigger down each edge.
The values chosen so far are a `HistoryView`, as at sampled sites, of
the parent's list with the edge's value appended: in place unless a
sibling's subtree has extended that list (then to a copy of the prefix).
That yields ground-truth evidence probabilities, conditional expectations,
free energies, KL divergences, acceptance rates and run costs at desk
scale.  Guides that insert extra choices are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .dists import Dist, Value, NEG_INF
from . import runtime
from .runtime import (ChoiceSite, Guide, GuideContext, HistoryView, ModelContext, ModelProgram,
                      _ContractError, _EventCapError, crash_reason)

DEFAULT_MAX_PATHS = 1_000_000


class EnumerationCapError(RuntimeError):
    """The model exceeded the path or per-run event budget."""


class ConditioningOnNullError(ZeroDivisionError):
    """Conditional expectation requested but P(evidence) = 0."""


class ExtraChoicesUnsupportedError(RuntimeError):
    """Exact guide evaluation cannot handle guide-inserted extra choices."""


@dataclass(frozen=True, slots=True)
class PathEntry:
    choices: tuple[Value, ...]
    log_prior: float
    log_evidence: float
    hypothesis: float
    n_events: int  # choose + evidence calls on this path


@dataclass(frozen=True, slots=True)
class CrashEntry:
    """A path on which the model crashed, as `run_trace` reports it."""

    choices: tuple[Value, ...]  # the values chosen before the crash
    log_prior: float
    n_events: int  # choose + evidence calls before the crash
    reason: str


@dataclass(slots=True, eq=False)
class _Leaf:
    log_evidence: tuple[float, ...]  # evidence after the last choice
    entry: Union[PathEntry, CrashEntry]


@dataclass(slots=True, eq=False)
class _Node:
    """A choice site: the log evidence declared since the parent choice,
    its label and prior, and one child per positive-mass prior value, in
    `_value_key` order.  The values chosen before it are the edges above it."""

    log_evidence: tuple[float, ...]
    label: Optional[str]
    prior: Dist
    values: tuple[Value, ...]
    children: list[Union[_Node, _Leaf, None]]


@dataclass(slots=True)
class PathEnumeration:
    """Every terminating execution path of a model, the paths on which it
    crashes, and the prefix tree of its execution."""

    entries: tuple[PathEntry, ...]  # completed paths
    crashes: tuple[CrashEntry, ...]
    root: Union[_Node, _Leaf]

    def crash_mass(self) -> float:
        return math.fsum(math.exp(c.log_prior) for c in self.crashes)


def _value_key(v: Value):
    return (type(v).__name__, v)


class _ForcedRun(ModelContext):
    """Enumeration's value policy: replay a forced choice prefix, then grow
    the tree to a new leaf: at each later site add a node over the prior's
    positive-mass values, take the first of them in sorted order and push
    the siblings' prefixes onto `stack`."""

    def __init__(self, forced: tuple, log_prior: float, slot: tuple, stack: list, max_events: int):
        super().__init__(max_events)
        self.choices = list(forced)
        self.n_forced = len(forced)
        self.pos = 0
        self.log_prior = log_prior  # of the forced prefix, summed in choice order as a replay would
        self.slot = slot  # (children list, index) the next new node or leaf fills
        self.stack = stack
        self.pending: list[float] = []  # log evidence since the last choice, past the forced prefix

    def choose(self, prior: Dist, label: Optional[str] = None) -> Value:
        if not isinstance(prior, Dist):
            raise _ContractError(f"choose() needs a Dist, got {type(prior).__name__}")
        pos = self.pos
        if pos < self.n_forced:
            v = self.choices[pos]
            if prior.prob(v) == 0.0:
                raise RuntimeError(f"forced value {v!r} left the prior support")
        else:
            values = tuple(sorted((v for v, m in prior if m > 0.0), key=_value_key))  # sized exactly
            node = _Node(tuple(self.pending), label, prior, values, [None] * len(values))
            children, i = self.slot
            children[i] = node
            self.pending = []
            lp = self.log_prior
            if len(values) > 1:  # the siblings' replay prefixes
                history = tuple(self.choices)
                for j in range(len(values) - 1, 0, -1):
                    self.stack.append((history + (values[j],), lp + prior.log_prob(values[j]), (node.children, j)))
            self.slot = (node.children, 0)
            v = values[0]
            self.choices.append(v)
            self.log_prior = lp + prior.log_prob(v)
        self.pos = pos + 1
        # A choice adds no free energy here, so only the event cap can end the run.
        self.n_events += 1
        if self.n_events > self.max_events:
            raise _EventCapError(self.max_events)
        return v

    def _observe(self, log_p: float) -> None:
        if self.pos >= self.n_forced:
            self.pending.append(log_p)


def enumerate_paths(model: ModelProgram, max_paths: int = DEFAULT_MAX_PATHS,
                    max_events: int = runtime.DEFAULT_MAX_EVENTS) -> PathEnumeration:
    """Depth-first enumeration of every terminating path, one model run
    per path; entries and crash leaves are sorted by choice sequence.
    See the module docstring for crash leaves and what raises."""
    if max_paths < 1:  # else the first path would be reported as too many
        raise ValueError(f"max_paths must be at least 1, got {max_paths}")
    entries: list[PathEntry] = []
    crashes: list[CrashEntry] = []
    top: list = [None]
    stack: list = [((), 0.0, (top, 0))]
    while stack:
        prefix, log_prior, slot = stack.pop()
        run = _ForcedRun(prefix, log_prior, slot, stack, max_events)
        try:
            model(run)
        except _EventCapError:
            raise EnumerationCapError(
                f"a path exceeded {max_events} events; model too large for exact treatment") from None
        except Exception as exc:
            if run.pos < run.n_forced:  # the run that set this prefix aside got past here
                raise RuntimeError(
                    f"model is not deterministic: {crash_reason(exc)}, replaying {prefix!r}") from exc
            leaf = CrashEntry(tuple(run.choices), run.log_prior, run.n_events, crash_reason(exc))
            crashes.append(leaf)
        else:
            if run.pos < run.n_forced:
                raise RuntimeError("model is not deterministic: fewer choices on replay")
            leaf = PathEntry(tuple(run.choices), run.log_prior, run.log_evidence, run.hypothesis, run.n_events)
            entries.append(leaf)
        children, i = run.slot
        children[i] = _Leaf(tuple(run.pending), leaf)
        if len(entries) + len(crashes) > max_paths:
            raise EnumerationCapError(f"more than {max_paths} paths; model too large for exact treatment")
    return PathEnumeration(tuple(entries), tuple(crashes), top[0])


def exact_evidence(pe: PathEnumeration) -> float:
    """P(e) = sum over completed paths of P(x) P(e|x)."""
    return math.fsum(math.exp(e.log_prior + e.log_evidence) for e in pe.entries)


def exact_conditional_expectation(pe: PathEnumeration) -> float:
    """E(h | e) = sum P(x) P(e|x) h(x) / sum P(x) P(e|x)."""
    den = exact_evidence(pe)
    if den == 0.0:
        raise ConditioningOnNullError("evidence has probability zero")
    num = math.fsum(math.exp(e.log_prior + e.log_evidence) * e.hypothesis for e in pe.entries)
    return num / den


def _no_extra_choice(guide_dist, conditional):
    raise ExtraChoicesUnsupportedError("exact evaluation does not support guides with extra choices")


@dataclass(frozen=True, slots=True)
class GuidedSamplingProfile:
    """Exact sampling behavior of a guide, rejection included; field
    order is the CLI's JSON key order."""

    free_energy: float  # unrejected F(G); +inf when G reaches zero-prior, zero-evidence or crash paths
    kl: float  # D(G_x || P_x|e) = free_energy + log P(e)
    acceptance_rate: float  # A(G): G-mass of runs that are never rejected
    adjusted_fe: float  # E[fe | accepted] - log A(G)
    mean_events_per_run: float  # expected choose+evidence events, truncation included


def exact_guided_profile(pe: PathEnumeration, guide: Guide) -> GuidedSamplingProfile:
    """Exact acceptance rate, rejection-adjusted free energy, and run cost.

    A path counts as rejected when its running free-energy sum ever
    exceeds the guide's ceiling (matching the runtime's event-order
    trigger); with no ceiling nothing is rejected and `adjusted_fe`
    equals the plain free energy.

    Guide mass leaked onto prior-impossible values gets +inf free energy
    at the leaking choice, so a finite ceiling rejects those runs right
    there and their cost is still exact; mass leaked below a prefix the
    ceiling has already rejected costs the events up to that rejection.
    Any leak makes `free_energy` and `kl` +inf.  Without a ceiling, or
    with an infinite one (the same to `run_trace`), a leaky guide's
    `adjusted_fe` is +inf and its run cost is a lower bound (the model's
    behavior past a prior-impossible value is not enumerable).

    A crash leaf that G reaches is a rejected run, as in `run_trace`: it
    costs the events before the crash, or before an earlier ceiling
    rejection, and makes `free_energy` and `kl` +inf, as a leak does.
    """
    acc_mass = 0.0
    acc_fe = 0.0
    mean_events = 0.0
    total = 0.0
    leaks: list[tuple[float, int]] = []  # (G-mass leaked at a site, events when it leaks or at rejection)
    guide.begin(GuideContext(_no_extra_choice))
    ceiling = math.inf if guide.ceiling is None else guide.ceiling  # as `run_trace` reads it
    # A depth-first walk of the tree under G, skipping the subtrees G never
    # samples, in choice order: (node, depth, parent's value list, edge value,
    # log G above it, running fe, events, events at rejection or None).
    stack: list = [(pe.root, 0, [], None, 0.0, 0.0, 0, None)]
    while stack:
        node, depth, values, v, log_guide, fe, events, observed = stack.pop()
        for lp in node.log_evidence:
            events += 1
            if observed is None:
                fe += -lp
                if fe > ceiling:
                    observed = events
        if type(node) is _Leaf:
            entry = node.entry
            mass = math.exp(log_guide)
            mean_events += mass * (entry.n_events if observed is None else observed)
            if type(entry) is CrashEntry:
                total = math.inf
                continue
            if observed is None:
                acc_mass += mass
                acc_fe += mass * fe
                if fe == math.inf:
                    acc_fe = math.inf
            if entry.log_evidence == NEG_INF:
                total = math.inf
            elif total != math.inf:
                total += mass * (log_guide - entry.log_prior - entry.log_evidence)
            continue
        if depth:  # extend the parent's list in place, or a copy of its prefix once a sibling has
            if len(values) != depth - 1:
                values = values[:depth - 1]
            values.append(v)
        prior = node.prior
        g = guide.propose(ChoiceSite(depth, node.label, prior, HistoryView(values, depth), ()))
        if g is None:
            g = prior
        elif not isinstance(g, Dist):
            raise TypeError(f"guide returned {type(g).__name__}, not a Dist")
        events += 1
        if g is not prior:
            leaked = math.fsum(gm for gv, gm in g if prior.prob(gv) == 0.0)
            if leaked > 0.0:
                leaks.append((math.exp(log_guide) * leaked, events if observed is None else observed))
        for v, child in zip(reversed(node.values), reversed(node.children)):
            lg = g.log_prob(v)
            if lg == NEG_INF:
                continue  # G never samples this subtree
            child_fe, child_observed = fe, observed
            if observed is None:
                child_fe = fe + (lg - prior.log_prob(v))
                if child_fe > ceiling:
                    child_observed = events
            stack.append((child, depth + 1, values, v, log_guide + lg, child_fe, events, child_observed))
    leak_mass = math.fsum(m for m, _ in leaks)
    mean_events += math.fsum(m * ev for m, ev in leaks)
    free_energy = math.inf if leaks else total
    evidence = exact_evidence(pe)
    kl = math.inf if (not math.isfinite(free_energy) or evidence == 0.0) else free_energy + math.log(evidence)
    # A leaked run has +inf fe, so only a ceiling below +inf rejects it.
    leaks_complete = guide.ceiling is None or not math.inf > guide.ceiling
    acceptance = acc_mass + leak_mass if leaks_complete else acc_mass
    adjusted = math.inf if (leaks and leaks_complete) or not acc_mass else acc_fe / acc_mass - math.log(acc_mass)
    return GuidedSamplingProfile(free_energy, kl, acceptance, adjusted, mean_events)


# The exact F(G) is the profile's `free_energy`; only the benchmark's
# probes and tracer still use this name.
exact_free_energy = exact_guided_profile
