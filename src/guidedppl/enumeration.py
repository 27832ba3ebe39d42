"""Exact enumeration of finite discrete models.

`enumerate_paths` runs the model once per terminating path and keeps the
execution as a prefix tree.  Each run replays a forced prefix of choices,
then takes the first positive-mass value, in sorted order, at every later
site and sets the other positive-mass values aside as prefixes for later
runs; so every run ends at a new leaf, and leaves come out in sorted
order.  A value of zero prior mass gets no child: sampling never draws
it.  An internal node holds the log evidence declared since its parent
choice, the site's label and prior and one child per positive-mass prior
value.  A leaf is a row number: the path's log prior, log evidence,
hypothesis, event count and trailing log evidence (declared after its
last choice) are that row of per-path columns on `PathEnumeration`, and
its values are the edges down to it.  This needs nothing from the host
language beyond the determinism contract the runtime already imposes.

Each run goes through the runtime's context core (`ModelContext`) with
replay as its value policy.  A run that crashes after its forced prefix
ends in a *crash leaf* (`CrashEntry`, in `PathEnumeration.crashes`; its
prior mass is `crash_mass()`) with the reason and event count that
`run_trace` reports there.  Evidence and conditional expectations sum
over completed paths.  These still raise: the event cap (by default the
runtime's, as in `run_trace`) and a model that is not deterministic on
replay (fewer choices, a forced value outside the prior's support, or a
crash before the forced prefix is replayed).

Guides are scored without running the model again: one depth-first walk
of the tree calls ``guide.begin`` once, then ``guide.propose`` once at
each site the guide can reach, and carries log G(x), the running free
energy and the ceiling trigger down each edge.  A node refers to the
choices of the first path below it; the guide sees the values chosen
before the node as a `HistoryView` of that prefix, as at sampled sites.
That yields ground-truth evidence probabilities, conditional
expectations, free energies, KL divergences, acceptance rates and run
costs at desk scale.  An exception from ``begin`` or ``propose`` is a
crash of the runs under G that reach it, as in sampling.  The walk
raises for a proposal that is not a `Dist` and for guides that insert
extra choices.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import add
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
class _Node:
    """A choice site: the log evidence declared since the parent choice,
    its label and prior, one child per positive-mass prior value, in
    `_value_key` order (a node, or a leaf's row), and the choices of the
    first path below it, which begin with the values chosen before it."""

    log_evidence: tuple[float, ...]
    label: Optional[str]
    prior: Dist
    values: tuple[Value, ...]
    children: list[Union[_Node, int, None]]
    path: tuple[Value, ...] = ()


@dataclass(slots=True)
class PathEnumeration:
    """Every terminating execution path of a model, the paths on which it
    crashes, and the prefix tree of its execution.

    Each path, completed or crashed, is one row of the columns below, in
    choice order; a leaf of the tree is its row number.  A crash row has
    a reason in `crash_reasons`, log evidence -inf and hypothesis 0, so
    sums of P(x) P(e|x) over all rows are sums over completed paths.
    Rows share their trailing log-evidence tuples: a model has few
    distinct ones.  On 64-bit CPython a row costs about 40 bytes of
    columns and a 32-byte int in its parent's children; the tree adds one
    node per site and a `choices` tuple per run that made new nodes: 129
    bytes per path in all on expr depth cap 3, 289 on monkey length 12.

    `entries` and `crashes` are rebuilt from the tree and the columns on
    each read, in O(total path length)."""

    root: Union[_Node, int]
    log_prior: array  # 'd', summed in choice order as a replay would
    log_evidence: array  # 'd'
    hypothesis: array  # 'd'
    n_events: array  # 'q': choose + evidence calls, before the crash on a crash row
    trailing: list[tuple[float, ...]]  # log evidence after the last choice
    crash_reasons: dict[int, str]  # row -> reason, in row order

    def crash_mass(self) -> float:
        return math.fsum(math.exp(self.log_prior[row]) for row in self.crash_reasons)

    def _leaves(self):
        """(row, choices) of every leaf, in row order: a depth-first pass
        that carries the prefix."""
        prefix: list[Value] = []
        stack: list = [(self.root, 0, None)]
        while stack:
            node, depth, value = stack.pop()
            if depth:
                del prefix[depth - 1:]
                prefix.append(value)
            if type(node) is int:
                yield node, tuple(prefix)
            else:
                stack.extend(zip(reversed(node.children), repeat(depth + 1), reversed(node.values)))

    @property
    def entries(self) -> tuple[PathEntry, ...]:
        """The completed paths, in choice order."""
        crashed = self.crash_reasons
        return tuple(PathEntry(choices, self.log_prior[row], self.log_evidence[row], self.hypothesis[row],
                               self.n_events[row])
                     for row, choices in self._leaves() if row not in crashed)

    @property
    def crashes(self) -> tuple[CrashEntry, ...]:
        """The crash leaves, in choice order."""
        crashed = self.crash_reasons
        return tuple(CrashEntry(choices, self.log_prior[row], self.n_events[row], crashed[row])
                     for row, choices in self._leaves() if row in crashed)


def _value_key(v: Value):
    return (type(v).__name__, v)


class _ForcedRun(ModelContext):
    """Enumeration's value policy: replay a forced choice prefix, then grow
    the tree to a new leaf: at each later site add a node over the prior's
    positive-mass values, take the first of them in sorted order and push
    the siblings' prefixes onto `stack`."""

    __slots__ = ("choices", "n_forced", "pos", "log_prior", "slot", "stack", "supports", "pending")

    def __init__(self, forced: tuple, log_prior: float, slot: tuple, stack: list, supports: dict,
                 max_events: int):
        super().__init__(max_events)
        self.choices = list(forced)
        self.n_forced = len(forced)
        self.pos = 0
        self.log_prior = log_prior  # of the forced prefix, summed in choice order as a replay would
        self.slot = slot  # (children list, index) the next new node or leaf fills
        self.stack = stack
        # id(prior) -> its sorted positive-mass values; the prior's node keeps it alive, so no id is reused.
        self.supports = supports
        self.pending: list[float] = []  # log evidence since the last choice, past the forced prefix

    def choose(self, prior: Dist, label: Optional[str] = None) -> Value:
        if not isinstance(prior, Dist):
            raise _ContractError(f"choose() needs a Dist, got {type(prior).__name__}")
        pos = self.pos
        if pos < self.n_forced:
            v = self.choices[pos]
            i = prior._index.get(v)
            if i is None or prior.masses[i] == 0.0:
                raise RuntimeError(f"forced value {v!r} left the prior support")
        else:
            values = self.supports.get(id(prior))
            if values is None:
                values = self.supports[id(prior)] = tuple(sorted((v for v, m in prior if m > 0.0), key=_value_key))
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
    log_prior, log_evidence, hypothesis, n_events = array("d"), array("d"), array("d"), array("q")
    trailing: list[tuple[float, ...]] = []
    distinct_trailing: dict[tuple[float, ...], tuple[float, ...]] = {}
    crash_reasons: dict[int, str] = {}
    supports: dict[int, tuple[Value, ...]] = {}
    top: list = [None]
    stack: list = [((), 0.0, (top, 0))]
    while stack:
        prefix, prefix_log_prior, slot = stack.pop()
        run = _ForcedRun(prefix, prefix_log_prior, slot, stack, supports, max_events)
        row = len(n_events)
        try:
            model(run)
        except _EventCapError:
            raise EnumerationCapError(
                f"a path exceeded {max_events} events; model too large for exact treatment") from None
        except Exception as exc:
            if run.pos < run.n_forced:  # the run that set this prefix aside got past here
                raise RuntimeError(
                    f"model is not deterministic: {crash_reason(exc)}, replaying {prefix!r}") from exc
            crash_reasons[row] = crash_reason(exc)
            log_evidence.append(NEG_INF)
            hypothesis.append(0.0)
        else:
            if run.pos < run.n_forced:
                raise RuntimeError("model is not deterministic: fewer choices on replay")
            log_evidence.append(run.log_evidence)
            hypothesis.append(run.hypothesis)
        log_prior.append(run.log_prior)
        n_events.append(run.n_events)
        pending = tuple(run.pending)
        trailing.append(distinct_trailing.setdefault(pending, pending))
        children, i = run.slot
        children[i] = row
        node = slot[0][slot[1]]  # the run's first new node, if any; the others are first children down to its leaf
        if type(node) is _Node:
            path = tuple(run.choices)
            while type(node) is _Node:
                node.path, node = path, node.children[0]
        if len(n_events) > max_paths:
            raise EnumerationCapError(f"more than {max_paths} paths; model too large for exact treatment")
    return PathEnumeration(top[0], log_prior, log_evidence, hypothesis, n_events, trailing, crash_reasons)


def exact_evidence(pe: PathEnumeration) -> float:
    """P(e) = sum over completed paths of P(x) P(e|x)."""
    return math.fsum(map(math.exp, map(add, pe.log_prior, pe.log_evidence)))


def exact_conditional_expectation(pe: PathEnumeration) -> float:
    """E(h | e) = sum P(x) P(e|x) h(x) / sum P(x) P(e|x)."""
    den = exact_evidence(pe)
    if den == 0.0:
        raise ConditioningOnNullError("evidence has probability zero")
    num = math.fsum(math.exp(lp + le) * h for lp, le, h in zip(pe.log_prior, pe.log_evidence, pe.hypothesis))
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
    So does an exception from the guide: from ``begin`` it crashes every
    run at 0 events; from ``propose`` it crashes the G-mass at that site,
    at the events before it.  Below a ceiling rejection sampling never
    asks the guide, so there a raise costs the events at the rejection.
    """
    acc_mass = 0.0
    acc_fe = 0.0
    mean_events = 0.0
    free_energy = 0.0
    leaks: list[tuple[float, int]] = []  # (G-mass leaked at a site, events when it leaks or at rejection)
    try:
        guide.begin(GuideContext(_no_extra_choice))
    except ExtraChoicesUnsupportedError:
        raise
    except Exception:  # every run crashes before its first event
        return GuidedSamplingProfile(math.inf, math.inf, 0.0, math.inf, 0.0)
    ceiling = math.inf if guide.ceiling is None else guide.ceiling  # as `run_trace` reads it
    trailing, crashed, leaf_events = pe.trailing, pe.crash_reasons, pe.n_events
    # A depth-first walk of the tree under G, skipping the subtrees G never
    # samples, in choice order: (node or leaf row, depth, log G above it,
    # running fe, events, events at rejection or None).
    stack: list = [(pe.root, 0, 0.0, 0.0, 0, None)]
    while stack:
        node, depth, log_guide, fe, events, observed = stack.pop()
        is_leaf = type(node) is int
        for lp in trailing[node] if is_leaf else node.log_evidence:
            events += 1
            if observed is None:
                fe += -lp
                if fe > ceiling:
                    observed = events
        if is_leaf:
            mass = math.exp(log_guide)
            mean_events += mass * (leaf_events[node] if observed is None else observed)
            if node in crashed:
                free_energy = math.inf
                continue
            if observed is None:
                acc_mass += mass
                acc_fe += mass * fe
                if fe == math.inf:
                    acc_fe = math.inf
            log_evidence = pe.log_evidence[node]
            if log_evidence == NEG_INF:
                free_energy = math.inf
            elif free_energy != math.inf:
                free_energy += mass * (log_guide - pe.log_prior[node] - log_evidence)
            continue
        prior = node.prior
        try:
            g = guide.propose(ChoiceSite(depth, node.label, prior, HistoryView(node.path, depth), ()))
        except Exception:  # a crash before this site's event
            mean_events += math.exp(log_guide) * (events if observed is None else observed)
            free_energy = math.inf
            continue
        if g is None:
            g = prior
        elif not isinstance(g, Dist):
            raise TypeError(f"guide returned {type(g).__name__}, not a Dist")
        events += 1
        if g is not prior:
            leaked = math.fsum(gm for gv, gm in g if prior.prob(gv) == 0.0)
            if leaked > 0.0:
                leaks.append((math.exp(log_guide) * leaked, events if observed is None else observed))
                free_energy = math.inf
        for v, child in zip(reversed(node.values), reversed(node.children)):
            lg = g.log_prob(v)
            if lg == NEG_INF:
                continue  # G never samples this subtree
            child_fe, child_observed = fe, observed
            if observed is None:
                child_fe = fe + (lg - prior.log_prob(v))
                if child_fe > ceiling:
                    child_observed = events
            stack.append((child, depth + 1, log_guide + lg, child_fe, events, child_observed))
    leak_mass = math.fsum(m for m, _ in leaks)
    mean_events += math.fsum(m * ev for m, ev in leaks)
    evidence = exact_evidence(pe)
    kl = math.inf if (not math.isfinite(free_energy) or evidence == 0.0) else free_energy + math.log(evidence)
    # A leaked run has +inf fe, so only a ceiling below +inf rejects it.
    leaks_complete = not math.inf > ceiling
    acceptance = acc_mass + leak_mass if leaks_complete else acc_mass
    adjusted = math.inf if (leaks and leaks_complete) or not acc_mass else acc_fe / acc_mass - math.log(acc_mass)
    return GuidedSamplingProfile(free_energy, kl, acceptance, adjusted, mean_events)


# The exact F(G) is the profile's `free_energy`; only the benchmark's
# probes and tracer still use this name.
exact_free_energy = exact_guided_profile
