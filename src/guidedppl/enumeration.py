"""Exact enumeration of finite discrete models.

`enumerate_paths` runs the model once per terminating path and keeps the
execution as a prefix tree.  Each run replays a forced prefix of choices,
then takes the first value, in sorted order, at every later site and sets
the siblings aside as prefixes for later runs; so every run ends at a new
leaf, and leaves come out in sorted order.  An internal node holds the
log evidence declared since its parent choice, the site's label and prior
and one child per prior value; a leaf holds its trailing log evidence and
the path's `PathEntry`, the one place that stores the path's values.
This needs nothing from the host language beyond the determinism
contract the runtime already imposes.

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
The values chosen so far are a `HistoryView` linked to the parent's, the
same view type that sampled sites carry; it costs O(1) per edge and is
turned into a list only when a guide reads it.
That yields ground-truth evidence probabilities, conditional expectations,
free energies, KL divergences, acceptance rates and run costs at desk
scale.  Guides that insert extra choices are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

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
    its label and prior, and one child per prior value, in `_value_key`
    order.  The values chosen before it are the edges above it."""

    log_evidence: tuple[float, ...]
    label: Optional[str]
    prior: Dist
    values: list[Value]
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
    the tree to a new leaf: at each later site add a node, take the first
    sorted value and push the siblings' prefixes onto `stack`."""

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
            values = sorted(prior.values, key=_value_key)
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


def _walk(pe: PathEnumeration, guide: Guide, leaks: list[tuple[float, int]]) -> Iterator[tuple]:
    """Depth-first walk of the tree under `guide`.

    Yields ``(entry, log_guide, fe, events_observed, rejected)`` for each
    leaf G can reach, completed path or crash, in choice order: fe is the
    running free energy, a partial sum when the ceiling rejected the run,
    and events_observed is the leaf's event count, or the count up to the
    rejection.  Each site where G puts mass on a prior-impossible value
    appends (G-mass leaked there, events executed when it leaks, or up to
    an earlier rejection) to `leaks`.
    """
    guide.begin(GuideContext(_no_extra_choice))
    ceiling = guide.ceiling
    # (node, values chosen above it, log G of them, fe, events, rejected, events at rejection)
    stack: list = [(pe.root, HistoryView([], 0), 0.0, 0.0, 0, False, None)]
    while stack:
        node, history, log_guide, fe, events, rejected, observed = stack.pop()
        for lp in node.log_evidence:
            events += 1
            if not rejected:
                fe += -lp
                if ceiling is not None and fe > ceiling:
                    rejected = True
                    observed = events
        if type(node) is _Leaf:
            entry = node.entry
            yield entry, log_guide, fe, entry.n_events if observed is None else observed, rejected
            continue
        prior = node.prior
        g = guide.propose(ChoiceSite(len(history), node.label, prior, history, ()))
        if g is None:
            g = prior
        events += 1
        if g is not prior:
            leaked = math.fsum(gm for gv, gm in g if prior.prob(gv) == 0.0)
            if leaked > 0.0:
                leaks.append((math.exp(log_guide) * leaked, observed if rejected else events))
        for v, child in zip(reversed(node.values), reversed(node.children)):
            lg = g.log_prob(v)
            if lg == NEG_INF:
                continue  # G never samples this subtree
            child_fe, child_rejected, child_observed = fe, rejected, observed
            if not rejected:
                child_fe = fe + (lg - prior.log_prob(v))
                if ceiling is not None and child_fe > ceiling:
                    child_rejected = True
                    child_observed = events
            prefix = history._child(v) if type(child) is _Node else None  # a leaf needs no prefix
            stack.append((child, prefix, log_guide + lg, child_fe, events, child_rejected, child_observed))


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
    at the leaking choice, so a ceiling rejects those runs right there and
    their cost is still exact; mass leaked below a prefix the ceiling has
    already rejected costs the events up to that rejection.  Any leak
    makes `free_energy` and `kl` +inf.  Without a ceiling a leaky guide's
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
    leaks: list[tuple[float, int]] = []
    for entry, lg, fe, events, rejected in _walk(pe, guide, leaks):
        g = math.exp(lg)
        mean_events += g * events
        if type(entry) is CrashEntry:
            total = math.inf
            continue
        if not rejected:
            acc_mass += g
            acc_fe += g * fe
            if fe == math.inf:
                acc_fe = math.inf
        if entry.log_evidence == NEG_INF:
            total = math.inf
        elif total != math.inf:
            total += g * (lg - entry.log_prior - entry.log_evidence)
    leak_mass = math.fsum(m for m, _ in leaks)
    mean_events += math.fsum(m * ev for m, ev in leaks)
    free_energy = math.inf if leaks else total
    evidence = exact_evidence(pe)
    kl = math.inf if (not math.isfinite(free_energy) or evidence == 0.0) else free_energy + math.log(evidence)
    # With no ceiling nothing is rejected: leaked runs complete with +inf fe.
    unbounded = guide.ceiling is None
    acceptance = acc_mass + leak_mass if unbounded else acc_mass
    adjusted = math.inf if (leaks and unbounded) or not acc_mass else acc_fe / acc_mass - math.log(acc_mass)
    return GuidedSamplingProfile(free_energy, kl, acceptance, adjusted, mean_events)


# The exact F(G) is the profile's `free_energy`; only the benchmark's
# probes and tracer still use this name.
exact_free_energy = exact_guided_profile
