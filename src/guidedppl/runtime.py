"""Execution of model programs under guide programs.

A *model program* is a host callable that receives a :class:`ModelContext`
and is deterministic except for the values returned by ``ctx.choose``.  It
declares observation likelihoods through ``ctx.evidence`` and an optional
query value through ``ctx.set_hypothesis``.

A *guide program* runs alongside: at every choice site it may substitute
its own distribution for the model's prior, and it may insert extra
choices of its own (with a deferred model-extension conditional).  The
guide's only channel of influence on the model is the distribution it
returns; the context facades enforce that isolation.

One run produces a :class:`Trace`, read-only by contract (its attributes
can be reassigned, but nothing in the package writes to a trace after
making it), carrying the full execution path and all log-probability
bookkeeping: per-choice prior and guide log-masses, accumulated log
evidence, and the per-event decomposition of the one-run free energy

    sum over choose calls of log(G_C(c) / P_C(c))  +  sum over
    evidence(p) calls of -log(p)

in nats.  A run is rejected when the running free-energy sum ever exceeds
the guide's ceiling (threshold rejection) or when model/guide code fails
(crash rejection); rejections are data, not exceptions.

At each choice site the guide gets a `ChoiceSite`.  Its `history` is a
`HistoryView`, a read-only view of the run's growing value list, and its
`extras` the one tuple of extra values that `extra_choice` rebuilds, so
neither copies the run: a run of L events costs O(L), not O(L^2).

Sampling and exact enumeration share one context core, `ModelContext`:
the evidence and hypothesis checks and `crash_reason` exist once, and
each subclass has its own `choose`, its value policy (`_RunState`
samples from the guide; `enumeration._ForcedRun` replays a prefix and
grows the tree).  A run that `run_trace` crash-rejects is a crash leaf of the
enumeration, with the same reason and event count, and its prior mass
counts toward `crash_mass`.  Enumeration still raises for the event cap,
for a model that is not deterministic on replay and for guide errors.

A run's random stream is random-stream version 2: uniform j (from 0) of
the run with seed s, an int in [0, 2**64), is a pure function of (s, j)
(`_uniforms`).  Each choose and each extra choice consumes one uniform,
in event order, and maps it to a value as `Dist.sample` maps one
``random()`` draw.  A run reads its uniforms in blocks; since each is
computed from (s, j) alone, block sizes change only speed, never values.
`run_trace` is the one-seed case of the one batch path, `_run_batch`,
which `run_traces`, `batch_stats` and guide search share: it computes
the first `_FIRST_BLOCK` uniforms of a block of seeds at once, and a run
that reads past them computes its next block from the same function.

While it runs, a sampled run is kept in flat per-run columns (`_RunState`):
chosen values, labels, prior and guide `Dist`s, log-masses with their
running totals in event order, and where each evidence call falls with
its free energy.  Batch drivers (`estimators.batch_stats` and guide
search) read each run's row from these columns.  A `Trace` holds the
finished run's columns and its totals, and costs no Python work per
event to make: `run_trace` and `run_traces` return one, and a run with
extra choices gets one for its conditionals.  Its chosen values are the
tuple `Trace.values`; its `ChoiceRecord`s and `EventFE`s are built on
their first read, as named tuples made in C by ``tuple.__new__`` over
the zipped columns.  No run, batch or CLI command builds them unless a
caller reads `Trace.choices` or `Trace.per_event_fe`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
from operator import attrgetter, sub
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .dists import NEG_INF, Dist, Value, log_nonneg

DEFAULT_MAX_EVENTS = 100_000

_tuple_new = tuple.__new__

# A sampled run reads its uniforms in blocks: the first of `_FIRST_BLOCK`,
# computed for its whole batch, then, whenever a block runs out, as many as
# it has used so far, up to `_MAX_BLOCK`.  The first block is sized so that
# short runs never read past it: a dice run makes 3 choices and an expr
# run at depth cap 3 at most 11.
_FIRST_BLOCK = 16
_MAX_BLOCK = 1024
_SEED_BLOCK = 1024  # seeds whose rows a batch computes at once: bounds the rows held

# Random-stream version 2: SplitMix64's output function (Steele, Lea &
# Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014)
# applied to s + (j + 1) GAMMA mod 2**64, its top 53 bits times 2**-53.
# A counter-based generator in the sense of Salmon et al. (SC 2011): any
# uniform of any seed is computed directly, in numpy uint64 arithmetic,
# which wraps mod 2**64.  Uniform j + 1 of seed s is uniform j of seed
# s + GAMMA, so two streams overlap only when their seeds are a small
# multiple of GAMMA apart mod 2**64; small ints never are, and two of
# `derive_seeds`' hashed seeds are with a chance of about 2**-64 per
# offset.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _uniforms(seeds: np.ndarray, start: int, k: int) -> np.ndarray:
    """Uniforms start to start + k - 1 of the stream of each seed of a
    uint64 array, as the rows of an (n, k) float64 array."""
    z = seeds[:, None] + np.arange(start + 1, start + k + 1, dtype=np.uint64) * _GAMMA
    z ^= z >> 30
    z *= _MIX_1
    z ^= z >> 27
    z *= _MIX_2
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


class RunStatus(str, Enum):
    COMPLETED = "completed"
    REJECTED_THRESHOLD = "rejected_threshold"
    REJECTED_CRASH = "rejected_crash"


class HistoryView(Sequence):
    """The model's values chosen before a choice site, as a guide sees
    them: a read-only sequence that costs O(1) to make and that compares,
    hashes, prints, indexes and slices as the tuple of those values does
    (a slice is a tuple).  ``tuple(view)`` makes a copy.

    A view reads the first n items of a sequence that no longer changes
    below n, so it stays a correct snapshot after the run moves on or
    ends.  A sampled run's views share its value list, which only grows;
    the exact walk's view at a node reads the node's `path`, the choices
    of the first path below it.
    """

    __slots__ = ("_values", "_n")

    def __init__(self, values: list, n: int):
        self._values = values
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        n = self._n
        values = self._values
        if type(i) is int and -n <= i < n:  # the common case, without a range object
            return values[i % n]
        if isinstance(i, slice):
            return tuple(map(values.__getitem__, range(n)[i]))
        try:
            return values[range(n)[i]]
        except IndexError:
            raise IndexError("tuple index out of range") from None
        except TypeError:
            raise TypeError(f"tuple indices must be integers or slices, not {type(i).__name__}") from None

    def __iter__(self) -> Iterator[Value]:
        return islice(self._values, self._n)

    def __eq__(self, other):
        if isinstance(other, HistoryView):
            other = tuple(other)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class ChoiceSite(NamedTuple):
    """What a guide sees at a choice site: position, label, the model's
    prior, the model's values chosen so far and the guide's own extra
    values drawn so far.  `history` and `extras` are read-only sequences
    (a `HistoryView` and a tuple) that cost O(1) per site; ``tuple(site.history)``
    makes a copy.  A site stays valid after its run has ended."""

    index: int
    label: Optional[str]
    prior: Dist
    history: Sequence[Value]
    extras: Sequence[Value]


class EventFE(NamedTuple):
    """One event's contribution to the one-run free energy."""

    kind: str  # "choose" | "evidence"
    index: int
    label: Optional[str]
    fe: float


class ChoiceRecord(NamedTuple):
    """One choice of a finished run: its site, the prior and the guide's
    `Dist`, the value drawn and both log-masses.  A named tuple, so that
    `Trace.choices` builds a run's records in C from its columns;
    ``rec._replace(...)`` makes a changed copy."""

    index: int
    label: Optional[str]
    prior: Dist
    guide: Dist
    chosen: Value
    log_prior: float  # may be -inf: the guide proposed a prior-impossible value
    log_guide: float


@dataclass(slots=True)
class ExtraChoiceRecord:
    """A guide-inserted choice y with its proposal distribution and the
    deferred conditional P_G(y | x, earlier extras), evaluated once the
    trace is complete."""

    index: int
    guide_dist: Dist
    chosen: Value
    log_guide: float
    conditional: Callable[["Trace"], Dist] = field(compare=False)
    log_model_conditional: Optional[float] = None


class Trace:
    """One finished run.  Read-only by contract: its slotted attributes
    can be reassigned, but nothing in the package writes to a trace after
    making it.

    Its fields are those of `__match_args__`, in that order; two traces
    are equal when all of them are, and a trace has no hash.  A trace
    holds its run's columns, which no longer grow: its chosen values as
    the tuple `values`, and the labels, prior and guide `Dist`s, the
    log-masses and where each evidence call falls with its free energy.
    `choices` and `per_event_fe` are built from them on their first
    read, in C by ``tuple.__new__`` over the zipped columns (no Python
    call per event), and kept; a reader that needs only the chosen values
    reads `values` and builds neither.  A trace keeps nothing else of the
    run that made it: not its context, its guide's `propose` or its
    random stream."""

    __match_args__ = ("seed", "status", "choices", "extras", "log_evidence", "hypothesis", "per_event_fe",
                      "log_prior_total", "log_guide_total", "fe_total", "crash_reason")
    __slots__ = ("seed", "status", "extras", "log_evidence", "hypothesis", "log_prior_total", "log_guide_total",
                 "fe_total", "crash_reason", "values", "_labels", "_priors", "_guides", "_log_priors",
                 "_log_guides", "_evidence_at", "_evidence_fe", "_choices", "_per_event_fe")
    __hash__ = None

    def __init__(self, run: "_RunState"):
        """The trace of a finished run; the runtime makes traces."""
        self.seed = run.seed
        self.status = run.status
        self.extras: tuple[ExtraChoiceRecord, ...] = tuple(run.extras)
        self.log_evidence = run.log_evidence
        self.hypothesis = run.hypothesis
        self.log_prior_total = run.log_prior_total
        self.log_guide_total = run.log_guide_total
        self.fe_total = run.fe  # running free-energy sum at end of run (event order)
        self.crash_reason: Optional[str] = run.reason
        self.values: tuple[Value, ...] = tuple(run.history)
        self._labels, self._priors, self._guides = run.labels, run.priors, run.guides
        self._log_priors, self._log_guides = run.log_priors, run.log_guides
        self._evidence_at, self._evidence_fe = run.evidence_at, run.evidence_fe
        self._choices: Optional[tuple[ChoiceRecord, ...]] = None
        self._per_event_fe: Optional[tuple[EventFE, ...]] = None

    @property
    def choices(self) -> tuple[ChoiceRecord, ...]:
        """Each choice's `ChoiceRecord`, in choice order."""
        if self._choices is None:
            self._choices = tuple(map(_tuple_new, repeat(ChoiceRecord), zip(
                range(len(self.values)), self._labels, self._priors, self._guides, self.values,
                self._log_priors, self._log_guides)))
        return self._choices

    @property
    def per_event_fe(self) -> tuple[EventFE, ...]:
        """Each choose and evidence event's free energy, in event order."""
        if self._per_event_fe is None:
            chosen = list(map(_tuple_new, repeat(EventFE), zip(
                repeat("choose"), range(len(self.values)), self._labels, map(sub, self._log_guides, self._log_priors))))
            evidence = map(_tuple_new, repeat(EventFE), zip(
                repeat("evidence"), range(len(self._evidence_fe)), repeat(None), self._evidence_fe))
            self._per_event_fe = tuple(self._in_event_order(chosen, evidence))
        return self._per_event_fe

    def _in_event_order(self, chosen: list, evidence: Iterable) -> list:
        """One item per choice (`chosen`) and one per evidence call
        (`evidence`), each in call order, merged into event order."""
        events: list = []
        done = 0
        for at, item in zip(self._evidence_at, evidence):
            events += chosen[done:at]
            events.append(item)
            done = at
        events += chosen[done:]
        return events

    @property
    def n_events(self) -> int:
        """Runtime events executed: choose and evidence calls."""
        return len(self.values) + len(self._evidence_fe)

    @property
    def completed(self) -> bool:
        return self.status is RunStatus.COMPLETED

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _trace_fields(self) == _trace_fields(other)

    def __repr__(self) -> str:
        return f"Trace({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__match_args__)})"


_trace_fields = attrgetter(*Trace.__match_args__)


class Guide:
    """Base guide: never overrides, never rejects.

    Subclasses may override :meth:`propose` to return a substitute
    distribution for a choice site (``None`` keeps the model's prior) and
    :meth:`begin` to insert extra choices through the guide context.  Set
    ``ceiling`` (nats) to reject runs whose running one-run free energy
    ever exceeds it.
    """

    ceiling: Optional[float] = None

    def begin(self, ctx: "GuideContext") -> None:
        pass

    def propose(self, site: ChoiceSite) -> Optional[Dist]:
        return None


class PriorGuide(Guide):
    """Echoes the model's priors; optionally rejects via a ceiling."""

    def __init__(self, ceiling: Optional[float] = None):
        self.ceiling = ceiling


class FunctionGuide(Guide):
    """Wraps a plain ``site -> Dist | None`` function."""

    def __init__(self, fn: Callable[[ChoiceSite], Optional[Dist]], ceiling: Optional[float] = None):
        self._fn = fn
        self.ceiling = ceiling

    def propose(self, site: ChoiceSite) -> Optional[Dist]:
        return self._fn(site)


class _Abort(Exception):
    """Internal: running free energy exceeded the guide's ceiling."""


class _ContractError(Exception):
    """Internal: model or guide violated a runtime contract."""


class _EventCapError(_ContractError):
    """Internal: the run exceeded its event cap."""

    def __init__(self, cap: int):
        super().__init__(f"event cap {cap} exceeded")


def finite_nonneg(v, what: str) -> float:
    """Coerce an evidence probability or a hypothesis value to a float
    (booleans to 0 or 1); `what` names it, e.g. ``"evidence({})"``, in
    the contract error for a value that is not finite and nonnegative."""
    if isinstance(v, (bool, np.bool_)):
        v = 1.0 if v else 0.0  # shared constants: no new float per path
    v = float(v)
    if math.isnan(v) or math.isinf(v) or v < 0.0:
        raise _ContractError(f"{what.format(v)} is not a finite nonnegative number")
    return v


def crash_reason(exc: Exception) -> str:
    """The crash reason of a run that `exc` ended."""
    return str(exc) if isinstance(exc, _ContractError) else f"{type(exc).__name__}: {exc}"


class ModelContext:
    """The model program's handle: choose / evidence / set_hypothesis.

    It is the run itself: it checks evidence and hypothesis values,
    counts choose, evidence and extra-choice calls against the event cap
    (`max_events`) and keeps the running free energy against the
    ceiling.  The extra choices count so that a guide that keeps
    inserting them is stopped; a trace's `n_events` leaves them out.
    Each subclass has its own `choose`, which checks the prior, picks
    the value, adds its free energy and counts the event (`_RunState`
    samples, `enumeration._ForcedRun` replays and grows the tree), and
    its own `_observe`, which records evidence."""

    __slots__ = ("max_events", "n_events", "fe", "log_evidence", "hypothesis")
    ceiling = math.inf

    def __init__(self, max_events: int):
        self.max_events = max_events
        self.n_events = 0  # choose, evidence and extra-choice events so far
        self.fe = 0.0
        self.log_evidence = 0.0
        self.hypothesis = 1.0

    def evidence(self, p) -> None:
        if p is True:  # the common case, as `finite_nonneg` and `log_nonneg` would map it
            log_p = 0.0
        elif p is False:
            log_p = NEG_INF
        else:
            log_p = log_nonneg(finite_nonneg(p, "evidence({})"))
        self.log_evidence += log_p
        self.fe -= log_p
        self._observe(log_p)
        self.n_events += 1  # counted inline in each event method: a call per event is measurable
        if self.n_events > self.max_events:
            raise _EventCapError(self.max_events)
        if self.fe > self.ceiling:
            raise _Abort()

    def set_hypothesis(self, v) -> None:
        # Last write wins.  Booleans as `finite_nonneg` maps them.
        self.hypothesis = 1.0 if v is True else 0.0 if v is False else finite_nonneg(v, "hypothesis {}")


class GuideContext:
    """The guide program's handle: extra choices only (guide isolation)."""

    __slots__ = ("extra_choice",)

    def __init__(self, extra_choice: Callable[[Dist, Callable[[Trace], Dist]], Value]):
        self.extra_choice = extra_choice


class _RunState(ModelContext):
    """Sampling: each value is drawn from the guide's proposal.

    The run is kept in flat columns: one item per choice (value, label,
    prior, guide `Dist`, log-masses), one per evidence call (how many
    choices precede it, its free energy) and running totals.  Batch
    drivers read a run's row from them; a `Trace` holds them.

    Each choose and each extra choice draws as `Dist.sample` does, from
    the run's next uniform, and reads the value and its log-mass by
    index.  The run starts on `first`, the first `_FIRST_BLOCK` uniforms
    of its seed's stream; `_draw` computes each later block when the one
    before runs out.  `propose` is the guide's, or None for a guide that
    keeps `Guide.propose`: then no `ChoiceSite` is made."""

    __slots__ = ("propose", "seed", "ceiling", "status", "reason", "history", "labels", "priors", "guides",
                 "log_priors", "log_guides", "log_prior_total", "log_guide_total", "evidence_at", "evidence_fe",
                 "extras", "extra_values", "_uniform")

    def __init__(self, guide: Guide, propose: Optional[Callable[[ChoiceSite], Optional[Dist]]],
                 first: list[float], max_events: int, seed: int):
        super().__init__(max_events)
        self.propose = propose
        self.seed = seed
        self.ceiling = math.inf if guide.ceiling is None else guide.ceiling
        self.status = RunStatus.COMPLETED  # until `_run` rejects the run
        self.reason: Optional[str] = None
        self.history: list[Value] = []  # chosen values; only grows: every site's view reads a prefix of it
        self.labels: list[Optional[str]] = []
        self.priors: list[Dist] = []
        self.guides: list[Dist] = []
        self.log_priors: list[float] = []
        self.log_guides: list[float] = []
        # Running sums in event order.  From the int 0, as `sum()` started: a run without choices keeps it.
        self.log_prior_total = 0
        self.log_guide_total = 0
        self.evidence_at: list[int] = []
        self.evidence_fe: list[float] = []
        self.extras: list[ExtraChoiceRecord] = []
        self.extra_values: tuple[Value, ...] = ()  # rebuilt only by `extra_choice`
        self._uniform = iter(first).__next__  # read only by `_draw`

    def choose(self, prior: Dist, label: Optional[str] = None) -> Value:
        if not isinstance(prior, Dist):
            raise _ContractError(f"choose() needs a Dist, got {type(prior).__name__}")
        history = self.history
        if self.propose is None:
            guide_dist = prior
        else:
            index = len(history)
            # tuple.__new__ skips the named tuple's Python-level __new__, a measurable cost per event.
            site = _tuple_new(ChoiceSite, (index, label, prior, HistoryView(history, index), self.extra_values))
            guide_dist = self.propose(site)
            if guide_dist is None:
                guide_dist = prior
            elif not isinstance(guide_dist, Dist):
                raise _ContractError(f"guide returned {type(guide_dist).__name__}, not a Dist")
        i = self._draw(guide_dist)
        chosen = guide_dist.values[i]
        log_guide = guide_dist._logs[i]  # finite: a sampled atom has positive mass
        if guide_dist is prior:
            log_prior = log_guide
        else:
            j = prior._index.get(chosen)
            log_prior = NEG_INF if j is None else prior._logs[j]  # -inf: the guide left the prior's support
        history.append(chosen)
        self.labels.append(label)
        self.priors.append(prior)
        self.guides.append(guide_dist)
        self.log_priors.append(log_prior)
        self.log_guides.append(log_guide)
        self.log_prior_total += log_prior
        self.log_guide_total += log_guide
        self.fe = fe = self.fe + (log_guide - log_prior)
        self.n_events = n_events = self.n_events + 1
        if n_events > self.max_events:
            raise _EventCapError(self.max_events)
        if fe > self.ceiling:
            raise _Abort()
        return chosen

    def _draw(self, dist: Dist) -> int:
        """The index of the atom of `dist` that the run's next uniform
        picks, as `Dist.sample` maps it.  When a block of uniforms runs
        out, the next holds as many as the run has used, up to
        `_MAX_BLOCK`."""
        try:
            u = self._uniform()
        except StopIteration:
            used = len(self.history) + len(self.extras)
            block = _uniforms(np.array([self.seed], dtype=np.uint64), used, min(used, _MAX_BLOCK))
            self._uniform = next_uniform = iter(block[0].tolist()).__next__
            u = next_uniform()
        return bisect_right(dist._cum, u)

    def _observe(self, log_p: float) -> None:
        self.evidence_at.append(len(self.history))
        self.evidence_fe.append(-log_p)

    def extra_choice(self, guide_dist: Dist, conditional: Callable[[Trace], Dist]) -> Value:
        if not isinstance(guide_dist, Dist):
            raise _ContractError(f"extra_choice() needs a Dist, got {type(guide_dist).__name__}")
        i = self._draw(guide_dist)
        chosen = guide_dist.values[i]
        self.extras.append(ExtraChoiceRecord(len(self.extras), guide_dist, chosen, guide_dist._logs[i], conditional))
        self.extra_values += (chosen,)
        self.n_events += 1
        if self.n_events > self.max_events:
            raise _EventCapError(self.max_events)
        return chosen


ModelProgram = Callable[[ModelContext], None]


def run_trace(model: ModelProgram, guide: Guide, seed: int, max_events: int = DEFAULT_MAX_EVENTS) -> Trace:
    """Run `model` under `guide` on the random stream of `seed`, an int in
    [0, 2**64) (`ValueError` otherwise).

    Never raises for model/guide failures: crashes and threshold
    exceedances are folded into the trace status.  A run that makes more
    than `max_events` choose, evidence and extra-choice calls together
    is crash-rejected ("event cap N exceeded"); `Trace.n_events` counts
    its choose and evidence calls only.  Re-running with the same
    (model, guide, seed) reproduces the trace bit for bit; the stream
    is consumed strictly in event order, one uniform per choice and per
    extra choice.  The extra choices of a completed trace get
    log P_G(y_i | x, y_1..y_{i-1}) from their conditionals.
    """
    return next(run_traces(model, guide, [seed], max_events))


def run_traces(
    model: ModelProgram, guide: Guide, seeds, max_events: int = DEFAULT_MAX_EVENTS
) -> Iterator[Trace]:
    """Yield ``run_trace(model, guide, s, max_events)`` for each seed in
    order, trace for trace the same, at a fraction of the per-run cost."""
    return map(Trace, _run_batch(model, guide, seeds, max_events))


def _seed_array(seeds) -> np.ndarray:
    """`seeds` as a uint64 array; `ValueError` unless each is an int in
    [0, 2**64).  A uint64 array is returned as it is."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        if seeds.dtype.kind == "i" and seeds.size and seeds.min() < 0:
            seeds = seeds.tolist()  # the check below names the first bad seed
        else:
            return seeds.astype(np.uint64, copy=False)
    seeds = list(seeds)
    for s in seeds:
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or not 0 <= s < 2**64:
            raise ValueError(f"a seed must be an int in [0, 2**64), got {s!r}")
    return np.array(seeds, dtype=np.uint64)


def _run_batch(model: ModelProgram, guide: Guide, seeds, max_events: int) -> Iterator[_RunState]:
    """The finished run of each seed in order.  The first `_FIRST_BLOCK`
    uniforms of each seed (its row) are computed for `_SEED_BLOCK` seeds
    at once, and stay in numpy until the seed's run starts: as Python
    lists they would hold about 570 bytes per seed, against 128 in numpy."""
    seeds = _seed_array(seeds)
    propose, begin = _hooks(guide)
    for start in range(0, len(seeds), _SEED_BLOCK):
        block = seeds[start:start + _SEED_BLOCK]
        for seed, row in zip(block.tolist(), _uniforms(block, 0, _FIRST_BLOCK)):
            yield _run(model, guide, propose, begin, seed, row.tolist(), max_events)


def _hooks(guide: Guide) -> tuple[Optional[Callable], Optional[Callable]]:
    """The guide's bound `propose` and `begin`, each None where it is
    `Guide`'s no-op: a guide that overrides neither, such as
    `PriorGuide`, costs a run no `ChoiceSite` and no `GuideContext`.
    A method assigned on the instance counts as an override."""
    propose, begin = guide.propose, guide.begin
    return (None if getattr(propose, "__func__", None) is Guide.propose else propose,
            None if getattr(begin, "__func__", None) is Guide.begin else begin)


def _run(model: ModelProgram, guide: Guide, propose: Optional[Callable], begin: Optional[Callable],
         seed: int, first: list[float], max_events: int) -> _RunState:
    """The finished run of `model` under `guide`, whose `_hooks` are
    `propose` and `begin`, on the stream of `seed` (its `first` block of
    uniforms; see `_RunState`), with its status and crash reason."""
    run = _RunState(guide, propose, first, max_events, seed)
    try:
        if begin is not None:
            begin(GuideContext(run.extra_choice))
        model(run)
        if run.extras:  # their conditionals read the completed run's Trace
            trace = Trace(run)
            for rec in trace.extras:
                d = rec.conditional(trace)
                if not isinstance(d, Dist):
                    raise _ContractError(f"extra-choice conditional returned {type(d).__name__}, not a Dist")
                rec.log_model_conditional = d.log_prob(rec.chosen)
    except _Abort:
        run.status = RunStatus.REJECTED_THRESHOLD
    except Exception as exc:  # model/guide bugs become rejected runs
        run.status, run.reason = RunStatus.REJECTED_CRASH, crash_reason(exc)
    return run


def derive_seeds(base_seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n per-trace seeds derived deterministically from a root seed.

    Distinct `stream` values give statistically independent seed sets for
    the same root (numerator vs denominator runs, search evaluation sets).
    Every batch driver takes its seeds from here, so this is the one check
    that a batch has at least one run.
    """
    if n < 1:
        raise ValueError("need at least one run")
    ss = np.random.SeedSequence(int(base_seed), spawn_key=(int(stream),))
    return ss.generate_state(int(n), np.uint64)

