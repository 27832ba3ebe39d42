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

One run produces an immutable :class:`Trace` carrying the full execution
path and all log-probability bookkeeping: per-choice prior and guide
log-masses, accumulated log evidence, and the per-event decomposition of
the one-run free energy

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

A run's random stream is ``default_rng(seed)``.  Each choose and each
extra choice consumes one uniform of it, in event order, and maps it to
a value as `Dist.sample` does; `Dist.sample`, one ``rng.random()`` call
per draw, is the reference.  A run reads its uniforms in blocks, as
``rng.random(k)``, which gives the same doubles as k single calls; what
a run leaves unread changes nothing, since every run is seeded anew.
`run_trace` seeds the stream one run at a time.  `run_traces` yields the
same traces for a whole seed array: it computes the PCG64 states of
``default_rng`` in bulk and sets them on one reused generator, after a
check, once per process, that this numpy seeds as it does.

While it runs, a sampled run is kept in flat per-run columns (`_RunState`):
chosen values, labels, prior and guide `Dist`s, log-masses with their
running totals in event order, and where each evidence call falls with
its free energy.  Batch drivers (`estimators.batch_stats` and guide
search) read each run's row from these columns.  A `Trace` is built from
them only by `run_trace` and `run_traces`, and for a run with extra
choices, whose conditionals read the finished `Trace`.  Its
`ChoiceRecord`s and `EventFE`s are named tuples, made in C by
``tuple.__new__`` over the zipped columns: no Python call per event.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, repeat
from operator import sub
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .dists import NEG_INF, Dist, Value, log_nonneg

DEFAULT_MAX_EVENTS = 100_000

_tuple_new = tuple.__new__

# A sampled run reads its uniforms from its generator in blocks: the
# first of `_FIRST_BLOCK` when the run starts, then, whenever a block
# runs out, as many as it has used so far, up to `_MAX_BLOCK`.  A short
# run makes one ``rng.random(k)`` call; a long one makes a few per
# thousand events.
_FIRST_BLOCK = 8
_MAX_BLOCK = 1024


class RunStatus(str, Enum):
    COMPLETED = "completed"
    REJECTED_THRESHOLD = "rejected_threshold"
    REJECTED_CRASH = "rejected_crash"


class HistoryView(Sequence):
    """The model's values chosen before a choice site, as a guide sees
    them: a read-only sequence that costs O(1) to make and that compares,
    hashes, prints, indexes and slices as the tuple of those values does
    (a slice is a tuple).  ``tuple(view)`` makes a copy.

    A view reads the first n items of a list that only ever grows, so it
    stays a correct snapshot after the run moves on or ends.  A sampled
    run shares its own value list among its views.  The exact walk makes
    each child's view from its parent's with `_child`, as a link that the
    first read resolves: it extends the nearest resolved ancestor's list,
    in place unless another view has extended that list already, so a
    chain of sites costs O(1) per site whether or not its guide reads it.
    """

    __slots__ = ("_values", "_n")

    def __init__(self, values: list, n: int):
        self._values = values  # or (parent view, last value) until the first read
        self._n = n

    def _child(self, value: Value) -> "HistoryView":
        """This history followed by `value`."""
        return HistoryView((self, value), self._n + 1)

    def _list(self) -> list:
        """The list whose first n items are this history, after resolving
        this view and its unresolved ancestors."""
        if type(self._values) is list:
            return self._values
        chain = []
        view = self
        while type(view._values) is not list:
            chain.append(view)
            view = view._values[0]
        values, n = view._values, view._n
        for view in reversed(chain):
            if len(values) != n:  # another view extended this list: copy the shared prefix
                values = values[:n]
            values.append(view._values[1])
            n += 1
            view._values = values
        return values

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        n = self._n
        if type(i) is int and -n <= i < n:  # the common case, without a range object
            return self._list()[i % n]
        values = self._list()
        if isinstance(i, slice):
            return tuple(map(values.__getitem__, range(n)[i]))
        try:
            return values[range(n)[i]]
        except IndexError:
            raise IndexError("tuple index out of range") from None
        except TypeError:
            raise TypeError(f"tuple indices must be integers or slices, not {type(i).__name__}") from None

    def __iter__(self) -> Iterator[Value]:
        return islice(self._list(), self._n)

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
    `_RunState.trace` builds a run's records in C from its columns;
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


@dataclass(slots=True)
class Trace:
    """One finalized execution path.  Immutable once returned."""

    seed: int
    status: RunStatus
    choices: tuple[ChoiceRecord, ...]
    extras: tuple[ExtraChoiceRecord, ...]
    log_evidence: float
    hypothesis: float
    per_event_fe: tuple[EventFE, ...]
    log_prior_total: float
    log_guide_total: float
    fe_total: float  # running free-energy sum at end of run (event order)
    crash_reason: Optional[str] = None

    @property
    def n_events(self) -> int:
        """Runtime events executed: choose and evidence calls."""
        return len(self.per_event_fe)

    @property
    def completed(self) -> bool:
        return self.status is RunStatus.COMPLETED


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
    counts events against the cap and keeps the running free energy
    against the ceiling.  Each subclass has its own `choose`, which
    checks the prior, picks the value, adds its free energy and counts
    the event (`_RunState` samples, `enumeration._ForcedRun` replays and
    grows the tree), and its own `_observe`, which records evidence."""

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
    drivers read a run's row from them; `trace` builds its `Trace`.

    Each choose and each extra choice draws as `Dist.sample` does, from
    the next uniform of the run's generator (read in blocks, see
    `_FIRST_BLOCK`), and reads the value and its log-mass by index.
    `propose` is the guide's, or None for a guide that keeps
    `Guide.propose`: then no `ChoiceSite` is made."""

    __slots__ = ("propose", "seed", "ceiling", "status", "reason", "history", "labels", "priors", "guides",
                 "log_priors", "log_guides", "log_prior_total", "log_guide_total", "evidence_at", "evidence_fe",
                 "extras", "extra_values", "completed_trace", "rng", "_uniform")

    def __init__(self, guide: Guide, propose: Optional[Callable[[ChoiceSite], Optional[Dist]]],
                 rng: np.random.Generator, max_events: int, seed: int):
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
        self.completed_trace: Optional[Trace] = None  # built early for extra-choice conditionals
        self.rng = rng
        self._uniform = iter(rng.random(_FIRST_BLOCK).tolist()).__next__  # read only by `_draw`

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
            self._uniform = next_uniform = iter(self.rng.random(min(used, _MAX_BLOCK)).tolist()).__next__
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

    def trace(self) -> Trace:
        """The run as a `Trace`."""
        if self.completed_trace is not None:
            return self.completed_trace
        labels, log_priors, log_guides = self.labels, self.log_priors, self.log_guides
        n = len(log_priors)
        # tuple.__new__ over zipped columns: the records are made in C, with no Python call per record.
        choices = tuple(map(_tuple_new, repeat(ChoiceRecord), zip(
            range(n), labels, self.priors, self.guides, self.history, log_priors, log_guides)))
        chosen_fe = list(map(_tuple_new, repeat(EventFE), zip(
            repeat("choose"), range(n), labels, map(sub, log_guides, log_priors))))
        per_event: list[EventFE] = []
        done = 0
        for j, (at, fe) in enumerate(zip(self.evidence_at, self.evidence_fe)):
            per_event += chosen_fe[done:at]
            per_event.append(_tuple_new(EventFE, ("evidence", j, None, fe)))
            done = at
        per_event += chosen_fe[done:]
        return Trace(
            seed=self.seed, status=self.status, choices=choices, extras=tuple(self.extras),
            log_evidence=self.log_evidence, hypothesis=self.hypothesis, per_event_fe=tuple(per_event),
            log_prior_total=self.log_prior_total, log_guide_total=self.log_guide_total, fe_total=self.fe,
            crash_reason=self.reason,
        )


ModelProgram = Callable[[ModelContext], None]


def run_trace(model: ModelProgram, guide: Guide, seed: int, max_events: int = DEFAULT_MAX_EVENTS) -> Trace:
    """Run `model` under `guide` with a private random stream.

    Never raises for model/guide failures: crashes and threshold
    exceedances are folded into the trace status.  Re-running with the
    same (model, guide, seed) reproduces the trace bit for bit; the
    stream is consumed strictly in event order, one uniform per choice
    and per extra choice.  The extra choices of a completed trace get
    log P_G(y_i | x, y_1..y_{i-1}) from their conditionals.
    """
    seed = int(seed)
    return _run(model, guide, *_hooks(guide), seed, np.random.default_rng(seed), max_events).trace()


def run_traces(
    model: ModelProgram, guide: Guide, seeds, max_events: int = DEFAULT_MAX_EVENTS
) -> Iterator[Trace]:
    """Yield ``run_trace(model, guide, s, max_events)`` for each seed in
    order, trace for trace the same, at a fraction of the per-run cost."""
    return map(_RunState.trace, _run_batch(model, guide, seeds, max_events))


def _run_batch(model: ModelProgram, guide: Guide, seeds, max_events: int) -> Iterator[_RunState]:
    """The finished run of each seed in order, as `run_trace` runs it.

    One generator serves every run; its PCG64 state is set per run from
    states computed for `_STATE_BLOCK` seeds at a time, instead of
    seeding a new ``default_rng`` per run.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    rng = _reseedable_rng()
    for start in range(0, len(seeds), _STATE_BLOCK):
        block = seeds[start:start + _STATE_BLOCK]
        yield from _run_seeded(model, guide, zip(block.tolist(), _pcg64_states(block)), rng, max_events)


def _run_seeded(model: ModelProgram, guide: Guide, seeded, rng: np.random.Generator,
                max_events: int) -> Iterator[_RunState]:
    """One finished run per ``(seed, (state, inc))`` of `seeded`, in
    order, with `rng` set to that PCG64 state before each run."""
    propose, begin = _hooks(guide)
    inner: dict = {}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    bit_generator = rng.bit_generator
    for seed, (pcg_state, inc) in seeded:
        inner["state"], inner["inc"] = pcg_state, inc
        bit_generator.state = state
        yield _run(model, guide, propose, begin, seed, rng, max_events)


def _reseedable_rng() -> np.random.Generator:
    """A generator for `_run_seeded`; its initial state is never used.
    Every batch makes one, so this is where the seeding check runs."""
    _check_pcg64_states_once()
    return np.random.Generator(np.random.PCG64(0))


def _hooks(guide: Guide) -> tuple[Optional[Callable], Optional[Callable]]:
    """The guide's bound `propose` and `begin`, each None where it is
    `Guide`'s no-op: a guide that overrides neither, such as
    `PriorGuide`, costs a run no `ChoiceSite` and no `GuideContext`.
    A method assigned on the instance counts as an override."""
    propose, begin = guide.propose, guide.begin
    return (None if getattr(propose, "__func__", None) is Guide.propose else propose,
            None if getattr(begin, "__func__", None) is Guide.begin else begin)


def _run(model: ModelProgram, guide: Guide, propose: Optional[Callable], begin: Optional[Callable],
         seed: int, rng: np.random.Generator, max_events: int) -> _RunState:
    """The finished run of `model` under `guide`, whose `_hooks` are
    `propose` and `begin`, on a generator that the caller has seeded for
    `seed`, with its status and crash reason."""
    run = _RunState(guide, propose, rng, max_events, seed)
    try:
        if begin is not None:
            begin(GuideContext(run.extra_choice))
        model(run)
        if run.extras:  # their conditionals read the completed run's Trace
            trace = run.trace()
            for rec in trace.extras:
                d = rec.conditional(trace)
                if not isinstance(d, Dist):
                    raise _ContractError(f"extra-choice conditional returned {type(d).__name__}, not a Dist")
                rec.log_model_conditional = d.log_prob(rec.chosen)
            run.completed_trace = trace
    except _Abort:
        run.status = RunStatus.REJECTED_THRESHOLD
    except Exception as exc:  # model/guide bugs become rejected runs
        run.status, run.reason = RunStatus.REJECTED_CRASH, crash_reason(exc)
    return run


# Seeding a whole batch.  ``default_rng(s)`` hashes the integer s with
# numpy's SeedSequence (O'Neill's seed_seq) into four 64-bit words and
# seeds PCG64 with them (O'Neill, "PCG", HMC-CS-2014-0905).
# `_pcg64_states` repeats both steps for an array of seeds in uint32
# arithmetic with wraparound; `_check_pcg64_states` compares it with
# numpy once per process, before the first batch.
_STATE_BLOCK = 256  # seeds per `_pcg64_states` call in `run_traces`: bounds its temporaries
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor, multiply) constants of a SeedSequence hash's first n calls:
    each call xors with the running constant, steps it and multiplies."""
    out = []
    for _ in range(n):
        step = (init * mult) & _MASK32
        out.append((np.uint32(init), np.uint32(step)))
        init = step
    return out


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(s)`` for each 64-bit seed s."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    consts = iter(_hash_constants(_INIT_A, _MULT_A, 16))

    def hashmix(v):
        xor, mul = next(consts)
        v = (v ^ xor) * mul
        return v ^ (v >> _XSHIFT)

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> _XSHIFT)

    # The entropy is the seed's 32-bit words, low first; a seed below
    # 2**32 has one word, but its zero high word hashes as the padding does.
    zero = np.zeros(len(seeds), dtype=np.uint32)
    words = [(seeds & np.uint64(_MASK32)).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zero, zero]
    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    out = []
    for k, (xor, mul) in enumerate(_hash_constants(_INIT_B, _MULT_B, 8)):
        v = (pool[k % 4] ^ xor) * mul
        out.append((v ^ (v >> _XSHIFT)).astype(np.uint64))
    w0, w1, w2, w3 = ((out[2 * j] | (out[2 * j + 1] << np.uint64(32))).tolist() for j in range(4))
    states = []
    for a, b, c, d in zip(w0, w1, w2, w3):
        inc = (((c << 64) | d) << 1 | 1) & _MASK128
        # Two LCG steps from state 0, adding the initial state after the first.
        states.append((((inc + ((a << 64) | b)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _check_pcg64_states() -> None:
    """Raise unless `_pcg64_states` reproduces numpy's own seeding."""
    seeds = (0, 2**32, 2**64 - 1)
    for s, (state, inc) in zip(seeds, _pcg64_states(np.array(seeds, dtype=np.uint64))):
        if np.random.default_rng(s).bit_generator.state["state"] != {"state": state, "inc": inc}:
            raise RuntimeError(
                f"numpy {np.__version__} seeds default_rng({s}) differently from "
                "guidedppl.runtime._pcg64_states; batch runs would not match run_trace"
            )


# Not at import: `import numpy` leaves `numpy.random` unloaded, and
# commands that sample nothing (`oracle`) need not pay for loading it.
_check_pcg64_states_once = functools.cache(_check_pcg64_states)


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

