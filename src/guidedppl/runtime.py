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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .dists import Dist, Value, log_nonneg

DEFAULT_MAX_EVENTS = 100_000


class RunStatus(str, Enum):
    COMPLETED = "completed"
    REJECTED_THRESHOLD = "rejected_threshold"
    REJECTED_CRASH = "rejected_crash"


class ChoiceSite(NamedTuple):
    """What a guide sees at a choice site: position, the model's prior,
    and the full history of values chosen so far (model choices and the
    guide's own extra choices)."""

    index: int
    label: Optional[str]
    prior: Dist
    history: tuple[Value, ...]
    extras: tuple[Value, ...]


class EventFE(NamedTuple):
    """One event's contribution to the one-run free energy."""

    kind: str  # "choose" | "evidence"
    index: int
    label: Optional[str]
    fe: float


@dataclass(frozen=True, slots=True)
class ChoiceRecord:
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


def finite_nonneg(v, what: str, error: type[Exception] = ValueError) -> float:
    """Coerce an evidence probability or a hypothesis value to a float
    (booleans to 0 or 1) and check that it is finite and nonnegative.

    `what` is a format string naming the value, e.g. ``"evidence({})"``;
    a bad value raises `error` with that name in the message.
    """
    if isinstance(v, (bool, np.bool_)):
        v = 1.0 if v else 0.0
    v = float(v)
    if math.isnan(v) or math.isinf(v) or v < 0.0:
        raise error(f"{what.format(v)} is not a finite nonnegative number")
    return v


class _Abort(Exception):
    """Internal: running free energy exceeded the guide's ceiling."""


class _ContractError(Exception):
    """Internal: model or guide violated a runtime contract."""


class ModelContext:
    """The model program's handle: choose / evidence / set_hypothesis."""

    __slots__ = ("_run",)

    def __init__(self, run: "_RunState"):
        self._run = run

    def choose(self, prior: Dist, label: Optional[str] = None) -> Value:
        return self._run.choose(prior, label)

    def evidence(self, p) -> None:
        self._run.evidence(p)

    def set_hypothesis(self, v) -> None:
        self._run.set_hypothesis(v)


class GuideContext:
    """The guide program's handle: extra choices only (guide isolation)."""

    __slots__ = ("_run",)

    def __init__(self, run: "_RunState"):
        self._run = run

    def extra_choice(self, guide_dist: Dist, conditional: Callable[[Trace], Dist]) -> Value:
        return self._run.extra_choice(guide_dist, conditional)


class _RunState:
    def __init__(self, guide: Guide, rng: np.random.Generator, max_events: int):
        self.guide = guide
        self.rng = rng
        self.max_events = max_events
        self.ceiling = guide.ceiling
        self.choices: list[ChoiceRecord] = []
        self.extras: list[ExtraChoiceRecord] = []
        self.history: list[Value] = []
        self.extra_values: list[Value] = []
        self.per_event: list[EventFE] = []
        self.log_evidence = 0.0
        self.fe = 0.0
        self.hypothesis = 1.0
        self.n_evidence = 0

    def _bump_fe(self, kind: str, index: int, label: Optional[str], contribution: float) -> None:
        self.fe += contribution
        self.per_event.append(EventFE(kind, index, label, contribution))
        if len(self.per_event) + len(self.extras) > self.max_events:
            raise _ContractError(f"event cap {self.max_events} exceeded")
        if self.ceiling is not None and self.fe > self.ceiling:
            raise _Abort()

    def choose(self, prior: Dist, label: Optional[str]) -> Value:
        if not isinstance(prior, Dist):
            raise _ContractError(f"choose() needs a Dist, got {type(prior).__name__}")
        index = len(self.choices)
        site = ChoiceSite(index, label, prior, tuple(self.history), tuple(self.extra_values))
        guide_dist = self.guide.propose(site)
        if guide_dist is None:
            guide_dist = prior
        elif not isinstance(guide_dist, Dist):
            raise _ContractError(f"guide returned {type(guide_dist).__name__}, not a Dist")
        chosen = guide_dist.sample(self.rng)
        log_prior = prior.log_prob(chosen)
        log_guide = guide_dist.log_prob(chosen)  # finite: chosen was sampled from it
        self.choices.append(ChoiceRecord(index, label, prior, guide_dist, chosen, log_prior, log_guide))
        self.history.append(chosen)
        self._bump_fe("choose", index, label, log_guide - log_prior)
        return chosen

    def evidence(self, p) -> None:
        log_p = log_nonneg(finite_nonneg(p, "evidence({})", _ContractError))
        self.log_evidence += log_p
        index = self.n_evidence
        self.n_evidence += 1
        self._bump_fe("evidence", index, None, -log_p)

    def set_hypothesis(self, v) -> None:
        self.hypothesis = finite_nonneg(v, "hypothesis {}", _ContractError)  # last write wins

    def extra_choice(self, guide_dist: Dist, conditional: Callable[[Trace], Dist]) -> Value:
        if not isinstance(guide_dist, Dist):
            raise _ContractError(f"extra_choice() needs a Dist, got {type(guide_dist).__name__}")
        chosen = guide_dist.sample(self.rng)
        rec = ExtraChoiceRecord(
            index=len(self.extras),
            guide_dist=guide_dist,
            chosen=chosen,
            log_guide=guide_dist.log_prob(chosen),
            conditional=conditional,
        )
        self.extras.append(rec)
        self.extra_values.append(chosen)
        if len(self.per_event) + len(self.extras) > self.max_events:
            raise _ContractError(f"event cap {self.max_events} exceeded")
        return chosen

    def build_trace(self, seed: int, status: RunStatus, crash_reason: Optional[str]) -> Trace:
        return Trace(
            seed=seed,
            status=status,
            choices=tuple(self.choices),
            extras=tuple(self.extras),
            log_evidence=self.log_evidence,
            hypothesis=self.hypothesis,
            per_event_fe=tuple(self.per_event),
            log_prior_total=sum(c.log_prior for c in self.choices),
            log_guide_total=sum(c.log_guide for c in self.choices),
            fe_total=self.fe,
            crash_reason=crash_reason,
        )


ModelProgram = Callable[[ModelContext], None]


def run_trace(
    model: ModelProgram,
    guide: Guide,
    seed: int,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Trace:
    """Run `model` under `guide` with a private random stream.

    Never raises for model/guide failures: crashes and threshold
    exceedances are folded into the trace status.  Re-running with the
    same (model, guide, seed) reproduces the trace bit for bit; the
    stream is consumed strictly in event order.
    """
    seed = int(seed)
    run = _RunState(guide, np.random.default_rng(seed), max_events)
    status = RunStatus.COMPLETED
    reason: Optional[str] = None
    try:
        guide.begin(GuideContext(run))
        model(ModelContext(run))
    except _Abort:
        status = RunStatus.REJECTED_THRESHOLD
    except _ContractError as exc:
        status = RunStatus.REJECTED_CRASH
        reason = str(exc)
    except Exception as exc:  # model/guide bugs become rejected runs
        status = RunStatus.REJECTED_CRASH
        reason = f"{type(exc).__name__}: {exc}"

    trace = run.build_trace(seed, status, reason)
    if status is RunStatus.COMPLETED and trace.extras:
        trace = _finalize_extras(run, trace)
    return trace


def _finalize_extras(run: _RunState, trace: Trace) -> Trace:
    """Evaluate each extra choice's deferred conditional against the
    completed trace, yielding log P_G(y_i | x, y_1..y_{i-1})."""
    try:
        for rec in trace.extras:
            d = rec.conditional(trace)
            if not isinstance(d, Dist):
                raise _ContractError(f"extra-choice conditional returned {type(d).__name__}, not a Dist")
            rec.log_model_conditional = d.log_prob(rec.chosen)
    except _ContractError as exc:
        return run.build_trace(trace.seed, RunStatus.REJECTED_CRASH, str(exc))
    except Exception as exc:
        return run.build_trace(trace.seed, RunStatus.REJECTED_CRASH, f"{type(exc).__name__}: {exc}")
    return trace


def derive_seeds(base_seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n per-trace seeds derived deterministically from a root seed.

    Distinct `stream` values give statistically independent seed sets for
    the same root (numerator vs denominator runs, search evaluation sets).
    """
    ss = np.random.SeedSequence(int(base_seed), spawn_key=(int(stream),))
    return ss.generate_state(int(n), np.uint64)
