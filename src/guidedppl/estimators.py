"""Sampling estimators built on guided traces.

Three families:

* free-energy estimation: average the one-run free energy over guided
  runs, subtracting the log of the observed acceptance rate when the
  guide rejects runs (by crash or by its free-energy ceiling);
* importance weighting: f(x) * P_G(x, y) / G(x, y) per trace, where the
  extra-choice conditionals extend the model's path probability and the
  guide's proposal probabilities extend G;
* distribution-free lower confidence bounds on the mean of a nonnegative
  variable, via the one-sided DKW band over the empirical CDF, used to
  prove lower bounds on evidence and hypothesis sums.

Rejected traces enter weight sets as exact zeros, which keeps every
lower bound valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .dists import NEG_INF
from .runtime import (
    Guide,
    ModelProgram,
    RunStatus,
    Trace,
    _run_batch,
    _RunState,
    derive_seeds,
    DEFAULT_MAX_EVENTS,
)


class StatusError(ValueError):
    """A trace's extra choices have no model conditional yet."""


class NoAcceptedRunsError(RuntimeError):
    """Every run in the batch was rejected."""

    def __init__(self, n_total: int):
        super().__init__(f"all {n_total} runs were rejected")
        self.n_total = n_total


class WeightError(ValueError):
    """The weighting function returned a negative or non-finite value."""


class EmptyError(ValueError):
    """A lower confidence bound needs at least one sample."""


class UndefinedRatioError(RuntimeError):
    """The denominator lower bound is zero, so the ratio is undefined.

    Carries the partial estimate (numerator/denominator bounds and the
    self-normalized value when the weight sum is positive) as `.partial`.
    """

    def __init__(self, partial: "HypothesisEstimate"):
        super().__init__("denominator lower bound is zero")
        self.partial = partial


@dataclass(frozen=True, slots=True)
class FreeEnergyEstimate:
    """Free-energy estimate of a batch; field order is the CLI's JSON key order."""

    mean_fe: float  # nats, over accepted runs
    std_error: float  # nats, of adjusted_fe (delta method for the -log A term)
    n_total: int
    n_accepted: int
    acceptance_rate: float
    adjusted_fe: float  # mean_fe - log(acceptance_rate)
    total_events: int  # choose+evidence events across all runs, rejected included


@dataclass(frozen=True, slots=True)
class LowerBoundResult:
    """A 1-delta DKW lower confidence bound on a mean; field order is the CLI's JSON key order."""

    bound: float
    confidence: float  # 1 - delta
    n: int
    sample_mean: float
    sample_se: float  # plain standard error of the sample mean


@dataclass(frozen=True, slots=True)
class HypothesisEstimate:
    """Bounds on both sums of E(h|e); field order is the CLI's JSON key order."""

    numerator_bound: LowerBoundResult
    denominator_bound: LowerBoundResult
    # Quotient of the two bounds: an *estimate* of E(h|e), not a bound.
    ratio_of_bounds: Optional[float]
    self_normalized: Optional[float]  # sum(w h) / sum(w) on the denominator runs
    self_normalized_se: Optional[float]  # delta-method standard error


def importance_weight(trace: Trace, f: Callable[[Trace], float]) -> float:
    """One importance sample f(x) * P_G(x, y) / G(x, y).

    Rejected traces and traces whose path probability vanishes (under the
    prior or under an extra-choice conditional) get weight zero; `f` is
    only evaluated when the probability ratio is nonzero.
    """
    if trace.status is not RunStatus.COMPLETED:
        return 0.0
    log_num, log_den = _path_log_masses(trace)
    if log_num == NEG_INF:
        return 0.0
    fx = _checked_weight(float(f(trace)))
    return fx * math.exp(log_num - log_den)


def _path_log_masses(run) -> tuple[float, float]:
    """log P_G(x, y) and log G(x, y) of a completed `Trace` or `_RunState`:
    the choice totals extended by the extra choices."""
    log_num = run.log_prior_total
    log_den = run.log_guide_total
    for extra in run.extras:
        lmc = extra.log_model_conditional
        if lmc is None:
            raise StatusError("trace has unfinalized extra choices")
        log_num += lmc
        log_den += extra.log_guide
    return log_num, log_den


def _checked_weight(fx: float) -> float:
    if math.isnan(fx) or math.isinf(fx) or fx < 0.0:
        raise WeightError(f"weight function returned {fx}")
    return fx


def _exp_evidence(log_evidence: float) -> float:
    """P(e|x) from its log; +inf past the float range, where `math.exp`
    raises, so that an overflowing weight is a `WeightError`."""
    try:
        return math.exp(log_evidence)
    except OverflowError:
        return math.inf


def evidence_functional(trace: Trace) -> float:
    """f(x) = P(e|x)."""
    return _exp_evidence(trace.log_evidence)


def hypothesis_evidence_functional(trace: Trace) -> float:
    """f(x) = h(x) P(e|x)."""
    return trace.hypothesis * _exp_evidence(trace.log_evidence)


@dataclass(frozen=True, slots=True)
class BatchStats:
    """Per-trace summaries for a batch of runs, in seed order."""

    seeds: np.ndarray  # uint64
    accepted: np.ndarray  # bool
    fe: np.ndarray  # one-run free energy; NaN for rejected runs
    events: np.ndarray  # int64
    weight_evidence: np.ndarray  # f = P(e|x)
    weight_hyp_evidence: np.ndarray  # f = h(x) P(e|x)
    hypothesis: np.ndarray


# One trace's row of a batch: (events, accepted, fe, weight_evidence,
# weight_hyp_evidence, hypothesis), with the BatchStats field meanings.
TraceSummary = tuple[int, bool, float, float, float, float]


def summarize_run(run: _RunState) -> TraceSummary:
    """The batch row of a finished run, read from its columns without
    building its `Trace`.  A rejected run weighs zero; a completed run's
    weights are `importance_weight` of its `Trace` under
    `evidence_functional` and `hypothesis_evidence_functional`, bit for
    bit."""
    n_events = len(run.history) + len(run.evidence_fe)
    if run.status is not RunStatus.COMPLETED:
        return (n_events, False, math.nan, 0.0, 0.0, 0.0)
    log_num, log_den = _path_log_masses(run)
    if log_num == NEG_INF:
        return (n_events, True, run.fe, 0.0, 0.0, run.hypothesis)
    # The weights' operations in `importance_weight`'s order, so the
    # same error is raised first.
    evidence = _checked_weight(_exp_evidence(run.log_evidence))
    ratio = math.exp(log_num - log_den)
    hyp_evidence = _checked_weight(run.hypothesis * evidence)
    return (n_events, True, run.fe, evidence * ratio, hyp_evidence * ratio, run.hypothesis)


def stats_from_summaries(seeds, rows: Iterable[TraceSummary]) -> BatchStats:
    """Write per-trace rows, one per seed in seed order, into batch
    arrays; `rows` may be a generator, so no row outlives its trace."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    n = len(seeds)
    accepted = np.zeros(n, dtype=bool)
    fe = np.full(n, np.nan)
    events = np.zeros(n, dtype=np.int64)
    w_e = np.zeros(n)
    w_he = np.zeros(n)
    hyp = np.zeros(n)
    for i, (n_events, ok, run_fe, we, whe, h) in enumerate(rows):
        events[i] = n_events
        if ok:
            accepted[i] = True
            fe[i] = run_fe
            w_e[i] = we
            w_he[i] = whe
            hyp[i] = h
    return BatchStats(seeds, accepted, fe, events, w_e, w_he, hyp)


def batch_stats(
    model: ModelProgram,
    guide: Guide,
    seeds,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> BatchStats:
    """Run once per seed and summarize; no `Trace` is built for a run
    without extra choices, and no run is retained."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    return stats_from_summaries(seeds, map(summarize_run, _run_batch(model, guide, seeds, max_events)))


def estimate_from_batch(stats: BatchStats) -> FreeEnergyEstimate:
    """Fold per-trace stats into a rejection-adjusted free-energy estimate."""
    n_total = len(stats.seeds)
    acc_fe = stats.fe[stats.accepted]
    n_acc = int(acc_fe.size)
    if n_acc == 0:
        raise NoAcceptedRunsError(n_total)
    acceptance = n_acc / n_total
    total_events = int(stats.events.sum())
    if np.isinf(acc_fe).any():
        # Without a ceiling, infinite one-run free energies poison the
        # estimate by design; dropping them would bias it.
        return FreeEnergyEstimate(
            math.inf, math.inf, n_total, n_acc, acceptance, math.inf, total_events
        )
    mean = float(acc_fe.mean())
    se_mean = float(acc_fe.std(ddof=1) / math.sqrt(n_acc)) if n_acc > 1 else 0.0
    # Var(-log A_hat) ~ (1-A)/(n A) for the binomial acceptance count.
    se = math.sqrt(se_mean**2 + (1.0 - acceptance) / (n_total * acceptance))
    return FreeEnergyEstimate(
        mean, se, n_total, n_acc, acceptance, mean - math.log(acceptance), total_events
    )


def estimate_free_energy(
    model: ModelProgram,
    guide: Guide,
    n: int,
    base_seed: int,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> FreeEnergyEstimate:
    """Average the one-run free energy over n guided runs and subtract the
    log of the observed acceptance rate."""
    stats = batch_stats(model, guide, derive_seeds(base_seed, n), max_events=max_events)
    return estimate_from_batch(stats)


def check_delta(delta: float) -> None:
    """Raise `ValueError` unless 0 < delta < 1."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")


def lower_confidence_bound(samples, delta: float) -> LowerBoundResult:
    """Distribution-free 1-delta lower confidence bound on the mean of a
    nonnegative random variable.

    One-sided DKW order-statistic bound: with sorted samples
    x(1) <= ... <= x(n), x(0) := 0 and eps = sqrt(log(1/delta) / (2n)),

        bound = sum_i (x(i) - x(i-1)) * max(0, (n-i+1)/n - eps).
    """
    check_delta(delta)
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise EmptyError("no samples")
    if np.isnan(xs).any() or np.isinf(xs).any() or (xs < 0).any():
        raise ValueError("samples must be finite and nonnegative")
    bounds, means = _dkw_bound_rows(xs.reshape(1, -1), delta)
    n = int(xs.size)
    se = float(xs.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return LowerBoundResult(float(bounds[0]), 1.0 - delta, n, float(means[0]), se)


def lower_confidence_bound_batch(sample_rows: np.ndarray, delta: float) -> np.ndarray:
    """Vectorized DKW bound over rows of samples (for coverage studies)."""
    check_delta(delta)
    rows = np.asarray(sample_rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise EmptyError("need a 2-d array with at least one sample per row")
    return _dkw_bound_rows(rows, delta)[0]


def _dkw_bound_rows(rows: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    n = rows.shape[1]
    eps = math.sqrt(math.log(1.0 / delta) / (2.0 * n))
    xs = np.sort(rows, axis=1)
    diffs = np.diff(xs, axis=1, prepend=0.0)
    tail = (n - np.arange(1, n + 1) + 1) / n
    coeff = np.clip(tail - eps, 0.0, None)
    # Elementwise products with an axis sum keep the reduction order
    # independent of the batch size (a BLAS matvec would not).
    bounds = (diffs * coeff).sum(axis=1)
    means = (diffs * tail).sum(axis=1)
    # The clipped coefficients make bound <= mean mathematically; the
    # minimum guards the same inequality against float rounding.
    return np.minimum(bounds, means), means


def evidence_lower_bound(
    model: ModelProgram,
    guide: Guide,
    n: int,
    delta: float,
    base_seed: int,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> LowerBoundResult:
    """1-delta lower confidence bound on P(e) = sum_x P(x) P(e|x).

    Importance weights use f = P(e|x); rejected runs contribute weight
    zero, which keeps the bound valid.
    """
    stats = batch_stats(model, guide, derive_seeds(base_seed, n), max_events=max_events)
    return lower_confidence_bound(stats.weight_evidence, delta)


def hypothesis_estimate(
    model: ModelProgram,
    guide_num: Guide,
    guide_den: Guide,
    n: int,
    delta: float,
    base_seed: int,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> HypothesisEstimate:
    """Bound both sums of E(h|e) = sum P(x)P(e|x)h(x) / sum P(x)P(e|x).

    The numerator (f = h(x)P(e|x), under guide_num) and the denominator
    (f = P(e|x), under guide_den) use independent seed streams; the two
    sums generally have different perfect guides.  The quotient of the
    bounds is reported as an estimate, never as a bound.  The
    self-normalized estimate sum(w h)/sum(w) reuses the denominator runs.
    """
    num_stats = batch_stats(model, guide_num, derive_seeds(base_seed, n, stream=1), max_events=max_events)
    den_stats = batch_stats(model, guide_den, derive_seeds(base_seed, n, stream=2), max_events=max_events)
    return hypothesis_estimate_from_stats(num_stats, den_stats, delta)


def hypothesis_estimate_from_stats(
    num_stats: BatchStats, den_stats: BatchStats, delta: float
) -> HypothesisEstimate:
    num_bound = lower_confidence_bound(num_stats.weight_hyp_evidence, delta)
    den_bound = lower_confidence_bound(den_stats.weight_evidence, delta)

    w = den_stats.weight_evidence
    h = den_stats.hypothesis
    w_sum = float(w.sum())
    if w_sum > 0.0:
        self_norm = float((w * h).sum() / w_sum)
        self_norm_se = float(np.sqrt(((w * (h - self_norm)) ** 2).sum()) / w_sum)
    else:
        self_norm = None
        self_norm_se = None

    if den_bound.bound == 0.0:
        raise UndefinedRatioError(
            HypothesisEstimate(num_bound, den_bound, None, self_norm, self_norm_se)
        )
    ratio = num_bound.bound / den_bound.bound
    return HypothesisEstimate(num_bound, den_bound, ratio, self_norm, self_norm_se)


def merge_batch_stats(parts: list[BatchStats]) -> BatchStats:
    """Concatenate per-chunk stats in chunk order (parallel drivers)."""
    if len(parts) == 1:
        return parts[0]
    return BatchStats(
        seeds=np.concatenate([p.seeds for p in parts]),
        accepted=np.concatenate([p.accepted for p in parts]),
        fe=np.concatenate([p.fe for p in parts]),
        events=np.concatenate([p.events for p in parts]),
        weight_evidence=np.concatenate([p.weight_evidence for p in parts]),
        weight_hyp_evidence=np.concatenate([p.weight_hyp_evidence for p in parts]),
        hypothesis=np.concatenate([p.hypothesis for p in parts]),
    )
