"""Statistical validity of the sampling pipeline against the exact oracle.

Golden digests pin traces bit for bit; this suite checks what the
estimators state.  Each configuration runs `BATCHES` batches of n guided
runs on fixed seeds, through model, guide, ceiling, crashes, weights and
bound, and compares every batch with what `enumerate_paths` gives
exactly:

* DKW coverage: the 1 - delta lower bounds on P(e) and on the hypothesis
  numerator sum P(x) P(e|x) h(x) may each exceed the exact value in at
  most `_budget(delta)` of the batches, the binomial mean plus three
  standard deviations;
* z-scores of `adjusted_fe` against `exact_guided_profile` and of
  `self_normalized` against `exact_conditional_expectation`: |z| > 1.96
  in at most `_budget(0.05)` of the batches, and a mean z within
  `MEAN_Z_TOLERANCE` of zero (three standard errors of a mean of
  `BATCHES` unit-variance scores).

A miss here is a finding about the pipeline: do not change the seeds or
the sizes to make it pass.
"""

import math
import zlib
from functools import cache

import numpy as np
import pytest

from guidedppl import (
    PriorGuide,
    batch_stats,
    derive_seeds,
    enumerate_paths,
    exact_conditional_expectation,
    exact_evidence,
    exact_guided_profile,
    lower_confidence_bound_batch,
)
from guidedppl.estimators import BatchStats, UndefinedRatioError, estimate_from_batch, hypothesis_estimate_from_stats
from guidedppl.models import make_expr_model, three_dice

from helpers import make_hashed_model, random_full_support_guide, random_structured_dice_guide

BATCHES = 100
DELTA = 0.05
ROOT_SEED = 2024
MEAN_Z_TOLERANCE = 3 / math.sqrt(BATCHES)


def _budget(rate: float) -> float:
    """Misses allowed in `BATCHES` batches that each miss with probability `rate`."""
    return rate * BATCHES + 3 * math.sqrt(BATCHES * rate * (1 - rate))


# name -> (model, guide factory, runs per batch, check of the
# self-normalized estimate).  "z" checks its z-scores, which need a
# nonzero delta-method standard error: it is 0 whenever a batch's
# weighted runs agree on h.  On expr cap 2 every run that meets the
# evidence has h = 1, so the estimate must equal the exact value
# ("exact").  Under the dice prior about 35 runs of 500 are accepted,
# 1 in 15 of them with h = 1, so a zero standard error is common and a
# z-score says nothing (None).  A finite ceiling that rejects runs of
# positive weight makes the estimate target E(h | e, not rejected), not
# the oracle's E(h | e) (None).
CONFIGS = {
    "dice/prior_reject": (three_dice, lambda: PriorGuide(ceiling=500.0), 500, None),
    "dice/structured": (three_dice, lambda: random_structured_dice_guide(3), 500, "z"),
    "expr2/prior_reject": (make_expr_model(2), lambda: PriorGuide(ceiling=50.0), 500, "exact"),
    "hashed0_crash/prior": (make_hashed_model(0, crash=True), PriorGuide, 500, "z"),
    "hashed1_crash/random": (make_hashed_model(1, crash=True), lambda: random_full_support_guide(1), 50, "z"),
    "hashed3_crash/random_2": (make_hashed_model(3, crash=True), lambda: random_full_support_guide(1, ceiling=2.0), 50, None),
}


def _batches(stats: BatchStats, n: int):
    """`stats` cut into consecutive batches of n runs."""
    fields = [getattr(stats, f) for f in BatchStats.__dataclass_fields__]
    return [BatchStats(*(a[start:start + n] for a in fields)) for start in range(0, len(stats.seeds), n)]


@cache
def validity_report(name: str, root_seed: int = ROOT_SEED) -> dict:
    """Misses and z-scores of configuration `name` over `BATCHES` batches
    on the seeds of `root_seed`."""
    model, make_guide, n, _ = CONFIGS[name]
    pe = enumerate_paths(model)
    guide = make_guide()
    exact = exact_guided_profile(pe, guide)
    evidence = exact_evidence(pe)
    expectation = exact_conditional_expectation(pe)
    stream = zlib.crc32(name.encode())
    stats = batch_stats(model, guide, derive_seeds(root_seed, n * BATCHES, stream=stream))
    evidence_bounds = lower_confidence_bound_batch(stats.weight_evidence.reshape(BATCHES, n), DELTA)
    numerator_bounds = lower_confidence_bound_batch(stats.weight_hyp_evidence.reshape(BATCHES, n), DELTA)
    z_fe, self_normalized = [], []
    for part in _batches(stats, n):
        est = estimate_from_batch(part)
        z_fe.append((est.adjusted_fe - exact.adjusted_fe) / est.std_error)
        try:
            hyp = hypothesis_estimate_from_stats(part, part, DELTA)
        except UndefinedRatioError as exc:
            hyp = exc.partial
        self_normalized.append((hyp.self_normalized, hyp.self_normalized_se))
    return {
        "evidence_misses": int((evidence_bounds > evidence).sum()),
        "numerator_misses": int((numerator_bounds > evidence * expectation).sum()),
        "z_fe": np.array(z_fe),
        "self_normalized": self_normalized,
        "expectation": expectation,
    }


def _check_z(z: np.ndarray) -> None:
    assert np.isfinite(z).all()
    assert (np.abs(z) > 1.96).sum() <= _budget(0.05)
    assert abs(z.mean()) <= MEAN_Z_TOLERANCE


@pytest.mark.parametrize("name", CONFIGS)
def test_dkw_bounds_cover_the_exact_sums(name):
    report = validity_report(name)
    assert report["evidence_misses"] <= _budget(DELTA)
    assert report["numerator_misses"] <= _budget(DELTA)


@pytest.mark.parametrize("name", CONFIGS)
def test_adjusted_fe_z_scores(name):
    _check_z(validity_report(name)["z_fe"])


# Under a random full-support guide on hashed model 1 the importance
# weights are heavy-tailed (the largest is over 100 times their mean), and
# the delta-method standard error understates the estimate's spread: |z| >
# 1.96 in about 30% of batches, at n = 50 and at n = 500 alike.
_HEAVY_TAILED = pytest.mark.xfail(strict=True, reason="self_normalized_se understates the spread of "
                                  "the self-normalized estimate under heavy-tailed weights")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=_HEAVY_TAILED) if name == "hashed1_crash/random" else name
    for name, config in CONFIGS.items() if config[3] is not None])
def test_self_normalized_against_the_exact_expectation(name):
    report = validity_report(name)
    expectation = report["expectation"]
    if CONFIGS[name][3] == "exact":
        assert all(est == pytest.approx(expectation, abs=1e-12) for est, _ in report["self_normalized"])
    else:
        _check_z(np.array([(est - expectation) / se for est, se in report["self_normalized"]]))
