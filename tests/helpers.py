"""Shared test models and guide constructions."""

import functools
import math
import zlib
from itertools import product

import numpy as np

from guidedppl import (
    ChoiceSite,
    ExtraChoicesUnsupportedError,
    FunctionGuide,
    GuideContext,
    RunStatus,
    dist_from_weights,
    evidence_functional,
    hypothesis_evidence_functional,
    importance_weight,
    point_mass,
    uniform_range,
)
from guidedppl.models import _ALPHABET, _DIE2_GIVEN_DIE1, _POINTS

DICE_FE_TARGET = 2.667228206581955  # ln(216/15)


def structured_dice_guide(die1_weights, ceiling=None):
    """Dice guide with a custom die1 table over 1..5; die2 uniform over the
    values that keep a sum of 7 reachable and die3 forced to complete it.
    Every sampled path satisfies the evidence, so the exact free energy is
    finite, and it equals the floor -log P(e) only for the posterior table."""
    die1 = dist_from_weights(list(zip(range(1, 6), die1_weights)))

    def fn(site):
        if site.index == 0:
            return die1
        if site.index == 1:
            return _DIE2_GIVEN_DIE1[site.history[0]]
        return _POINTS[7 - site.history[0] - site.history[1]]

    return FunctionGuide(fn, ceiling=ceiling)


def random_structured_dice_guide(seed, ceiling=None):
    rng = np.random.default_rng(seed)
    return structured_dice_guide(rng.random(5) + 0.05, ceiling=ceiling)


def random_table_dice_guide(seed, ceiling=None):
    """Full-support random tables at every site, keyed by history.  Such a
    guide reaches evidence-violating paths, so its exact free energy is
    infinite on the dice model."""

    def fn(site):
        h = zlib.crc32(repr((seed, site.index, site.history)).encode())
        rng = np.random.default_rng(h)
        return dist_from_weights(list(zip(range(1, 7), rng.random(6) + 0.05)))

    return FunctionGuide(fn, ceiling=ceiling)


_MASK64 = 2**64 - 1


def reference_uniform(seed: int, j: int) -> float:
    """Uniform j of the random stream of `seed` (random-stream version 2),
    in Python ints: SplitMix64's output function of seed + (j + 1) gamma
    mod 2**64, its top 53 bits times 2**-53.  The reference for
    `runtime._uniforms`."""
    z = (seed + (j + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


class ReferenceStream:
    """The random stream of one seed, read in order: its `random()` is
    uniform 0, 1, 2, ... of `reference_uniform`, so ``Dist.sample(stream)``
    draws as the run of that seed draws its next value."""

    def __init__(self, seed: int):
        self.seed = seed
        self.used = 0

    def random(self) -> float:
        self.used += 1
        return reference_uniform(self.seed, self.used - 1)


def random_full_support_guide(seed, ceiling=None):
    """Random tables over each site's prior support, weights in [0.05,
    1.05), keyed by (seed, site index, history); each table is made once."""

    @functools.cache
    def table(prior, history):
        h = zlib.crc32(repr((seed, len(history), history)).encode())
        weights = np.random.default_rng(h).random(len(prior)) + 0.05
        return dist_from_weights(list(zip(prior.values, weights)))

    return FunctionGuide(lambda site: table(site.prior, tuple(site.history)), ceiling=ceiling)


def no_choice_model(ctx):
    ctx.evidence(True)


def always_false_model(ctx):
    ctx.choose(uniform_range(1, 2), label="c")
    ctx.evidence(False)


def no_evidence_model(ctx):
    ctx.choose(uniform_range(1, 3), label="c")


def crash_on_three_model(ctx):
    v = ctx.choose(uniform_range(1, 3), label="c")
    ctx.evidence(1.0 / (v - 3) != 0)  # divides by zero when v == 3


def single_choice_model(ctx):
    ctx.choose(uniform_range(1, 2), label="bit")


def make_hashed_model(structure_seed: int, depth: int = 4, crash: bool = False):
    """A randomized finite model that is a deterministic function of its
    chosen values: site distributions, evidence probabilities, and the
    hypothesis are all derived by hashing (structure_seed, history).

    With `crash`, a hashed draw after each choice ends about one site in
    six in a crash: a raised `KeyError`, a NaN hypothesis, or a prior that
    is not a `Dist`.  Each history's draws are made once and kept, so a
    run costs no generator per site after its first visit."""

    def site_rng(history, tag):
        h = zlib.crc32(repr((structure_seed, history, tag)).encode())
        return np.random.default_rng(h)

    @functools.cache
    def site(history):
        rng = site_rng(history, ("site", len(history)))
        k = 2 + int(rng.integers(3))
        return dist_from_weights(list(zip(range(k), rng.random(k) + 0.05)))

    @functools.cache
    def after(history):
        """(evidence probability or None, crash kind or None) after a choice."""
        i = len(history) - 1
        rng2 = site_rng(history, ("evidence", i))
        p = float(rng2.random()) * 1.5 + 0.05 if rng2.random() < 0.5 else None
        kind = None
        if crash:
            rng3 = site_rng(history, ("crash", i))
            if rng3.random() < 1 / 6:
                kind = int(rng3.integers(3))
        return p, kind

    @functools.cache
    def hypothesis(history):
        return float(site_rng(history, "hyp").random())

    def model(ctx):
        history = ()
        for i in range(depth):
            prior = site(history)
            history += (ctx.choose(prior, label=f"s{i}"),)
            p, kind = after(history)
            if p is not None:
                ctx.evidence(p)
            if kind == 0:
                raise KeyError(f"boom at s{i}")
            if kind == 1:
                ctx.set_hypothesis(math.nan)  # a contract error
            if kind is not None:
                ctx.choose(list(range(len(prior))), label="bad")  # kind 2: not a Dist
        ctx.set_hypothesis(hypothesis(history))

    return model


def forcing_guide_for(model_values):
    """A guide that pins every choice to the given value sequence."""

    def fn(site):
        return point_mass(model_values[site.index])

    return FunctionGuide(fn)


def guided_paths(pe, guide):
    """``(entry, log G(x))`` for every completed path the guide can sample,
    in choice order: a recursive walk of the enumeration's tree that asks
    the guide for a proposal at each site it reaches."""

    def no_extra_choice(guide_dist, conditional):
        raise ExtraChoicesUnsupportedError("guided_paths does not support extra choices")

    def visit(node, history, log_guide):
        if type(node) is int:  # a leaf's row: a completed path or a crash
            if node not in pe.crash_reasons:
                paths.append((entries[history], log_guide))
            return
        g = guide.propose(ChoiceSite(len(history), node.label, node.prior, history, ()))
        if g is None:
            g = node.prior
        for v, child in zip(node.values, node.children):
            lg = g.log_prob(v)
            if lg > -math.inf:
                visit(child, history + (v,), log_guide + lg)

    entries = {entry.choices: entry for entry in pe.entries}
    paths = []
    guide.begin(GuideContext(no_extra_choice))
    visit(pe.root, (), 0.0)
    return paths


def summarize_trace(t):
    """The batch row of one trace, built from its `Trace`; rejected runs
    weigh zero.  The reference for `estimators.summarize_run`."""
    if t.status is RunStatus.COMPLETED:
        return (
            t.n_events,
            True,
            t.fe_total,
            importance_weight(t, evidence_functional),
            importance_weight(t, hypothesis_evidence_functional),
            t.hypothesis,
        )
    return (t.n_events, False, math.nan, 0.0, 0.0, 0.0)


def monkey_evidence_bruteforce(alphabet_size, length, pattern):
    """Exact P(pattern occurs) by enumerating every string (small lengths)."""
    alphabet = _ALPHABET[:alphabet_size]
    hits = sum(1 for chars in product(alphabet, repeat=length) if pattern in "".join(chars))
    return hits / alphabet_size**length
