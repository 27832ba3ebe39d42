"""Shared test models and guide constructions."""

import math
import zlib
from itertools import product

import numpy as np

from guidedppl import (
    FunctionGuide,
    PathEntry,
    RunStatus,
    dist_from_weights,
    evidence_functional,
    hypothesis_evidence_functional,
    importance_weight,
    point_mass,
    uniform_range,
)
from guidedppl.enumeration import _walk
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
    is not a `Dist`."""

    def site_rng(history, tag):
        h = zlib.crc32(repr((structure_seed, tuple(history), tag)).encode())
        return np.random.default_rng(h)

    def model(ctx):
        history = []
        for i in range(depth):
            rng = site_rng(history, ("site", i))
            k = 2 + int(rng.integers(3))
            weights = rng.random(k) + 0.05
            v = ctx.choose(dist_from_weights(list(zip(range(k), weights))), label=f"s{i}")
            history.append(v)
            rng2 = site_rng(history, ("evidence", i))
            if rng2.random() < 0.5:
                ctx.evidence(float(rng2.random()) * 1.5 + 0.05)
            if crash:
                rng3 = site_rng(history, ("crash", i))
                if rng3.random() < 1 / 6:
                    kind = int(rng3.integers(3))
                    if kind == 0:
                        raise KeyError(f"boom at s{i}")
                    if kind == 1:
                        ctx.set_hypothesis(math.nan)  # a contract error
                    ctx.choose(list(range(k)), label="bad")  # kind 2: not a Dist
        ctx.set_hypothesis(float(site_rng(history, "hyp").random()))

    return model


def forcing_guide_for(model_values):
    """A guide that pins every choice to the given value sequence."""

    def fn(site):
        return point_mass(model_values[site.index])

    return FunctionGuide(fn)


def guided_paths(pe, guide):
    """``(entry, log G(x))`` for every completed path the guide can sample."""
    return [(entry, log_guide) for entry, log_guide, *_ in _walk(pe, guide, []) if type(entry) is PathEntry]


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


# The JSON emitter of `guidedppl.cli` before its fast paths, kept verbatim
# as the reference that `cli.dumps` must match byte for byte.


def _reference_format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _reference_emit(value, indent: int, out: list) -> None:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_reference_format_float(float(value)))
    elif isinstance(value, str):
        out.append(reference_escape(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.append(f"{inner}{reference_escape(str(k))}: ")
            _reference_emit(v, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(items):
            out.append(inner)
            _reference_emit(v, indent + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_escape(s: str) -> str:
    parts = ['"']
    for ch in s:
        if ch == '"':
            parts.append('\\"')
        elif ch == "\\":
            parts.append("\\\\")
        elif ch == "\n":
            parts.append("\\n")
        elif ch == "\t":
            parts.append("\\t")
        elif ch == "\r":
            parts.append("\\r")
        elif ord(ch) < 0x20:
            parts.append(f"\\u{ord(ch):04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def reference_dumps(doc) -> str:
    out: list[str] = []
    _reference_emit(doc, 0, out)
    return "".join(out)
