"""Desk-scale example models, their guides, and special-purpose oracles.

Three models exercise the whole runtime surface:

* ``three_dice``: three fair dice observed to sum to 7; the hypothesis
  asks whether the first die was a 5.  Small enough to enumerate, with a
  closed-form posterior, so it anchors most oracle checks.
* ``monkey``: a string of uniform random characters observed to contain
  a pattern.  Its natural guide inserts an extra choice (the position to
  plant the pattern at), exercising model extensions; an automaton
  dynamic program gives the exact evidence probability.
* ``expr``: random arithmetic expression induction: choosing a small
  expression tree as the plain Python function f of x that it computes,
  observing f(3) == 9 and f(4) == 16, and asking whether f(5) == 25.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, Optional

from .dists import Dist, dist_from_weights, point_mass, uniform_range
from .guideopt import PointGuideFamily, TabularGuideFamily
from .runtime import ChoiceSite, FunctionGuide, Guide, GuideContext, ModelContext, PriorGuide, Trace

# ---------------------------------------------------------------------------
# three dice

_D6 = uniform_range(1, 6)

# Posterior of die1 given the sum is 7: for die1 = d there are 6 - d
# (die2, die3) completions, 15 in all.
_DIE1_POSTERIOR = dist_from_weights(
    [(1, 1 / 3), (2, 4 / 15), (3, 1 / 5), (4, 2 / 15), (5, 1 / 15)]
)
_DIE2_GIVEN_DIE1 = {d1: uniform_range(1, 6 - d1) for d1 in range(1, 6)}
_POINTS = {v: point_mass(v) for v in range(-11, 8)}


def three_dice(ctx: ModelContext) -> None:
    die1 = ctx.choose(_D6, label="die1")
    die2 = ctx.choose(_D6, label="die2")
    die3 = ctx.choose(_D6, label="die3")
    ctx.set_hypothesis(die1 == 5)
    ctx.evidence(die1 + die2 + die3 == 7)


class DicePosteriorGuide(Guide):
    """Samples the exact posterior over dice: die1 from its posterior,
    die2 uniform over values that still allow a sum of 7, die3 forced."""

    def __init__(self, ceiling: Optional[float] = None):
        self.ceiling = ceiling

    def propose(self, site: ChoiceSite) -> Optional[Dist]:
        if site.index == 0:
            return _DIE1_POSTERIOR
        if site.index == 1:
            return _DIE2_GIVEN_DIE1[site.history[0]]
        return _POINTS[7 - site.history[0] - site.history[1]]


def dice_site_key(index: int, label: Optional[str], history: tuple) -> str:
    if index == 0:
        return "die1"
    return f"die2|{history[0]}"


def _dice_force(site: ChoiceSite):
    if site.index == 2:
        return 7 - site.history[0] - site.history[1]
    return None


def dice_tabular_family(ceiling: Optional[float] = 30.0) -> TabularGuideFamily:
    """Learnable tables for die1 and die2 (keyed on die1); die3 is forced
    to complete the sum, so bad prefixes are rejected by the ceiling."""
    return TabularGuideFamily(dice_site_key, ceiling=ceiling, force=_dice_force)


def _dice_point_key(index: int, label: Optional[str], history: tuple) -> str:
    return f"{index}|{','.join(map(str, history))}"


def dice_point_family(ceiling: Optional[float] = 30.0) -> PointGuideFamily:
    return PointGuideFamily(_dice_point_key, ceiling=ceiling)


def _die1_is_5(site: ChoiceSite) -> Dist:
    """The ``die1_is_5`` guide: the one path (5, 1, 1) on which h = 1."""
    return (_POINTS[5], _POINTS[1], _POINTS[1])[site.index]


# ---------------------------------------------------------------------------
# monkey at a typewriter

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@lru_cache(maxsize=None)
def _char_dist(alphabet_size: int) -> Dist:
    n = alphabet_size
    return Dist(tuple(_ALPHABET[:n]), (1.0 / n,) * n)


def make_monkey_model(alphabet_size: int = 2, length: int = 12, pattern: str = "aba") -> Callable[[ModelContext], None]:
    """`length` uniform character choices; evidence that `pattern` occurs."""
    if not 1 <= alphabet_size <= len(_ALPHABET):
        raise ValueError(f"alphabet size must be 1..{len(_ALPHABET)}")
    alphabet = _ALPHABET[:alphabet_size]
    if any(c not in alphabet for c in pattern):
        raise ValueError(f"pattern {pattern!r} uses characters outside {alphabet!r}")
    if length < 1:
        raise ValueError("length must be at least 1")
    return partial(_monkey, _char_dist(alphabet_size), length, pattern)


def _monkey(char: Dist, length: int, pattern: str, ctx: ModelContext) -> None:
    chars = [ctx.choose(char) for _ in range(length)]
    ctx.evidence(pattern in "".join(chars))


class PatternInsertGuide(Guide):
    """Extra-choice guide for the monkey model.

    Inserts an extra choice y, uniform over the starting positions where
    the pattern fits, forces the characters at y..y+len(pattern)-1 to
    spell the pattern, and leaves the rest at their priors.  The
    model-extension conditional puts all mass on the *first* occurrence
    of the pattern in the finished string, so a run whose planted copy is
    not the first occurrence gets importance weight zero.
    """

    def __init__(self, alphabet_size: int = 2, length: int = 12, pattern: str = "aba",
                 ceiling: Optional[float] = None):
        self.length = length
        self.pattern = pattern
        self.ceiling = ceiling
        self._point = {c: point_mass(c) for c in _ALPHABET[:alphabet_size]}
        top = length - len(pattern)
        # Built once: at length 4,000 it has 3,998 atoms.  None when the pattern cannot occur.
        self._start = uniform_range(0, top) if top >= 0 else None

    def begin(self, ctx: GuideContext) -> None:
        if self._start is None:
            return  # pattern cannot occur; leave the run unguided
        ctx.extra_choice(self._start, self._first_occurrence)

    def _first_occurrence(self, trace: Trace) -> Dist:
        s = "".join(trace.values[:self.length])
        return point_mass(s.find(self.pattern))

    def propose(self, site: ChoiceSite) -> Optional[Dist]:
        if not site.extras:
            return None
        y = site.extras[0]
        if y <= site.index < y + len(self.pattern):
            return self._point[self.pattern[site.index - y]]
        return None


def monkey_evidence_dp(alphabet_size: int, length: int, pattern: str) -> float:
    """Exact P(pattern occurs) by dynamic programming over the states of
    the pattern-matching automaton, O(length * m * alphabet) for a pattern
    of length m, after O(m³ * alphabet) to tabulate its transitions."""
    if not 1 <= alphabet_size <= len(_ALPHABET):
        raise ValueError(f"alphabet size must be 1..{len(_ALPHABET)}")
    m = len(pattern)
    if m == 0:
        return 1.0
    # step[s][ci]: the length of the longest pattern prefix that pattern[:s] + c ends with; m absorbs.
    step = [[0] * alphabet_size for _ in range(m)]
    for s in range(m):
        for ci, c in enumerate(_ALPHABET[:alphabet_size]):
            t = pattern[:s] + c
            while not pattern.startswith(t):  # the empty string ends the loop
                t = t[1:]
            step[s][ci] = len(t)
    p_char = 1.0 / alphabet_size
    state_p = [0.0] * m
    state_p[0] = 1.0
    matched = 0.0
    for _ in range(length):
        nxt = [0.0] * m
        for s, ps in enumerate(state_p):
            if ps == 0.0:
                continue
            for ci in range(alphabet_size):
                t = step[s][ci]
                if t == m:
                    matched += ps * p_char
                else:
                    nxt[t] += ps * p_char
        state_p = nxt
    return matched


# ---------------------------------------------------------------------------
# expression induction

_EXPR_PRODUCTIONS = dist_from_weights(
    [("var", 0.3), ("const", 0.3), ("add", 0.2), ("mul", 0.2)]
)
_EXPR_TERMINALS = dist_from_weights([("var", 0.5), ("const", 0.5)])
_EXPR_CONSTS = uniform_range(0, 9)


def _identity(x: int) -> int:
    return x


def generate_expr(ctx: ModelContext, depth: int, depth_cap: int, path: str) -> Callable[[int], int]:
    """Choose an expression tree top-down, left subtree first, and return
    the function of x that it computes."""
    # At the depth cap the production prior is truncated to terminals.
    prior = _EXPR_PRODUCTIONS if depth < depth_cap else _EXPR_TERMINALS
    production = ctx.choose(prior, label=f"prod@{path}")
    if production == "var":
        return _identity
    if production == "const":
        c = ctx.choose(_EXPR_CONSTS, label=f"const@{path}")
        return lambda x: c
    left = generate_expr(ctx, depth + 1, depth_cap, path + "l")
    right = generate_expr(ctx, depth + 1, depth_cap, path + "r")
    op = operator.add if production == "add" else operator.mul
    return lambda x: op(left(x), right(x))


def make_expr_model(depth_cap: int = 3) -> Callable[[ModelContext], None]:
    """Generate a random expression f, observe f(3) == 9 and f(4) == 16,
    and set the hypothesis to whether f(5) == 25."""
    if depth_cap < 2:
        raise ValueError("depth cap must be at least 2")
    return partial(_expr_induction, depth_cap)


def _expr_induction(depth_cap: int, ctx: ModelContext) -> None:
    f = generate_expr(ctx, 1, depth_cap, "e")
    ctx.evidence(f(3) == 9)
    ctx.evidence(f(4) == 16)
    ctx.set_hypothesis(f(5) == 25)


def expr_site_key(index: int, label: Optional[str], history: tuple) -> str:
    return label or f"site{index}"


def expr_tabular_family(ceiling: Optional[float] = 100.0) -> TabularGuideFamily:
    """Tables keyed by tree position (the choice label), so the guide
    learns position-wise production and constant tables."""
    return TabularGuideFamily(expr_site_key, ceiling=ceiling)


# ---------------------------------------------------------------------------
# registry for the CLI and tests


@dataclass(frozen=True)
class ModelEntry:
    """A model of the table, with its guide factories and, if it has one,
    its tabular guide family.

    The CLI calls `build`, each guide factory and `family` with every
    option of the command as a keyword (``ceiling``, ``alphabet``,
    ``length``, ``pattern``, ``depth_cap``, ``params``); each takes the
    ones it needs and ignores the rest (``**_``).  A ceiling of None (no
    ``--ceiling``) gives the factory's default.  What `build`, a guide
    factory or a bound family returns must pickle (no closures or
    lambdas): the CLI builds each once and sends worker processes copies.
    """

    name: str
    build: Callable[..., Callable[[ModelContext], None]]
    guides: dict[str, Callable[..., Guide]]
    family: Optional[Callable[..., TabularGuideFamily]]


def _table_factory(factory: Callable[..., Any]) -> Callable[..., Any]:
    """`factory` as the table calls it: other options are ignored, and a
    ceiling of None takes the factory's own default."""
    return lambda ceiling=None, **_: factory() if ceiling is None else factory(ceiling=ceiling)


_prior = _table_factory(PriorGuide)

MODELS: dict[str, ModelEntry] = {
    "three_dice": ModelEntry(
        name="three_dice",
        build=lambda **_: three_dice,
        guides={
            "prior": _prior,
            "prior_reject": _table_factory(partial(PriorGuide, ceiling=500.0)),
            "posterior": _table_factory(DicePosteriorGuide),
            "die1_is_5": _table_factory(partial(FunctionGuide, _die1_is_5)),
        },
        family=_table_factory(dice_tabular_family),
    ),
    "monkey": ModelEntry(
        name="monkey",
        build=lambda alphabet=2, length=12, pattern="aba", **_: make_monkey_model(alphabet, length, pattern),
        guides={
            "prior": _prior,
            "pattern_insert": lambda alphabet=2, length=12, pattern="aba", ceiling=None, **_: PatternInsertGuide(
                alphabet, length, pattern, ceiling),
        },
        family=None,
    ),
    "expr": ModelEntry(
        name="expr",
        build=lambda depth_cap=3, **_: make_expr_model(depth_cap),
        guides={"prior": _prior},
        family=_table_factory(expr_tabular_family),
    ),
}
