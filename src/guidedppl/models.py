"""Desk-scale example models, their guides, and special-purpose oracles.

Three models exercise the whole runtime surface:

* ``three_dice``: three fair dice observed to sum to 7; the hypothesis
  asks whether the first die was a 5.  Small enough to enumerate, with a
  closed-form posterior, so it anchors most oracle checks.
* ``monkey``: a string of uniform random characters observed to contain
  a pattern.  Its natural guide inserts an extra choice (the position to
  plant the pattern at), exercising model extensions; an automaton
  dynamic program gives the exact evidence probability.
* ``expr``: random arithmetic expression induction, generating a small
  expression tree, observing f(3) == 9 and f(4) == 16, and asking
  whether f(5) == 25.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Union

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


def dice_point_family(ceiling: Optional[float] = 30.0) -> PointGuideFamily:
    return PointGuideFamily(lambda i, label, hist: f"{i}|{','.join(map(str, hist))}", ceiling=ceiling)


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
    char = _char_dist(alphabet_size)

    def monkey(ctx: ModelContext) -> None:
        chars = [ctx.choose(char) for _ in range(length)]
        ctx.evidence(pattern in "".join(chars))

    return monkey


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
        s = "".join(trace.choices[i].chosen for i in range(self.length))
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
    the pattern-matching automaton, O(length * len(pattern) * alphabet)."""
    m = len(pattern)
    if m == 0:
        return 1.0
    if m > length:
        return 0.0
    alphabet = _ALPHABET[:alphabet_size]
    if any(c not in alphabet for c in pattern):
        return 0.0
    # Failure links: longest proper prefix of the pattern that is a suffix.
    fail = [0] * m
    k = 0
    for i in range(1, m):
        while k > 0 and pattern[i] != pattern[k]:
            k = fail[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        fail[i] = k
    # State transition table; state m is absorbing.
    step = [[0] * alphabet_size for _ in range(m)]
    for s in range(m):
        for ci, c in enumerate(alphabet):
            k = s
            while k > 0 and c != pattern[k]:
                k = fail[k - 1]
            step[s][ci] = k + 1 if c == pattern[k] else 0
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


@dataclass(frozen=True, slots=True)
class Var:
    def evaluate(self, x: int) -> int:
        return x


@dataclass(frozen=True, slots=True)
class Const:
    value: int

    def evaluate(self, x: int) -> int:
        return self.value


@dataclass(frozen=True, slots=True)
class Add:
    left: "ExprNode"
    right: "ExprNode"

    def evaluate(self, x: int) -> int:
        return self.left.evaluate(x) + self.right.evaluate(x)


@dataclass(frozen=True, slots=True)
class Mul:
    left: "ExprNode"
    right: "ExprNode"

    def evaluate(self, x: int) -> int:
        return self.left.evaluate(x) * self.right.evaluate(x)


ExprNode = Union[Var, Const, Add, Mul]


def generate_expr(ctx: ModelContext, depth: int, depth_cap: int, path: str) -> ExprNode:
    # At the depth cap the production prior is truncated to terminals.
    prior = _EXPR_PRODUCTIONS if depth < depth_cap else _EXPR_TERMINALS
    production = ctx.choose(prior, label=f"prod@{path}")
    if production == "var":
        return Var()
    if production == "const":
        return Const(ctx.choose(_EXPR_CONSTS, label=f"const@{path}"))
    left = generate_expr(ctx, depth + 1, depth_cap, path + "l")
    right = generate_expr(ctx, depth + 1, depth_cap, path + "r")
    return Add(left, right) if production == "add" else Mul(left, right)


def make_expr_model(depth_cap: int = 3) -> Callable[[ModelContext], None]:
    """Generate a random expression f, observe f(3) == 9 and f(4) == 16,
    and set the hypothesis to whether f(5) == 25."""
    if depth_cap < 2:
        raise ValueError("depth cap must be at least 2")

    def expr_induction(ctx: ModelContext) -> None:
        f = generate_expr(ctx, 1, depth_cap, "e")
        ctx.evidence(f.evaluate(3) == 9)
        ctx.evidence(f.evaluate(4) == 16)
        ctx.set_hypothesis(f.evaluate(5) == 25)

    return expr_induction


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
    name: str
    build: Callable[..., Callable[[ModelContext], None]]
    guides: dict[str, Callable[..., Guide]]
    family: Optional[Callable[..., TabularGuideFamily]]
    model_args: tuple[str, ...]  # config keys forwarded to build()


def _dice_guides() -> dict:
    return {
        "prior": lambda ceiling=None, **_: PriorGuide(ceiling=ceiling),
        "prior_reject": lambda ceiling=500.0, **_: PriorGuide(ceiling=ceiling if ceiling is not None else 500.0),
        "posterior": lambda ceiling=None, **_: _with_ceiling(DicePosteriorGuide(), ceiling),
        "die1_is_5": lambda ceiling=None, **_: _with_ceiling(
            FunctionGuide(lambda site: {0: _POINTS[5], 1: _POINTS[1], 2: _POINTS[1]}[site.index]),
            ceiling,
        ),
    }


def _with_ceiling(guide: Guide, ceiling: Optional[float]) -> Guide:
    if ceiling is not None:
        guide.ceiling = ceiling
    return guide


def _monkey_guides() -> dict:
    return {
        "prior": lambda ceiling=None, **_: PriorGuide(ceiling=ceiling),
        "pattern_insert": lambda alphabet=2, length=12, pattern="aba", ceiling=None, **_: PatternInsertGuide(
            alphabet_size=alphabet, length=length, pattern=pattern, ceiling=ceiling
        ),
    }


def _expr_guides() -> dict:
    return {
        "prior": lambda ceiling=None, **_: PriorGuide(ceiling=ceiling),
    }


MODELS: dict[str, ModelEntry] = {
    "three_dice": ModelEntry(
        name="three_dice",
        build=lambda **_: three_dice,
        guides=_dice_guides(),
        family=lambda ceiling=30.0, **_: dice_tabular_family(ceiling=ceiling if ceiling is not None else 30.0),
        model_args=(),
    ),
    "monkey": ModelEntry(
        name="monkey",
        build=lambda alphabet=2, length=12, pattern="aba", **_: make_monkey_model(alphabet, length, pattern),
        guides=_monkey_guides(),
        family=None,
        model_args=("alphabet", "length", "pattern"),
    ),
    "expr": ModelEntry(
        name="expr",
        build=lambda depth_cap=3, **_: make_expr_model(depth_cap),
        guides=_expr_guides(),
        family=lambda ceiling=100.0, **_: expr_tabular_family(ceiling=ceiling if ceiling is not None else 100.0),
        model_args=("depth_cap",),
    ),
}
