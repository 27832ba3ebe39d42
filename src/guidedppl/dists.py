"""Finite categorical distributions over tagged scalar values.

Every random choice in a model or guide program is drawn from a `Dist`:
an ordered, normalized probability table over distinct integer, boolean,
or symbol (string) values.  All probability arithmetic elsewhere in the
package is carried in natural-log space (nats), with ``-inf`` encoding
probability zero.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Sequence, Union

import numpy as np

Value = Union[int, bool, str]

NEG_INF = float("-inf")

# How far a `Dist`'s masses may miss summing to 1: normalized weights
# miss it by a few ulps, while masses that sum to 0.4 would make sampling
# and enumeration disagree.
MASS_SUM_TOLERANCE = 1e-9


class ZeroMassError(ValueError):
    """All supplied weights were zero."""


class DuplicateValueError(ValueError):
    """The same support value appeared more than once."""


class EmptyRangeError(ValueError):
    """An integer range with lo > hi has no atoms."""


def _as_value(v) -> Value:
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, str):
        return v
    raise TypeError(f"support values must be int, bool, or str, got {type(v).__name__}")


def log_nonneg(p: float) -> float:
    """Natural log of a nonnegative number, with log(0) = -inf; a NaN or
    a negative raises `ValueError`."""
    if p > 0.0:
        return math.log(p)
    if p == 0.0:
        return NEG_INF
    raise ValueError(f"mass {p!r} is not a nonnegative number")


class Dist:
    """Normalized categorical distribution with an ordered support.

    Read-only by contract: its attributes can be reassigned, but nothing
    in the package writes to a `Dist` after building it, so one is safe
    to share across samplers.  Masses must be nonnegative, with at least
    one positive (`ZeroMassError` otherwise), and sum to 1 within
    `MASS_SUM_TOLERANCE` (`ValueError` otherwise).  Sampling is
    inverse-CDF over the support order, so a fixed random stream always
    maps to the same value.  The cumulative
    masses, the value -> index map and the log-masses (``log_nonneg`` of
    each mass) are computed once here; `sample` and `log_prob` only read
    them.
    """

    __slots__ = ("values", "masses", "_cum", "_index", "_logs")

    def __init__(self, values: Sequence[Value], masses: Sequence[float]):
        self.values: tuple[Value, ...] = tuple(values)
        self.masses: tuple[float, ...] = tuple(masses)
        self._index = {v: i for i, v in enumerate(self.values)}
        if len(self._index) != len(self.values):
            raise DuplicateValueError(f"duplicate support value in {self.values!r}")
        log_of = {m: log_nonneg(m) for m in set(self.masses)}  # one float per distinct mass
        self._logs = tuple(map(log_of.__getitem__, self.masses))
        cum = list(accumulate(self.masses))
        if cum[-1] == 0.0:  # nonnegative masses: all are zero
            raise ZeroMassError(f"no support value of {self.values!r} has positive mass")
        if abs(cum[-1] - 1.0) > MASS_SUM_TOLERANCE:
            raise ValueError(f"masses of {self.values!r} sum to {cum[-1]!r}, not 1")
        cum[-1] = 1.0  # absorb last-ulp normalization slack
        self._cum = cum

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(zip(self.values, self.masses))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        return self.values == other.values and self.masses == other.masses

    def __hash__(self):
        return hash((self.values, self.masses))

    def __repr__(self) -> str:
        body = ", ".join(f"{v!r}: {m:.6g}" for v, m in self)
        return f"Dist({{{body}}})"

    def prob(self, v: Value) -> float:
        i = self._index.get(v)
        return 0.0 if i is None else self.masses[i]

    def log_prob(self, v: Value) -> float:
        """Natural log of v's mass; -inf when v is outside the support."""
        i = self._index.get(v)
        return NEG_INF if i is None else self._logs[i]

    def sample(self, rng: np.random.Generator) -> Value:
        """Draw one value with one ``rng.random()`` call; deterministic
        given the generator state.  A sampled run maps each uniform of
        its own stream (random-stream version 2, see `runtime`) to a
        value the same way, by inverse CDF over the support order."""
        u = rng.random()
        return self.values[bisect_right(self._cum, u)]


def dist_from_weights(pairs: Iterable[tuple[Value, float]]) -> Dist:
    """Build a Dist from (value, nonnegative weight) pairs.

    Weights are normalized to sum to one; zero-weight entries are dropped.
    Raises ZeroMassError when nothing has positive weight and
    DuplicateValueError when a value repeats.
    """
    values: list[Value] = []
    weights: list[float] = []
    seen = set()
    for v, w in pairs:
        v = _as_value(v)
        w = float(w)
        if math.isnan(w) or w < 0.0:
            raise ValueError(f"weight for {v!r} must be nonnegative, got {w}")
        if v in seen:
            raise DuplicateValueError(f"duplicate support value {v!r}")
        seen.add(v)
        if w == 0.0:
            continue
        values.append(v)
        weights.append(w)
    if not values:
        raise ZeroMassError("no support value has positive weight")
    try:
        total = math.fsum(weights)
    except OverflowError:  # finite weights whose partial sums leave the float range
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("weights must have a finite sum")
    return Dist(values, [w / total for w in weights])


def uniform_range(lo: int, hi: int) -> Dist:
    """Uniform distribution on the integers lo..hi inclusive."""
    if lo > hi:
        raise EmptyRangeError(f"empty integer range {lo}..{hi}")
    n = hi - lo + 1
    return Dist(range(lo, hi + 1), [1.0 / n] * n)


def point_mass(v: Value) -> Dist:
    """Distribution concentrated on a single value."""
    return Dist([_as_value(v)], [1.0])
