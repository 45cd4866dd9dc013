"""Piecewise-constant source coefficients and their exact primitives.

The balance law u_t + f(u)_x = alpha(t) u is driven by a bounded coefficient
alpha.  Everything downstream needs four derived quantities, all available
in closed form when alpha is piecewise constant:

* cumulative_source(t)            B(t) = integral of alpha over [0, t]
* growth(t, q)                    exp(q B(t)), the factor states grow by
* effective_time(p, t)            G_p(t) = integral of exp(p B) over [0, t]
* effective_time_limit(p)         the t -> infinity limit of G_p

``effective_time`` plays the role of a rescaled time: it equals t when
alpha = 0 and saturates at a finite value when alpha is eventually negative.
``SourceProfile`` is the one place these exponentials of B are formed, and
each is refused (NumericsError) only when its value passes float64.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Tuple

from .errors import ConfigError, NumericsError


@dataclass(frozen=True)
class SourceProfile:
    """alpha as a right-continuous step function.

    ``breakpoints`` are the left endpoints of the constancy pieces; the first
    must be 0 and the last piece extends to infinity.  ``pieces``, built once
    from them, holds one row (left, value, right, B(left)) per piece, with
    right = inf on the last piece and B(left) summed piece by piece from the
    left; every primitive reads it.  G_p at the piece ends is tabulated once
    per p, on first use (:meth:`_effective_time_table`).
    """

    breakpoints: Tuple[float, ...]
    values: Tuple[float, ...]
    pieces: Tuple[Tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # p -> G_p table

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or not self.breakpoints:
            raise ValueError("breakpoints and values must be equal-length, non-empty")
        if not all(math.isfinite(v) for v in (*self.breakpoints, *self.values)):
            raise ValueError("breakpoints and values must be finite")
        if self.breakpoints[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        rights = (*self.breakpoints[1:], math.inf)
        pieces = []
        b_left = 0.0
        for left, value, right in zip(self.breakpoints, self.values, rights):
            pieces.append((left, value, right, b_left))
            b_left += value * (right - left)
        object.__setattr__(self, "pieces", tuple(pieces))

    @classmethod
    def zero(cls) -> "SourceProfile":
        return cls((0.0,), (0.0,))

    @classmethod
    def constant(cls, a: float) -> "SourceProfile":
        return cls((0.0,), (float(a),))

    @classmethod
    def piecewise(cls, breakpoints, values) -> "SourceProfile":
        return cls(tuple(float(b) for b in breakpoints), tuple(float(v) for v in values))

    def cumulative_source(self, t: float) -> float:
        """B(t): piecewise-linear primitive of alpha, B(0) = 0."""
        _check_time(t)
        k = bisect_left(self.breakpoints, t) - 1
        if k < 0:
            return 0.0
        left, value, _, b_left = self.pieces[k]
        return b_left + value * (t - left)

    def growth(self, t: float, q: float = 1.0) -> float:
        """exp(q B(t)); NumericsError naming t and B(t) when it passes float64."""
        b = self.cumulative_source(t)
        try:
            return math.exp(q * b)
        except OverflowError:
            factor = "e^(B(t))" if q == 1.0 else f"e^({q:g} B(t))"
            raise NumericsError(
                f"the growth factor {factor} overflows float64 at t = {t:g}, B(t) = {b:g}"
            ) from None

    def min_cumulative_source(self, t: float) -> float:
        """min of B over [0, t]."""
        return min(self._corner_values(t))

    def max_cumulative_source(self, t: float) -> float:
        """max of B over [0, t]."""
        return max(self._corner_values(t))

    def _corner_values(self, t: float) -> Tuple[float, ...]:
        """B at 0, at t and at the breakpoints in between.

        B is piecewise linear, so its extremes over [0, t] are among these.
        """
        _check_time(t)
        inner = bisect_left(self.breakpoints, t)
        return (0.0, self.cumulative_source(t), *(b_left for _, _, _, b_left in self.pieces[1:inner]))

    def effective_time(self, p: float, t: float) -> float:
        """integral of exp(p B(theta)) over [0, t]; strictly increasing in t.

        ``t = math.inf`` returns :meth:`effective_time_limit`.  G_p at the
        left end of t's piece, from the table, plus the exact integral over
        the rest (exp of a linear function).  Raises NumericsError, naming t
        and max B over [0, t], when a finite t gives a value past float64.
        """
        _check_time(t)
        table = self._effective_time_table(p)
        if math.isinf(t):
            return table[-1]
        k = max(bisect_left(self.breakpoints, t), 1)  # t = 0 takes the first piece's empty span
        left, value, _, b_left = self.pieces[k - 1]
        total = table[k - 1] + _exp_linear_integral(p, b_left, value, t - left)
        if math.isinf(total):
            raise NumericsError(
                f"the effective time G_p(t), the integral of e^(p B) over [0, t], overflows float64 "
                f"at p = {p:g}, t = {t:g}, max B = {self.max_cumulative_source(t):g}"
            )
        return total

    def effective_time_limit(self, p: float) -> float:
        """Limit of effective_time as t -> infinity; may be math.inf.

        Finite exactly when the last piece has a strictly negative value
        (math.inf also when the limit passes float64).
        """
        return self._effective_time_table(p)[-1]

    def effective_time_inverse(self, p: float, target: float) -> float:
        """The unique t with effective_time(p, t) = target, or math.inf.

        Returns math.inf when target >= effective_time_limit(p): the target
        level is never reached.
        """
        if target < 0.0:
            raise ValueError(f"target must be non-negative, got {target}")
        if target == 0.0:
            return 0.0
        table = self._effective_time_table(p)
        if target >= table[-1]:
            return math.inf
        # the piece whose end first reaches the target; invert it in closed form
        k = bisect_left(table, target)
        left, value, right, b_left = self.pieces[k - 1]
        remainder = target - table[k - 1]
        try:
            scale = math.exp(p * b_left)
        except OverflowError:  # e^(p B) passes float64 here: divide by it in log space
            remainder, scale = math.exp(math.log(remainder) - p * b_left), 1.0
        if value == 0.0:
            return left + remainder / scale
        # remainder = scale * (exp(p a tau) - 1) / (p a)
        arg = remainder * p * value / scale
        if arg <= -1.0:  # the target rounds onto the piece's end
            return right
        return left + math.log1p(arg) / (p * value)

    def _effective_time_table(self, p: float) -> Tuple[float, ...]:
        """G_p at each breakpoint, summed from the left, then the limit (entry k is G_p(breakpoints[k]))."""
        table = self._tables.get(p)
        if table is None:
            if not p >= 1.0:
                raise ValueError(f"exponent must satisfy p >= 1, got {p}")
            terms = (_exp_linear_integral(p, b, value, right - left) for left, value, right, b in self.pieces)
            table = self._tables[p] = tuple(accumulate(terms, initial=0.0))
        return table


def _check_time(t: float) -> None:
    if not t >= 0.0:
        raise ConfigError(f"time must be non-negative, got {t}")


def _exp_linear_integral(p: float, b0: float, slope: float, span: float) -> float:
    """integral over [0, span] of exp(p (b0 + slope*theta)) dtheta.

    math.inf when the integral diverges or its value passes float64.  Where
    the product e^(p b0) expm1(x) / (p slope), x = p slope span, overflows
    although the integral fits, every factor is folded into one exponent
    at the piece's larger end: e^(p max B) (1 - e^(-|x|)) / |p slope|, or
    e^(p b0) span when x is 0.
    """
    if span <= 0.0:
        return 0.0
    rate = p * slope
    if math.isinf(span) and slope >= 0.0:
        return math.inf
    try:
        scale = math.exp(p * b0)
        if math.isinf(span):
            value = scale / -rate
        elif slope == 0.0:
            value = scale * span
        else:
            value = scale * math.expm1(rate * span) / rate
    except OverflowError:
        value = math.inf
    if value < math.inf:
        return value
    x = abs(rate) * span
    factor = -math.expm1(-x) / abs(rate) if x > 0.0 else span
    try:
        return math.exp(p * max(b0, b0 + slope * span) + math.log(factor))
    except OverflowError:
        return math.inf


def parse_alpha(spec: str) -> SourceProfile:
    """Source from its string spec, the form the CLI's ``--alpha`` takes.

    'zero' | 'constant:<a>' | 'pw:<t1>:<v1>,<t2>:<v2>,...', the pw pairs
    being (breakpoint, value).  Raises ConfigError on a malformed spec.
    """
    try:
        if spec == "zero":
            return SourceProfile.zero()
        if spec.startswith("constant:"):
            return SourceProfile.constant(float(spec.split(":", 1)[1]))
        if spec.startswith("pw:"):
            pairs = [item.split(":") for item in spec[3:].split(",")]
            ts = [float(t) for t, _ in pairs]
            vs = [float(v) for _, v in pairs]
            return SourceProfile.piecewise(ts, vs)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad --alpha value {spec!r}: {exc}") from exc
    raise ConfigError(f"bad --alpha value {spec!r}")
