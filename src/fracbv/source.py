"""Piecewise-constant source coefficients and their exact primitives.

The balance law u_t + f(u)_x = alpha(t) u is driven by a bounded coefficient
alpha.  Everything downstream needs three derived quantities, all available
in closed form when alpha is piecewise constant:

* cumulative_source(t)            B(t) = integral of alpha over [0, t]
* effective_time(p, t)            integral of exp(p B) over [0, t]
* effective_time_limit(p)         the t -> infinity limit of the above

``effective_time`` plays the role of a rescaled time: it equals t when
alpha = 0 and saturates at a finite value when alpha is eventually negative.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Tuple

from .errors import ConfigError


@dataclass(frozen=True)
class SourceProfile:
    """alpha as a right-continuous step function.

    ``breakpoints`` are the left endpoints of the constancy pieces; the first
    must be 0 and the last piece extends to infinity.  ``pieces``, built once
    from them, holds one row (left, value, right, B(left)) per piece, with
    right = inf on the last piece and B(left) summed piece by piece from the
    left; every primitive reads it.
    """

    breakpoints: Tuple[float, ...]
    values: Tuple[float, ...]
    pieces: Tuple[Tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )

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

    @property
    def sup_norm(self) -> float:
        return max(abs(v) for v in self.values)

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)

    def cumulative_source(self, t: float) -> float:
        """B(t): piecewise-linear primitive of alpha, B(0) = 0."""
        _check_time(t)
        k = bisect_left(self.breakpoints, t) - 1
        if k < 0:
            return 0.0
        left, value, _, b_left = self.pieces[k]
        return b_left + value * (t - left)

    def min_cumulative_source(self, t: float) -> float:
        """min of B over [0, t]; attained at 0, t, or a breakpoint."""
        _check_time(t)
        inner = bisect_left(self.breakpoints, t)
        inner_b = (b_left for _, _, _, b_left in self.pieces[1:inner])
        return min(0.0, self.cumulative_source(t), *inner_b)

    def effective_time(self, p: float, t: float) -> float:
        """integral of exp(p B(theta)) over [0, t]; strictly increasing in t.

        ``t = math.inf`` returns :meth:`effective_time_limit`.  Each piece is
        integrated exactly (exp of a linear function).
        """
        if p < 1.0:
            raise ValueError(f"exponent must satisfy p >= 1, got {p}")
        _check_time(t)
        if math.isinf(t):
            return self.effective_time_limit(p)
        total = 0.0
        for left, value, right, b_left in self.pieces[: bisect_left(self.breakpoints, t)]:
            total += _exp_linear_integral(p, b_left, value, min(t, right) - left)
        return total

    def effective_time_limit(self, p: float) -> float:
        """Limit of effective_time as t -> infinity; may be math.inf.

        Finite exactly when the last piece has a strictly negative value.
        """
        if p < 1.0:
            raise ValueError(f"exponent must satisfy p >= 1, got {p}")
        last_left, last_value, _, b_last = self.pieces[-1]
        if last_value >= 0.0:
            return math.inf
        head = self.effective_time(p, last_left) if last_left > 0.0 else 0.0
        # integral over [last_left, inf) of exp(p (b_last + a theta')) dtheta'
        return head + math.exp(p * b_last) / (p * abs(last_value))

    def effective_time_inverse(self, p: float, target: float) -> float:
        """The unique t with effective_time(p, t) = target, or math.inf.

        Returns math.inf when target >= effective_time_limit(p): the target
        level is never reached.
        """
        if target < 0.0:
            raise ValueError(f"target must be non-negative, got {target}")
        if target == 0.0:
            return 0.0
        if p < 1.0:
            raise ValueError(f"exponent must satisfy p >= 1, got {p}")
        # Locate the piece containing the target, then invert in closed form.
        acc = 0.0
        for left, value, right, b_left in self.pieces:
            # the last end is the limit bit for bit (the same terms in the same
            # order); an earlier end is it only if later pieces add nothing
            end = acc + _exp_linear_integral(p, b_left, value, right - left)
            last = math.isinf(right)
            if target >= end and (last or target == end and target >= self.effective_time_limit(p)):
                return math.inf
            if end >= target or last:
                remainder = target - acc
                scale = math.exp(p * b_left)
                if value == 0.0:
                    return left + remainder / scale
                # remainder = scale * (exp(p a tau) - 1) / (p a)
                arg = remainder * p * value / scale
                if arg <= -1.0:  # the target rounds onto the piece's end
                    return right
                return left + math.log1p(arg) / (p * value)
            acc = end
        raise AssertionError("unreachable: last piece is unbounded")


def _check_time(t: float) -> None:
    if not t >= 0.0:
        raise ConfigError(f"time must be non-negative, got {t}")


def _exp_linear_integral(p: float, b0: float, slope: float, span: float) -> float:
    """integral over [0, span] of exp(p (b0 + slope*theta)) dtheta."""
    if span <= 0.0:
        return 0.0
    scale = math.exp(p * b0)
    if math.isinf(span):
        return math.inf if slope >= 0.0 else scale / (p * abs(slope))
    if slope == 0.0:
        return scale * span
    return scale * math.expm1(p * slope * span) / (p * slope)


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
