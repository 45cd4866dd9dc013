"""Exact entropy-solution structures: shocks and fans.

Solutions of u_t + f(u)_x = alpha(t) u built from structured initial data
are stored as three arrays: k + 1 region ends, k fan flags and k anchors
(the level of a constant region, the center of a fan), under the flux
and source that the fans need.  They evaluate pointwise without any
discretization, every fan point through the one fan evaluator
:func:`fracbv.fanprofile.fan_values`.  Jumps stay sharp; sampling for
variation measurements happens elsewhere.  Two-state cells, packets
among them, and their layout into profiles live in :mod:`fracbv.families`;
this module holds the profile, the flux drift and the single shock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError, NumericsError
from .fanprofile import fan_values, source_time_integral
from .flux import Flux
from .source import SourceProfile


@dataclass(frozen=True)
class ConstantRegion:
    left: float
    right: float
    w: float  # region value is w * exp(B(t))


@dataclass(frozen=True)
class FanRegion:
    left: float
    right: float
    center: float  # region value is V(x - center, t) * exp(B(t))


@dataclass(frozen=True, eq=False)
class PiecewiseProfile:
    """Exact solution at a fixed time as k contiguous ordered regions.

    ``flux`` and ``source`` are the f and alpha of the balance law, which
    the fan regions need: V is :func:`fracbv.fanprofile.fan_values`.
    Region i spans [ends[i], ends[i + 1]].  Where ``fan[i]`` is false its
    value is anchor[i] * exp(B(t)); where it is true the region is a fan
    centered at anchor[i], valued V(x - anchor[i], t) * exp(B(t)).  Outside
    the covered span the solution is zero.  Breakpoints where the left and
    right values differ are entropy shocks (left > right).  Raises
    ValueError unless there are k >= 1 flags and anchors and k + 1 ends.
    """

    flux: Flux
    source: SourceProfile
    time: float
    ends: np.ndarray
    fan: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        for name, dtype in (("ends", float), ("fan", bool), ("anchor", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        k = self.fan.size
        if self.fan.ndim != 1 or k < 1 or self.anchor.shape != (k,) or self.ends.shape != (k + 1,):
            raise ValueError("a profile needs k >= 1 fan flags and anchors and k + 1 ends")

    @property
    def span(self) -> Tuple[float, float]:
        return float(self.ends[0]), float(self.ends[-1])

    @property
    def regions(self) -> Tuple:
        """The regions as :class:`ConstantRegion` and :class:`FanRegion`, a read-only view."""
        ends = self.ends.tolist()
        return tuple(
            FanRegion(left, right, center=a) if f else ConstantRegion(left, right, w=a)
            for left, right, f, a in zip(ends, ends[1:], self.fan.tolist(), self.anchor.tolist())
        )

    def _values(self, xs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Value at each point of ``xs`` taken in the region of the same place in ``idx``."""
        scale = self.source.growth(self.time)
        values = self.anchor[idx] * scale
        fan = self.fan[idx]
        values[fan] = fan_values(self.flux, self.source, xs[fan] - self.anchor[idx[fan]], self.time) * scale
        return values

    def __call__(self, x: float) -> float:
        """The value at x, as :meth:`evaluate` gives it."""
        return float(self.evaluate(np.array([x]))[0])

    def evaluate(self, xs) -> np.ndarray:
        """Values at every point of ``xs``; zero outside the covered span.

        A point on a shared end takes the region to its right, found with
        one ``searchsorted`` over all points; fan points go through one
        :func:`fan_values` call.
        """
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        lo, hi = self.span
        inside = (xs >= lo) & (xs <= hi)
        pts = xs[inside]
        out[inside] = self._values(pts, np.searchsorted(self.ends[:-1], pts, side="right") - 1)
        return out

    def side_values(self, x: float):
        """(left limit, right limit) at x; equal except at shock points.

        Zero-width regions (degenerate plateaus at exact saturation) are
        skipped when picking the one-sided neighbours.
        """
        ends = self.ends
        last = self.fan.size - 1
        idx = min(max(int(np.searchsorted(ends[:-1], x, side="right")) - 1, 0), last)
        right = idx
        while right < last and ends[right] == ends[right + 1]:
            right += 1
        left = idx - 1 if ends[idx] == x and idx >= 1 else idx
        while left > 0 and ends[left] == ends[left + 1]:
            left -= 1
        return tuple(self._values(np.array([x, x]), np.array([left, right])).tolist())


def flux_difference_drift(F: Flux, S: SourceProfile, w_plus: float, w_minus: float, t: float) -> float:
    """integral of [f(w_plus e^B) - f(w_minus e^B)] e^{-B} over [0, t].

    Closed form for power-law fluxes; quadrature per source piece otherwise.
    Divided by (w_plus - w_minus) this is the shock displacement.
    """
    if F.power is not None:
        p = F.power
        diff = (abs(w_plus) ** (p + 1.0) - abs(w_minus) ** (p + 1.0)) / (p + 1.0)
        return diff * S.effective_time(p, t)
    return source_time_integral(S, lambda e: (F.f(w_plus * e) - F.f(w_minus * e)) / e, t, 1e-13)


def riemann_shock(
    F: Flux, S: SourceProfile, w_minus: float, w_plus: float, x0: float, t: float
):
    """Shock solution of the Riemann problem w_minus -> w_plus (w_minus > w_plus).

    Returns (position, left value, right value) at time t.  The position is
    x0 plus the integrated jump speed; the states carry the exp(B) factor.
    """
    if w_minus <= w_plus:
        raise ConfigError("shock needs w_minus > w_plus (otherwise it is a fan)")
    drift = flux_difference_drift(F, S, w_plus, w_minus, t) / (w_plus - w_minus)
    scale = S.growth(t)
    return x0 + drift, w_minus * scale, w_plus * scale


def speed_bound(F: Flux, S: SourceProfile, T: float) -> float:
    """Propagation speed bound max |f'| over the reachable state interval.

    States stay within [-M e^{max B}, M e^{max B}] up to time T, max B over
    [0, T]; for convex f' the extreme slopes sit at the interval ends.
    Raises NumericsError naming max B when the bound passes float64.
    """
    max_b = S.max_cumulative_source(T)
    try:
        reach = F.M * math.exp(max_b)
        with np.errstate(over="ignore"):  # an overflowing f' gives inf, refused below
            speed = max(abs(float(F.df(-reach))), abs(float(F.df(reach))))
    except OverflowError:
        speed = math.inf
    if not speed < math.inf:
        raise NumericsError(
            f"the speed bound max |f'| on [-M e^(max B), M e^(max B)] overflows float64 at max B = {max_b:g}"
        )
    return speed
