"""Exact entropy-solution structures: shocks, fans, antisymmetric packets.

Solutions of u_t + f(u)_x = alpha(t) u built from structured initial data
are stored as three arrays: k + 1 region ends, k fan flags and k anchors
(the level of a constant region, the center of a fan).  They evaluate
pointwise without any discretization.  Jumps stay sharp; sampling for
variation measurements happens elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .fanprofile import FanContext, fan_values, slope_time_integral, source_time_integral
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

    Region i spans [ends[i], ends[i + 1]].  Where ``fan[i]`` is false its
    value is anchor[i] * exp(B(t)); where it is true the region is a fan
    centered at anchor[i], valued V(x - anchor[i], t) * exp(B(t)).  Outside
    the covered span the solution is zero.  Breakpoints where the left and
    right values differ are entropy shocks (left > right).  Raises
    ValueError unless there are k >= 1 flags and anchors and k + 1 ends.
    """

    ctx: FanContext
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
        scale = math.exp(self.ctx.source.cumulative_source(self.time))
        values = self.anchor[idx] * scale
        fan = self.fan[idx]
        values[fan] = fan_values(self.ctx, xs[fan] - self.anchor[idx[fan]], self.time) * scale
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


@dataclass(frozen=True)
class Packet:
    """Antisymmetric square pulse: +delta on [x_n - dx, x_n], -delta after.

    ``t_n`` is the interaction time at which the two fan edges meet at x_n;
    it is infinite when the effective time saturates below dx / delta^p.
    """

    x_n: float
    dx: float
    delta: float
    p: float
    t_n: float

    @property
    def support(self) -> Tuple[float, float]:
        return self.x_n - self.dx, self.x_n + self.dx


def make_packet(F: Flux, S: SourceProfile, x_n: float, dx: float, delta: float) -> Packet:
    if F.power is None:
        raise ValueError("packets require a power-law flux")
    if dx <= 0.0 or delta <= 0.0:
        raise ConfigError("packet needs dx > 0 and delta > 0")
    p = F.power
    t_n = S.effective_time_inverse(p, dx / delta**p)
    return Packet(x_n=float(x_n), dx=float(dx), delta=float(delta), p=p, t_n=t_n)


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
    scale = math.exp(S.cumulative_source(t))
    return x0 + drift, w_minus * scale, w_plus * scale


def fan_edges(F: Flux, S: SourceProfile, packet: Packet, t: float):
    """Positions (zeta_L, zeta_R) of the packet's inner fan edges at time t.

    zeta_L is where the left fan reaches +delta, zeta_R where the right fan
    reaches -delta.  A fan reaches level w at the offset from its center
    given by the slope time integral at w.  After the interaction time the
    edges have crossed; the raw solutions are still returned.
    """
    if t <= 0.0:
        raise ValueError(f"fan edges need t > 0, got {t}")
    x_l, x_r = packet.support
    zeta_l = x_l + slope_time_integral(F, S, packet.delta, t)
    zeta_r = x_r + slope_time_integral(F, S, -packet.delta, t)
    return zeta_l, zeta_r


def packet_profile(F: Flux, S: SourceProfile, P: Packet, t: float) -> PiecewiseProfile:
    """Region structure of the packet solution at time t.

    Before the interaction time: fan / plateau +delta / plateau -delta / fan
    with a single shock at the center.  From the interaction time on: two
    fans meeting at the (stationary) center.
    """
    if t <= 0.0:
        raise ConfigError(f"packet profile needs t > 0, got {t}")
    return _packet_layout(F, S, (P,), t)


def _packet_layout(F: Flux, S: SourceProfile, packets: Sequence[Packet], t: float):
    """Packets side by side at time t > 0, in order, zero between them.

    Each packet takes five slots: fan, plateau +delta, plateau -delta, fan
    and the zero gap to the next packet, which the last packet does not
    take.  From its interaction time on a packet's plateaus are dropped and
    its fans meet at the center.  The effective time G is taken once and
    delta |delta|^(p-1) once per packet, as a Python float; numpy rounds
    the products and sums with it as Python does, so the fan edges are
    those of :func:`fan_edges` bit for bit.
    """
    p = F.power
    g = S.effective_time(p, t)
    x_n, dx, delta, t_n, reach = np.array(
        [(P.x_n, P.dx, P.delta, P.t_n, P.delta * abs(P.delta) ** (p - 1.0)) for P in packets]
    ).T
    x_l, x_r = x_n - dx, x_n + dx
    before = t < t_n
    zeta_r = np.where(before, x_r - reach * g, x_n)
    ends = np.column_stack((x_l, x_l + reach * g, x_n, zeta_r, x_r)).ravel()
    fan = np.tile([True, False, False, True, False], len(packets))
    anchor = np.column_stack((x_l, delta, -delta, x_r, np.zeros_like(x_n))).ravel()
    keep = np.repeat(before, 5) | np.tile([True, False, False, True, True], len(packets))
    return PiecewiseProfile(
        FanContext(flux=F, source=S), t, ends[keep], fan[keep][:-1], anchor[keep][:-1]
    )


def speed_bound(F: Flux, S: SourceProfile, T: float) -> float:
    """Propagation speed bound max |f'| over the reachable state interval.

    States stay within [-M e^{sup B}, M e^{sup B}] up to time T; for convex
    f' the extreme slopes sit at the interval ends.
    """
    reach = F.M * math.exp(S.sup_norm * T)
    return max(abs(float(F.df(-reach))), abs(float(F.df(reach))))
