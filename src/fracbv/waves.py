"""Exact entropy-solution structures: shocks, fans, antisymmetric packets.

Solutions of u_t + f(u)_x = alpha(t) u built from structured initial data
are represented as ordered region lists (constants and centered fans) that
evaluate pointwise without any discretization.  Jumps stay sharp; sampling
for variation measurements happens elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import ConfigError
from .fanprofile import (
    FanContext,
    fan_profile,
    fan_values,
    slope_time_integral,
    source_time_integral,
)
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


Region = Union[ConstantRegion, FanRegion]


@dataclass(frozen=True)
class PiecewiseProfile:
    """Exact solution at a fixed time as contiguous ordered regions.

    Outside the covered span the solution is zero.  Breakpoints where the
    left and right values differ are entropy shocks (left > right).
    """

    ctx: FanContext
    time: float
    regions: Tuple[Region, ...]

    def __post_init__(self):
        for r, s in zip(self.regions, self.regions[1:]):
            if r.right != s.left:
                raise ValueError("profile regions must be contiguous")

    @property
    def span(self) -> Tuple[float, float]:
        return self.regions[0].left, self.regions[-1].right

    def region_value(self, region: Region, x: float) -> float:
        scale = math.exp(self.ctx.source.cumulative_source(self.time))
        if isinstance(region, ConstantRegion):
            return region.w * scale
        return fan_profile(self.ctx, x - region.center, self.time) * scale

    def __call__(self, x: float) -> float:
        lo, hi = self.span
        if x < lo or x > hi or not self.regions:
            return 0.0
        lefts = [r.left for r in self.regions]
        idx = min(max(np.searchsorted(lefts, x, side="right") - 1, 0), len(self.regions) - 1)
        return self.region_value(self.regions[idx], x)

    def evaluate(self, xs) -> np.ndarray:
        """Values at every point of ``xs``; zero outside the covered span.

        Picks each point's region as :meth:`__call__` does, with one
        ``searchsorted`` over all points, and evaluates all fan points
        through :func:`fan_values`.  For power-law fluxes that array power
        may differ from the scalar fan profile in the last bit.
        """
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        lo, hi = self.span
        inside = (xs >= lo) & (xs <= hi)
        pts = xs[inside]
        idx = np.searchsorted([r.left for r in self.regions], pts, side="right") - 1
        idx = np.clip(idx, 0, len(self.regions) - 1)
        scale = math.exp(self.ctx.source.cumulative_source(self.time))
        is_fan = np.array([isinstance(r, FanRegion) for r in self.regions])
        # constant regions take w * scale; fan regions are overwritten below
        level = np.array([0.0 if f else r.w * scale for r, f in zip(self.regions, is_fan)])
        centers = np.array([r.center if f else 0.0 for r, f in zip(self.regions, is_fan)])
        values = level[idx]
        fan = is_fan[idx]
        offsets = pts[fan] - centers[idx[fan]]
        values[fan] = fan_values(self.ctx, offsets, self.time) * scale
        out[inside] = values
        return out

    def side_values(self, x: float):
        """(left limit, right limit) at x; equal except at shock points.

        Zero-width regions (degenerate plateaus at exact saturation) are
        skipped when picking the one-sided neighbours.
        """
        lefts = [r.left for r in self.regions]
        idx = int(np.searchsorted(lefts, x, side="right") - 1)
        idx = min(max(idx, 0), len(self.regions) - 1)
        j = idx
        while j + 1 < len(self.regions) and self.regions[j].left == self.regions[j].right:
            j += 1
        right_region = self.regions[j]
        k = idx - 1 if self.regions[idx].left == x and idx >= 1 else idx
        while k > 0 and self.regions[k].left == self.regions[k].right:
            k -= 1
        left_region = self.regions[k]
        return self.region_value(left_region, x), self.region_value(right_region, x)

    def breakpoints(self):
        pts = [r.left for r in self.regions]
        pts.append(self.regions[-1].right)
        return pts


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
        raise ValueError("packet needs dx > 0 and delta > 0")
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
        raise ValueError(f"packet profile needs t > 0, got {t}")
    ctx = FanContext(flux=F, source=S)
    x_l, x_r = P.support
    if t < P.t_n:
        zeta_l, zeta_r = fan_edges(F, S, P, t)
        regions = (
            FanRegion(x_l, zeta_l, center=x_l),
            ConstantRegion(zeta_l, P.x_n, w=P.delta),
            ConstantRegion(P.x_n, zeta_r, w=-P.delta),
            FanRegion(zeta_r, x_r, center=x_r),
        )
    else:
        regions = (
            FanRegion(x_l, P.x_n, center=x_l),
            FanRegion(P.x_n, x_r, center=x_r),
        )
    return PiecewiseProfile(ctx=ctx, time=t, regions=regions)


def speed_bound(F: Flux, S: SourceProfile, T: float) -> float:
    """Propagation speed bound max |f'| over the reachable state interval.

    States stay within [-M e^{sup B}, M e^{sup B}] up to time T; for convex
    f' the extreme slopes sit at the interval ends.
    """
    reach = F.M * math.exp(S.sup_norm * T)
    return max(abs(float(F.df(-reach))), abs(float(F.df(reach))))
