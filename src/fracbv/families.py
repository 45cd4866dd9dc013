"""Infinite families of compactly supported counterexample solutions.

Two constructions share the same center placement on a convergent sequence
of disjoint supports:

* PowerLawFamily: antisymmetric packets for the power-law flux, with
  amplitudes tuned so the interaction times increase without bound while
  every fractional variation of order above the smoothing order diverges.
* ShockCellFamily: two-state cells for a general convex flux with decay
  metadata.  Each cell's states (a, b) solve a coupled pair of integral
  identities (equal state functionals, prescribed cell width); the initial
  jump position makes the cell mean-zero, and in large time exactly one
  shock survives between two fans.

Families are truncated at a finite index N for desk-scale evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigError, NumericsError
from .fanprofile import (
    FanContext,
    bisect_increasing,
    fan_at_time,
    slope_time_integral,
    source_time_integral,
)
from .flux import Flux, power_law_flux
from .source import SourceProfile
from .waves import (
    Packet,
    PiecewiseProfile,
    _packet_layout,
    flux_difference_drift,
    make_packet,
)


def packet_width(n: int) -> float:
    """Half-width 1 / (n log^2(n+1)) of the n-th support interval."""
    return 1.0 / (n * math.log(n + 1.0) ** 2)


def packet_amplitude(n: int, p: float) -> float:
    """Amplitude (n log^3(n+1))^(-1/p); width / amplitude^p = log(n+1)."""
    return (n * math.log(n + 1.0) ** 3) ** (-1.0 / p)


@dataclass(frozen=True)
class PowerLawFamily:
    flux: Flux
    source: SourceProfile
    N: int
    packets: Tuple[Packet, ...]


def power_law_family(p: float, source: SourceProfile, N: int) -> PowerLawFamily:
    """First N packets of the power-law counterexample family."""
    if N < 0:
        raise ValueError("truncation must be non-negative")
    flux = power_law_flux(p, M=packet_amplitude(1, p))  # amplitudes decrease in n
    packets = []
    prefix = 0.0  # running sum of widths, so centers cost O(N) overall
    for n in range(1, N + 1):
        width = packet_width(n)
        center = 4.0 * prefix + 2.0 * width
        prefix += width
        packets.append(make_packet(flux, source, center, width, packet_amplitude(n, p)))
    return PowerLawFamily(flux=flux, source=source, N=N, packets=tuple(packets))


@dataclass(frozen=True)
class ShockCell:
    """Cell n on [A, B]: state a left of the initial jump at tau, b right of it.

    ``t0`` is the family's meeting time: the inner fan edges and the shock
    meet at time t0, where both plateaus vanish and the cell becomes two
    fans separated by the surviving shock.
    """

    index: int
    A: float
    B: float
    a: float
    b: float
    tau: float
    t0: float


@dataclass(frozen=True)
class ShockCellFamily:
    flux: Flux
    source: SourceProfile
    t0: float
    n0: int
    N: int
    cells: Tuple[ShockCell, ...]


def state_functional(F: Flux, S: SourceProfile, t0: float, a: float) -> float:
    """G(a) = integral of [a f'(a e^B) - f(a e^B) e^{-B}] over [0, t0].

    Vanishes at 0, increases for a > 0, decreases for a < 0.  Closed form
    for power-law fluxes; quadrature per source piece otherwise.
    """
    if abs(a) > F.M * (1.0 + 1e-12):
        raise ValueError(f"state {a} outside the flux working interval")
    if a == 0.0:
        return 0.0
    if F.power is not None:
        q = F.power
        return abs(a) ** (q + 1.0) * q / (q + 1.0) * S.effective_time(q, t0)
    return source_time_integral(
        S, lambda e: a * F.df(a * e) - F.f(a * e) / e, t0, 1e-14 * max(1.0, abs(a))
    )


def edge_travel_plus(F: Flux, S: SourceProfile, t0: float, a: float) -> float:
    """F_plus(a): distance travelled by the level-a fan edge up to t0 (a >= 0)."""
    return slope_time_integral(F, S, a, t0)


def edge_travel_minus(F: Flux, S: SourceProfile, t0: float, b: float) -> float:
    """F_minus(b): same for a negative level, with the sign flipped (b <= 0)."""
    return -slope_time_integral(F, S, b, t0)


def _match_negative_state(F, S, t0, level: float, b_floor: float) -> float:
    """The b in [b_floor, 0] with G(b) = level; G decreases on the negatives."""
    return -bisect_increasing(lambda m: state_functional(F, S, t0, -m), 0.0, -b_floor, level)


def default_state_caps(F: Flux, S: SourceProfile, t0: float):
    """Anchor states (a0, b0) with G(a0) = G(b0), as large as the flux allows."""
    cap = F.decay.r if F.decay is not None else F.M
    cap = min(cap, F.M) * 0.999
    b_floor = -cap
    a_try = cap
    g_floor = state_functional(F, S, t0, b_floor)
    for _ in range(200):
        if state_functional(F, S, t0, a_try) <= g_floor:
            break
        a_try *= 0.5
    else:
        raise NumericsError("could not anchor the state functional match")
    a0 = a_try
    b0 = _match_negative_state(F, S, t0, state_functional(F, S, t0, a0), b_floor)
    return a0, b0


def _anchors(F: Flux, S: SourceProfile, t0: float):
    """(a0, b0, widest admissible cell width) from :func:`default_state_caps`."""
    a0, b0 = default_state_caps(F, S, t0)
    return a0, b0, min(edge_travel_plus(F, S, t0, a0), edge_travel_minus(F, S, t0, b0))


def solve_cell_states(
    F: Flux, S: SourceProfile, t0: float, A: float, B: float
) -> Tuple[float, float]:
    """States (a, b) with G(a) = G(b) and edge travels summing to B - A.

    G is :func:`state_functional`.  For a power-law flux G is even and the
    edge travels are a^q G_q(t0) and |b|^q G_q(t0), so the states are
    a = -b = ((B - A) / (2 G_q(t0)))^(1/q) in closed form, G_q the
    effective time.  Otherwise, since G decreases on the negatives, each
    a > 0 has one match(a) <= 0 with G(match(a)) = G(a), which leaves the
    single equation F_plus(a) + F_minus(match(a)) = B - A.  Its left side
    increases in a, so it is solved by a bracketed root search on
    [0, a_bar], where a_bar alone covers the width.  Raises ValueError when
    the width exceeds what the anchor states of :func:`default_state_caps`
    allow, and NumericsError unless both residuals end below 1e-10.
    """
    if B <= A:
        raise ValueError("need A < B")
    return _solve_states(F, S, t0, B - A, _anchors(F, S, t0))


def _solve_states(
    F: Flux, S: SourceProfile, t0: float, width: float, anchors
) -> Tuple[float, float]:
    """:func:`solve_cell_states` for a cell width, given :func:`_anchors`."""
    a0, b0, bound = anchors
    if width > bound * (1.0 + 1e-12):
        raise ValueError(f"cell width {width} exceeds the admissible bound {bound}")

    if F.power is not None:
        q = F.power
        x = width / (2.0 * S.effective_time(q, t0))
        a = x ** (1.0 / q)
        a_q = a**q
        if a_q == 0.0:
            raise NumericsError(f"cell width {width} underflows the cell states")
        # x ** (1/q) inherits the rounding of 1/q times |log x|, several ulp
        # for thin cells; one Newton step on a^q = x takes that out
        a += a * (x / a_q - 1.0) / q
        b = -a
    else:
        a_bar = bisect_increasing(lambda a: edge_travel_plus(F, S, t0, a), 0.0, a0, width)
        b_bar = -bisect_increasing(lambda m: edge_travel_minus(F, S, t0, -m), 0.0, -b0, width)

        def match(a: float) -> float:
            return _match_negative_state(F, S, t0, state_functional(F, S, t0, a), b_bar)

        a = bisect_increasing(
            lambda x: edge_travel_plus(F, S, t0, x) + edge_travel_minus(F, S, t0, match(x)),
            0.0,
            a_bar,
            width,
        )
        b = match(a)

    g_gap = abs(state_functional(F, S, t0, a) - state_functional(F, S, t0, b))
    w_gap = abs(edge_travel_plus(F, S, t0, a) + edge_travel_minus(F, S, t0, b) - width)
    if g_gap > 1e-10 or w_gap > 1e-10:
        raise NumericsError(
            f"cell state solve did not converge (residuals {g_gap:.2e}, {w_gap:.2e})"
        )
    return a, b


def initial_shock_position(
    F: Flux, S: SourceProfile, t0: float, A: float, B: float, a: float, b: float
) -> float:
    """Jump position tau making the cell mean-zero: a (tau - A) + b (B - tau) = 0.

    Chosen so the shock from (tau, 0) arrives at the fan-edge meeting point
    at exactly t0.
    """
    if a == b:
        raise ValueError("degenerate cell: a must differ from b")
    drift = flux_difference_drift(F, S, a, b, t0) / (a - b)
    return A + edge_travel_plus(F, S, t0, a) - drift


def shock_cell_family(
    F: Flux, S: SourceProfile, t0: float, N: int, n_start: int = 1
) -> ShockCellFamily:
    """Cells n0..N of the two-state family; n0 is the first admissible index.

    Verifies the degeneracy lower bound a - b >= c0^(-1/q) (B - A)^(1/q)
    with c0 = C * effective_time(q, t0) for every generated cell.
    """
    if not t0 > 0.0:
        raise ConfigError(f"shock-cell families need t0 > 0, got {t0}")
    if F.decay is None:
        raise ValueError("shock-cell families need flux decay metadata (q, C, r)")
    anchors = _anchors(F, S, t0)
    widest = anchors[2]
    n0 = None
    for n in range(n_start, N + 1):
        if 2.0 * packet_width(n) <= widest:
            n0 = n
            break
    if n0 is None:
        raise NumericsError(f"no admissible cell index up to N={N}")
    q, C = F.decay.q, F.decay.C
    c0 = C * S.effective_time(q, t0)
    cells: List[ShockCell] = []
    prefix = sum(packet_width(k) for k in range(1, n0))
    for n in range(n0, N + 1):
        width = packet_width(n)
        center = 4.0 * prefix + 2.0 * width
        prefix += width
        A, B = center - width, center + width
        a, b = _solve_states(F, S, t0, B - A, anchors)
        tau = initial_shock_position(F, S, t0, A, B, a, b)
        if a - b < c0 ** (-1.0 / q) * (B - A) ** (1.0 / q) * (1.0 - 1e-9):
            raise NumericsError(f"degeneracy lower bound violated at cell {n}")
        cells.append(ShockCell(index=n, A=A, B=B, a=a, b=b, tau=tau, t0=t0))
    return ShockCellFamily(flux=F, source=S, t0=t0, n0=n0, N=N, cells=tuple(cells))


def _shock_position(cell: ShockCell, F: Flux, S: SourceProfile, t: float, ode_steps: int = 256):
    """Shock position at time t: exact integral before t0, RK4 continuation after."""
    a, b, tau = cell.a, cell.b, cell.tau

    def pre(tt: float) -> float:
        return tau + flux_difference_drift(F, S, a, b, tt) / (a - b)

    t0 = cell.t0
    if t <= t0:
        return pre(t)
    ctx = FanContext(flux=F, source=S)

    def speed_at(tt: float):
        """Shock speed at time tt as a function of position.

        exp(B(tt)) and the fan's per-time work are shared by both fans and
        by every stage at time tt.
        """
        scale = math.exp(S.cumulative_source(tt))
        fan = fan_at_time(ctx, tt)

        def speed(z: float) -> float:
            ul = fan(z - cell.A) * scale
            ur = fan(z - cell.B) * scale
            if ul <= ur:
                raise NumericsError("post-interaction shock lost admissibility")
            return (F.f(ul) - F.f(ur)) / (ul - ur)

        return speed

    z = pre(t0)
    steps = max(ode_steps, int(math.ceil((t - t0) / 0.05)))
    h = (t - t0) / steps
    tt = t0
    speed_start = speed_at(tt)
    for _ in range(steps):
        # k2 and k3 share the midpoint time, and k4's time tt + h is the
        # next step's tt
        k1 = speed_start(z)
        speed_mid = speed_at(tt + 0.5 * h)
        k2 = speed_mid(z + 0.5 * h * k1)
        k3 = speed_mid(z + 0.5 * h * k2)
        speed_start = speed_at(tt + h)
        k4 = speed_start(z + h * k3)
        z += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tt += h
    if not cell.A < z < cell.B:
        raise NumericsError(f"shock escaped the cell: {z} not in ({cell.A}, {cell.B})")
    return z


def cell_profile(
    cell: ShockCell, F: Flux, S: SourceProfile, t: float, ode_steps: int = 256
) -> PiecewiseProfile:
    """Region structure of the cell solution at time t.

    Before ``cell.t0``: fan / plateau a / plateau b / fan, with the shock
    between the plateaus.  From ``cell.t0`` on: two fans and the shock.
    """
    if t <= 0.0:
        raise ValueError(f"cell profile needs t > 0, got {t}")
    if t < cell.t0:
        zeta_minus = cell.A + edge_travel_plus(F, S, t, cell.a)
        zeta_plus = cell.B - edge_travel_minus(F, S, t, cell.b)
        zeta_0 = cell.tau + flux_difference_drift(F, S, cell.a, cell.b, t) / (
            cell.a - cell.b
        )
        zeta_0 = min(max(zeta_0, zeta_minus), zeta_plus)
        ends = (cell.A, zeta_minus, zeta_0, zeta_plus, cell.B)
        fan = (True, False, False, True)
        anchor = (cell.A, cell.a, cell.b, cell.B)
    else:
        zeta_m = _shock_position(cell, F, S, t, ode_steps=ode_steps)
        ends, fan, anchor = (cell.A, zeta_m, cell.B), (True, True), (cell.A, cell.B)
    return PiecewiseProfile(FanContext(flux=F, source=S), t, ends, fan, anchor)


def family_profile(family, t: float) -> PiecewiseProfile:
    """Disjoint union of the member profiles, zero-filled between supports.

    A power-law family's packets are laid out in one pass, as
    :func:`packet_profile` lays out one; a shock-cell family has one
    :func:`cell_profile` per cell.  The members' arrays are joined with a
    zero region between supports.  An empty family is zero on [0, 1].
    """
    if t <= 0.0:
        raise ConfigError(f"family profile needs t > 0, got {t}")
    F, S = family.flux, family.source
    if isinstance(family, PowerLawFamily):
        members = [_packet_layout(F, S, family.packets, t)] if family.packets else []
    elif isinstance(family, ShockCellFamily):
        members = [cell_profile(c, F, S, t) for c in family.cells]
    else:
        raise TypeError(f"unsupported family type {type(family).__name__}")
    if not members:
        return PiecewiseProfile(FanContext(flux=F, source=S), t, (0.0, 1.0), (False,), (0.0,))
    return PiecewiseProfile(
        members[0].ctx, t,
        np.concatenate([m.ends for m in members]),
        np.concatenate([np.append(m.fan, False) for m in members])[:-1],
        np.concatenate([np.append(m.anchor, 0.0) for m in members])[:-1],
    )
