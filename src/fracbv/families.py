"""Infinite families of compactly supported counterexample solutions.

Every member is a two-state cell (:class:`ShockCell`): state a left of a
jump at tau, state b right of it, on a support [A, B], with both inner fan
edges reaching tau at the meeting time t0.  Before t0 a cell is fan /
plateau a / plateau b / fan with the shock between the plateaus; from t0
on it is two fans and the one surviving shock.  Two constructions share
the same support placement on a convergent sequence of disjoint supports:

* PowerLawFamily: antisymmetric packets for the power-law flux, the
  symmetric cells a = delta = -b, tau = x_n, t0 = t_n, with amplitudes
  tuned so the interaction times t_n increase without bound while every
  fractional variation of order above the smoothing order diverges.
* ShockCellFamily: cells for a general convex flux with decay metadata,
  all with one meeting time t0.  Each cell's states (a, b) solve a coupled
  pair of integral identities (equal state functionals, prescribed cell
  width); the initial jump position makes the cell mean-zero.  The shock
  position comes from conservation of the cell's mass, in closed form
  before the fans meet and by one bracketed root search after.

A family keeps its cells as the columns of one read-only (7, n) float array,
rows index, A, B, a, b, tau, t0 as in :class:`ShockCell`; ``cells`` builds
the records on access.  One array layout builds the profile of one cell and
of a whole family from these columns.  Families are truncated at a finite
index N for desk-scale evaluation.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError, NumericsError
from .fanprofile import bisect_increasing, fan_values, slope_time_integral, source_time_integral
from .flux import Flux, power_law_flux
from .source import SourceProfile
from .waves import PiecewiseProfile, flux_difference_drift


def packet_width(n: int) -> float:
    """Half-width 1 / (n log^2(n+1)) of the n-th support interval."""
    return 1.0 / (n * math.log(n + 1.0) ** 2)


def packet_amplitude(n: int, p: float) -> float:
    """Amplitude (n log^3(n+1))^(-1/p); width / amplitude^p = log(n+1)."""
    return (n * math.log(n + 1.0) ** 3) ** (-1.0 / p)


def _supports(n0: int, N: int):
    """Arrays (n, center, half-width) of supports n0..N, centers 4 * prefix + 2 * width.

    ``prefix`` is the sum of the half-widths before n, accumulated left to
    right by ``np.cumsum``, so the supports stay disjoint.
    """
    widths = np.array([packet_width(k) for k in range(1, N + 1)])
    prefix = np.zeros_like(widths)
    np.cumsum(widths[:-1], out=prefix[1:])
    return np.arange(n0, N + 1), (4.0 * prefix + 2.0 * widths)[n0 - 1 :], widths[n0 - 1 :]


@dataclass(frozen=True)
class ShockCell:
    """Cell n on [A, B]: state a left of the initial jump at tau, b right of it.

    ``t0`` is the cell's meeting time: the inner fan edges and the shock
    meet at time t0, where both plateaus vanish and the cell becomes two
    fans separated by the surviving shock.  An antisymmetric packet is the
    cell with a = -b; its t0 is infinite when the effective time saturates
    before the fan edges meet.
    """

    index: int
    A: float
    B: float
    a: float
    b: float
    tau: float
    t0: float


def _record(column) -> ShockCell:
    n, *fields = column  # a family's column: index, A, B, a, b, tau, t0
    return ShockCell(int(n), *fields)


class _CellColumns:
    """Cells as one read-only float array ``columns`` of shape (7, n), rows in
    :class:`ShockCell` field order; ``cells`` builds the records from it.
    Families compare and hash by identity, as an array field cannot hash."""

    def __post_init__(self) -> None:
        self.columns.setflags(write=False)

    @property
    def cells(self) -> Tuple[ShockCell, ...]:
        return tuple(map(_record, zip(*self.columns.tolist())))


@dataclass(frozen=True, eq=False)
class PowerLawFamily(_CellColumns):
    flux: Flux
    source: SourceProfile
    N: int
    columns: np.ndarray


def make_packet(F: Flux, S: SourceProfile, x_n: float, dx: float, delta: float) -> ShockCell:
    """Lone packet: +delta on [x_n - dx, x_n), -delta on [x_n, x_n + dx], as cell 1.

    Its fan edges meet at x_n when G_p reaches dx / delta^p.  Raises
    ValueError for a flux other than a power law, and ConfigError unless
    delta > 0 and x_n - dx < x_n < x_n + dx, both ends finite.
    """
    if F.power is None:
        raise ValueError("packets require a power-law flux")
    x_n, dx, delta = float(x_n), float(dx), float(delta)
    A, B = x_n - dx, x_n + dx
    if not (delta > 0.0 and -math.inf < A < x_n < B < math.inf):
        raise ConfigError(f"packet needs delta > 0 ({delta}) and a finite support [{A}, {B}] around {x_n}")
    t_n = S.effective_time_inverse(F.power, dx / delta**F.power)
    return ShockCell(index=1, A=A, B=B, a=delta, b=-delta, tau=x_n, t0=t_n)


def power_law_family(p: float, source: SourceProfile, N: int) -> PowerLawFamily:
    """First N packets of the power-law family: packet n is :func:`make_packet`'s cell on support n."""
    if N < 0:
        raise ValueError("truncation must be non-negative")
    flux = power_law_flux(p, M=packet_amplitude(1, p))  # amplitudes decrease in n
    q = flux.power
    n, center, width = _supports(1, N)
    delta = np.array([packet_amplitude(k, p) for k in range(1, N + 1)])
    t_n = [source.effective_time_inverse(q, w / d**q) for w, d in zip(width.tolist(), delta.tolist())]
    columns = np.array([n, center - width, center + width, delta, -delta, center, t_n])
    return PowerLawFamily(flux=flux, source=source, N=N, columns=columns)


@dataclass(frozen=True, eq=False)
class ShockCellFamily(_CellColumns):
    flux: Flux
    source: SourceProfile
    t0: float
    n0: int
    N: int
    columns: np.ndarray


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


def _anchors(F: Flux, S: SourceProfile, t0: float):
    """(a0, b0, widest admissible cell width min(F_plus(a0), F_minus(b0))),
    a0 and b0 the anchor states with G(a0) = G(b0), as large as the flux allows."""
    cap = F.decay.r if F.decay is not None else F.M
    cap = min(cap, F.M) * 0.999
    b_floor = -cap
    a0 = cap
    g_floor = state_functional(F, S, t0, b_floor)
    for _ in range(200):
        if state_functional(F, S, t0, a0) <= g_floor:
            break
        a0 *= 0.5
    else:
        raise NumericsError("could not anchor the state functional match")
    b0 = _match_negative_state(F, S, t0, state_functional(F, S, t0, a0), b_floor)
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
    the width exceeds what the anchor states of :func:`_anchors` allow, and
    NumericsError unless both residuals end below 1e-10.
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
    n0 = next((n for n in range(n_start, N + 1) if 2.0 * packet_width(n) <= anchors[2]), None)
    if n0 is None:
        raise NumericsError(f"no admissible cell index up to N={N}")
    q, C = F.decay.q, F.decay.C
    c0 = C * S.effective_time(q, t0)
    index, center, width = _supports(n0, N)
    columns = np.full((7, index.size), float(t0))
    columns[:3] = index, center - width, center + width
    for i, (n, A, B) in enumerate(zip(*columns[:3].tolist())):
        a, b = _solve_states(F, S, t0, B - A, anchors)
        tau = initial_shock_position(F, S, t0, A, B, a, b)
        if a - b < c0 ** (-1.0 / q) * (B - A) ** (1.0 / q) * (1.0 - 1e-9):
            raise NumericsError(f"degeneracy lower bound violated at cell {int(n)}")
        columns[3:6, i] = a, b, tau
    return ShockCellFamily(flux=F, source=S, t0=t0, n0=n0, N=N, columns=columns)


def _shock_position(cell: ShockCell, F: Flux, S: SourceProfile, t: float) -> float:
    """Shock position at time t, from conservation of the cell's mass.

    In w = u e^{-B} the cell's mass stays m0 = a (tau - A) + b (B - tau).  A
    fan's integral over the offsets [0, x] is x V - Psi(V), V its value at x
    and Psi the flux drift, so a shock at z with one-sided values w_l, w_r
    leaves the mass (z - A) w_l + (B - z) w_r - Psi(w_l) + Psi(w_r), the last
    two terms being :func:`flux_difference_drift`.  Before t0, w_l = a and
    w_r = b; the identity is linear in z and gives tau + drift / (a - b).
    From t0 on, w_l = V(z - A, t) and w_r = V(z - B, t); the mass then has
    the derivative w_l - w_r > 0 in z, so z is its root on [A, B] (Lax's
    equal-area rule).
    """
    a, b = cell.a, cell.b
    if t <= cell.t0:
        return cell.tau + flux_difference_drift(F, S, a, b, t) / (a - b)

    def mass(z: float) -> float:
        w_l, w_r = fan_values(F, S, (z - cell.A, z - cell.B), t).tolist()
        return (z - cell.A) * w_l + (cell.B - z) * w_r - flux_difference_drift(F, S, w_l, w_r, t)

    return bisect_increasing(mass, cell.A, cell.B, a * (cell.tau - cell.A) + b * (cell.B - cell.tau))


def fan_edges(F: Flux, S: SourceProfile, cell: ShockCell, t: float):
    """Positions (zeta_minus, zeta_plus) of the cell's inner fan edges at time t.

    zeta_minus is where the left fan, centered at A, reaches a; zeta_plus
    is where the right fan, centered at B, reaches b.  A fan reaches level
    w at the offset from its center given by the slope time integral at w.
    The edges meet at tau at the meeting time; after it they have crossed,
    and the raw positions are still returned.
    """
    if t <= 0.0:
        raise ValueError(f"fan edges need t > 0, got {t}")
    return cell.A + slope_time_integral(F, S, cell.a, t), cell.B + slope_time_integral(F, S, cell.b, t)


def _cell_layout(F: Flux, S: SourceProfile, columns: np.ndarray, t: float) -> PiecewiseProfile:
    """Cells side by side at time t > 0, in order, zero between them.

    The cells are the columns of a family's (7, n) array.  Each takes five
    slots: fan, plateau a, plateau b, fan and the zero gap to the next cell,
    which the last cell does not take.  From its t0 on a cell's plateaus are
    dropped and its fans meet at the shock; before t0 the shock is clipped
    to the fan edges.  A power-law flux takes G_p(t) once and each state's
    reach w |w|^(p-1) as a Python float, a general flux one slope time
    integral per state: the fan edges of :func:`fan_edges`, bit for bit.
    The shock is :func:`_shock_position`, except in a cell with b = -a under
    a power-law flux: its data are odd about tau and the flux is even, so
    the shock stays at tau.  No cells make a profile that is zero on [0, 1].
    """
    if t <= 0.0:
        raise ConfigError(f"profile needs t > 0, got {t}")
    _, A, B, a, b, tau, t0 = columns
    if not A.size:
        return PiecewiseProfile(F, S, t, (0.0, 1.0), (False,), (0.0,))
    shock = tau.copy()
    p = F.power
    if p is None:
        _check_flux_interval(F, S, columns, t)
        zeta_minus = A + [slope_time_integral(F, S, w, t) for w in a.tolist()]
        zeta_plus = B + [slope_time_integral(F, S, w, t) for w in b.tolist()]
        moving = range(A.size)
    else:
        e = p - 1.0
        moving = np.flatnonzero(b != -a)
        reach_a = np.array([w * abs(w) ** e for w in a.tolist()])
        reach_b = -reach_a  # b |b|^(p-1) where b = -a
        reach_b[moving] = [w * abs(w) ** e for w in b[moving].tolist()]
        g = S.effective_time(p, t)
        zeta_minus, zeta_plus = A + reach_a * g, B + reach_b * g
    for i in moving:
        shock[i] = _shock_position(_record(columns[:, i].tolist()), F, S, t)
    before = t < t0
    inner = np.minimum(np.maximum(shock, zeta_minus), zeta_plus)
    ends = np.column_stack((A, zeta_minus, inner, np.where(before, zeta_plus, shock), B)).ravel()
    fan = np.tile([True, False, False, True, False], A.size)
    anchor = np.column_stack((A, a, b, B, np.zeros_like(A))).ravel()
    keep = np.repeat(before, 5) | np.tile([True, False, False, True, True], A.size)
    return PiecewiseProfile(F, S, t, ends[keep], fan[keep][:-1], anchor[keep][:-1])


def _check_flux_interval(F: Flux, S: SourceProfile, columns: np.ndarray, t: float) -> None:
    """Require |w| e^{max B} <= M up to t for both states w of every cell.

    A state w is the value w e^{B} at time t, so past this limit it leaves
    [-M, M], where a general flux is not defined.  Compared as
    |w| <= M e^{-max B}, which cannot overflow.  Names the first cell out.
    """
    limit = F.M * math.exp(-S.max_cumulative_source(t))
    index, _, _, a, b = columns[:5]
    out = (np.abs(a) > limit) | (np.abs(b) > limit)
    if out.any():
        i = int(np.argmax(out))
        name, w = ("a", float(a[i])) if abs(a[i]) > limit else ("b", float(b[i]))
        raise ConfigError(
            f"state {name} = {w} of cell {int(index[i])} leaves the flux interval "
            f"[{-F.M}, {F.M}] by t = {t}: it needs |{name}| <= M e^(-max B) = {limit}"
        )


def cell_profile(
    cell: ShockCell, F: Flux, S: SourceProfile, t: float, ode_steps: int | None = None
) -> PiecewiseProfile:
    """Region structure of the cell solution at time t > 0.

    Before ``cell.t0``: fan / plateau a / plateau b / fan, with the shock
    between the plateaus.  From ``cell.t0`` on: two fans and the shock.
    This is :func:`family_profile`'s layout on one cell.  ``ode_steps`` is
    ignored: no ODE is integrated.  It is accepted so that existing callers
    keep working.
    """
    return _cell_layout(F, S, np.array([astuple(cell)]).T, t)


def family_profile(family, t: float) -> PiecewiseProfile:
    """The family's cells laid out at time t > 0, zero between supports.

    One array layout for both kinds of family (see :func:`cell_profile`).
    An empty family is zero on [0, 1].
    """
    return _cell_layout(family.flux, family.source, family.columns, t)
