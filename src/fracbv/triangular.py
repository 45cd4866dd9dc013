"""Triangular system: continuous sawtooth solution plus passive transport.

The first component u solves u_t + f(u)_x = 0 for the power-law flux,
f'(u) = u |u|^(p-1), and is built from a sequence of continuous sawtooth
pulses on contiguous supports; each pulse is an explicit four-branch
self-similar solution whose center jump would only form far beyond the
working horizon T.  The second component v is advected along the
characteristics of c(x, t) = f'(u(x, t)).

On each branch c is linear in x, and every branch boundary is itself a
characteristic, so the flow is explicit.  In the local coordinates of pulse
n, with half-width w, formation time t_n and x0 the position at time t_s:

- left fan m1: X = x0 t / t_s;
- m2: w - X = (w - x0)(t_n - t)/(t_n - t_s);
- m3: X - w = (x0 - w)(t_n - t)/(t_n - t_s);
- right fan m4: 2w - X = (2w - x0) t / t_s;
- outside the supports: X = x0.

Transported values are evaluated advectively: v at a point is the initial
value at the characteristic foot.  Traced back to time 0 a fan collapses onto
a pulse edge, so a point strictly inside a fan has no foot (Bouchut & James,
Nonlinear Anal. 32 (1998); Poupaud & Rascle, Comm. PDE 22 (1997)) and its
value is NaN.  The conservative-form dilution factor (the inverse Jacobian of
the flow map) is available as an optional multiplier, off by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class TriangularSetup:
    """Pulse sequence parameters for the sawtooth component.

    The support edges x_1 = 0 < x_2 < ... < x_{N+1} are the partial sums of
    2/(n log^2(n+1)) and define the supports: pulse n sits on
    [x_n, x_{n+1}] = [x_n, x_n + 2 w_n] with half-width w_n = (x_{n+1} - x_n)/2.
    So w_n is the series 1/(n log^2(n+1)) rounded such that the supports tile
    exactly (the edge differences are exact in floating point).  Formation
    time t_n = (log(n+1)/log 2) (T + 1) > T and amplitude (w_n / t_n)^(1/p).
    p and T must be finite, and T + 1 must exceed T in floating point, so
    that every pulse forms after the horizon.
    """

    p: float
    T: float
    N: int
    widths: np.ndarray = field(init=False, repr=False)
    t_form: np.ndarray = field(init=False, repr=False)
    amplitudes: np.ndarray = field(init=False, repr=False)
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.T)):
            raise ConfigError(f"need finite p and T, got p={self.p}, T={self.T}")
        if self.p < 1.0:
            raise ConfigError(f"need p >= 1, got {self.p}")
        if self.T <= 0.0 or self.N < 1:
            raise ConfigError("need T > 0 and N >= 1")
        n = np.arange(1, self.N + 1, dtype=float)
        edges = np.concatenate(([0.0], np.cumsum(2.0 / (n * np.log(n + 1.0) ** 2))))
        widths = 0.5 * np.diff(edges)
        t_form = np.log(n + 1.0) / math.log(2.0) * (self.T + 1.0)
        if not t_form[0] > self.T:
            raise ConfigError(f"need t_1 = T + 1 > T in floating point, got T={self.T}")
        amplitudes = (widths / t_form) ** (1.0 / self.p)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "t_form", t_form)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "edges", edges)

    @property
    def s(self) -> float:
        return 1.0 / self.p

    def strict_hyperbolicity_gap(self) -> float:
        """inf f' - sup c over the reachable states (>0 would mean strictly hyperbolic).

        The transport speed c is f'(u) itself, so the two eigenvalues
        coincide and the gap is -2 sup|f'| = -2 A_1^p by construction.
        """
        return -2.0 * float(self.amplitudes[0]) ** self.p


def _pulse_index(inner_edges: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``searchsorted(inner_edges, xs, side="right")``: the pulse of each
    position, with the first and the last pulse for positions outside them.

    Positions in ascending order (no NaN) take one search per edge instead
    of one per position: the positions from the first one at or right of
    edge n up to the first one at or right of edge n + 1 lie in pulse n.
    """
    if xs.size > inner_edges.size and np.all(xs[1:] >= xs[:-1]):
        first = np.searchsorted(xs, inner_edges, side="left")
        counts = np.diff(first, prepend=0, append=xs.size)
        return np.repeat(np.arange(counts.size), counts)
    return np.searchsorted(inner_edges, xs, side="right")


def _branches(setup: TriangularSetup, xs: np.ndarray, t: float):
    """Local coordinate, w, t_n and branch of each position at time t.

    The branch is 1..4 on m1 (left fan), m2, m3 and m4 (right fan), and 0
    outside the supports and at the pulse edges.  This is the one partition
    that u, the flow and its inverse all use.

    Each position gets a pulse from the interior edges
    (:func:`_pulse_index`); one outside every support gets the first or the
    last pulse, and its local coordinate falls outside (0, 2w).  Inside
    (0, 2w) the branch is 1 + [loc >= r] + [loc > w] + [loc > 2w - r], three
    comparisons with the thresholds of the position's pulse; it is 0
    elsewhere, NaN included.  The guards min(r, w) and max(2w - r, w) keep
    the thresholds ordered (every accepted setup has r <= w anyway, since
    t <= T < t_n).  The thresholds are formed once per pulse and gathered
    in turn into one buffer, which ends up holding t_n.  The branch is int8.
    """
    widths, t_form = setup.widths, setup.t_form
    r = widths / t_form
    r *= t  # current fan half-extent (amplitude^p * t)
    two_w = 2.0 * widths
    far = np.maximum(two_w - r, widths)
    np.minimum(r, widths, out=r)
    i = _pulse_index(setup.edges[1:-1], xs)
    loc, w, buffer = setup.edges[i], widths[i], r[i]
    np.subtract(xs, loc, out=loc)
    branch = (loc >= buffer).view(np.int8)
    branch += loc > w
    # i is in range; mode "clip" lets np.take write to out= without a copy
    np.take(far, i, out=buffer, mode="clip")
    branch += loc > buffer
    branch += 1
    np.take(two_w, i, out=buffer, mode="clip")
    branch *= (loc > 0.0) & (loc < buffer)
    tn = np.take(t_form, i, out=buffer, mode="clip")
    return loc, w, tn, branch


def _on_fan(branch):
    """Whether each branch is a fan, m1 or m4."""
    return (branch == 1) | (branch == 4)


def _anchor_units(branch):
    """The anchor of each branch's local map in units of w: 0 on m1 (and on
    branch 0), 1 on m2 and m3, 2 on m4."""
    return np.add(branch >= 2, branch == 4, dtype=np.int8)


def _branch_u(branch, loc, w, tn, t: float, s: float):
    """u at local coordinates loc of pulses with half-widths w and formation
    times tn, on the branches 0..4 of the int8 array ``branch``.

    The four branch formulas are one signed power, u = +-(|loc - a| / d)^s:
    on m1, m2, m3, m4 the anchor a is 0, w, w, 2w, the time scale d is t,
    t_n - t, t_n - t, t and the sign +, +, -, -.  On each branch |loc - a|
    is the formula's own difference (x, w - x, x - w, 2w - x), since a
    difference only changes sign when its operands swap.  Branch 0 gives
    +0.0.  Works in place: returns loc holding u, and overwrites w and tn.
    """
    w *= _anchor_units(branch)
    np.subtract(loc, w, out=loc)
    np.abs(loc, out=loc)
    tn -= t
    np.putmask(tn, _on_fan(branch), t)
    loc /= tn
    np.putmask(loc, branch == 0, 0.0)
    loc **= s
    loc *= 1 - 2 * (branch >= 3).view(np.int8)
    return loc


def u_values(setup: TriangularSetup, xs, t: float) -> np.ndarray:
    """Sawtooth component at time t, vectorized over positions.

    :func:`_branches` partitions the positions by comparisons alone, and
    :func:`_branch_u` takes one signed power over all of them, in place;
    outside the supports and at the pulse edges u is +0.0.
    """
    if not 0.0 <= t <= setup.T:
        raise ConfigError(f"need 0 <= t <= T={setup.T}, got {t}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    loc, w, tn, branch = _branches(setup, xs, t)
    return _branch_u(branch, loc, w, tn, t, setup.s)


def _flow_map(setup: TriangularSetup, xs: np.ndarray, t_from: float, t_to: float):
    """Positions at t_to of the characteristics through xs at t_from, with factor and branch.

    On each branch the map is affine, X - a = (x - a) k, with the anchor a at
    the pulse edge (m1), its center (m2, m3) or its far edge (m4); k is also
    the Jacobian dX/dx, and 1 outside the supports, where every x (+-inf
    too) is returned as it is.  Either time may be the later one; traced
    back to t_to = 0 a fan collapses onto its edge (k = 0).
    """
    loc, w, tn, branch = _branches(setup, xs, t_from)
    fan_k = t_to / t_from if t_from > 0.0 else 1.0  # no fan is open at t_from = 0
    k = np.where(_on_fan(branch), fan_k, (tn - t_to) / (tn - t_from))
    outside = branch == 0
    k[outside] = 1.0
    loc -= w * _anchor_units(branch)
    with np.errstate(invalid="ignore"):  # 0 * inf at infinite positions, which stay put
        loc *= k - 1.0
    loc += xs
    np.copyto(loc, xs, where=outside)
    return loc, k, branch


def _check_flow_times(setup: TriangularSetup, t: float, t_start: float = 0.0) -> None:
    if not 0.0 <= t_start <= t <= setup.T:
        raise ConfigError(f"need 0 <= t_start <= t <= T={setup.T}, got t_start={t_start}, t={t}")


def flow_positions(setup: TriangularSetup, x0s, t: float, t_start: float = 0.0) -> np.ndarray:
    """X(t) solving dX/dt = c(X, t) with X(t_start) = x0, for an array of x0.

    Exact: the branch maps of the module docstring, applied on the branch each
    x0 occupies at t_start.  The map is increasing and continuous in x0.
    """
    _check_flow_times(setup, t, t_start)
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    return _flow_map(setup, x0s, t_start, t)[0]


def alternating_initial_data() -> Callable:
    """The +-1 initial value alternating on the dyadic intervals (2^-n, 2^-n+1).

    Equals -1 on the intervals with even n, +1 on odd n, and +1 above 1/2
    and below 0.  Vectorized.
    """

    def v0(x):
        x = np.asarray(x, dtype=float)
        n = 1 - np.frexp(x)[1]  # x = m 2^e with m in [1/2, 1) lies in [2^-n, 2^-n+1)
        out = np.where((x > 0.0) & (x < 0.5) & (n % 2 == 0), -1.0, 1.0)
        return out if out.ndim else float(out)

    return v0


def midpoint_markers(N: int) -> np.ndarray:
    """Dyadic interval midpoints y_n = (2^-n + 2^-n+1)/2 for n = 1..N."""
    n = np.arange(1, N + 1, dtype=float)
    return 1.5 * 2.0 ** (-n)


def transported_points(
    setup: TriangularSetup, t: float, N: int, dt: Optional[float] = None
):
    """(y_n, z_n) with z_n the flow image of the dyadic midpoints y_1..y_N.

    ``dt`` is ignored: the flow is exact.  It is accepted so that existing
    callers keep working.
    """
    ys = midpoint_markers(N)
    return ys, flow_positions(setup, ys, t)


def transported_values(
    setup: TriangularSetup,
    v0: Callable,
    xs,
    t: float,
    dt: Optional[float] = None,
    include_dilution: bool = False,
):
    """v(x, t) = v0 at the foot of the characteristic through (x, t).

    The feet come from inverting the exact branch maps.  At t > 0 a query
    strictly inside a fan (m1 or m4) has no foot: the backward map sends the
    whole fan to one pulse edge, so its value is NaN.  ``include_dilution``
    divides by the Jacobian of the flow map, (t_n - t)/t_n on m2 and m3 and
    1 outside (conservative-form weight).  ``dt`` is ignored: the flow is
    exact.  It is accepted so that existing callers keep working.
    """
    if not 0.0 <= t <= setup.T:
        raise ConfigError(f"need 0 <= t <= T={setup.T}, got {t}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    feet, k, branch = _flow_map(setup, xs, t, 0.0)
    vals = np.asarray(v0(feet), dtype=float)
    vals = np.where(_on_fan(branch), np.nan, vals)
    return vals * k if include_dilution else vals  # backward k = 1 / forward Jacobian


def transported_variation_sums(
    setup: TriangularSetup,
    t: float,
    s_prime: float,
    N: int,
) -> float:
    """sum over n <= N of |v(z_n, t) - v(z_{n+1}, t)|^(1/s_prime).

    The sum does not depend on the flow, so the transported points z_n are
    not computed; the values summed are the initial values at the markers
    y_n (advective evaluation), so the alternating data gives exactly
    N * 2^(1/s_prime) for any flow.  t is still refused outside [0, T], as
    the flow refuses it.  The sum measures nothing about the transport until
    ROADMAP item 6 lands (images carried as offsets from the fan edge,
    values through the backward map).
    """
    if not 0.0 < s_prime <= 1.0:
        raise ConfigError(f"order must lie in (0, 1], got {s_prime}")
    if N == 0:
        return 0.0
    _check_flow_times(setup, t)
    ys = midpoint_markers(N + 1)
    v0 = alternating_initial_data()
    vals = np.asarray(v0(ys), dtype=float)
    return float(np.sum(np.abs(np.diff(vals)) ** (1.0 / s_prime)))


def u_variation_lower_bounds(setup: TriangularSetup, eps: float) -> np.ndarray:
    """Per-pulse lower bounds 4 (w_n / t_n)^(1/(1+p*eps)) for order s+eps.

    The order is s + eps with s = 1/p, i.e. the p-variation exponent
    1/(s+eps) = p/(1+p*eps).  Pulse n has height A_n = (w_n/t_n)^s and four
    monotone swings of height A_n, so its variation of that order is at
    least 4 A_n^(1/(s+eps)) = 4 (w_n/t_n)^(1/(1+p*eps)), with equality when
    the order is 1.
    """
    if eps <= 0.0:
        raise ValueError("need eps > 0")
    expo = 1.0 / (1.0 + setup.p * eps)
    return 4.0 * (setup.widths / setup.t_form) ** expo


def continuity_defect(setup: TriangularSetup, t: float) -> float:
    """Max one-sided limit mismatch of u at the branch seams.

    Adjacent branch formulas are evaluated exactly at the seam coordinates
    (the fan branches have square-root singularities, so sampling one ulp to
    the side would measure sqrt(ulp) noise instead of the true limits).  The
    formulas are those of :func:`u_values`, through :func:`_branch_u`.
    """
    if not 0.0 < t <= setup.T:
        raise ConfigError(f"need 0 < t <= T={setup.T}, got {t}")
    w = setup.widths
    tn = setup.t_form
    r = w / tn * t

    def u(branch, x):  # _branch_u works in place, so it gets copies
        on = np.full(w.shape, branch, dtype=np.int8)
        return _branch_u(on, x.copy(), w.copy(), tn.copy(), t, setup.s)

    defects = np.concatenate(
        [
            np.abs(u(1, np.zeros_like(w))),  # outer left seam against 0
            np.abs(u(1, r) - u(2, r)),
            np.abs(u(2, w) - u(3, w)),
            np.abs(u(3, 2.0 * w - r) - u(4, 2.0 * w - r)),
            np.abs(u(4, 2.0 * w)),  # outer right seam against 0
        ]
    )
    return float(np.max(defects))
