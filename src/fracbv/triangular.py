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
    """

    p: float
    T: float
    N: int
    widths: np.ndarray = field(init=False, repr=False)
    t_form: np.ndarray = field(init=False, repr=False)
    amplitudes: np.ndarray = field(init=False, repr=False)
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.p < 1.0:
            raise ConfigError(f"need p >= 1, got {self.p}")
        if self.T <= 0.0 or self.N < 1:
            raise ConfigError("need T > 0 and N >= 1")
        n = np.arange(1, self.N + 1, dtype=float)
        edges = np.concatenate(([0.0], np.cumsum(2.0 / (n * np.log(n + 1.0) ** 2))))
        widths = 0.5 * np.diff(edges)
        t_form = np.log(n + 1.0) / math.log(2.0) * (self.T + 1.0)
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


def _branches(setup: TriangularSetup, xs: np.ndarray, t: float):
    """Local coordinate, w, t_n and branch of each position at time t.

    The branch is 1..4 on m1 (left fan), m2, m3 and m4 (right fan), and 0
    outside the supports and at the pulse edges.  This is the one partition
    that u, the flow and its inverse all use.
    """
    idx = np.searchsorted(setup.edges, xs, side="right") - 1
    inside = (idx >= 0) & (idx < setup.N)
    i = np.where(inside, idx, 0)
    w, tn = setup.widths[i], setup.t_form[i]
    loc = xs - setup.edges[i]
    r = (w / tn) * t  # current fan half-extent (amplitude^p * t)
    branch = np.select(
        [
            ~inside,
            (loc > 0.0) & (loc < np.minimum(r, w)),
            (loc >= r) & (loc <= w) & (loc > 0.0),
            (loc > w) & (loc <= 2.0 * w - r),
            (loc > np.maximum(2.0 * w - r, w)) & (loc < 2.0 * w),
        ],
        [0, 1, 2, 3, 4],
        default=0,
    )
    return loc, w, tn, branch


def _branch_u(branch: int, x, w, tn, t: float, s: float):
    """u on branch 1..4 (m1, m2, m3, m4) at local coordinate x of a pulse
    with half-width w and formation time tn."""
    if branch == 1:
        return (x / t) ** s
    if branch == 2:
        return ((w - x) / (tn - t)) ** s
    if branch == 3:
        return -((x - w) / (tn - t)) ** s
    return -((2.0 * w - x) / t) ** s


def u_values(setup: TriangularSetup, xs, t: float) -> np.ndarray:
    """Sawtooth component at time t, vectorized over positions."""
    if not 0.0 <= t <= setup.T:
        raise ConfigError(f"need 0 <= t <= T={setup.T}, got {t}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    loc, w, tn, branch = _branches(setup, xs, t)
    out = np.zeros_like(xs)
    for b in (1, 2, 3, 4):
        m = branch == b
        out[m] = _branch_u(b, loc[m], w[m], tn[m], t, setup.s)
    return out


def _flow_map(setup: TriangularSetup, xs: np.ndarray, t_from: float, t_to: float):
    """Positions at t_to of the characteristics through xs at t_from, with factor and branch.

    On each branch the map is affine, X - a = (x - a) k, with the anchor a at
    the pulse edge (m1), its center (m2, m3) or its far edge (m4); k is also
    the Jacobian dX/dx, and 1 outside the supports.  Either time may be the
    later one; traced back to t_to = 0 a fan collapses onto its edge (k = 0).
    """
    loc, w, tn, branch = _branches(setup, xs, t_from)
    fan = (branch == 1) | (branch == 4)
    fan_k = t_to / t_from if t_from > 0.0 else 1.0  # no fan is open at t_from = 0
    k = np.where(fan, fan_k, (tn - t_to) / (tn - t_from))
    k[branch == 0] = 1.0
    anchor = np.select([branch == 1, branch == 4], [0.0, 2.0 * w], w)
    return xs + (k - 1.0) * (loc - anchor), k, branch


def flow_positions(setup: TriangularSetup, x0s, t: float, t_start: float = 0.0) -> np.ndarray:
    """X(t) solving dX/dt = c(X, t) with X(t_start) = x0, for an array of x0.

    Exact: the branch maps of the module docstring, applied on the branch each
    x0 occupies at t_start.  The map is increasing and continuous in x0.
    """
    if not 0.0 <= t_start <= t <= setup.T:
        raise ConfigError(f"need 0 <= t_start <= t <= T={setup.T}, got t_start={t_start}, t={t}")
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    return _flow_map(setup, x0s, t_start, t)[0]


def alternating_initial_data() -> Callable:
    """The +-1 initial value alternating on the dyadic intervals (2^-n, 2^-n+1).

    Equals -1 on the intervals with even n, +1 on odd n, and +1 above 1/2
    and below 0.  Vectorized.
    """

    def v0(x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        inside = (x > 0.0) & (x < 0.5)
        if np.any(inside):
            n = np.floor(-np.log2(x[inside])) + 1.0
            # guard the dyadic boundaries against log rounding
            n = np.where(2.0 ** (-n) > x[inside], n + 1.0, n)
            n = np.where(2.0 ** (-n + 1.0) <= x[inside], n - 1.0, n)
            out[inside] = np.where(n % 2.0 == 0.0, -1.0, 1.0)
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
    vals = np.where((branch == 1) | (branch == 4), np.nan, vals)
    return vals * k if include_dilution else vals  # backward k = 1 / forward Jacobian


def transported_variation_sums(
    setup: TriangularSetup,
    t: float,
    s_prime: float,
    N: int,
) -> float:
    """sum over n <= N of |v(z_n, t) - v(z_{n+1}, t)|^(1/s_prime).

    The transported points z_n are computed by the forward flow; the values
    there are the initial values at the markers (advective evaluation), so
    the alternating data gives exactly N * 2^(1/s_prime).
    """
    if not 0.0 < s_prime <= 1.0:
        raise ConfigError(f"order must lie in (0, 1], got {s_prime}")
    if N == 0:
        return 0.0
    ys, _ = transported_points(setup, t, N + 1)
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


def continuity_defect(setup: TriangularSetup, t: float, n: Optional[int] = None) -> float:
    """Max one-sided limit mismatch of u at the branch seams.

    Adjacent branch formulas are evaluated exactly at the seam coordinates
    (the fan branches have square-root singularities, so sampling one ulp to
    the side would measure sqrt(ulp) noise instead of the true limits).
    """
    if not 0.0 < t <= setup.T:
        raise ConfigError(f"need 0 < t <= T={setup.T}, got {t}")
    idx = np.arange(setup.N) if n is None else np.array([n - 1])
    w = setup.widths[idx]
    tn = setup.t_form[idx]
    r = w / tn * t

    def u(branch, x):
        return _branch_u(branch, x, w, tn, t, setup.s)

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
