"""Triangular system: continuous sawtooth solution plus passive transport.

The first component u solves u_t + f(u)_x = 0 for the power-law flux and is
built from a sequence of continuous sawtooth pulses on contiguous supports;
each pulse is an explicit four-branch self-similar solution whose center
jump would only form far beyond the working horizon T.  The second
component v is advected along the characteristics of c(x, t) = h(f'(u)),
which is Lipschitz in x because f'(u) is piecewise linear in x.

Transported values are evaluated advectively: v at a transported point is
the initial value at the characteristic foot.  The conservative-form
dilution factor (the inverse stretching of the flow map) is available as an
optional multiplier, off by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericsError

_ORDER_RESOLVABLE = 1e-9


def _identity(z):
    return z


@dataclass(frozen=True, eq=False)
class TriangularSetup:
    """Pulse sequence parameters for the sawtooth component.

    The support edges x_1 = 0 < x_2 < ... < x_{N+1} are the partial sums of
    2/(n log^2(n+1)) and define the supports: pulse n sits on
    [x_n, x_{n+1}] = [x_n, x_n + 2 w_n] with half-width w_n = (x_{n+1} - x_n)/2.
    So w_n is the series 1/(n log^2(n+1)) rounded such that the supports tile
    exactly (the edge differences are exact in floating point).  Formation
    time t_n = (log(n+1)/log 2) (T + 1) > T and amplitude (w_n / t_n)^(1/p).
    ``h`` maps the slope field into the transport velocity and must accept
    numpy arrays.
    """

    p: float
    T: float
    N: int
    h: Callable = _identity
    widths: np.ndarray = field(init=False, repr=False)
    t_form: np.ndarray = field(init=False, repr=False)
    amplitudes: np.ndarray = field(init=False, repr=False)
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.p < 1.0:
            raise ValueError(f"need p >= 1, got {self.p}")
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

    def velocity_bound(self) -> float:
        top = float(self.amplitudes[0]) ** self.p
        samples = np.asarray(self.h(np.linspace(-top, top, 513)), dtype=float)
        return float(np.max(np.abs(samples))) + 1.0

    def strict_hyperbolicity_gap(self) -> float:
        """inf f' - sup h(f') over the reachable states (>0 means hyperbolic)."""
        top = float(self.amplitudes[0]) ** self.p
        slopes = np.linspace(-top, top, 513)
        return float(slopes.min() - np.max(np.asarray(self.h(slopes), dtype=float)))


def pulse_value(setup: TriangularSetup, n: int, x, t: float):
    """Pulse n in local coordinates: four branches on (0, 2 w_n), zero outside."""
    if not 1 <= n <= setup.N:
        raise ValueError(f"pulse index {n} out of range 1..{setup.N}")
    if not 0.0 <= t <= setup.T:
        raise ValueError(f"need 0 <= t <= T={setup.T}, got {t}")
    x = np.asarray(x, dtype=float)
    i = n - 1
    out = _pulse_branches(
        x.reshape(-1),
        t,
        np.full(x.size, setup.widths[i]),
        np.full(x.size, setup.t_form[i]),
        setup.s,
    )
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _pulse_branches(loc, t, w, tn, s):
    """Vectorized four-branch sawtooth evaluation at local coordinates loc."""
    out = np.zeros_like(loc)
    r = (w / tn) * t  # current fan half-extent (amplitude^p * t)
    m1 = (loc > 0.0) & (loc < np.minimum(r, w))
    if np.any(m1):
        out[m1] = (loc[m1] / t) ** s
    m2 = (loc >= r) & (loc <= w) & (loc > 0.0)
    if np.any(m2):
        out[m2] = ((w[m2] - loc[m2]) / (tn[m2] - t)) ** s
    m3 = (loc > w) & (loc <= 2.0 * w - r)
    if np.any(m3):
        out[m3] = -((loc[m3] - w[m3]) / (tn[m3] - t)) ** s
    m4 = (loc > np.maximum(2.0 * w - r, w)) & (loc < 2.0 * w)
    if np.any(m4):
        out[m4] = -((2.0 * w[m4] - loc[m4]) / t) ** s
    return out


def u_values(setup: TriangularSetup, xs, t: float) -> np.ndarray:
    """Sawtooth component at time t, vectorized over positions."""
    if not 0.0 <= t <= setup.T:
        raise ValueError(f"need 0 <= t <= T={setup.T}, got {t}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.zeros_like(xs)
    idx = np.searchsorted(setup.edges, xs, side="right") - 1
    inside = (idx >= 0) & (idx < setup.N)
    if np.any(inside):
        ii = idx[inside]
        loc = xs[inside] - setup.edges[ii]
        out[inside] = _pulse_branches(
            loc, t, setup.widths[ii], setup.t_form[ii], setup.s
        )
    return out


def u_value(setup: TriangularSetup, x: float, t: float) -> float:
    return float(u_values(setup, [x], t)[0])


def transport_velocity(setup: TriangularSetup, x, t: float):
    """c(x, t) = h(f'(u(x, t))); Lipschitz in x for fixed t in (0, T]."""
    u = u_values(setup, x, t)
    slopes = u * np.abs(u) ** (setup.p - 1.0)
    c = np.asarray(setup.h(slopes), dtype=float)
    return float(c[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else c


def flow_positions(
    setup: TriangularSetup,
    x0s,
    t: float,
    dt: Optional[float] = None,
    t_start: float = 0.0,
    max_refines: int = 3,
) -> np.ndarray:
    """RK4 characteristic flow for an array of starting points.

    When the inputs are increasing, order preservation is checked at the
    resolvable spacing and the step is halved on violation (a few retries,
    then a numerics error).
    """
    if not 0.0 <= t_start <= t <= setup.T:
        raise ValueError("need 0 <= t_start <= t <= T")
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    if dt is None:
        dt = setup.T / 2**14
    sorted_input = x0s.size > 1 and bool(np.all(np.diff(x0s) >= 0.0))
    for _ in range(max_refines + 1):
        xs = _rk4(setup, x0s, t_start, t, dt)
        if not sorted_input:
            return xs
        resolvable = np.diff(x0s) > _ORDER_RESOLVABLE
        if np.all(np.diff(xs)[resolvable] > 0.0):
            return xs
        dt *= 0.5
    raise NumericsError("characteristic flow lost order preservation")


def _rk4(setup, x0s, t_start, t, dt):
    span = t - t_start
    if span == 0.0:
        return x0s.copy()
    steps = max(1, int(math.ceil(span / dt)))
    h = span / steps
    xs = x0s.copy()
    tt = t_start
    for _ in range(steps):
        k1 = transport_velocity(setup, xs, tt)
        k2 = transport_velocity(setup, xs + 0.5 * h * k1, tt + 0.5 * h)
        k3 = transport_velocity(setup, xs + 0.5 * h * k2, tt + 0.5 * h)
        k4 = transport_velocity(setup, xs + h * k3, min(tt + h, setup.T))
        xs = xs + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tt += h
    return xs


def characteristic_flow(
    setup: TriangularSetup,
    x0: float,
    t: float,
    dt: Optional[float] = None,
    t_start: float = 0.0,
) -> float:
    """X(t, x0) solving dX/dt = c(X, t) with X(t_start) = x0."""
    return float(flow_positions(setup, [x0], t, dt=dt, t_start=t_start)[0])


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

    The y_n collapse geometrically, so ordering of the z_n is only checked
    where float spacing can resolve it.
    """
    ys = midpoint_markers(N)
    zs_sorted = flow_positions(setup, ys[::-1], t, dt=dt)
    return ys, zs_sorted[::-1]


def transported_values(
    setup: TriangularSetup,
    v0: Callable,
    xs,
    t: float,
    dt: Optional[float] = None,
    include_dilution: bool = False,
):
    """v(x, t) by tracing characteristics back to time 0 (shooting + bisection).

    The flow map is monotone in the starting point, so the foot of the
    characteristic through (x, t) is found by bisection on forward flows,
    vectorized over the queries.  ``include_dilution`` multiplies by the
    inverse stretching factor of the flow map (conservative-form weight).
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if t == 0.0:
        vals = np.asarray(v0(xs), dtype=float)
        return vals if xs.ndim else float(vals)
    vbound = setup.velocity_bound()
    lo = xs - vbound * t - 1.0
    hi = xs + vbound * t + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = _rk4(setup, mid, 0.0, t, dt or setup.T / 2**14) < xs
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) < 1e-13 * max(1.0, float(np.max(np.abs(xs)))):
            break
    feet = 0.5 * (lo + hi)
    vals = np.asarray(v0(feet), dtype=float)
    if include_dilution:
        eps = 1e-7
        stretch = (
            _rk4(setup, feet + eps, 0.0, t, dt or setup.T / 2**14)
            - _rk4(setup, feet - eps, 0.0, t, dt or setup.T / 2**14)
        ) / (2.0 * eps)
        vals = vals / stretch
    return vals


def transported_value(
    setup: TriangularSetup,
    v0: Callable,
    x: float,
    t: float,
    dt: Optional[float] = None,
    include_dilution: bool = False,
) -> float:
    return float(
        transported_values(setup, v0, [x], t, dt=dt, include_dilution=include_dilution)[0]
    )


def transported_variation_sums(
    setup: TriangularSetup,
    t: float,
    s_prime: float,
    N: int,
    dt: Optional[float] = None,
) -> float:
    """sum over n <= N of |v(z_n, t) - v(z_{n+1}, t)|^(1/s_prime).

    The transported points z_n are computed by the forward flow; the values
    there are the initial values at the markers (advective evaluation), so
    the alternating data gives exactly N * 2^(1/s_prime).
    """
    if not 0.0 < s_prime <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {s_prime}")
    if N == 0:
        return 0.0
    ys, _ = transported_points(setup, t, N + 1, dt=dt)
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
        raise ValueError(f"need 0 < t <= T={setup.T}, got {t}")
    idx = np.arange(setup.N) if n is None else np.array([n - 1])
    w = setup.widths[idx]
    tn = setup.t_form[idx]
    s = setup.s
    r = w / tn * t
    b1 = lambda x: (x / t) ** s
    b2 = lambda x: ((w - x) / (tn - t)) ** s
    b3 = lambda x: -((x - w) / (tn - t)) ** s
    b4 = lambda x: -((2.0 * w - x) / t) ** s
    defects = np.concatenate(
        [
            np.abs(b1(np.zeros_like(w))),  # outer left seam against 0
            np.abs(b1(r) - b2(r)),
            np.abs(b2(w) - b3(w)),
            np.abs(b3(2.0 * w - r) - b4(2.0 * w - r)),
            np.abs(b4(2.0 * w)),  # outer right seam against 0
        ]
    )
    return float(np.max(defects))
