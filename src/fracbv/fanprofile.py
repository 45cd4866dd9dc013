"""Self-similar fan profile for balance laws.

For the balance law u_t + f(u)_x = alpha(t) u the centered-rarefaction
profile V(x, t) generalizes (f')^{-1}(x/t): it is the unique solution of

    x = integral over [0, t] of f'(V exp(B(theta))) dtheta,

where B is the cumulative source.  Rarefaction regions of exact solutions
evaluate as V(x - center, t) * exp(B(t)).  For power-law fluxes the profile
has the closed form sign(x) |x|^(1/p) * G^(-1/p) with G the effective time;
for general convex fluxes it is found by a bracketed root search,
:func:`fan_profile_rootfind`.  :func:`fan_values` is the one evaluator:
it takes the flux and source, as the other primitives here do, and an
array of offsets, and range-checks both routes.

The module also holds the two numerical primitives the scalar layers share:
:func:`bisect_increasing`, the one bracketed root finder for increasing
scalar functions, and :func:`source_time_integral`, the one quadrature of a
function of exp(B(theta)) over [0, t], one Simpson run per source piece.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError
from .flux import Flux
from .source import SourceProfile

_MAX_SIMPSON_NODES = 1 << 16
# bracket width at which the general-flux fan root search stops
_ROOT_TOL = 1e-12
# ITP truncation (relative factor and exponent) and spare steps over bisection
_ITP_K1 = 0.5
_ITP_K2 = 1.5
_ITP_N0 = 1


class _Unbracketed(NumericsError):
    """The target of :func:`bisect_increasing` lies outside its bracket."""


def integrate_smooth(g, a: float, b: float, tol: float) -> float:
    """Composite Simpson with interval doubling until two refinements agree.

    ``g`` must accept numpy arrays.  Intended for smooth integrands (the
    time integrands here are exponentials composed with powers).
    """
    if b <= a:
        return 0.0
    n = 16
    xs = np.linspace(a, b, n + 1)
    vals = np.asarray(g(xs), dtype=float)
    prev = _simpson(vals, (b - a) / n)
    while n < _MAX_SIMPSON_NODES:
        n *= 2
        # interleave previously computed nodes with the new midpoints
        xs_new = np.linspace(a, b, n + 1)
        vals_new = np.empty(n + 1)
        vals_new[::2] = vals
        vals_new[1::2] = np.asarray(g(xs_new[1::2]), dtype=float)
        vals = vals_new
        cur = _simpson(vals, (b - a) / n)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise NumericsError(f"quadrature failed to reach tolerance {tol} on [{a}, {b}]")


def _simpson(vals: np.ndarray, h: float) -> float:
    return h / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1::2].sum() + 2.0 * vals[2:-1:2].sum())


def slope_time_integral(flux: Flux, source: SourceProfile, v: float, t: float) -> float:
    """integral over [0, t] of f'(v exp(B(theta))) dtheta.

    Exact for power-law fluxes (equals v |v|^(p-1) * effective_time); smooth
    quadrature per source piece otherwise.
    """
    if flux.power is not None:
        p = flux.power
        return v * abs(v) ** (p - 1.0) * source.effective_time(p, t)
    return slope_time_integral_numeric(flux, source, v, t)


def slope_time_integral_numeric(
    flux: Flux, source: SourceProfile, v: float, t: float, tol: float = 1e-13
) -> float:
    """Quadrature evaluation of the slope time integral, piece by piece.

    Kept separate from :func:`slope_time_integral` so closed forms can be
    cross-checked against an independent numerical route.
    """
    return source_time_integral(source, lambda e: flux.df(v * e), t, tol * max(1.0, abs(v)))


def source_time_integral(source: SourceProfile, g, t: float, tol: float) -> float:
    """integral over [0, t] of g(exp(B(theta))) dtheta, B the cumulative source.

    B is linear on each constancy piece of alpha, so the integrand is smooth
    there: one :func:`integrate_smooth` run per piece, each to ``tol``.
    ``g`` must accept numpy arrays.
    """
    total = 0.0
    for left, value, right, b_left in source.pieces:
        if t <= left:
            break
        total += integrate_smooth(
            lambda theta: g(np.exp(b_left + value * (theta - left))), left, min(t, right), tol
        )
    return total


def bisect_increasing(fun, lo: float, hi: float, target: float, xtol: float = 0.0) -> float:
    """Root of the increasing ``fun(x) = target`` on [lo, hi] by ITP.

    ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS
    47(1), 2020) moves the regula falsi point towards the midpoint by
    ``_ITP_K1 * w * (w / w0) ** (_ITP_K2 - 1)`` for a bracket of width w
    out of the initial w0, then projects it into a radius about the
    midpoint that halves every step.  No run takes more than ``_ITP_N0``
    steps beyond bisection's worst case, ``ceil(log2((hi - lo) / xtol))``,
    and smooth functions take far fewer.

    The two end values of the bracket check are the first interpolation
    data.  An exact hit, at an end or inside, is returned at once.
    Otherwise the search stops when the bracket is no wider than ``xtol``
    (up to rounding, when the step budget is spent) or when its midpoint
    rounds onto an end (bracket collapse, the only stop when ``xtol`` is
    0), and returns the midpoint.  Raises NumericsError when the target
    is not bracketed or an end value is NaN.
    """
    y_lo = fun(lo) - target
    y_hi = fun(hi) - target
    if math.isnan(y_lo) or math.isnan(y_hi):
        raise NumericsError(f"NaN at a bracket end of [{lo}, {hi}]")
    if not y_lo <= 0.0 <= y_hi:
        raise _Unbracketed(f"target {target} not bracketed on [{lo}, {hi}]")
    if y_lo == 0.0:
        return lo
    if y_hi == 0.0:
        return hi
    width0 = hi - lo
    # with xtol = 0 the budget reaches one ulp of the larger end; bisection
    # then runs on to bracket collapse
    tol = max(xtol, math.ulp(max(abs(lo), abs(hi))))
    budget = max(0, math.ceil(math.log2(width0 / tol))) + _ITP_N0
    radius = tol * 2.0 ** (budget - 1)
    while hi - lo > xtol and (budget > 0 or xtol == 0.0):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        width = hi - lo
        x = lo + width * (y_lo / (y_lo - y_hi))
        toward_mid = math.copysign(1.0, mid - x)
        delta = _ITP_K1 * width * (width / width0) ** (_ITP_K2 - 1.0)
        x = x + toward_mid * delta if delta <= abs(mid - x) else mid
        reach = max(radius - 0.5 * width, 0.0)
        if abs(x - mid) > reach:
            x = mid - toward_mid * reach
        if not lo < x < hi:
            x = mid
        y = fun(x) - target
        if y == 0.0:
            return x
        if y < 0.0:
            lo, y_lo = x, y
        else:
            hi, y_hi = x, y
        radius *= 0.5
        budget -= 1
    return 0.5 * (lo + hi)


def fan_values(flux: Flux, source: SourceProfile, offsets, t: float) -> np.ndarray:
    """The fan profile V(z, t) at every offset z of ``offsets`` from the center.

    V is strictly increasing in z with V(0, t) = 0.  Power-law fluxes take
    the closed form as one array power; other fluxes take
    :func:`fan_profile_rootfind` point by point, with the flux limit taken
    once.  Raises ValueError unless t > 0, and NumericsError when a value
    escapes the flux limit M exp(-min B).
    """
    if t <= 0.0:
        raise ValueError(f"fan profile needs t > 0, got {t}")
    offsets = np.asarray(offsets, dtype=float)
    if flux.power is None:
        limit = _flux_limit(flux, source, t)
        return np.array([fan_profile_rootfind(flux, source, z, t, limit) for z in offsets.tolist()])
    p = flux.power
    values = np.sign(offsets) * np.abs(offsets) ** (1.0 / p) * source.effective_time(p, t) ** (-1.0 / p)
    if values.size:
        # compared as |V| exp(min B) <= M, and reported by its parts: the
        # limit M exp(-min B) itself overflows under a strongly decaying source
        v = max(-values.min(), values.max())
        min_b = source.min_cumulative_source(t)
        if v * math.exp(min_b) > flux.M * (1.0 + 1e-9):
            raise NumericsError(
                f"fan profile value {v} escapes the flux interval |V| <= M exp(-min B)"
                f" (M = {flux.M}, min B = {min_b})"
            )
    return values


def fan_profile_rootfind(
    flux: Flux, source: SourceProfile, x: float, t: float, limit: float | None = None
) -> float:
    """Bracketed root search for the fan profile (any convex flux).

    The bracket is the flux limit M exp(-min B), so an offset the fan
    cannot reach fails the bracket check, after its two evaluations, with
    the "escapes the flux interval" error.  ``limit`` is that flux limit at
    t when the caller has it already, as :func:`fan_values` does; by
    default it is computed here.
    """
    if t <= 0.0:
        raise ValueError(f"fan profile needs t > 0, got {t}")
    if x == 0.0:
        return 0.0
    if limit is None:
        limit = _flux_limit(flux, source, t)
    try:
        return bisect_increasing(
            lambda w: slope_time_integral(flux, source, w, t), -limit, limit, x, _ROOT_TOL
        )
    except _Unbracketed as exc:
        raise NumericsError(
            f"fan profile at offset {x} escapes the flux interval (limit {limit})"
        ) from exc


def _flux_limit(flux: Flux, source: SourceProfile, t: float) -> float:
    """Bound M exp(-min of B over [0, t]) on |V|, the fan's flux interval.

    Raises NumericsError when the bound is not a finite float, as under a
    source that decays by more than about e^-709 before t.
    """
    min_b = source.min_cumulative_source(t)
    try:
        limit = flux.M * math.exp(-min_b)
    except OverflowError:
        limit = math.inf
    if not math.isfinite(limit):
        raise NumericsError(
            f"flux interval M exp(-min B) overflows float64 (M = {flux.M}, min B = {min_b} on [0, {t}])"
        )
    return limit
