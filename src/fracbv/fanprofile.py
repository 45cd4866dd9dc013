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
function of exp(B(theta)) over [0, t].  It is exact on a source piece where
alpha = 0, and elsewhere takes a 48-node Gauss-Legendre rule checked
against the 24-node rule, halving panels where the two disagree.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericsError
from .flux import Flux
from .source import SourceProfile


@functools.cache
def _gauss_rules():
    """The 24- and 48-node Gauss-Legendre rules on [0, 1], built on first use.

    A panel's 72 nodes are the first rule's then the second's, and the two
    sums check each other.  Golub & Welsch, Math. Comp. 23 (1969).
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = zip(leggauss(24), leggauss(48))
    return 0.5 * (1.0 + np.concatenate(nodes)), 0.5 * np.concatenate(weights)


# halvings of a source piece before its quadrature is refused
_MAX_HALVINGS = 12
# disagreement of the two rules that rounding alone can make, relative to
# the panel's integral
_ROUNDING = 32.0 * np.finfo(float).eps
# bracket width at which the general-flux fan root search stops
_ROOT_TOL = 1e-12
# ITP truncation (relative factor and exponent) and spare steps over bisection
_ITP_K1 = 0.5
_ITP_K2 = 1.5
_ITP_N0 = 1


class _Unbracketed(NumericsError):
    """The target of :func:`bisect_increasing` lies outside its bracket."""


def slope_time_integral(flux: Flux, source: SourceProfile, v: float, t: float) -> float:
    """integral over [0, t] of f'(v exp(B(theta))) dtheta.

    Exact for power-law fluxes (equals v |v|^(p-1) * effective_time);
    :func:`source_time_integral` to 1e-13 max(1, |v|) otherwise.
    """
    if flux.power is not None:
        p = flux.power
        return v * abs(v) ** (p - 1.0) * source.effective_time(p, t)
    return source_time_integral(source, lambda e: flux.df(v * e), t, 1e-13 * max(1.0, abs(v)))


def source_time_integral(source: SourceProfile, g, t: float, tol: float) -> float:
    """integral over [0, t] of g(exp(B(theta))) dtheta, B the cumulative source.

    ``g`` takes an array of values of exp(B) and returns their values.  B
    is linear on each constancy piece of alpha.  On a piece where alpha = 0,
    B is constant and the piece adds span * g(exp(B)), one evaluation.  On
    any other piece the integrand is analytic, and :func:`_gauss_panels`
    integrates it to ``tol``.
    """
    total = 0.0
    for left, value, right, b_left in source.pieces:
        if t <= left:
            break
        span = min(t, right) - left
        if value == 0.0:
            total += span * float(g(np.array([math.exp(b_left)]))[0])
        else:
            total += _gauss_panels(lambda s: g(np.exp(b_left + value * s)), left, span, tol)
    return total


def _gauss_panels(h, left: float, span: float, tol: float) -> float:
    """integral of h(s) over s in [0, span] by the 48-node rule, checked against the 24-node rule.

    A panel is accepted when the two rules agree to its share of ``tol``
    (width / span of it) or to rounding; otherwise it is halved, up to
    ``_MAX_HALVINGS`` times.  Each level's panels take one call of ``h``.
    Raises NumericsError naming the interval [left, left + span] when a
    panel still disagrees at the last level.
    """
    nodes, weights = _gauss_rules()
    total = 0.0
    starts = np.zeros(1)  # the open panels' left ends, as offsets s
    width = span
    for _ in range(_MAX_HALVINGS + 1):
        values = np.asarray(h((starts[:, None] + width * nodes).ravel()), dtype=float)
        terms = values.reshape(starts.size, nodes.size) * weights
        low, high = terms[:, :24].sum(axis=1) * width, terms[:, 24:].sum(axis=1) * width
        agree = np.abs(low - high) <= tol * width / span + _ROUNDING * np.abs(high)
        total += float(high[agree].sum())
        if agree.all():
            return total
        width *= 0.5
        starts = np.repeat(starts[~agree], 2)
        starts[1::2] += width
    raise NumericsError(
        f"quadrature failed to reach tolerance {tol} on [{left}, {left + span}] in {1 << _MAX_HALVINGS} panels"
    )


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
    :func:`fan_profile_rootfind` point by point.  Raises ValueError unless
    t > 0, and NumericsError when a value escapes the flux limit M exp(-min B).
    """
    if t <= 0.0:
        raise ValueError(f"fan profile needs t > 0, got {t}")
    offsets = np.asarray(offsets, dtype=float)
    if flux.power is None:
        return np.array([fan_profile_rootfind(flux, source, z, t) for z in offsets.tolist()])
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


def fan_profile_rootfind(flux: Flux, source: SourceProfile, x: float, t: float) -> float:
    """Bracketed root search for the fan profile (any convex flux).

    The bracket is the flux limit M exp(-min B), so an offset the fan
    cannot reach fails the bracket check, after its two evaluations, with
    the "escapes the flux interval" error.
    """
    if t <= 0.0:
        raise ValueError(f"fan profile needs t > 0, got {t}")
    if x == 0.0:
        return 0.0
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
