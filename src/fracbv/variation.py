"""Exact p-variation of sampled profiles and the analytic regularity bounds.

The total p-variation of a sampled function is the supremum of
sum |v(x_i) - v(x_{i-1})|^p over all subdivisions drawn from the sample
points.  For p >= 1 optimal subdivisions only use local extrema, so the
supremum is computed by dynamic programming over the extrema.  The
fractional variation of order s in (0, 1] is the p-variation with p = 1/s.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigError
from .fanprofile import FanContext, fan_profile, fan_values
from .flux import Flux
from .source import SourceProfile
from .waves import PiecewiseProfile, ConstantRegion, FanRegion, speed_bound


@dataclass(frozen=True)
class SampledFunction:
    xs: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)
        if xs.ndim != 1 or xs.shape != vs.shape:
            raise ValueError("xs and vs must be 1-D arrays of equal length")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise ValueError("samples must be finite")

    def __len__(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class VariationReport:
    p: float
    value: float
    subdivision: Tuple[int, ...]


def _candidate_indices(vs: np.ndarray) -> np.ndarray:
    """Endpoint and local-extrema indices; plateau runs keep both endpoints."""
    n = vs.size
    if n <= 2:
        return np.arange(n)
    change = np.nonzero(np.diff(vs) != 0.0)[0]
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [n - 1]))
    w = vs[starts]
    if w.size == 1:  # constant data
        return np.array([0, n - 1])
    sign = np.sign(np.diff(w))
    keep = np.ones(w.size, dtype=bool)
    keep[1:-1] = sign[:-1] != sign[1:]
    return np.unique(np.concatenate((starts[keep], ends[keep])))


def p_variation(f: SampledFunction, p: float) -> VariationReport:
    """Exact supremum of sum |dv|^p over subdivisions of the sample points.

    Dynamic programming restricted to local extrema (lossless for p >= 1).
    Ties break toward subdivisions with fewer points, then earliest indices.
    """
    if p < 1.0:
        raise ValueError(f"variation exponent must satisfy p >= 1, got {p}")
    if len(f) < 2:
        raise ValueError("need at least 2 samples")
    cand = _candidate_indices(f.vs)
    v = f.vs[cand]
    k = v.size
    best = np.zeros(k)
    prev = np.full(k, -1, dtype=np.int64)
    chain = np.ones(k, dtype=np.int64)
    for j in range(1, k):
        scores = best[:j] + np.abs(v[j] - v[:j]) ** p
        m = int(np.argmax(scores))
        top = scores[m]
        ties = np.nonzero(scores == top)[0]
        if ties.size > 1:
            m = int(ties[np.argmin(chain[ties])])
        best[j] = top
        prev[j] = m
        chain[j] = chain[m] + 1
    total = float(best[-1])
    end = int(np.argmax(best == total))  # earliest attaining index
    path = [end]
    while prev[path[-1]] >= 0:
        path.append(int(prev[path[-1]]))
    path.reverse()
    sub = [int(cand[i]) for i in path]
    if len(sub) == 1:  # constant data: report the trivial 2-point subdivision
        sub = [int(cand[0]), int(cand[-1])]
    return VariationReport(p=float(p), value=total, subdivision=tuple(sub))


def p_variation_reference(f: SampledFunction, p: float) -> float:
    """Plain quadratic DP over all sample indices; slow but obviously correct.

    Independent of the extrema restriction; used to cross-check
    :func:`p_variation`.
    """
    if p < 1.0:
        raise ValueError(f"variation exponent must satisfy p >= 1, got {p}")
    v = f.vs
    best = np.zeros(v.size)
    for j in range(1, v.size):
        best[j] = np.max(best[:j] + np.abs(v[j] - v[:j]) ** p)
    return float(best[-1])


def _check_order(s: float) -> None:
    if not 0.0 < s <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {s}")


def fractional_variation(f: SampledFunction, s: float) -> float:
    """Variation of fractional order s in (0, 1]: p-variation with p = 1/s."""
    _check_order(s)
    return p_variation(f, 1.0 / s).value


def sample_profile(profile: PiecewiseProfile, fan_points: int = 64) -> SampledFunction:
    """Sample an exact profile for variation measurement.

    Every region contributes both endpoint limits (so shocks appear as two
    samples one float-ulp apart, preserving the jump height) and fan regions
    contribute ``fan_points`` uniformly spaced samples.  Fans are monotone,
    so coarse interior sampling loses nothing at the jumps.
    """
    ctx = profile.ctx
    t = profile.time
    scale = math.exp(ctx.source.cumulative_source(t))
    xs_parts: List[np.ndarray] = []
    vs_parts: List[np.ndarray] = []
    for region in profile.regions:
        if isinstance(region, ConstantRegion):
            xs = np.array([region.left, region.right])
            vs = np.array([region.w * scale, region.w * scale])
        else:
            xs = np.linspace(region.left, region.right, max(2, fan_points))
            vs = fan_values(ctx, xs - region.center, t) * scale
        # the right endpoint is this region's one-sided limit at the shared
        # breakpoint; nudge it one ulp left so abscissae stay strictly ordered
        xs = xs.copy()
        xs[-1] = np.nextafter(xs[-1], -np.inf)
        xs_parts.append(xs)
        vs_parts.append(vs)
    xs = np.concatenate(xs_parts)
    vs = np.concatenate(vs_parts)
    keep = np.concatenate(([True], np.diff(xs) > 0.0))
    return SampledFunction(xs[keep], vs[keep])


def smoothing_upper_bound(
    F: Flux, S: SourceProfile, t: float, a: float, b: float, T: float
) -> float:
    """Analytic upper bound for the fractional variation on [a, b] at time t.

    exp(p B(t)) / (c0 * effective_time(p, t)) * (2 (b - a) + 2 C(T) t) with
    (p, c0) the flux degeneracy and C(T) the propagation speed bound.
    Diverges as t -> 0 (no smoothing at time zero).
    """
    if not 0.0 < t <= T:
        raise ValueError("need 0 < t <= T")
    if b <= a:
        raise ValueError("need a < b")
    deg = F.degeneracy
    if deg is None:
        raise ValueError("flux carries no degeneracy metadata (p, c0)")
    g = S.effective_time(deg.p, t)
    if g == 0.0:
        return math.inf
    scale = math.exp(deg.p * S.cumulative_source(t))
    return scale / (deg.c0 * g) * (2.0 * (b - a) + 2.0 * speed_bound(F, S, T) * t)


def family_variation_lower_bounds(family, t: float, s: float, N: int):
    """Per-packet analytic lower bounds for the order-s variation at time t.

    Returns a list of (n, bound, cumulative).  For amplitude-packet families
    the bound is the center jump raised to 1/s (the packet keeps its full
    jump until the interaction time, then decays with the fan value); for
    two-state cell families it is the min of the construction-time and
    evolution-time degeneracy bounds.
    """
    from .families import PowerLawFamily, ShockCellFamily

    if t <= 0.0:
        raise ConfigError(f"need t > 0, got {t}")
    _check_order(s)
    rows: List[Tuple[int, float, float]] = []
    cum = 0.0
    scale = math.exp(family.source.cumulative_source(t))
    if isinstance(family, PowerLawFamily):
        ctx = FanContext(flux=family.flux, source=family.source)
        for n, packet in enumerate(family.packets[:N], start=1):
            if t < packet.t_n:
                jump = 2.0 * packet.delta * scale
            else:
                jump = 2.0 * fan_profile(ctx, packet.dx, t) * scale
            bound = jump ** (1.0 / s)
            cum += bound
            rows.append((n, bound, cum))
        return rows
    if isinstance(family, ShockCellFamily):
        decay = family.flux.decay
        q, C = decay.q, decay.C
        c0 = C * family.source.effective_time(q, family.t0)
        rho = C * family.source.effective_time(q, t)
        for cell in family.cells:
            if cell.index > N:
                break
            width = cell.B - cell.A
            bound = (
                min(c0 ** (-1.0 / (q * s)), rho ** (-1.0 / (q * s)))
                * width ** (1.0 / (q * s))
                * scale ** (1.0 / s)
            )
            cum += bound
            rows.append((cell.index, bound, cum))
        return rows
    raise TypeError(f"unsupported family type {type(family).__name__}")


def load_profile_csv(path) -> SampledFunction:
    """Read an ``x,u`` profile CSV, as ``fracbv family`` writes it.

    Raises ValueError for a file without a header or samples, a wrong
    header, or rows that are not two numbers each.
    """
    with open(path) as fh:
        header = fh.readline()
    if not header:
        raise ValueError("empty profile file")
    if [h.strip() for h in header.split(",")[:2]] != ["x", "u"]:
        raise ValueError(f"expected 'x,u' header, got {header.strip()!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a header-only file is reported below
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0:
        raise ValueError("profile file has no samples")
    if data.shape[1] != 2:
        raise ValueError(f"expected 2 columns, got {data.shape[1]}")
    return SampledFunction(data[:, 0], data[:, 1])
