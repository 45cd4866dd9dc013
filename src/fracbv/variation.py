"""Exact p-variation of sampled profiles and the analytic regularity bounds.

The total p-variation of a sampled function is the supremum of
sum |v(x_i) - v(x_{i-1})|^p over all subdivisions drawn from the sample
points.  For p >= 1 optimal subdivisions only use local extrema
v_0, ..., v_{k-1}, so the supremum is the dynamic program

    best[j] = max over i < j of best[i] + |v_j - v_i|^p,

whose last entry is the variation (the route of Butkus & Norvaisa,
*Lith. Math. J.* 58 (2018)).  The fractional variation of order s in
(0, 1] is the p-variation with p = 1/s.

Scoring every pair (i, j) is quadratic in k.  :func:`p_variation` scores
each extremum only against the predecessors that can still win, and
returns bit for bit what the full dynamic program returns.  It scores a
predecessor as the full program does, ``best[i] + np.abs(v[j] - v[i]) ** p``:
the same ufunc on the same inputs, and numpy gives each element the same
power wherever it sits in the array.  So ``best`` holds the full
program's own floats, and a predecessor may leave the live set once it
loses every later query in float arithmetic.  Ties go to fewer links
(points of the subdivision), then to the earlier index, as in the full
program.

The margin.  Let lo and hi be the min and max of the values after
extremum j, so every later query value x lies in [lo, hi], and let i < j
be live.  Write u = 2^-53 for the unit roundoff (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed. (2002), ch. 4).

* For p >= 1 the difference of two scores,
  (best[j] + |x - v_j|^p) - (best[i] + |x - v_i|^p), is monotone in x,
  and each score is convex in x.  So over [lo, hi] both take their
  extremes at lo and hi.
* Relative to the largest score S compared, a float score lies within
  (p + 3) u of its real value: p units for the rounded difference raised
  to p, about 2 for the power and 1 for the addition.  ``best[i]`` enters
  as the float it is, not as an approximation of a real best, so no error
  builds up along a chain of k links.
* Say j's float scores beat i's by more than 4 (p + 3) u S at both lo and
  hi.  Then the real difference exceeds 2 (p + 3) u S at both ends, hence
  on all of [lo, hi], and S bounds both scores there.  So at every later
  query j's float score exceeds i's: i can neither attain best nor tie it,
  and it leaves the live set.  Float comparisons are transitive, so this
  still holds after j leaves in turn.

The margin is tol = (p + 2) 2^-48 of the larger of j's two end scores,
8 (p + 2) u, twice 4 (p + 3) u.  That leaves room for the rounding of the
test itself, and for powers that err by up to p + 3 units instead of 2.
The bound is relative, so it needs every score and nonzero power in the
normal float range.  For data outside it (powers that may overflow or
underflow) nothing leaves the live set, and the loop is the full dynamic
program.

The chain.  On inputs such as the sampled triangular sawtooth the best
subdivision is every extremum in order, and a check in numpy proves that
before the dynamic program runs.  It takes the chain sums
C = cumsum(|v[1:] - v[:-1]|^p): the numpy power of each neighbour pair,
added left to right as the full program adds them, so C[j] is the full
program's score of j's neighbour.  One predecessor offset d = 2, 3, ... at
a time, and for every extremum at once, it applies the pruning rule with C
for best: a predecessor leaves once the extremum just before the query
beats it by the margin at both ends of the values after that extremum.
It scores each live predecessor exactly.  A score >= C[j] ends the check:
it beats the neighbour, or ties it and the tie goes to the shorter
subdivision.  By induction on j, every C used is then the full program's
best, so the margin argument holds unchanged.  If no predecessor is live
by offset ``_CHAIN_OFFSETS``, C is the dynamic program and the
subdivision is the extrema up to the earliest index attaining the value;
otherwise the pruned dynamic program runs.

The extrema are found once per sample set.  A :class:`SampledFunction` is
immutable and its arrays are read-only, so what every order reads of it
(the extrema's indices and values, the min and max of the values after
each, the neighbour steps, their spread and least nonzero step) is found
the first time :func:`p_variation` sees the object and kept on it.  A sweep
over orders pays that pass once; each order computes what it reads with
the same expression as before, so values and subdivisions do not change.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigError, NumericsError
from .families import PowerLawFamily, ShockCellFamily, packet_width
from .fanprofile import fan_values
from .flux import Flux
from .source import SourceProfile
from .waves import PiecewiseProfile, speed_bound


@dataclass(frozen=True)
class SampledFunction:
    """Samples v(x) of a function at strictly increasing, finite abscissae.

    The object is immutable: ``xs`` and ``vs`` are read-only float views of
    the arrays passed in (no copy is made, so those arrays must not be
    written to afterwards).  Its extrema are found on first use by
    :func:`p_variation` and kept for every later order measured on it.
    """

    xs: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float).view()
        vs = np.asarray(self.vs, dtype=float).view()
        xs.flags.writeable = False
        vs.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "vs", vs)
        if xs.ndim != 1 or xs.shape != vs.shape:
            raise ValueError("xs and vs must be 1-D arrays of equal length")
        if np.any(xs[1:] <= xs[:-1]):
            raise ValueError("xs must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise ValueError("samples must be finite")

    def __len__(self) -> int:
        return int(self.xs.size)

    @functools.cached_property
    def _extrema(self) -> "_Extrema":
        cand = _candidate_indices(self.vs)
        return _Extrema(self.vs[cand], tuple(cand.tolist()))


@dataclass(frozen=True)
class VariationReport:
    p: float
    value: float
    subdivision: Tuple[int, ...]


def _candidate_indices(vs: np.ndarray) -> np.ndarray:
    """Endpoint and local-extrema indices, a plateau run by its first index.

    The rest of a run changes neither value nor subdivision: it has its
    first index's value, best, chain length and predecessor, so it only
    ties with it, and ties go to the earlier index.
    """
    n = vs.size
    if n <= 2:
        return np.arange(n)
    starts = np.concatenate(([0], np.nonzero(vs[1:] != vs[:-1])[0] + 1))
    w = vs[starts]
    if w.size == 1:  # constant data
        return np.array([0, n - 1])
    up = w[1:] > w[:-1]  # compared, not subtracted: differences may overflow
    keep = np.ones(w.size, dtype=bool)
    keep[1:-1] = up[:-1] != up[1:]
    return starts[keep]


class _Extrema:
    """What every order reads of the extremum values ``v``, found once.

    ``indices`` are the extrema's sample indices, a tuple whose slices share
    its ints; ``lo``, ``hi`` the min and max of the values after each
    j < k - 1; ``steps`` the neighbour differences |v[1:] - v[:-1]|;
    ``spread`` is max v - min v and ``least_step`` the smallest nonzero
    step, 0.0 for constant data.  Each is the expression the helpers
    evaluated per order, so sharing it changes no bit.
    """

    __slots__ = ("v", "indices", "lo", "hi", "steps", "spread", "least_step")

    def __init__(self, v: np.ndarray, indices: Tuple[int, ...] = ()):
        self.v = v
        self.indices = indices
        self.lo = np.minimum.accumulate(v[::-1])[::-1][1:]
        self.hi = np.maximum.accumulate(v[::-1])[::-1][1:]
        with np.errstate(over="ignore"):  # an infinite step is out of the normal range
            self.steps = np.abs(v[1:] - v[:-1])
        self.spread = float(v.max()) - float(v.min())  # inf, and no warning, on overflow
        self.least_step = float(self.steps[self.steps > 0.0].min()) if self.spread > 0.0 else 0.0


# The chain check follows predecessors up to this many extrema back.
_CHAIN_OFFSETS = 16


def p_variation(f: SampledFunction, p: float) -> VariationReport:
    """Exact supremum of sum |dv|^p over subdivisions of the sample points.

    The dynamic program over local extrema (lossless for p >= 1), each
    extremum scored exactly against the predecessors that can still win
    (see the module docstring).  Value and subdivision equal those of the
    full dynamic program bit for bit.  Ties break toward subdivisions with
    fewer points, then earliest indices.  Raises ValueError unless p is
    finite and >= 1, and NumericsError when the value overflows float64.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"variation exponent must be finite and satisfy p >= 1, got {p}")
    if len(f) < 2:
        raise ValueError("need at least 2 samples")
    ext = f._extrema
    best, prev, _ = _best_predecessors(ext, p)
    total = float(best[-1])
    if not math.isfinite(total):
        raise NumericsError(f"the {p}-variation is not finite in float64")
    end = int(np.argmax(best == total))  # earliest attaining index
    if prev is None:  # the chain: every extremum follows its neighbour
        sub = ext.indices[: end + 1]
    else:
        path = [end]
        while prev[path[-1]] >= 0:
            path.append(int(prev[path[-1]]))
        path.reverse()
        sub = tuple(ext.indices[i] for i in path)
    if len(sub) == 1:  # constant data: report the trivial 2-point subdivision
        sub = (ext.indices[0], ext.indices[-1])
    return VariationReport(p=float(p), value=total, subdivision=sub)


def _tolerance(p: float) -> float:
    """The pruning margin relative to the larger end score, (p + 2) 2^-48:
    8 (p + 2) units of roundoff, twice the 4 (p + 3) the proof needs."""
    return (p + 2.0) * 2.0**-48


def _in_normal_range(ext: _Extrema, p: float) -> bool:
    """Whether every score and nonzero power over the extrema ``ext`` is a
    normal float, the range the margin covers."""
    if not ext.spread > 0.0 or math.log2(ext.v.size) + p * math.log2(ext.spread) > 1000.0:
        return False
    return p * math.log2(ext.least_step) >= -960.0


def _best_predecessors(ext: _Extrema, p: float):
    """(best, prev, scored) of the dynamic program over the extrema ``ext``.

    ``best`` and ``prev`` are arrays, ``prev`` None when every extremum's
    predecessor is its neighbour; ``scored`` counts the (j, i) pairs the
    chain check and the dynamic program scored, all k (k - 1) / 2 when
    nothing is pruned: the work the pruning saves.
    """
    prune = _in_normal_range(ext, p)
    scored = 0
    if prune:
        chain, scored = _chain_best(ext, p)
        if chain is not None:
            return chain, None, scored
    best, prev, pairs = _dynamic_program(ext, p, prune)
    return best, prev, scored + pairs


def _chain_best(ext: _Extrema, p: float):
    """Chain check over the extrema ``ext``: (best, scored), ``best`` the chain
    sums when every extremum's predecessor is its neighbour, else None.

    The pruning rule with the chain sums for best, applied at each
    predecessor offset 2, 3, ... to every extremum at once; a live
    predecessor whose exact score reaches the neighbour's ends the check,
    and so does one still live past ``_CHAIN_OFFSETS``.  ``scored`` counts
    the (j, i) pairs compared.
    """
    v, lo, hi = ext.v, ext.lo, ext.hi
    k = v.size
    chain = np.concatenate(([0.0], np.cumsum(ext.steps ** p)))
    tol = _tolerance(p)
    # j's scores at the ends of the values after each j < k - 1
    score_lo = chain[:-1] + np.abs(lo - v[:-1]) ** p
    score_hi = chain[:-1] + np.abs(hi - v[:-1]) ** p
    margin = tol * np.maximum(score_lo, score_hi)
    beat_lo = score_lo - margin
    beat_hi = score_hi - margin
    scored = k - 1
    live = np.arange(k - 2)  # predecessors with a query at offset 2
    for d in range(2, _CHAIN_OFFSETS + 1):
        # the extremum just before the query drops those it beats at both ends
        by = live + (d - 1)
        base = chain[live]
        at = v[live]
        keep = (base + np.abs(lo[by] - at) ** p >= beat_lo[by]) | (base + np.abs(hi[by] - at) ** p >= beat_hi[by])
        live = live[keep]
        if live.size == 0:
            return chain, scored
        j = live + d
        scored += live.size
        # a tie goes to the shorter subdivision, so it ends the chain too
        if np.any(chain[live] + np.abs(v[j] - v[live]) ** p >= chain[j]):
            return None, scored
        live = live[j + 1 < k]
    return None, scored


def _dynamic_program(ext: _Extrema, p: float, prune: bool):
    """(best, prev, scored) of the dynamic program over the extrema ``ext``.

    Each extremum j is scored against a live set of predecessors, kept
    compacted in index order, one row per field: index, value, best, links
    (points of the best subdivision ending there), and the scores at the
    ends lo, hi of the values after j.  The scores are the full program's
    own floats; ties go to fewer links, then to the earlier index.  With
    ``prune`` a predecessor leaves the set once j beats it by the margin at
    both ends.  Without, nothing leaves and this is the full dynamic
    program, run for data outside the normal float range.  ``scored``
    counts the pairs scored.
    """
    k = ext.v.size
    vals = ext.v.tolist()
    lo_after, hi_after = ext.lo.tolist(), ext.hi.tolist()
    tol = _tolerance(p)
    best = np.zeros(k)
    prev = np.full(k, -1, dtype=np.int64)
    # index and links are whole numbers below 2^53, exact as floats
    live = np.empty((6, k))
    index, value, base, links, at_lo, at_hi = live
    live[:4, 0] = 0.0, vals[0], 0.0, 1.0
    n = 1
    lo = hi = None
    scored = 0
    with np.errstate(over="ignore"):  # p_variation reports an infinite value
        for j in range(1, k):
            vj = vals[j]
            scored += n
            scores = np.abs(vj - value[:n])
            scores **= p
            scores += base[:n]
            m = int(scores.argmax())
            top = scores.item(m)
            if n - 1 - int(scores[::-1].argmax()) != m:  # the first and last maxima differ
                ties = np.flatnonzero(scores == top)
                m = int(ties[links[ties].argmin()])
            best[j] = top
            prev[j] = index[m]
            chain = links[m] + 1.0
            if prune and j < k - 1:
                if lo_after[j] != lo:
                    lo = lo_after[j]
                    at_lo[:n] = base[:n] + np.abs(lo - value[:n]) ** p
                if hi_after[j] != hi:
                    hi = hi_after[j]
                    at_hi[:n] = base[:n] + np.abs(hi - value[:n]) ** p
                score_lo = top + abs(lo - vj) ** p
                score_hi = top + abs(hi - vj) ** p
                margin = tol * max(score_lo, score_hi)
                keep = at_lo[:n] >= score_lo - margin
                keep |= at_hi[:n] >= score_hi - margin
                kept = np.count_nonzero(keep)
                if kept < n:  # shift the kept ones after the first to leave
                    first = int(keep.argmin())
                    live[:, first:kept] = live[:, first:n].compress(keep[first:], axis=1)
                    n = kept
                at_lo[n] = score_lo
                at_hi[n] = score_hi
            index[n] = j
            value[n] = vj
            base[n] = top
            links[n] = chain
            n += 1
    return best, prev, scored


def sample_profile(profile: PiecewiseProfile, fan_points: int = 64) -> SampledFunction:
    """Sample an exact profile for variation measurement.

    Every region contributes both endpoint limits (so shocks appear as two
    samples one float-ulp apart, preserving the jump height) and fan regions
    contribute ``fan_points`` uniformly spaced samples.  Fans are monotone,
    so coarse interior sampling loses nothing at the jumps.

    All regions are sampled in one pass over slices of the profile's ends,
    fan flags and anchors: one ``np.linspace`` over the fan regions' ends
    and one :func:`fan_values` call, scattered into arrays laid out region
    by region.  The samples are bit for bit those of a ``np.linspace`` and
    a ``fan_values`` call per region, because each element takes the same
    operations wherever it sits in the array.  Rows whose step rounds to
    zero get their own ``np.linspace`` call, since numpy switches the
    formula of a whole call when any step is zero.  Raises ValueError when
    ``fan_points`` is below 2.
    """
    if fan_points < 2:
        raise ValueError(f"need at least 2 samples per fan region, got {fan_points}")
    t = profile.time
    scale = profile.source.growth(t)
    fan = profile.fan
    const = ~fan
    lefts, rights = profile.ends[:-1], profile.ends[1:]
    counts = np.where(const, 2, fan_points)
    lasts = np.cumsum(counts) - 1
    starts = lasts - counts + 1
    xs = np.empty(int(counts.sum()))
    vs = np.empty(xs.size)

    firsts = starts[const]
    level = profile.anchor[const] * scale
    xs[firsts], xs[firsts + 1] = lefts[const], rights[const]
    vs[firsts], vs[firsts + 1] = level, level

    fan_lefts, fan_rights = lefts[fan], rights[fan]
    grid = np.empty((fan_lefts.size, fan_points))
    flat = (fan_rights - fan_lefts) / (fan_points - 1) == 0.0
    for rows in (flat, ~flat):
        if rows.any():
            grid[rows] = np.linspace(fan_lefts[rows], fan_rights[rows], fan_points, axis=1)
    centers = profile.anchor[fan]
    at = (starts[fan][:, None] + np.arange(fan_points)).ravel()
    xs[at] = grid.ravel()
    vs[at] = fan_values(profile.flux, profile.source, (grid - centers[:, None]).ravel(), t) * scale

    # each region's right endpoint is its one-sided limit at the shared
    # breakpoint; nudge it one ulp left so abscissae stay strictly ordered.
    # A region narrower than an ulp then ends below its own left end, so a
    # point is kept only above every point before it (on ordered points,
    # the same as a positive difference to its predecessor).
    xs[lasts] = np.nextafter(xs[lasts], -np.inf)
    keep = np.concatenate(([True], xs[1:] > np.maximum.accumulate(xs)[:-1]))
    return SampledFunction(xs[keep], vs[keep])


def smoothing_upper_bound(
    F: Flux, S: SourceProfile, t: float, a: float, b: float, T: float
) -> float:
    """Analytic upper bound for the fractional variation on [a, b] at time t.

    exp(p B(t)) / (c0 * effective_time(p, t)) * (2 (b - a) + 2 C(T) t) with
    (p, c0) the flux degeneracy and C(T) the propagation speed bound.
    Diverges as t -> 0 (no smoothing at time zero).  Raises NumericsError
    naming the quantity that overflows float64, with max B over [0, T], when
    the bound is not representable: that one exponent bounds G_p(t),
    e^(p B(t)) and the speed bound alike.
    """
    if not 0.0 < t <= T:
        raise ConfigError("need 0 < t <= T")
    if b <= a:
        raise ConfigError("need a < b")
    deg = F.degeneracy
    if deg is None:
        raise ValueError("flux carries no degeneracy metadata (p, c0)")
    max_b = S.max_cumulative_source(T)
    g = _finite("the effective time G_p(t), the integral of e^(p B) over [0, t]", max_b,
                lambda: S.effective_time(deg.p, t))
    if g == 0.0:
        return math.inf
    scale = _finite("e^(p B(t))", max_b, lambda: S.growth(t, deg.p))
    speed = _finite("the speed bound max |f'| on [-M e^(max B), M e^(max B)] over [0, T]", max_b,
                    lambda: speed_bound(F, S, T))
    return _finite("the bound", max_b, lambda: scale / (deg.c0 * g) * (2.0 * (b - a) + 2.0 * speed * t))


def _finite(quantity: str, max_b: float, compute) -> float:
    """compute(), or NumericsError naming ``quantity`` when it overflows float64."""
    try:
        with np.errstate(over="ignore"):  # a numpy overflow gives inf, refused below
            value = compute()
    # effective_time's overflow is a NumericsError, and a divisor that
    # underflows to 0 (c0 = 2^(1-p) at large p) an overflowing quotient
    except (OverflowError, ZeroDivisionError, NumericsError):
        value = math.inf
    if not math.isfinite(value):
        raise NumericsError(
            f"{quantity} overflows float64 at max B = {max_b:g}, so the bound is not representable"
        )
    return value


def family_variation_lower_bounds(family, t: float, s: float, N: int):
    """Per-packet analytic lower bounds for the order-s variation at time t.

    Returns a list of (n, bound, cumulative).  For amplitude-packet families
    the bound is the center jump raised to 1/s (the packet keeps its full
    jump until the interaction time, then decays with the fan value); for
    two-state cell families it is the min of the construction-time and
    evolution-time degeneracy bounds.
    """
    if t <= 0.0:
        raise ConfigError(f"need t > 0, got {t}")
    if not 0.0 < s <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {s}")
    rows: List[Tuple[int, float, float]] = []
    cum = 0.0
    if isinstance(family, PowerLawFamily):
        p = family.flux.power
        g_root = family.source.effective_time(p, t) ** (-1.0 / p)
        scale = family.source.growth(t)
        for n, _, _, a_n, _, _, t_n in zip(*family.columns[:, :N].tolist()):
            if t < t_n:
                jump = 2.0 * a_n * scale
            else:  # the fan value w_n^(1/p) G_p(t)^(-1/p) at the packet's half-width w_n
                jump = 2.0 * (packet_width(int(n)) ** (1.0 / p) * g_root) * scale
            bound = jump ** (1.0 / s)
            cum += bound
            rows.append((int(n), bound, cum))
        return rows
    if isinstance(family, ShockCellFamily):
        decay = family.flux.decay
        q, C = decay.q, decay.C
        c0 = C * family.source.effective_time(q, family.t0)
        rho = C * family.source.effective_time(q, t)
        scale = family.source.growth(t)
        for n, A_n, B_n in zip(*family.columns[:3].tolist()):
            if n > N:
                break
            width = B_n - A_n
            bound = (
                min(c0 ** (-1.0 / (q * s)), rho ** (-1.0 / (q * s)))
                * width ** (1.0 / (q * s))
                * scale ** (1.0 / s)
            )
            cum += bound
            rows.append((int(n), bound, cum))
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
