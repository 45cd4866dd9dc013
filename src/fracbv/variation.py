"""Exact p-variation of sampled profiles and the analytic regularity bounds.

The total p-variation of a sampled function is the supremum of
sum |v(x_i) - v(x_{i-1})|^p over all subdivisions drawn from the sample
points.  For p >= 1 optimal subdivisions only use local extrema
v_0, ..., v_{k-1}, so the supremum is the dynamic program

    best[j] = max over i < j of best[i] + |v_j - v_i|^p,

whose last entry is the variation.  The fractional variation of order s in
(0, 1] is the p-variation with p = 1/s.

Scoring every pair (i, j) is quadratic in k.  :func:`p_variation` scores
each extremum against the few predecessors that can still win, in two
passes, and returns bit for bit what the full dynamic program returns.

* The candidate pass keeps a live set of predecessors in a list and
  scores them with approximate powers, Python ``**``.  For p >= 1 the
  difference |v - v_i|^p - |v - v_j|^p is monotone in v, so once j beats i
  by more than a margin at both ends of the range of the values still to
  come (their min and max), i wins no later query and leaves the live set.
  For each j the pass records every predecessor whose score comes within
  the margin of the top score.  Where this pruning fails, the live set
  grows past ``_SCALAR_LIVE`` predecessors and a fixed share of all of
  them; the pass then gives up and the full dynamic program, which scores
  every pair with numpy, runs instead.
* The exact pass takes the power of every recorded pair in one numpy call,
  ``np.abs(v[J] - v[I]) ** p``: the ufunc and inputs of the full dynamic
  program, and numpy gives each element the same power wherever it sits in
  the array.  Scalar ``**`` goes through libm ``pow``, which disagrees with
  numpy's vectorised power in the last bit on about 5 % of float64
  results, so only the exact pass decides.  It then reruns the dynamic
  program over the recorded pairs, ties broken the same way.

The margin.  A score is a sum of at most k - 1 powers added left to right.
Each link of that chain adds the rounding of one addition and the error of
one power, a unit of roundoff or two for libm and numpy alike, so over a
run every computed score stays within a few units of roundoff per link of
its real value, relative to the largest quantity compared.  The margin is
``_MARGIN_PER_LINK * (k + 1)`` times that quantity, 128 units of roundoff
per link: 32 for each of the four computed scores (approximate and exact,
on either side) a comparison rests on.  So a predecessor that the
candidate pass drops or leaves unrecorded also loses in exact arithmetic,
and every exact tie is recorded.  The bound is relative, so it needs every
score and power in the normal float range; for data outside it (powers
that may overflow, or differences whose powers underflow) the full
dynamic program runs instead.

The chain.  On inputs such as the sampled triangular sawtooth the best
subdivision is every extremum in order, and a check in numpy proves that
before the candidate pass runs.  It takes the chain sums
C = cumsum(|v[1:] - v[:-1]|^p): the numpy power of each neighbour pair, the
ufunc and inputs of the exact pass, added left to right as the exact pass
adds them, so C is the exact pass's best bit for bit whenever each
extremum's one recorded predecessor is its neighbour.  With C standing in
for the approximate best, the check applies the candidate pass's rules to
every extremum at once, one predecessor offset d = 2, 3, ... at a time: a
predecessor leaves the live set once a later extremum beats it by the
margin at both ends of the values still to come, and a live one whose score
reaches top - tol * top, top the neighbour's score, is a second candidate.
C is a sum of computed powers like any approximate best, within the same
few units of roundoff per link of its real value, so the check is the
candidate pass with other approximate powers and the margin argument above
holds for it unchanged: a predecessor it drops or leaves below the cut loses
in exact arithmetic too.  If no predecessor is live by offset
``_CHAIN_OFFSETS`` and none came near the top, C is the dynamic program and
the subdivision is the extrema up to the earliest index attaining the
value; otherwise the candidate and exact passes run.
"""

from __future__ import annotations

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
    xs: np.ndarray
    vs: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.vs, dtype=float)
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


# Margin of the candidate pass per link of the longest chain, relative to
# the largest quantity compared: 2^-46 is 128 units of roundoff.
_MARGIN_PER_LINK = 2.0 ** -46
# The candidate pass hands a live set of more than _SCALAR_LIVE predecessors,
# and more than one in _HANDOFF_SHARE of them, to the full dynamic program:
# numpy scores a pair about _HANDOFF_SHARE times faster than the Python loop.
_SCALAR_LIVE = 48
_HANDOFF_SHARE = 64
# The chain check follows predecessors up to this many extrema back.
_CHAIN_OFFSETS = 16


def _check_exponent(p: float) -> None:
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"variation exponent must be finite and satisfy p >= 1, got {p}")


def p_variation(f: SampledFunction, p: float) -> VariationReport:
    """Exact supremum of sum |dv|^p over subdivisions of the sample points.

    The dynamic program over local extrema (lossless for p >= 1), pruned to
    the predecessors that can still win and finished exactly over the pairs
    that come within the rounding margin of the top score (see the module
    docstring).  Value and subdivision equal those of the full dynamic
    program bit for bit.  Ties break toward subdivisions with fewer points,
    then earliest indices.  Raises ValueError unless p is finite and >= 1,
    and NumericsError when the value overflows float64.
    """
    _check_exponent(p)
    if len(f) < 2:
        raise ValueError("need at least 2 samples")
    cand = _candidate_indices(f.vs)
    best, prev, _ = _best_predecessors(f.vs[cand], p)
    total = float(best[-1])
    if not math.isfinite(total):
        raise NumericsError(f"the {p}-variation is not finite in float64")
    end = best.index(total)  # earliest attaining index
    if prev is None:  # the chain: every extremum follows its neighbour
        sub = cand[: end + 1].tolist()
    else:
        path = [end]
        while prev[path[-1]] >= 0:
            path.append(prev[path[-1]])
        path.reverse()
        sub = [int(cand[i]) for i in path]
    if len(sub) == 1:  # constant data: report the trivial 2-point subdivision
        sub = [int(cand[0]), int(cand[-1])]
    return VariationReport(p=float(p), value=total, subdivision=tuple(sub))


def _in_normal_range(v: np.ndarray, p: float) -> bool:
    """Whether every score and nonzero power over the extrema ``v`` is a
    normal float, the range the margin covers."""
    spread = float(v.max()) - float(v.min())  # inf, and no warning, on overflow
    if not spread > 0.0 or math.log2(v.size) + p * math.log2(spread) > 1000.0:
        return False
    steps = np.abs(np.diff(v))
    return p * math.log2(float(steps[steps > 0.0].min())) >= -960.0


def _best_predecessors(v: np.ndarray, p: float):
    """(best, prev, scored) of the dynamic program over the extrema ``v``.

    ``best`` and ``prev`` are lists, ``prev`` None when every extremum's
    predecessor is its neighbour; ``scored`` counts the (j, i) pairs the
    chain check and candidate pass scored, plus all k (k - 1) / 2 when the
    full dynamic program runs: the work the pruning saves.
    """
    k = v.size
    if not _in_normal_range(v, p):
        best, prev = _full_dynamic_program(v, p)
        return best, prev, k * (k - 1) // 2
    chain, scored = _chain_best(v, p)
    if chain is not None:
        return chain, None, scored
    pairs, candidates = _candidate_pairs(v, p)
    scored += candidates
    if pairs is None:  # the live set grew large: score every pair
        best, prev = _full_dynamic_program(v, p)
        return best, prev, scored + k * (k - 1) // 2
    pairs_j, pairs_i, starts = pairs
    powers = (np.abs(v[np.array(pairs_j)] - v[np.array(pairs_i)]) ** p).tolist()
    best = [0.0] * k
    prev = [-1] * k
    chain = [1] * k
    for j in range(1, k):
        lo, hi = starts[j], starts[j + 1]
        i = pairs_i[lo]
        top = best[i] + powers[lo]
        for r in range(lo + 1, hi):
            cand = pairs_i[r]
            score = best[cand] + powers[r]
            if score > top or (score == top and chain[cand] < chain[i]):
                top, i = score, cand
        best[j] = top
        prev[j] = i
        chain[j] = chain[i] + 1
    return best, prev, scored


def _chain_best(v: np.ndarray, p: float):
    """Chain check: (best, scored), ``best`` the chain sums as a list when
    every extremum's one candidate is its neighbour, else None.

    The candidate pass's rules with the chain sums for its approximate best,
    applied at each predecessor offset 2, 3, ... to every extremum at once,
    until no predecessor is live or the offsets pass ``_CHAIN_OFFSETS``.
    ``scored`` counts the (j, i) pairs compared.
    """
    k = v.size
    chain = np.concatenate(([0.0], np.cumsum(np.abs(v[1:] - v[:-1]) ** p)))
    tol = _MARGIN_PER_LINK * (k + 1)
    cut = chain - tol * chain
    # the ends of the values after each j < k - 1, and j's scores there
    lo = np.minimum.accumulate(v[::-1])[::-1][1:]
    hi = np.maximum.accumulate(v[::-1])[::-1][1:]
    score_lo = chain[:-1] + np.abs(lo - v[:-1]) ** p
    score_hi = chain[:-1] + np.abs(hi - v[:-1]) ** p
    margin = tol * (chain[:-1] + np.maximum(score_lo, score_hi))
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
            return chain.tolist(), scored
        j = live + d
        scored += live.size
        if np.any(chain[live] + np.abs(v[j] - v[live]) ** p >= cut[j]):
            return None, scored
        live = live[j + 1 < k]
    return None, scored


def _candidate_pairs(v: np.ndarray, p: float):
    """Candidate pass: the predecessors that may attain best[j], for every j.

    Returns (pairs, scored): ``pairs`` is (pairs_j, pairs_i, starts), the
    pairs in order of j, then of i, those of j at ``starts[j]:starts[j + 1]``,
    and ``scored`` the number of pairs scored.  Live predecessors carry their
    approximate best and their scores at the two ends [lo, hi] of the values
    still to come, refreshed whenever the ends narrow.  ``pairs`` is None
    when the pass gives up: once the live set holds more than
    ``_SCALAR_LIVE`` predecessors and more than one in ``_HANDOFF_SHARE`` of
    them, scoring every pair with numpy costs less.
    """
    k = v.size
    vals = v.tolist()
    lo_after = np.minimum.accumulate(v[::-1])[::-1].tolist() + [vals[-1]]
    hi_after = np.maximum.accumulate(v[::-1])[::-1].tolist() + [vals[-1]]
    tol = _MARGIN_PER_LINK * (k + 1)
    approx = [0.0] * k
    lo, hi = lo_after[1], hi_after[1]
    at_lo = [0.0] * k
    at_hi = [0.0] * k
    at_lo[0] = abs(lo - vals[0]) ** p
    at_hi[0] = abs(hi - vals[0]) ** p
    live = [0]
    pairs_j: List[int] = []
    pairs_i: List[int] = []
    starts = [0, 0]
    scored = 0
    for j in range(1, k):
        vj = vals[j]
        scored += len(live)
        scores = [approx[i] + abs(vj - vals[i]) ** p for i in live]
        top = max(scores)
        cut = top - tol * top
        for i, score in zip(live, scores):
            if score >= cut:
                pairs_j.append(j)
                pairs_i.append(i)
        if lo_after[j + 1] != lo or hi_after[j + 1] != hi:
            lo, hi = lo_after[j + 1], hi_after[j + 1]
            for i in live:
                at_lo[i] = approx[i] + abs(lo - vals[i]) ** p
                at_hi[i] = approx[i] + abs(hi - vals[i]) ** p
        approx[j] = top
        starts.append(len(pairs_i))
        # j's scores at the ends; it beats i for every later value once it
        # beats i by the margin at both
        score_lo = top + abs(lo - vj) ** p
        score_hi = top + abs(hi - vj) ** p
        margin = tol * (top + max(score_lo, score_hi))
        live = [i for i in live if at_lo[i] >= score_lo - margin or at_hi[i] >= score_hi - margin]
        live.append(j)
        at_lo[j] = score_lo
        at_hi[j] = score_hi
        if len(live) > _SCALAR_LIVE and _HANDOFF_SHARE * len(live) > j:
            return None, scored
    return (pairs_j, pairs_i, starts), scored


def _full_dynamic_program(v: np.ndarray, p: float):
    """Every predecessor scored with numpy: the reference loop, run for data
    whose scores leave the normal float range and for live sets the
    candidate pass gives up on."""
    k = v.size
    best = np.zeros(k)
    prev = np.full(k, -1, dtype=np.int64)
    chain = np.ones(k, dtype=np.int64)
    buf = np.empty(k)
    with np.errstate(over="ignore"):  # p_variation reports an infinite value
        for j in range(1, k):
            scores = np.subtract(v[j], v[:j], out=buf[:j])
            np.abs(scores, out=scores)
            scores **= p
            scores += best[:j]
            m = int(np.argmax(scores))
            top = scores[m]
            ties = np.nonzero(scores == top)[0]
            if ties.size > 1:
                m = int(ties[np.argmin(chain[ties])])
            best[j] = top
            prev[j] = m
            chain[j] = chain[m] + 1
    return best.tolist(), prev.tolist()


def p_variation_reference(f: SampledFunction, p: float) -> float:
    """Plain quadratic DP over all sample indices; slow but obviously correct.

    Independent of the extrema restriction; used to cross-check
    :func:`p_variation`.  Raises ValueError unless p is finite and >= 1,
    and NumericsError when the value overflows float64.
    """
    _check_exponent(p)
    v = f.vs
    best = np.zeros(v.size)
    with np.errstate(over="ignore"):  # reported below
        for j in range(1, v.size):
            best[j] = np.max(best[:j] + np.abs(v[j] - v[:j]) ** p)
    if not math.isfinite(best[-1]):
        raise NumericsError(f"the {p}-variation is not finite in float64")
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
    scale = math.exp(profile.source.cumulative_source(t))
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
    naming the quantity that overflows float64, with sup|alpha| T, when the
    bound is not representable.
    """
    if not 0.0 < t <= T:
        raise ConfigError("need 0 < t <= T")
    if b <= a:
        raise ConfigError("need a < b")
    deg = F.degeneracy
    if deg is None:
        raise ValueError("flux carries no degeneracy metadata (p, c0)")
    reach = S.sup_norm * T
    g = _finite("the effective time G_p(t), the integral of e^(p B) over [0, t]", reach,
                lambda: S.effective_time(deg.p, t))
    if g == 0.0:
        return math.inf
    scale = _finite("e^(p B(t))", reach, lambda: math.exp(deg.p * S.cumulative_source(t)))
    speed = _finite("the speed bound max |f'| on [-M e^(max B), M e^(max B)] over [0, T]", reach,
                    lambda: speed_bound(F, S, T))
    return _finite("the bound", reach, lambda: scale / (deg.c0 * g) * (2.0 * (b - a) + 2.0 * speed * t))


def _finite(quantity: str, reach: float, compute) -> float:
    """compute(), or NumericsError naming ``quantity`` when it overflows float64."""
    try:
        with np.errstate(over="ignore"):  # a numpy overflow gives inf, refused below
            value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NumericsError(
            f"{quantity} overflows float64 at sup|alpha| T = {reach:g}, so the bound is not representable"
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
    _check_order(s)
    rows: List[Tuple[int, float, float]] = []
    cum = 0.0
    scale = math.exp(family.source.cumulative_source(t))
    if isinstance(family, PowerLawFamily):
        p = family.flux.power
        g_root = family.source.effective_time(p, t) ** (-1.0 / p)
        for cell in family.cells[:N]:
            if t < cell.t0:
                jump = 2.0 * cell.a * scale
            else:  # the fan value w_n^(1/p) G_p(t)^(-1/p) at the packet's half-width w_n
                jump = 2.0 * (packet_width(cell.index) ** (1.0 / p) * g_root) * scale
            bound = jump ** (1.0 / s)
            cum += bound
            rows.append((cell.index, bound, cum))
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
