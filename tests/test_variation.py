import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbv import (
    SampledFunction,
    TriangularSetup,
    SourceProfile,
    family_profile,
    family_variation_lower_bounds,
    load_profile_csv,
    make_packet,
    p_variation,
    parse_alpha,
    power_law_family,
    power_law_flux,
    sample_profile,
    shock_cell_family,
    smoothing_upper_bound,
    u_values,
)
from fracbv import NumericsError, variation
from fracbv.cli import main
from fracbv.families import (
    ShockCell,
    ShockCellFamily,
    _shock_position,
    cell_profile,
    fan_edges,
    initial_shock_position,
    solve_cell_states,
)
from fracbv.fanprofile import fan_values
from fracbv.flux import Decay, user_flux
from fracbv.waves import ConstantRegion, FanRegion, PiecewiseProfile

ZERO = SourceProfile.zero()


def sampled(vs):
    vs = np.asarray(vs, dtype=float)
    return SampledFunction(np.arange(len(vs), dtype=float), vs)


def p_variation_reference(f: SampledFunction, p: float) -> float:
    """Plain quadratic DP over all sample indices; slow but obviously correct.

    Independent of the extrema restriction; used to cross-check
    :func:`p_variation`.  Raises ValueError unless p is finite and >= 1,
    and NumericsError when the value overflows float64.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"variation exponent must be finite and satisfy p >= 1, got {p}")
    v = f.vs
    best = np.zeros(v.size)
    with np.errstate(over="ignore"):  # reported below
        for j in range(1, v.size):
            best[j] = np.max(best[:j] + np.abs(v[j] - v[:j]) ** p)
    if not math.isfinite(best[-1]):
        raise NumericsError(f"the {p}-variation is not finite in float64")
    return float(best[-1])


def exhaustive_p_variation(vs, p):
    """True supremum by enumerating every subdivision (small inputs only)."""
    vs = np.asarray(vs, dtype=float)
    best = 0.0
    n = len(vs)
    for k in range(2, n + 1):
        for combo in itertools.combinations(range(n), k):
            vals = vs[list(combo)]
            # sequential left-to-right accumulation, like the DP
            total = 0.0
            for d in np.abs(np.diff(vals)) ** p:
                total += d
            best = max(best, total)
    return best


class TestPVariation:
    def test_hat(self):
        rep = p_variation(sampled([0, 1, 0]), 2.0)
        assert rep.value == 2.0
        assert rep.subdivision == (0, 1, 2)

    def test_monotone_coarsest(self):
        rep = p_variation(sampled(np.linspace(0, 1, 100)), 2.0)
        assert rep.value == 1.0
        assert rep.subdivision == (0, 99)

    def test_zigzag(self):
        assert p_variation(sampled([0, 1, 0, 1]), 2.0).value == 3.0

    def test_constant_data(self):
        rep = p_variation(sampled([2, 2, 2, 2]), 1.5)
        assert rep.value == 0.0
        assert len(rep.subdivision) == 2

    def test_reported_subdivision_attains_value(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            vs = rng.standard_normal(rng.integers(2, 30))
            f = sampled(vs)
            for p in (1.0, 1.7, 2.5):
                rep = p_variation(f, p)
                attained = float(np.sum(np.abs(np.diff(vs[list(rep.subdivision)])) ** p))
                assert attained == pytest.approx(rep.value, rel=1e-13)

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            vs = rng.standard_normal(rng.integers(2, 40))
            for p in (1.0, 1.5, 2.0, 3.0):
                assert p_variation(sampled(vs), p).value == pytest.approx(
                    p_variation_reference(sampled(vs), p), rel=1e-13
                )

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            vs = rng.standard_normal(rng.integers(4, 11))
            for p in (1.0, 2.0):
                assert p_variation(sampled(vs), p).value == exhaustive_p_variation(vs, p)

    def test_classical_tv_at_p_one(self):
        vs = np.array([0.0, 2.0, -1.0, 0.5])
        assert p_variation(sampled(vs), 1.0).value == pytest.approx(
            float(np.sum(np.abs(np.diff(vs)))), rel=1e-15
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            p_variation(sampled([0, 1]), 0.8)
        for p in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                p_variation(sampled([0, 1, 0]), p)
            with pytest.raises(ValueError, match="finite"):
                p_variation_reference(sampled([0, 1, 0]), p)
        with pytest.raises(ValueError):
            p_variation(SampledFunction(np.array([0.0]), np.array([1.0])), 2.0)
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


def quadratic_p_variation(vs, p, cand=None):
    """The full dynamic program over extrema that ``p_variation`` prunes.

    Kept verbatim as the oracle: every predecessor of every extremum scored
    in one numpy expression; returns (value, subdivision).  ``cand`` are the
    extrema's indices, by default those ``p_variation`` takes.
    """
    vs = np.asarray(vs, dtype=float)
    if cand is None:
        cand = variation._candidate_indices(vs)
    v = vs[cand]
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
    return total, tuple(sub)


def assert_matches_quadratic(vs, p):
    rep = p_variation(sampled(vs), p)
    assert (rep.value, rep.subdivision) == quadratic_p_variation(vs, p)


EXPONENTS = st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(min_value=1.0, max_value=6.0))
# Sequence shapes that stress the pruning: exact ties, plateaus, wandering
# extrema and ever larger swings that keep old extrema competitive.
INTEGERS = st.lists(st.integers(-4, 4), min_size=2, max_size=300)
PLATEAUS = st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 6)), min_size=2, max_size=120).map(
    lambda runs: [float(v) for v, n in runs for _ in range(n)]
)
WALKS = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=400).map(lambda steps: np.cumsum(steps))
GROWING = st.lists(st.floats(0.0, 2.0), min_size=2, max_size=300).map(
    lambda gaps: [(-1.0) ** n * a for n, a in enumerate(np.cumsum(gaps))]
)


def absorbed(p, scale, wiggles):
    """One swing so large that the later powers sit near half an ulp of the
    running sum, which they then either move by one ulp or not at all."""
    big = 2.0 ** (52.0 / p) * scale
    return [0.0, big] + [big + (-1.0) ** n * w for n, w in enumerate(wiggles)]


def chain_shaped(decays, tail=None):
    """Swings of alternating sign and decaying amplitude, like the sampled
    triangular sawtooth, optionally followed by an ``absorbed(*tail)`` run."""
    vs = (-1.0) ** np.arange(len(decays)) * np.cumprod(decays)
    if tail is None:
        return vs
    return np.append(vs, vs[-1] + np.array(absorbed(*tail)[1:]))


ABSORBED_TAILS = st.tuples(
    st.sampled_from([1.5, 2.0, 2.5, 3.0]), st.floats(0.5, 2.0), st.lists(st.floats(0.3, 3.0), min_size=2, max_size=20)
)
CHAINS = st.builds(
    chain_shaped, st.lists(st.floats(0.8, 1.0), min_size=2, max_size=300), st.one_of(st.none(), ABSORBED_TAILS)
)


@given(vs=st.one_of(INTEGERS, PLATEAUS, WALKS, GROWING, CHAINS), p=EXPONENTS)
@settings(max_examples=400, deadline=None)
def test_pruned_dynamic_program_is_bit_identical(vs, p):
    assert_matches_quadratic(vs, p)


def extrema_with_run_ends(vs):
    """The end indices and local extrema with both ends of every plateau run,
    as extrema were chosen before a run was taken by its first index."""
    vs = np.asarray(vs, dtype=float)
    change = np.nonzero(vs[1:] != vs[:-1])[0]
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change, [vs.size - 1]))
    w = vs[starts]
    keep = np.ones(w.size, dtype=bool)
    keep[1:-1] = (w[1:-1] > w[:-2]) != (w[2:] > w[1:-1])
    return np.unique(np.concatenate((starts[keep], ends[keep])))


@given(vs=st.one_of(INTEGERS, PLATEAUS), p=EXPONENTS)
@settings(max_examples=200, deadline=None)
def test_plateau_run_ends_change_nothing(vs, p):
    # a run's later indices tie with its first, and ties go to the earlier
    # index, so value and subdivision are those over both run ends
    rep = p_variation(sampled(vs), p)
    assert (rep.value, rep.subdivision) == quadratic_p_variation(vs, p, extrema_with_run_ends(vs))


# Inputs on which the candidate pass, run without its margin, drops a
# predecessor that ties or wins in exact arithmetic.
ABSORBED_FAILURES_WITHOUT_MARGIN = [
    (2.0, [0.0, 120014300.21092299, 120014295.88705358, 120014298.79305166, 120014297.56002456,
           120014299.72517094, 120014297.25310637, 120014300.20662236, 120014296.7984317,
           120014300.45821293, 120014295.87018847, 120014298.70319466, 120014297.78789388,
           120014298.89349747, 120014297.06561624, 120014300.0135254, 120014295.30417694,
           120014298.99931987, 120014297.80362648, 120014298.78718895, 120014297.18328093,
           120014298.9969324, 120014295.7580187, 120014300.15349334]),
    (2.0, [0.0, 109670697.19887395, 109670693.8938712, 109670698.23695646, 109670692.6195351,
           109670697.0507945, 109670694.24595948, 109670696.67347082, 109670692.98363307,
           109670696.61735162, 109670693.91100712, 109670695.86810882, 109670694.50787681,
           109670698.07743901, 109670692.65931042, 109670698.4432305, 109670694.48938282,
           109670697.33578096, 109670693.64265536, 109670698.10614201, 109670694.06179896]),
    (1.5, [0.0, 48270357834.131226, 48270357832.06976, 48270357833.28141, 48270357829.68644,
           48270357834.12494, 48270357829.52141, 48270357834.28792, 48270357830.32526,
           48270357833.00473]),
]


@pytest.mark.parametrize("p, vs", ABSORBED_FAILURES_WITHOUT_MARGIN)
def test_rounding_margin_keeps_last_bit_ties(p, vs):
    assert_matches_quadratic(vs, p)


@given(
    p=st.sampled_from([1.5, 2.0, 2.5, 3.0]),
    scale=st.floats(0.5, 2.0),
    wiggles=st.lists(st.floats(0.3, 3.0), min_size=2, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_powers_near_half_an_ulp_of_the_sum(p, scale, wiggles):
    assert_matches_quadratic(absorbed(p, scale, wiggles), p)


@pytest.mark.parametrize("seed", range(4))
def test_large_live_sets_are_bit_identical(seed):
    # the large final swing keeps most predecessors live, the drift narrows
    # the range of values to come
    rng = np.random.default_rng(seed)
    for k in (30, 120, 400):
        shapes = (
            absorbed(2.0, rng.uniform(0.5, 2.0), rng.uniform(0.3, 3.0, k)),
            np.cumsum(rng.standard_normal(k)),
            np.cumsum(rng.standard_normal(k) + 0.3),
            np.append(rng.standard_normal(k), [1e3, -1e3]),
            # nonzero integer steps: exact ties, but no plateau runs, which
            # collapse to one extremum
            np.cumsum(rng.choice([-3, -2, -1, 1, 2, 3], k)).astype(float),
        )
        for vs in shapes:
            for p in (1.0, 1.5, 2.0, 3.0, float(rng.uniform(1.0, 5.0))):
                assert_matches_quadratic(vs, p)


def family_samples(N, t, alpha="zero"):
    """A power-law family profile (flux exponent 2), two samples per fan."""
    return sample_profile(family_profile(power_law_family(2.0, parse_alpha(alpha), N), t), fan_points=2).vs


def test_large_live_sets_take_little_memory():
    # the drifting walk keeps hundreds of predecessors live, and the dynamic
    # program holds O(k) floats for them, not O(k^2) pairs
    walk = np.cumsum(np.random.default_rng(2).standard_normal(15000) + 0.3)
    assert not takes_the_chain(walk, 2.0)
    for vs, p in ((family_samples(2000, 0.5), 4.0), (walk, 2.0)):
        f = sampled(vs)
        tracemalloc.start()
        try:
            rep = p_variation(f, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.value, rep.subdivision) == quadratic_p_variation(vs, p)
        assert peak < 16 * 2**20


@pytest.mark.parametrize("alpha", ["zero", "constant:0.3", "pw:0:-0.3,0.5:0.2"])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_family_profiles_at_orders_one_half_and_one_third_take_the_chain(alpha, t):
    vs = family_samples(2000, t, alpha)
    for p in (2.0, 3.0):
        assert takes_the_chain(vs, p)


def test_extreme_ranges_take_the_full_dynamic_program():
    # powers that overflow or underflow leave the range the margin covers
    rng = np.random.default_rng(3)
    for scale, p in ((1e150, 2.0), (1e-200, 3.0), (1.0, 400.0)):
        vs = scale * rng.standard_normal(60)
        assert_matches_quadratic(vs, p)
        k = variation._candidate_indices(vs).size
        assert variation._best_predecessors(extrema(vs), p)[2] == k * (k - 1) // 2


@pytest.mark.parametrize(
    "vs",
    [[1e308, -1e308, 1e308], [1e200, -1e200], [5e153, -5e153, 5e153, -5e153]],
    ids=["difference", "power", "sum"],
)
def test_overflow_raises_without_warning(vs):
    f = sampled(vs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # p_variation twice: the second call reads the extrema the first found
        for fun in (p_variation_reference, p_variation, p_variation):
            with pytest.raises(NumericsError, match="not finite in float64"):
                fun(f, 2.0)


def benchmark_sawtooth(p, T, t, N):
    """The sampled triangular sawtooth of the ``systems`` benchmark workload."""
    n = np.arange(1, N + 1, dtype=float)
    edges = np.concatenate(([0.0], np.cumsum(2.0 / (n * np.log(n + 1.0) ** 2))))
    w = 0.5 * np.diff(edges)
    r = w * t / (np.log(n + 1.0) / math.log(2.0) * (T + 1.0))
    local = np.stack(
        [0 * r, 0.5 * r, r, 0.5 * (r + w), w, 0.5 * (3 * w - r), 2 * w - r, 2 * w - 0.5 * r], axis=1
    )
    xs = np.append((edges[:-1, None] + local).ravel(), edges[-1])
    return u_values(TriangularSetup(p=p, T=T, N=N), xs, t)


SAWTOOTH = dict(p=2.3, T=1.3, t=0.8, N=4000)
SAWTOOTH_ORDERS = (1.0 / 2.3 + 0.15, 1.0)


@pytest.fixture(scope="module")
def sawtooth_values():
    return benchmark_sawtooth(**SAWTOOTH)


@pytest.mark.parametrize("order", SAWTOOTH_ORDERS)
def test_sawtooth_is_bit_identical(sawtooth_values, order):
    assert_matches_quadratic(sawtooth_values, 1.0 / order)


@pytest.mark.parametrize("order", SAWTOOTH_ORDERS)
def test_sawtooth_scores_few_predecessors(sawtooth_values, order):
    # the full dynamic program scores k (k - 1) / 2 pairs, about 32 million;
    # pruned, each extremum meets at most two live predecessors
    v = sawtooth_values[variation._candidate_indices(sawtooth_values)]
    assert v.size > 8000
    _, _, scored = variation._best_predecessors(variation._Extrema(v), 1.0 / order)
    assert scored <= 2 * v.size


def extrema(vs):
    """The :class:`variation._Extrema` of the values ``vs``, as p_variation finds them."""
    vs = np.asarray(vs, dtype=float)
    return variation._Extrema(vs[variation._candidate_indices(vs)])


def takes_the_chain(vs, p):
    return variation._best_predecessors(extrema(vs), p)[1] is None


@pytest.mark.parametrize("order", SAWTOOTH_ORDERS)
def test_sawtooth_takes_the_chain(sawtooth_values, order):
    assert takes_the_chain(sawtooth_values, 1.0 / order)


# absorbed(...) runs whose offset-2 scores come within about 1e-14 of the
# neighbour's, relative, without tying it: chain-optimal, so the check,
# which scores exactly, takes the chain
NEAR_TIES = [
    (2.0, 1.081, [1.08, 2.14, 0.68, 0.84, 0.32]),
    (2.5, 0.645, [2.74, 1.53, 0.85]),
    (3.0, 1.497, [2.2, 2.41, 1.54, 1.84, 0.68]),
]


@pytest.mark.parametrize("p, scale, wiggles", NEAR_TIES)
def test_chain_check_takes_near_ties(p, scale, wiggles):
    vs = absorbed(p, scale, wiggles)
    assert takes_the_chain(vs, p)
    assert_matches_quadratic(vs, p)


def test_exact_tie_with_the_chain_goes_to_the_shorter_subdivision():
    # 4 + 1 + 4 = 3^2: the chain ties the jump from the first extremum to
    # the last, and the tie goes to fewer points, so the check declines
    vs = [-3.0, -1.0, -2.0, 0.0]
    assert variation._chain_best(variation._Extrema(np.array(vs)), 2.0)[0] is None
    rep = p_variation(sampled(vs), 2.0)
    assert (rep.value, rep.subdivision) == (9.0, (0, 3))
    assert_matches_quadratic(vs, 2.0)


def test_order_one_quarter_family_takes_the_chain():
    vs = family_samples(2000, 0.5)
    assert takes_the_chain(vs, 4.0)
    assert_matches_quadratic(vs, 4.0)


def test_drifting_walk_falls_back_and_family_profile_takes_the_chain():
    # a packet's two plateaus collapse to one extremum each, so the family
    # profile's extrema follow their neighbours
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.standard_normal(600) + 0.3)
    profile = sample_profile(family_profile(power_law_family(2.0, ZERO, 30), 1.0), fan_points=32).vs
    for vs, chain in ((walk, False), (profile, True)):
        for p in (1.5, 2.0, 3.0):
            assert takes_the_chain(vs, p) == chain
            assert_matches_quadratic(vs, p)


# p = 1, a non-integer p and a large p, interleaved and repeated
SHARED_ORDERS = (1.0, 2.7, 1.0, 12.5, 2.7, 1.0, 12.5)


def shared_order_data(name, sawtooth_values):
    rng = np.random.default_rng(5)
    if name == "sawtooth":  # the chain
        return sawtooth_values
    if name == "family":  # the chain
        return sample_profile(family_profile(power_law_family(2.0, ZERO, 30), 1.0), fan_points=32).vs
    if name == "walk":  # the pruned dynamic program
        return np.cumsum(rng.standard_normal(600) + 0.3)
    if name == "huge":  # pruned at p = 1, the full program at 2.7, overflow at 12.5
        return 3e110 * rng.standard_normal(60)
    if name == "tiny":  # powers that underflow: the full program past p = 1
        return 1e-200 * rng.standard_normal(60)
    if name == "constant":
        return np.full(5, 3.0)
    return np.array([0.0, 1.5])  # two points


@pytest.mark.parametrize("name", ["sawtooth", "family", "walk", "huge", "tiny", "constant", "two points"])
def test_orders_on_one_sample_set_match_fresh_ones(name, sawtooth_values):
    # every order after the first reads the extrema the first call found
    def outcome(f, p):
        try:
            rep = p_variation(f, p)
        except NumericsError as exc:
            return str(exc)
        return rep.p, rep.value.hex(), rep.subdivision

    vs = shared_order_data(name, sawtooth_values)
    shared = sampled(vs)
    for p in SHARED_ORDERS:
        assert outcome(shared, p) == outcome(sampled(vs), p)


def test_extrema_are_found_once_per_sample_set(monkeypatch):
    found = []
    candidate_indices = variation._candidate_indices
    monkeypatch.setattr(variation, "_candidate_indices", lambda vs: found.append(vs.size) or candidate_indices(vs))
    f = sampled(np.cumsum(np.random.default_rng(5).standard_normal(600) + 0.3))
    for p in SHARED_ORDERS:
        p_variation(f, p)
    assert found == [600]


def test_samples_are_read_only_views():
    xs, vs = np.arange(4.0), np.array([0.0, 1.0, 0.0, 2.0])
    f = SampledFunction(xs, vs)
    for kept, given in ((f.xs, xs), (f.vs, vs)):
        assert np.shares_memory(kept, given)
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 5.0
    # the arrays passed in are left writable
    assert xs.flags.writeable and vs.flags.writeable


@given(
    vs=st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=25),
    c=st.floats(min_value=-5, max_value=5),
    p=st.sampled_from([1.0, 1.5, 2.0]),
)
@settings(max_examples=80, deadline=None)
def test_scaling_law(vs, c, p):
    base = p_variation(sampled(vs), p).value
    scaled = p_variation(sampled([c * v for v in vs]), p).value
    assert scaled == pytest.approx(abs(c) ** p * base, rel=1e-9, abs=1e-12)


@given(
    vs=st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=20),
    extra=st.floats(min_value=-10, max_value=10),
    pos=st.integers(min_value=1, max_value=100),
    p=st.sampled_from([1.0, 2.0, 3.0]),
)
@settings(max_examples=80, deadline=None)
def test_refinement_monotonicity(vs, extra, pos, p):
    base = p_variation(sampled(vs), p).value
    refined = list(vs)
    refined.insert(pos % (len(vs) - 1) + 1, extra)
    assert p_variation(sampled(refined), p).value >= base - 1e-12


class TestFractionalVariation:
    """The variation of fractional order s is the p-variation at p = 1/s."""

    def test_single_jump(self):
        for h, s in ((2.0, 0.5), (0.3, 0.25), (1.0, 1.0)):
            f = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, h]))
            assert p_variation(f, 1.0 / s).value == pytest.approx(h ** (1.0 / s), rel=1e-14)

    def test_hat_classical(self):
        assert p_variation(sampled([0, 1, 0]), 1.0).value == 2.0

    def test_zigzag_half(self):
        assert p_variation(sampled([0, 1, 0, 1]), 1.0 / 0.5).value == 3.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            p_variation(sampled([0, 1]), 1.0 / 1.5)


class TestSampling:
    def test_jump_heights_survive_sampling(self):
        F = power_law_flux(2.0, M=0.5)
        P = make_packet(F, ZERO, 0.0, 0.1, 0.5)
        prof = cell_profile(P, F, ZERO, 0.1)
        f = sample_profile(prof, fan_points=16)
        jumps = np.abs(np.diff(f.vs))
        assert jumps.max() == pytest.approx(1.0, rel=1e-12)  # 2 delta at the center

    def test_round_trip_csv(self, tmp_path):
        # the CLI writes the profile, the library reads it back bit for bit
        path = tmp_path / "profile.csv"
        for alpha, t in (("zero", 0.3), ("pw:0:-0.3,0.5:0.2", 2.0)):
            argv = ["family", "--p", "2", "--alpha", alpha, "--N", "7", "--t", repr(t), "--samples", "8"]
            assert main([*argv, "--out", str(path)]) == 0
            family = power_law_family(2.0, parse_alpha(alpha), 7)
            f = sample_profile(family_profile(family, t), fan_points=8)
            g = load_profile_csv(path)
            assert np.array_equal(f.xs, g.xs)
            assert np.array_equal(f.vs, g.vs)


def per_region_sample_profile(flux, source, t, regions, fan_points):
    """``sample_profile`` as it was before it sampled all regions in one pass:
    one ``np.linspace`` and one ``fan_values`` call per region object.  The
    oracle for the one-pass sampling, which must match it bit for bit."""
    scale = math.exp(source.cumulative_source(t))
    xs_parts, vs_parts = [], []
    for region in regions:
        if isinstance(region, ConstantRegion):
            xs = np.array([region.left, region.right])
            vs = np.array([region.w * scale, region.w * scale])
        else:
            xs = np.linspace(region.left, region.right, max(2, fan_points))
            vs = fan_values(flux, source, xs - region.center, t) * scale
        xs = xs.copy()
        xs[-1] = np.nextafter(xs[-1], -np.inf)
        xs_parts.append(xs)
        vs_parts.append(vs)
    xs = np.concatenate(xs_parts)
    vs = np.concatenate(vs_parts)
    keep = np.concatenate(([True], np.diff(xs) > 0.0))
    return SampledFunction(xs[keep], vs[keep])


ASYM = user_flux(
    lambda u: np.where(u >= 0, u**4 / 4.0 + u**5 / 5.0, u**4 / 4.0),
    lambda u: np.where(u >= 0, u**3 + u**4, u**3),
    M=0.9,
    decay=Decay(q=3.0, C=2.0, r=0.9),
)


def sampling_profiles():
    """Profiles of every kind, before and after their waves interact."""
    pw = parse_alpha("pw:0:-0.3,0.5:0.2")
    family = power_law_family(2.0, pw, 12)
    first = family.cells[0].t0
    yield "powerlaw-before", family_profile(family, 0.5 * first)
    yield "powerlaw-after", family_profile(family, 2.0)
    q3 = power_law_flux(3.0, M=1.0, decay=Decay(q=3.0, C=1.0, r=1.0))
    cells = shock_cell_family(q3, parse_alpha("constant:-0.2"), 1.0, 6)
    yield "assp-before", family_profile(cells, 0.6)
    yield "assp-after", family_profile(cells, 1.7)
    a, b = solve_cell_states(ASYM, ZERO, 1.0, 0.0, 0.02)
    tau = initial_shock_position(ASYM, ZERO, 1.0, 0.0, a, b)
    cell = ShockCell(index=1, A=0.0, B=0.02, a=a, b=b, tau=tau, t0=1.0)
    yield "general-flux-before", cell_profile(cell, ASYM, ZERO, 0.5)
    yield "general-flux-after", cell_profile(cell, ASYM, ZERO, 1.3)
    # a trailing fan of zero width next to fans of nonzero width: numpy's
    # linspace takes another formula for a whole call once any step is zero
    yield "flat-fan", PiecewiseProfile(
        flux=power_law_flux(2.0, M=1.0),
        source=pw,
        time=1.0,
        ends=(-0.2, -0.1, 0.0, 0.1, 0.1),
        fan=(True, False, True, True),
        anchor=(-0.2, 0.3, 0.1, 0.1),
    )


SAMPLING_PROFILES = dict(sampling_profiles())


@pytest.mark.parametrize("fan_points", [2, 8, 64])
@pytest.mark.parametrize("name", list(SAMPLING_PROFILES))
def test_one_pass_sampling_is_bit_identical(name, fan_points):
    profile = SAMPLING_PROFILES[name]
    got = sample_profile(profile, fan_points=fan_points)
    want = per_region_sample_profile(profile.flux, profile.source, profile.time, profile.regions, fan_points)
    assert got.xs.tobytes() == want.xs.tobytes()
    assert got.vs.tobytes() == want.vs.tobytes()


def region_assembly(family, t):
    """The family's regions as objects, joined as ``family_profile`` joined
    them before profiles were arrays, each cell's built by hand: before its
    t0, fan / plateau a / plateau b / fan with edges from :func:`fan_edges`
    and the shock of :func:`_shock_position` clipped to them; from t0 on,
    two fans meeting at that shock; a zero region wherever a support starts
    past the previous one's end."""
    F, S = family.flux, family.source
    members = []
    for c in family.cells:
        z = _shock_position(c, F, S, t)
        if t < c.t0:
            zeta_l, zeta_r = fan_edges(F, S, c, t)
            z = min(max(z, zeta_l), zeta_r)
            regions = (
                FanRegion(c.A, zeta_l, center=c.A),
                ConstantRegion(zeta_l, z, w=c.a),
                ConstantRegion(z, zeta_r, w=c.b),
                FanRegion(zeta_r, c.B, center=c.B),
            )
        else:
            regions = (FanRegion(c.A, z, center=c.A), FanRegion(z, c.B, center=c.B))
        members.append(((c.A, c.B), regions))
    out = []
    cursor = members[0][0][0]
    for (lo, hi), regions in members:
        if lo > cursor:
            out.append(ConstantRegion(cursor, lo, w=0.0))
        out.extend(regions)
        cursor = hi
    assert all(r.right == s.left for r, s in zip(out, out[1:]))
    return out


def region_evaluate(flux, source, t, regions, xs):
    """``PiecewiseProfile.evaluate`` as it was on region objects."""
    out = np.zeros(xs.shape)
    inside = (xs >= regions[0].left) & (xs <= regions[-1].right)
    pts = xs[inside]
    idx = np.searchsorted([r.left for r in regions], pts, side="right") - 1
    scale = math.exp(source.cumulative_source(t))
    is_fan = np.array([isinstance(r, FanRegion) for r in regions])
    level = np.array([0.0 if f else r.w * scale for r, f in zip(regions, is_fan)])
    centers = np.array([r.center if f else 0.0 for r, f in zip(regions, is_fan)])
    values = level[idx]
    fan = is_fan[idx]
    values[fan] = fan_values(flux, source, pts[fan] - centers[idx[fan]], t) * scale
    out[inside] = values
    return out


def layout_cases():
    """Families before their first interaction, between interactions and
    after the last finite interaction time."""
    for alpha in ("zero", "constant:-0.2", "pw:0:-0.3,0.5:0.2"):
        for p, N in ((2.0, 1), (2.37, 12), (2.0, 2000), (1.5, 2000)):
            family = power_law_family(p, parse_alpha(alpha), N)
            finite = [c.t0 for c in family.cells if math.isfinite(c.t0)]
            for when, t in (
                ("before", 0.5 * finite[0]),
                ("between", 0.5 * (finite[0] + finite[-1])),
                ("after", 2.0 * finite[-1]),
            ):
                yield f"powerlaw-{alpha}-p{p}-N{N}-{when}", family, t
    q3 = power_law_flux(3.0, M=1.0, decay=Decay(q=3.0, C=1.0, r=1.0))
    cells = shock_cell_family(q3, parse_alpha("constant:-0.2"), 1.0, 9)
    yield "assp-before", cells, 0.6
    yield "assp-after", cells, 1.7
    # lone cells whose shock moves: a general flux, and a power law with
    # |a| != |b| (edge travels a^3 + |b|^3 = B - A at t0 = 1)
    a, b = solve_cell_states(ASYM, ZERO, 1.0, 0.0, 0.02)
    asym = ShockCell(index=1, A=0.0, B=0.02, a=a, b=b, tau=initial_shock_position(ASYM, ZERO, 1.0, 0.0, a, b), t0=1.0)
    a, b = 0.25, -((0.02 - 0.25**3) ** (1.0 / 3.0))
    skew = ShockCell(index=1, A=0.0, B=0.02, a=a, b=b, tau=initial_shock_position(q3, ZERO, 1.0, 0.0, a, b), t0=1.0)
    for name, F, cell in (("general-flux", ASYM, asym), ("skew-power-law", q3, skew)):
        family = ShockCellFamily(flux=F, source=ZERO, t0=1.0, n0=1, N=1, columns=np.array([astuple(cell)]).T)
        yield f"{name}-before", family, 0.5
        yield f"{name}-after", family, 1.3


LAYOUT_CASES = {name: (family, t) for name, family, t in layout_cases()}


@pytest.mark.parametrize("name", list(LAYOUT_CASES))
def test_family_layout_matches_region_assembly(name):
    family, t = LAYOUT_CASES[name]
    profile = family_profile(family, t)
    regions = region_assembly(family, t)
    ends = np.array([r.left for r in regions] + [regions[-1].right])
    fan = np.array([isinstance(r, FanRegion) for r in regions])
    anchor = np.array([r.center if isinstance(r, FanRegion) else r.w for r in regions])
    assert profile.ends.tobytes() == ends.tobytes()
    assert profile.fan.tobytes() == fan.tobytes()
    assert profile.anchor.tobytes() == anchor.tobytes()

    lo, hi = profile.span
    rng = np.random.default_rng(5)
    xs = np.concatenate((rng.uniform(lo - 0.1, hi + 0.1, size=4000), ends, [lo - 0.1, hi + 0.1]))
    assert profile.evaluate(xs).tobytes() == region_evaluate(profile.flux, profile.source, t, regions, xs).tobytes()
    got = sample_profile(profile, fan_points=8)
    want = per_region_sample_profile(profile.flux, profile.source, t, regions, 8)
    assert got.xs.tobytes() == want.xs.tobytes()
    assert got.vs.tobytes() == want.vs.tobytes()


@pytest.mark.parametrize("fan_points", [1, 0, -4])
def test_too_few_fan_points_rejected(fan_points):
    with pytest.raises(ValueError, match="at least 2 samples"):
        sample_profile(SAMPLING_PROFILES["powerlaw-after"], fan_points=fan_points)


class TestFamilyBounds:
    def test_power_law_first_packet_pre_interaction(self):
        fam = power_law_family(2.0, ZERO, 3)
        rows = family_variation_lower_bounds(fam, 0.5, 0.5, 3)  # t < t_1 = log 2
        n, bound, cum = rows[0]
        assert n == 1
        delta1 = (1 * math.log(2.0) ** 3) ** -0.5
        assert bound == pytest.approx((2 * delta1) ** 2, rel=1e-13)
        assert cum == pytest.approx(bound, rel=1e-13)

    def test_power_law_post_interaction_switches_formula(self):
        fam = power_law_family(2.0, ZERO, 2)
        rows = family_variation_lower_bounds(fam, 1.0, 0.5, 2)  # t_1 < 1 < t_2
        dx1 = 1.0 / math.log(2.0) ** 2
        assert rows[0][1] == pytest.approx((2 * math.sqrt(dx1 / 1.0)) ** 2, rel=1e-12)
        delta2 = (2 * math.log(3.0) ** 3) ** -0.5
        assert rows[1][1] == pytest.approx((2 * delta2) ** 2, rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, -0.5, 1.5])
    def test_order_validation(self, s):
        fam = power_law_family(2.0, ZERO, 3)
        with pytest.raises(ValueError, match="order"):
            family_variation_lower_bounds(fam, 1.0, s, 3)

    def test_cumulative_is_running_sum(self):
        fam = power_law_family(2.0, ZERO, 50)
        rows = family_variation_lower_bounds(fam, 1.0, 1.0, 50)
        bounds = [b for _, b, _ in rows]
        cums = [c for _, _, c in rows]
        assert cums == pytest.approx(list(np.cumsum(bounds)), rel=1e-14)

    def test_shock_cell_bound_formula(self):
        F = power_law_flux(3.0, M=1.0, decay=Decay(q=3.0, C=1.0, r=1.0))
        fam = shock_cell_family(F, ZERO, 1.0, 6)
        t, s = 0.5, 1.0 / 3.0
        rows = family_variation_lower_bounds(fam, t, s, 6)
        q = 3.0
        c0 = 1.0 * 1.0  # C * effective_time(q, t0) with alpha = 0, t0 = 1
        rho = 1.0 * t
        for cell, (n, bound, _) in zip(fam.cells, rows):
            width = cell.B - cell.A
            expected = min(c0 ** (-1 / (q * s)), rho ** (-1 / (q * s))) * width ** (
                1 / (q * s)
            )
            assert n == cell.index
            assert bound == pytest.approx(expected, rel=1e-12)


class TestUpperBound:
    def test_burgers_value(self):
        F = power_law_flux(1.0, M=1.0)
        val = smoothing_upper_bound(F, ZERO, 1.0, 0.0, 1.0, 1.0)
        assert val == pytest.approx(2.0 + 2.0 * 1.0, rel=1e-14)

    def test_quadratic_value(self):
        F = power_law_flux(2.0, M=1.0)
        assert smoothing_upper_bound(F, ZERO, 1.0, 0.0, 1.0, 1.0) == pytest.approx(8.0)

    def test_blows_up_at_time_zero(self):
        F = power_law_flux(2.0, M=1.0)
        vals = [smoothing_upper_bound(F, ZERO, t, 0.0, 1.0, 1.0) for t in (0.1, 0.01, 0.001)]
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize(
        "source, t, quantity",
        [
            (SourceProfile.constant(1000.0), 1.0, "the effective time G_p(t)"),
            # B(0.4) = 0, but states may reach M e^400 by T = 1
            (SourceProfile.piecewise([0.0, 0.5], [0.0, 800.0]), 0.4, "the speed bound"),
            # each factor is finite (e^709 at most); their product is not
            (SourceProfile.constant(354.5), 1.0, "the bound"),
        ],
    )
    def test_overflow_names_its_cause(self, source, t, quantity):
        F = power_law_flux(2.0, M=1.0)
        # max B over [0, T]: the exponent each quantity overflows at
        max_b = {"the effective time G_p(t)": 1000, "the speed bound": 400, "the bound": 354.5}[quantity]
        message = rf"^{re.escape(quantity)}.* overflows float64 at max B = {max_b:g},"
        with pytest.raises(NumericsError, match=message):
            smoothing_upper_bound(F, source, t, 0.0, 1.0, 1.0)

    def test_decaying_source_bound_is_finite(self):
        # sup|alpha| T = 1000, but B <= 0, so the speed bound is 1
        F = power_law_flux(2.0, M=1.0)
        value = smoothing_upper_bound(F, SourceProfile.constant(-50.0), 1.0, 0.0, 1.0, 20.0)
        g = -math.expm1(-100.0) / 100.0
        assert value == pytest.approx(math.exp(-100.0) / (0.5 * g) * (2.0 + 2.0), rel=1e-13)

    def test_measured_variation_below_bound(self):
        fam = power_law_family(2.0, ZERO, 30)
        from fracbv import family_profile

        for t in (0.5, 1.0, 2.0):
            prof = family_profile(fam, t)
            measured = p_variation(sample_profile(prof, fan_points=32), 1.0 / 0.5).value
            lo, hi = prof.span
            bound = smoothing_upper_bound(fam.flux, ZERO, t, lo, hi, 2.0)
            assert measured <= bound

    def test_lower_bounds_below_upper_bound_at_matching_order(self):
        fam = power_law_family(2.0, ZERO, 200)
        rows = family_variation_lower_bounds(fam, 1.0, 0.5, 200)
        lo = fam.cells[0].A
        hi = fam.cells[-1].B
        bound = smoothing_upper_bound(fam.flux, ZERO, 1.0, lo, hi, 1.0)
        assert rows[-1][2] <= bound
