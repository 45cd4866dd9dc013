import itertools
import math
import tracemalloc
import warnings

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
    fractional_variation,
    load_profile_csv,
    make_packet,
    p_variation,
    p_variation_reference,
    packet_profile,
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
from fracbv.families import ShockCell, cell_profile, initial_shock_position, solve_cell_states
from fracbv.fanprofile import FanContext, fan_values
from fracbv.flux import Decay, user_flux
from fracbv.waves import ConstantRegion, FanRegion, PiecewiseProfile, fan_edges

ZERO = SourceProfile.zero()


def sampled(vs):
    vs = np.asarray(vs, dtype=float)
    return SampledFunction(np.arange(len(vs), dtype=float), vs)


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


def quadratic_p_variation(vs, p):
    """The full dynamic program over extrema that ``p_variation`` prunes.

    Kept verbatim as the oracle: every predecessor of every extremum scored
    in one numpy expression; returns (value, subdivision).
    """
    vs = np.asarray(vs, dtype=float)
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
def test_handoff_to_the_full_dynamic_program_is_bit_identical(seed, monkeypatch):
    # a tiny threshold makes the candidate pass hand its live set to the full
    # dynamic program on short inputs; the large final swing keeps most
    # predecessors live, the drift narrows the range of values to come
    monkeypatch.setattr(variation, "_SCALAR_LIVE", 4)
    rng = np.random.default_rng(seed)
    for k in (30, 120, 400):
        shapes = (
            absorbed(2.0, rng.uniform(0.5, 2.0), rng.uniform(0.3, 3.0, k)),
            np.cumsum(rng.standard_normal(k)),
            np.cumsum(rng.standard_normal(k) + 0.3),
            np.append(rng.standard_normal(k), [1e3, -1e3]),
            np.cumsum(rng.integers(-3, 4, k)).astype(float),
        )
        for vs in shapes:
            vs = np.asarray(vs, dtype=float)
            v = vs[variation._candidate_indices(vs)]
            for p in (1.0, 1.5, 2.0, 3.0, float(rng.uniform(1.0, 5.0))):
                assert_matches_quadratic(vs, p)
                if k == 400 and p > 1.0:  # the hand-off ran
                    assert variation._best_predecessors(v, p)[2] >= v.size * (v.size - 1) // 2


def family_samples(N, t, alpha="zero"):
    """A power-law family profile (flux exponent 2), two samples per fan."""
    return sample_profile(family_profile(power_law_family(2.0, parse_alpha(alpha), N), t), fan_points=2).vs


def test_family_beyond_the_pruning_takes_little_memory():
    # at order 1/4 the pairwise test keeps most of a family's extrema live;
    # the full dynamic program then holds O(k) floats, not O(k^2) pairs
    vs = family_samples(2000, 0.5)
    f = sampled(vs)
    tracemalloc.start()
    try:
        rep = p_variation(f, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.value, rep.subdivision) == quadratic_p_variation(vs, 4.0)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("alpha", ["zero", "constant:0.3", "pw:0:-0.3,0.5:0.2"])
@pytest.mark.parametrize("t", [0.5, 2.0])
def test_family_profiles_at_orders_one_half_and_one_third_never_hand_off(alpha, t, monkeypatch):
    def handed_off(v, p):
        raise AssertionError("the candidate pass handed off")

    monkeypatch.setattr(variation, "_full_dynamic_program", handed_off)
    vs = family_samples(2000, t, alpha)
    for p in (2.0, 3.0):
        p_variation(sampled(vs), p)


def test_extreme_ranges_take_the_full_dynamic_program():
    # powers that overflow or underflow leave the range the margin covers
    rng = np.random.default_rng(3)
    for scale, p in ((1e150, 2.0), (1e-200, 3.0), (1.0, 400.0)):
        vs = scale * rng.standard_normal(60)
        assert_matches_quadratic(vs, p)
        k = variation._candidate_indices(vs).size
        assert variation._best_predecessors(vs[variation._candidate_indices(vs)], p)[2] == k * (k - 1) // 2


@pytest.mark.parametrize(
    "vs",
    [[1e308, -1e308, 1e308], [1e200, -1e200], [5e153, -5e153, 5e153, -5e153]],
    ids=["difference", "power", "sum"],
)
def test_overflow_raises_without_warning(vs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fun in (p_variation_reference, p_variation):
            with pytest.raises(NumericsError, match="not finite in float64"):
                fun(sampled(vs), 2.0)


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
    _, _, scored = variation._best_predecessors(v, 1.0 / order)
    assert scored <= 2 * v.size


def takes_the_chain(vs, p):
    vs = np.asarray(vs, dtype=float)
    return variation._best_predecessors(vs[variation._candidate_indices(vs)], p)[1] is None


@pytest.mark.parametrize("order", SAWTOOTH_ORDERS)
def test_sawtooth_takes_the_chain(sawtooth_values, order):
    assert takes_the_chain(sawtooth_values, 1.0 / order)


# absorbed(...) runs whose offset-2 scores come within the margin of the
# neighbour's (about 1e-14 relative) without tying it
NEAR_TIES = [
    (2.0, 1.081, [1.08, 2.14, 0.68, 0.84, 0.32]),
    (2.5, 0.645, [2.74, 1.53, 0.85]),
    (3.0, 1.497, [2.2, 2.41, 1.54, 1.84, 0.68]),
]


@pytest.mark.parametrize("p, scale, wiggles", NEAR_TIES)
def test_chain_check_turns_down_near_ties(p, scale, wiggles):
    vs = absorbed(p, scale, wiggles)
    assert not takes_the_chain(vs, p)
    assert_matches_quadratic(vs, p)


def test_drifting_walk_and_family_profile_fall_back():
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.standard_normal(600) + 0.3)
    profile = sample_profile(family_profile(power_law_family(2.0, ZERO, 30), 1.0), fan_points=32).vs
    for vs in (walk, profile):
        for p in (1.5, 2.0, 3.0):
            assert not takes_the_chain(vs, p)
            assert_matches_quadratic(vs, p)


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
    def test_single_jump(self):
        for h, s in ((2.0, 0.5), (0.3, 0.25), (1.0, 1.0)):
            f = SampledFunction(np.array([0.0, 1.0]), np.array([0.0, h]))
            assert fractional_variation(f, s) == pytest.approx(h ** (1.0 / s), rel=1e-14)

    def test_hat_classical(self):
        assert fractional_variation(sampled([0, 1, 0]), 1.0) == 2.0

    def test_zigzag_half(self):
        assert fractional_variation(sampled([0, 1, 0, 1]), 0.5) == 3.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            fractional_variation(sampled([0, 1]), 1.5)


class TestSampling:
    def test_jump_heights_survive_sampling(self):
        F = power_law_flux(2.0, M=0.5)
        P = make_packet(F, ZERO, 0.0, 0.1, 0.5)
        prof = packet_profile(F, ZERO, P, 0.1)
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


def per_region_sample_profile(ctx, t, regions, fan_points):
    """``sample_profile`` as it was before it sampled all regions in one pass:
    one ``np.linspace`` and one ``fan_values`` call per region object.  The
    oracle for the one-pass sampling, which must match it bit for bit."""
    scale = math.exp(ctx.source.cumulative_source(t))
    xs_parts, vs_parts = [], []
    for region in regions:
        if isinstance(region, ConstantRegion):
            xs = np.array([region.left, region.right])
            vs = np.array([region.w * scale, region.w * scale])
        else:
            xs = np.linspace(region.left, region.right, max(2, fan_points))
            vs = fan_values(ctx, xs - region.center, t) * scale
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
    first = family.packets[0].t_n
    yield "powerlaw-before", family_profile(family, 0.5 * first)
    yield "powerlaw-after", family_profile(family, 2.0)
    q3 = power_law_flux(3.0, M=1.0, decay=Decay(q=3.0, C=1.0, r=1.0))
    cells = shock_cell_family(q3, parse_alpha("constant:-0.2"), 1.0, 6)
    yield "assp-before", family_profile(cells, 0.6)
    yield "assp-after", family_profile(cells, 1.7)
    a, b = solve_cell_states(ASYM, ZERO, 1.0, 0.0, 0.02)
    tau = initial_shock_position(ASYM, ZERO, 1.0, 0.0, 0.02, a, b)
    cell = ShockCell(index=1, A=0.0, B=0.02, a=a, b=b, tau=tau, t0=1.0)
    yield "general-flux-before", cell_profile(cell, ASYM, ZERO, 0.5)
    yield "general-flux-after", cell_profile(cell, ASYM, ZERO, 1.3)
    # a trailing fan of zero width next to fans of nonzero width: numpy's
    # linspace takes another formula for a whole call once any step is zero
    ctx = FanContext(flux=power_law_flux(2.0, M=1.0), source=pw)
    yield "flat-fan", PiecewiseProfile(
        ctx=ctx,
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
    want = per_region_sample_profile(profile.ctx, profile.time, profile.regions, fan_points)
    assert got.xs.tobytes() == want.xs.tobytes()
    assert got.vs.tobytes() == want.vs.tobytes()


def region_assembly(family, t):
    """The family's regions as objects, joined as ``family_profile`` joined
    them before profiles were arrays: per packet the regions of the old
    ``packet_profile``, edges from :func:`fan_edges`; per cell those of
    :func:`cell_profile`; a zero region wherever a support starts past the
    previous one's end."""
    F, S = family.flux, family.source
    members = []
    for P in getattr(family, "packets", ()):
        x_l, x_r = P.support
        if t < P.t_n:
            zeta_l, zeta_r = fan_edges(F, S, P, t)
            regions = (
                FanRegion(x_l, zeta_l, center=x_l),
                ConstantRegion(zeta_l, P.x_n, w=P.delta),
                ConstantRegion(P.x_n, zeta_r, w=-P.delta),
                FanRegion(zeta_r, x_r, center=x_r),
            )
        else:
            regions = (FanRegion(x_l, P.x_n, center=x_l), FanRegion(P.x_n, x_r, center=x_r))
        members.append((P.support, regions))
    for c in getattr(family, "cells", ()):
        members.append(((c.A, c.B), cell_profile(c, F, S, t).regions))
    out = []
    cursor = members[0][0][0]
    for (lo, hi), regions in members:
        if lo > cursor:
            out.append(ConstantRegion(cursor, lo, w=0.0))
        out.extend(regions)
        cursor = hi
    assert all(r.right == s.left for r, s in zip(out, out[1:]))
    return out


def region_evaluate(ctx, t, regions, xs):
    """``PiecewiseProfile.evaluate`` as it was on region objects."""
    out = np.zeros(xs.shape)
    inside = (xs >= regions[0].left) & (xs <= regions[-1].right)
    pts = xs[inside]
    idx = np.searchsorted([r.left for r in regions], pts, side="right") - 1
    scale = math.exp(ctx.source.cumulative_source(t))
    is_fan = np.array([isinstance(r, FanRegion) for r in regions])
    level = np.array([0.0 if f else r.w * scale for r, f in zip(regions, is_fan)])
    centers = np.array([r.center if f else 0.0 for r, f in zip(regions, is_fan)])
    values = level[idx]
    fan = is_fan[idx]
    values[fan] = fan_values(ctx, pts[fan] - centers[idx[fan]], t) * scale
    out[inside] = values
    return out


def layout_cases():
    """Families before their first interaction, between interactions and
    after the last finite interaction time."""
    for alpha in ("zero", "constant:-0.2", "pw:0:-0.3,0.5:0.2"):
        for p, N in ((2.0, 1), (2.37, 12), (2.0, 2000), (1.5, 2000)):
            family = power_law_family(p, parse_alpha(alpha), N)
            finite = [P.t_n for P in family.packets if math.isfinite(P.t_n)]
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
    assert profile.evaluate(xs).tobytes() == region_evaluate(profile.ctx, t, regions, xs).tobytes()
    got = sample_profile(profile, fan_points=8)
    want = per_region_sample_profile(profile.ctx, t, regions, 8)
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

    def test_measured_variation_below_bound(self):
        fam = power_law_family(2.0, ZERO, 30)
        from fracbv import family_profile

        for t in (0.5, 1.0, 2.0):
            prof = family_profile(fam, t)
            measured = fractional_variation(sample_profile(prof, fan_points=32), 0.5)
            lo, hi = prof.span
            bound = smoothing_upper_bound(fam.flux, ZERO, t, lo, hi, 2.0)
            assert measured <= bound

    def test_lower_bounds_below_upper_bound_at_matching_order(self):
        fam = power_law_family(2.0, ZERO, 200)
        rows = family_variation_lower_bounds(fam, 1.0, 0.5, 200)
        lo = fam.packets[0].support[0]
        hi = fam.packets[-1].support[1]
        bound = smoothing_upper_bound(fam.flux, ZERO, 1.0, lo, hi, 1.0)
        assert rows[-1][2] <= bound
