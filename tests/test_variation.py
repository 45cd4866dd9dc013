import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracbv import (
    SampledFunction,
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
)
from fracbv.cli import main
from fracbv.flux import Decay

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
        with pytest.raises(ValueError):
            p_variation(SampledFunction(np.array([0.0]), np.array([1.0])), 2.0)
        with pytest.raises(ValueError):
            SampledFunction(np.array([0.0, 0.0]), np.array([1.0, 2.0]))


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
