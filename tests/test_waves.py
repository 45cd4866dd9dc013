import math

import numpy as np
import pytest

from fracbv import (
    ConstantRegion,
    NumericsError,
    SourceProfile,
    cell_profile,
    fan_edges,
    fan_profile_rootfind,
    make_packet,
    power_law_flux,
    riemann_shock,
    speed_bound,
)
from scipy.integrate import quad

ZERO = SourceProfile.zero()


class TestRiemannShock:
    def test_antisymmetric_burgers_stationary(self):
        F = power_law_flux(1.0, M=2.0)
        pos, left, right = riemann_shock(F, ZERO, 1.0, -1.0, 0.0, 3.0)
        assert pos == 0.0 and left == 1.0 and right == -1.0

    def test_burgers_half_speed(self):
        F = power_law_flux(1.0, M=2.0)
        pos, _, _ = riemann_shock(F, ZERO, 2.0, 0.0, 0.0, 1.0)
        assert pos == pytest.approx(1.0, abs=1e-14)

    def test_even_flux_antisymmetric_stationary(self):
        F = power_law_flux(2.0, M=2.0)
        pos, left, right = riemann_shock(F, ZERO, 1.0, -1.0, 0.0, 5.0)
        assert pos == 0.0 and left == 1.0 and right == -1.0

    def test_source_scales_states(self):
        src = SourceProfile.constant(-1.0)
        F = power_law_flux(1.0, M=2.0)
        pos, left, right = riemann_shock(F, src, 1.0, 0.5, 0.0, 1.0)
        assert left == pytest.approx(math.exp(-1.0))
        assert right == pytest.approx(0.5 * math.exp(-1.0))
        # speed of the jump is the secant slope of f at the scaled states
        drift = _speed_integral(F, src, 1.0, 0.5, 1.0)
        assert pos == pytest.approx(drift, rel=1e-10)

    def test_rarefaction_input_rejected(self):
        F = power_law_flux(1.0, M=2.0)
        with pytest.raises(ValueError):
            riemann_shock(F, ZERO, -1.0, 1.0, 0.0, 1.0)


def _speed_integral(F, src, w_minus, w_plus, t):
    """The shock's drift: the jump speed integrated over [0, t] by QUADPACK, to 1e-12 absolute."""

    def integrand(theta):
        e = math.exp(src.cumulative_source(theta))
        return (F.f(w_plus * e) - F.f(w_minus * e)) / ((w_plus - w_minus) * e)

    value, error = quad(integrand, 0.0, t, epsabs=1e-12, epsrel=0.0)
    assert error <= 1e-12
    return value


class TestFanEdges:
    def test_power_law_offsets(self):
        F = power_law_flux(2.0, M=1.0)
        P = make_packet(F, ZERO, 0.0, 1.0, 0.5)
        zl, zr = fan_edges(F, ZERO, P, 1.0)
        assert zl == pytest.approx(-1.0 + 0.25, abs=1e-14)
        assert zr == pytest.approx(1.0 - 0.25, abs=1e-14)

    def test_short_time_limit(self):
        F = power_law_flux(2.0, M=1.0)
        P = make_packet(F, ZERO, 0.0, 1.0, 0.5)
        zl, zr = fan_edges(F, ZERO, P, 1e-12)
        assert zl == pytest.approx(-1.0, abs=1e-11)
        assert zr == pytest.approx(1.0, abs=1e-11)

    def test_saturation_limit(self):
        src = SourceProfile.constant(-1.0)
        F = power_law_flux(2.0, M=1.0)
        P = make_packet(F, src, 0.0, 1.0, 1.0)
        zl, _ = fan_edges(F, src, P, math.inf)
        assert zl == pytest.approx(-1.0 + 0.5, rel=1e-14)  # saturated travel


class TestPacket:
    def setup_method(self):
        self.F = power_law_flux(2.0, M=0.5)
        self.P = make_packet(self.F, ZERO, 0.0, 0.1, 0.5)

    def test_interaction_time(self):
        assert self.P.t0 == pytest.approx(0.4, rel=1e-15)

    def test_is_the_symmetric_cell(self):
        # +delta on [x_n - dx, x_n), -delta on [x_n, x_n + dx], a lone cell 1
        P = self.P
        assert (P.index, P.A, P.B, P.a, P.b, P.tau) == (1, -0.1, 0.1, 0.5, -0.5, 0.0)

    def test_plateau_value(self):
        assert cell_profile(self.P, self.F, ZERO, 0.1)(-0.05) == pytest.approx(0.5)

    def test_zero_outside_support(self):
        for x in (-0.11, 0.11, 5.0):
            for t in (0.1, 2.0):
                assert cell_profile(self.P, self.F, ZERO, t)(x) == 0.0

    def test_post_interaction_center_limits(self):
        t = 0.8  # = 2 t_n
        prof = cell_profile(self.P, self.F, ZERO, t)
        left, right = prof.side_values(0.0)
        expected = math.sqrt(0.1 / t)
        assert left == pytest.approx(expected, rel=1e-13)
        assert right == pytest.approx(-expected, rel=1e-13)

    def test_continuity_at_fan_edges(self):
        for t in (0.05, 0.2, 0.39):
            prof = cell_profile(self.P, self.F, ZERO, t)
            zl, zr = fan_edges(self.F, ZERO, self.P, t)
            for x in (zl, zr):
                left, right = prof.side_values(x)
                assert abs(left - right) < 1e-9

    def test_entropy_admissibility_at_center(self):
        for t in (0.1, 0.4, 1.0, 10.0):
            prof = cell_profile(self.P, self.F, ZERO, t)
            left, right = prof.side_values(0.0)
            assert left > right

    def test_conservation(self):
        # region-wise composite quadrature; antisymmetric data integrates to 0.
        # Each region takes its own one-sided values at its ends: evaluate
        # takes the right neighbour's value at a shared end.
        for t in (0.15, 0.8):
            prof = cell_profile(self.P, self.F, ZERO, t)
            total = 0.0
            for lo, hi in zip(prof.ends[:-1], prof.ends[1:]):
                xs = np.linspace(lo, hi, 4001)
                vals = prof.evaluate(xs)
                vals[0], vals[-1] = prof.side_values(lo)[1], prof.side_values(hi)[0]
                total += np.trapezoid(vals, xs)
            assert abs(total) < 1e-6

    def test_edges_meet_at_center(self):
        zl, zr = fan_edges(self.F, ZERO, self.P, self.P.t0)
        assert zl == pytest.approx(self.P.tau, abs=1e-14)
        assert zr == pytest.approx(self.P.tau, abs=1e-14)

    def test_support_never_grows(self):
        rng = np.random.default_rng(2)
        for t in rng.uniform(0.01, 5.0, size=20):
            prof = cell_profile(self.P, self.F, ZERO, t)
            lo, hi = prof.span
            assert lo >= self.P.A - 1e-15
            assert hi <= self.P.B + 1e-15

    def test_with_source_interaction_blocked(self):
        src = SourceProfile.constant(-1.0)
        P = make_packet(power_law_flux(2.0, M=1.0), src, 0.0, 0.5, 1.0)
        assert P.t0 == math.inf  # width/amplitude^p = 0.5 >= saturation 0.5
        prof = cell_profile(P, power_law_flux(2.0, M=1.0), src, 10.0)
        left, right = prof.side_values(0.0)
        assert left > 0.0 > right  # jump never dies

    def test_non_power_law_rejected(self):
        from fracbv import user_flux

        F = user_flux(lambda u: np.cosh(u) - 1, np.sinh, M=1.0)
        with pytest.raises(ValueError):
            make_packet(F, ZERO, 0.0, 0.1, 0.5)


def test_speed_bound_power_law():
    F = power_law_flux(2.0, M=1.0)
    assert speed_bound(F, ZERO, 5.0) == pytest.approx(1.0)
    src = SourceProfile.constant(0.5)
    assert speed_bound(F, src, 2.0) == pytest.approx(math.exp(1.0) ** 2)


def test_speed_bound_takes_its_reach_from_max_B():
    F = power_law_flux(2.0, M=1.0)
    # B falls to -0.15 at t = 0.5 and climbs back to 0.15 at T = 2
    src = SourceProfile.piecewise([0.0, 0.5], [-0.3, 0.2])
    assert speed_bound(F, src, 2.0) == pytest.approx(math.exp(0.15) ** 2, rel=1e-15)
    # a decaying source never lifts the states above M
    assert speed_bound(F, SourceProfile.constant(-1000.0), 1.0) == 1.0


@pytest.mark.parametrize(
    "p, alpha, max_b",
    [(1.0, 1000.0, 712.5), (4.0, 400.0, 285)],  # e^(max B) itself, and f'(M e^(max B)) = 4 e^855
    ids=["reach", "slope"],
)
def test_speed_bound_overflow_names_max_B(p, alpha, max_b):
    F = power_law_flux(p, M=1.0)
    with pytest.raises(NumericsError, match=rf"^the speed bound .* overflows float64 at max B = {max_b}$"):
        speed_bound(F, SourceProfile.constant(alpha), 0.7125)


def test_profile_shape_validation():
    from fracbv import PiecewiseProfile

    F = power_law_flux(2.0, M=1.0)
    bad = [
        ((0.0, 1.0, 2.0), (False,), (0.1,)),  # k + 2 ends
        ((0.0, 1.0), (False, True), (0.1, 0.0)),  # k ends
        ((0.0, 1.0, 2.0), (False, True), (0.1,)),  # k - 1 anchors
        ((0.0, 1.0, 2.0), (False,), (0.1, 0.2)),  # k - 1 flags
        ((0.0,), (), ()),  # k = 0
        (((0.0, 1.0),), ((False,),), ((0.1,),)),  # not 1-D
    ]
    for ends, fan, anchor in bad:
        with pytest.raises(ValueError, match="k >= 1"):
            PiecewiseProfile(flux=F, source=ZERO, time=1.0, ends=ends, fan=fan, anchor=anchor)
    profile = PiecewiseProfile(flux=F, source=ZERO, time=1.0, ends=(0.0, 1.0, 2.0), fan=(False, True), anchor=(0.1, 2.0))
    assert profile.span == (0.0, 2.0)


def evaluation_points(profile, rng, n_random=400):
    """Random points over and around the span, every region end, and points
    outside the span."""
    lo, hi = profile.span
    pad = 0.1 * (hi - lo)
    outside = [lo - pad, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), hi + pad]
    return np.concatenate((rng.uniform(lo - pad, hi + pad, size=n_random), profile.ends, outside))


def scalar_fan(flux, source, z, t):
    """V(z, t) one offset at a time: the power-law closed form in scalar
    arithmetic, or the root search of a general flux."""
    if flux.power is None:
        return fan_profile_rootfind(flux, source, z, t)
    p = flux.power
    return math.copysign(abs(z) ** (1.0 / p) * source.effective_time(p, t) ** (-1.0 / p), z)


def scalar_values(profile, xs):
    """Values region by region through the scalar fan profile, each point in
    the region to its right at a shared end: the pointwise evaluator that
    profiles had before they were arrays."""
    lo, hi = profile.span
    regions = profile.regions
    lefts = [r.left for r in regions]
    scale = math.exp(profile.source.cumulative_source(profile.time))
    out = []
    for x in xs.tolist():
        region = regions[int(np.searchsorted(lefts, x, side="right")) - 1]
        if x < lo or x > hi:
            out.append(0.0)
        elif isinstance(region, ConstantRegion):
            out.append(region.w * scale)
        else:
            out.append(scalar_fan(profile.flux, profile.source, x - region.center, profile.time) * scale)
    return np.array(out)


def assert_evaluate_matches_call(profile, xs, rtol):
    got = profile.evaluate(xs)
    assert np.array_equal(got, np.array([profile(float(x)) for x in xs]))
    want = scalar_values(profile, xs)
    assert got.shape == xs.shape
    np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)
    lo, hi = profile.span
    assert np.all(got[(xs < lo) | (xs > hi)] == 0.0)


class TestProfileEvaluate:
    SRC = SourceProfile.piecewise([0.0, 0.3], [-0.4, 0.5])

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.37])
    @pytest.mark.parametrize("when", [0.5, 3.0])
    def test_packet_before_and_after_interaction(self, p, when):
        F = power_law_flux(p, M=0.5)
        P = make_packet(F, self.SRC, 0.3, 0.1, 0.5)
        t = when * P.t0
        profile = cell_profile(P, F, self.SRC, t)
        assert profile.fan.size == (4 if t < P.t0 else 2)
        xs = evaluation_points(profile, np.random.default_rng(11))
        assert_evaluate_matches_call(profile, xs, 1e-14)

    def test_six_packet_family(self):
        from fracbv import family_profile, power_law_family

        family = power_law_family(2.0, self.SRC, 6)
        t = 0.5 * (family.cells[0].t0 + family.cells[-1].t0)
        profile = family_profile(family, t)
        xs = evaluation_points(profile, np.random.default_rng(12), n_random=2000)
        assert_evaluate_matches_call(profile, xs, 1e-14)

    def test_general_flux_is_exact(self):
        from fracbv import PiecewiseProfile, user_flux

        F = user_flux(lambda u: np.cosh(u) - 1.0, np.sinh, M=2.0)
        profile = PiecewiseProfile(
            flux=F,
            source=self.SRC,
            time=1.0,
            ends=(-1.0, -0.4, 0.0, 0.4, 1.0),
            fan=(True, False, False, True),
            anchor=(-1.0, 0.3, -0.3, 1.0),
        )
        xs = evaluation_points(profile, np.random.default_rng(13), n_random=12)
        got = profile.evaluate(xs)
        assert np.array_equal(got, np.array([profile(float(x)) for x in xs]))
        assert np.array_equal(got, scalar_values(profile, xs))
