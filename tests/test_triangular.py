import math

import numpy as np
import pytest

from fracbv import (
    TriangularSetup,
    alternating_initial_data,
    continuity_defect,
    flow_positions,
    fractional_variation,
    transport_velocity,
    transported_variation_sums,
    u_values,
    u_variation_lower_bounds,
)
from fracbv import SampledFunction
from fracbv.triangular import midpoint_markers, transported_points, transported_values

SETUP = TriangularSetup(p=2.0, T=1.0, N=64)
DT = 1.0 / 2**10  # accepted and ignored by the exact flow
# (p, T, t) at which the exact flow is checked against the RK4 reference
FLOW_CASES = [(2.0, 1.0, 0.5), (3.0, 2.0, 1.5), (1.5, 0.7, 0.35)]


def rk4_flow(setup, x0s, t, t_start=0.0):
    """Reference flow: classical RK4 on dX/dt = u|u|^(p-1), u from u_values, step <= T/2^8."""

    def velocity(x, tt):
        u = u_values(setup, x, tt)
        return u * np.abs(u) ** (setup.p - 1.0)

    steps = max(1, math.ceil((t - t_start) * 2**8 / setup.T))
    h = (t - t_start) / steps
    x = np.array(x0s, dtype=float)
    tt = t_start
    for _ in range(steps):
        k1 = velocity(x, tt)
        k2 = velocity(x + 0.5 * h * k1, tt + 0.5 * h)
        k3 = velocity(x + 0.5 * h * k2, tt + 0.5 * h)
        k4 = velocity(x + h * k3, min(tt + h, setup.T))
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tt += h
    return x


def branch_points(setup, t):
    """Points at 10, 50 and 90 % of each branch m1..m4 of pulses 1, 2, 5, 17 and 64 at time t."""
    i = np.array([1, 2, 5, 17, 64]) - 1
    w, tn, start = setup.widths[i], setup.t_form[i], setup.edges[i]
    r = w / tn * t
    f = np.array([[0.1], [0.5], [0.9]])
    return {
        1: (start + f * r).ravel(),
        2: (start + r + f * (w - r)).ravel(),
        3: (start + w + f * (w - r)).ravel(),
        4: (start + 2.0 * w - r + f * r).ravel(),
    }


class TestSetup:
    def test_formation_times_exceed_horizon(self):
        assert np.all(SETUP.t_form > SETUP.T)
        assert SETUP.t_form[0] == pytest.approx(2.0)

    def test_amplitude_identity(self):
        # amplitude^p * formation time = width, exactly by construction
        np.testing.assert_allclose(
            SETUP.amplitudes**SETUP.p * SETUP.t_form, SETUP.widths, rtol=1e-14
        )

    def test_supports_contiguous(self):
        np.testing.assert_array_equal(np.diff(SETUP.edges), 2.0 * SETUP.widths)

    @pytest.mark.parametrize("N", [1, 64, 4096])
    def test_supports_tile_exactly(self, N):
        setup = TriangularSetup(p=2.0, T=1.0, N=N)
        np.testing.assert_array_equal(np.diff(setup.edges), 2.0 * setup.widths)
        # the widths are the series 1/(n log^2(n+1)) up to edge rounding
        n = np.arange(1, N + 1, dtype=float)
        series = 1.0 / (n * np.log(n + 1.0) ** 2)
        np.testing.assert_allclose(
            setup.widths, series, rtol=0.0, atol=np.spacing(setup.edges[-1])
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TriangularSetup(p=0.5, T=1.0, N=4)
        with pytest.raises(ValueError):
            TriangularSetup(p=2.0, T=-1.0, N=4)


class TestPulse:
    def test_fan_branch_value(self):
        # first pulse: fan reaches past x = 0.04 at t = 1
        assert u_values(SETUP, 0.04, 1.0)[0] == pytest.approx(0.2, rel=1e-14)

    def test_zero_at_center_and_ends(self):
        w1 = SETUP.widths[0]
        for t in (0.25, 1.0):
            center_and_ends = u_values(SETUP, [0.0, w1, 2 * w1], t)
            assert center_and_ends[0] == 0.0
            assert center_and_ends[1] == pytest.approx(0.0, abs=1e-13)
            assert center_and_ends[2] == 0.0

    def test_seam_identity(self):
        # at x = amplitude^p t the fan and the decreasing branch agree
        for n in (1, 3, 10):
            i = n - 1
            r = SETUP.widths[i] / SETUP.t_form[i] * 0.7
            fan = (r / 0.7) ** SETUP.s
            back = ((SETUP.widths[i] - r) / (SETUP.t_form[i] - 0.7)) ** SETUP.s
            assert fan == pytest.approx(back, rel=1e-13)
            x = SETUP.edges[i] + r * (1 - 1e-12)
            assert u_values(SETUP, x, 0.7)[0] == pytest.approx(fan, rel=1e-9)

    def test_antisymmetry(self):
        # the first pulse alone, so that xi = 1.3 lands outside every support
        single = TriangularSetup(p=2.0, T=1.0, N=1)
        w1 = single.widths[0]
        for xi in (0.2, 0.8, 1.3):
            left, right = u_values(single, [w1 - xi * w1, w1 + xi * w1], 0.5)
            assert left == pytest.approx(-right, rel=1e-12)

    def test_initial_data_recovered_at_time_zero(self):
        w1, t1 = SETUP.widths[0], SETUP.t_form[0]
        assert u_values(SETUP, 0.3 * w1, 0.0)[0] == pytest.approx(
            ((w1 - 0.3 * w1) / t1) ** 0.5, rel=1e-13
        )


class TestGlobalField:
    def test_continuity_defect_tiny(self):
        for t in (0.25, 1.0):
            assert continuity_defect(SETUP, t) < 1e-8

    def test_zero_outside_all_supports(self):
        np.testing.assert_array_equal(u_values(SETUP, [-1.0, SETUP.edges[-1] + 1.0], 0.5), 0.0)

    def test_slope_field_lipschitz(self):
        # difference quotients of f'(u) stay under 1/t + max 1/(t_n - T)
        t = 0.5
        xs = np.linspace(-0.1, SETUP.edges[-1] + 0.1, 20001)
        u = u_values(SETUP, xs, t)
        slopes = u * np.abs(u) ** (SETUP.p - 1.0)
        quotients = np.abs(np.diff(slopes)) / np.diff(xs)
        bound = 1.0 / t + float(np.max(1.0 / (SETUP.t_form - SETUP.T)))
        assert quotients.max() <= bound * (1.0 + 1e-6)

    def test_velocity_outside_supports(self):
        assert transport_velocity(SETUP, -5.0, 0.5) == 0.0

    def test_velocity_linear_on_fans(self):
        r1 = SETUP.widths[0] / SETUP.t_form[0] * 1.0
        for frac in (0.2, 0.5, 0.9):
            x = frac * r1
            assert transport_velocity(SETUP, x, 1.0) == pytest.approx(x / 1.0, rel=1e-13)


class TestCharacteristics:
    def test_frozen_outside(self):
        assert flow_positions(SETUP, -2.0, 1.0)[0] == -2.0

    def test_fan_flow_closed_form(self):
        t_a, t_b = 0.5, 1.0
        x_a = 0.3 * SETUP.widths[0] / SETUP.t_form[0] * t_a  # inside the fan
        got = flow_positions(SETUP, x_a, t_b, t_start=t_a)[0]
        assert got == pytest.approx(x_a * t_b / t_a, rel=1e-10)

    def test_backward_branch_closed_form(self):
        # characteristics that stay on the decreasing branch are straight in
        # the rescaled time: X(t) = w - (w - x0)(t1 - t)/t1
        w1, t1 = SETUP.widths[0], SETUP.t_form[0]
        x0 = 1.0
        closed = w1 - (w1 - x0) * (t1 - 1.0) / t1
        assert flow_positions(SETUP, x0, 1.0)[0] == pytest.approx(closed, rel=1e-10)

    def test_order_preserved_random_pairs(self):
        rng = np.random.default_rng(17)
        x0 = np.sort(rng.uniform(-0.5, SETUP.edges[-1] + 0.5, size=400))
        xt = flow_positions(SETUP, x0, 1.0)
        resolvable = np.diff(x0) > 1e-9
        assert np.all(np.diff(xt)[resolvable] > 0.0)

    def test_time_window_validated(self):
        with pytest.raises(ValueError):
            flow_positions(SETUP, 0.0, 2.0)
        with pytest.raises(ValueError):
            u_values(SETUP, 0.1, 2.0)

    @pytest.mark.parametrize("p,T,t", FLOW_CASES)
    @pytest.mark.parametrize("start_frac", [0.0, 0.5])
    def test_matches_rk4_reference(self, p, T, t, start_frac):
        # every branch the start time has open, outside points, the dyadic
        # markers and random points, traced from t_start = start_frac * t
        setup = TriangularSetup(p=p, T=T, N=64)
        t_start = start_frac * t
        by_branch = branch_points(setup, t_start)
        open_branches = (1, 2, 3, 4) if t_start > 0.0 else (2, 3)  # no fan at t = 0
        rng = np.random.default_rng(23)
        x0 = np.concatenate(
            [
                *(by_branch[b] for b in open_branches),
                [-0.3, setup.edges[-1] + 0.2],
                midpoint_markers(40),
                rng.uniform(-0.5, setup.edges[-1] + 0.5, size=200),
            ]
        )
        np.testing.assert_allclose(
            flow_positions(setup, x0, t, t_start=t_start),
            rk4_flow(setup, x0, t, t_start),
            rtol=1e-12,
            atol=0.0,
        )


class TestTransport:
    def test_initial_time_identity(self):
        v0 = alternating_initial_data()
        xs = np.array([0.3, 0.7, 0.05])
        np.testing.assert_array_equal(transported_values(SETUP, v0, xs, 0.0), v0(xs))

    def test_alternating_pattern(self):
        v0 = alternating_initial_data()
        ys = midpoint_markers(12)
        vals = v0(ys)
        assert np.all(vals[::2] == 1.0)  # odd n
        assert np.all(vals[1::2] == -1.0)  # even n
        assert v0(0.7) == 1.0 and v0(-3.0) == 1.0

    def test_traced_values_match_advected_pattern(self):
        v0 = alternating_initial_data()
        t = 0.5
        ys, zs = transported_points(SETUP, t, 10, dt=DT)
        vals = transported_values(SETUP, v0, zs, t, dt=DT)
        np.testing.assert_array_equal(vals, v0(ys))

    def test_dilution_factor_optional(self):
        v0 = alternating_initial_data()
        t = 0.5
        _, zs = transported_points(SETUP, t, 4, dt=DT)
        plain = transported_values(SETUP, v0, zs, t, dt=DT)
        weighted = transported_values(SETUP, v0, zs, t, dt=DT, include_dilution=True)
        assert np.all(np.sign(weighted) == np.sign(plain))
        assert np.any(np.abs(weighted - plain) > 1e-8)  # flow genuinely stretches

    def test_scalar_wrapper(self):
        v0 = alternating_initial_data()
        _, zs = transported_points(SETUP, 0.25, 3, dt=DT)
        assert transported_values(SETUP, v0, float(zs[0]), 0.25, dt=DT)[0] == v0(
            midpoint_markers(3)
        )[0]

    @pytest.mark.parametrize("p,T,t", FLOW_CASES)
    def test_dilution_is_the_inverse_jacobian(self, p, T, t):
        # central differences of the RK4 reference flow at feet on m2, m3
        # and outside; every foot is at least 0.1 w_64 from its branch ends
        setup = TriangularSetup(p=p, T=T, N=64)
        by_branch = branch_points(setup, 0.0)
        x0 = np.concatenate([by_branch[2], by_branch[3], [-0.3]])
        eps = 0.05 * setup.widths[-1]
        ends = rk4_flow(setup, np.concatenate([x0 - eps, x0 + eps]), t)
        jacobian = (ends[x0.size :] - ends[: x0.size]) / (2.0 * eps)
        weights = transported_values(
            setup, np.ones_like, flow_positions(setup, x0, t), t, include_dilution=True
        )
        np.testing.assert_allclose(weights, 1.0 / jacobian, rtol=1e-8)

    def test_feet_inside_fans_are_undefined(self):
        # backward in time a fan collapses onto its pulse edge
        v0 = alternating_initial_data()
        t = 0.5
        by_branch = branch_points(SETUP, t)
        fans = np.concatenate([by_branch[1], by_branch[4]])
        rest = np.concatenate([by_branch[2], by_branch[3], [-1.0, SETUP.edges[-1] + 1.0]])
        assert np.all(np.isnan(transported_values(SETUP, v0, fans, t)))
        assert np.all(np.isnan(transported_values(SETUP, v0, fans, t, include_dilution=True)))
        assert np.all(np.isfinite(transported_values(SETUP, v0, rest, t)))
        assert np.all(np.isfinite(transported_values(SETUP, v0, fans, 0.0)))


class TestDivergenceSums:
    @pytest.mark.parametrize(
        "N,s_prime,expected",
        [(10, 1.0, 20.0), (10, 0.5, 40.0), (0, 1.0, 0.0)],
    )
    def test_exact_values(self, N, s_prime, expected):
        assert transported_variation_sums(SETUP, 0.5, s_prime, N) == expected

    def test_linear_growth(self):
        vals = [transported_variation_sums(SETUP, 0.25, 1.0, N) for N in (4, 8, 16)]
        assert vals == [8.0, 16.0, 32.0]

    def test_order_validation(self):
        with pytest.raises(ValueError):
            transported_variation_sums(SETUP, 0.5, 1.5, 4)


class TestVariationBounds:
    def test_per_pulse_bound_formula(self):
        eps = 0.5
        bounds = u_variation_lower_bounds(SETUP, eps)
        expo = 1.0 / (1.0 + SETUP.p * eps)
        # same series through the amplitude identity
        again = 4.0 * (SETUP.amplitudes**SETUP.p) ** expo
        np.testing.assert_allclose(bounds, again, rtol=1e-13)

    @staticmethod
    def _measured_pulse_variation(n, order):
        # sampling the pulse at its seams realizes the four monotone swings
        t = 1.0
        i = n - 1
        w, tn = SETUP.widths[i], SETUP.t_form[i]
        r = w / tn * t
        locs = np.array([0.0, r, w, 2 * w - r, 2 * w]) + SETUP.edges[i]
        xs = np.unique(
            np.concatenate([locs, np.linspace(SETUP.edges[i], SETUP.edges[i] + 2 * w, 41)])
        )
        vals = u_values(SETUP, xs, t)
        return fractional_variation(SampledFunction(xs, vals), order)

    def test_measured_variation_attains_bound(self):
        # the bound is for order s + eps; at s + eps = 1 the four swings are
        # the total variation, so equality holds only there
        eps = 0.5
        s_prime = SETUP.s + eps
        bounds = u_variation_lower_bounds(SETUP, eps)
        for n in (1, 2, 5):
            measured = self._measured_pulse_variation(n, s_prime)
            assert measured >= bounds[n - 1] * (1.0 - 1e-12)
            assert measured == pytest.approx(bounds[n - 1], rel=1e-10)

    def test_measured_variation_exceeds_bound_below_order_one(self):
        # at order s + eps < 1 the bound is a strict lower bound
        eps = 0.25
        s_prime = SETUP.s + eps
        bounds = u_variation_lower_bounds(SETUP, eps)
        for n in (1, 2, 5):
            measured = self._measured_pulse_variation(n, s_prime)
            assert measured >= bounds[n - 1]

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            u_variation_lower_bounds(SETUP, 0.0)
