import math

import numpy as np
import pytest

from fracbv import (
    TriangularSetup,
    alternating_initial_data,
    continuity_defect,
    flow_positions,
    transported_variation_sums,
    u_values,
    u_variation_lower_bounds,
)
from fracbv import ConfigError, NumericsError, SampledFunction, p_variation
from fracbv import triangular
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

    @pytest.mark.parametrize(
        "p,T", [(math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf)]
    )
    def test_non_finite_parameters_refused(self, p, T):
        with pytest.raises(ConfigError, match="finite"):
            TriangularSetup(p=p, T=T, N=3)

    def test_horizon_where_t1_rounds_to_T_refused(self):
        # at T = 1e17, T + 1 == T: the first pulse would form at the horizon
        with pytest.raises(ConfigError, match="T \\+ 1 > T"):
            TriangularSetup(p=2.0, T=1e17, N=5)
        assert TriangularSetup(p=2.0, T=1e15, N=5).t_form[0] > 1e15


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
        assert u_values(SETUP, np.array([-5.0]), 0.5)[0] == 0.0

    def test_velocity_linear_on_fans(self):
        # the characteristic speed f'(u) = u|u|^(p-1) is x / t on a fan
        r1 = SETUP.widths[0] / SETUP.t_form[0] * 1.0
        xs = np.array([0.2, 0.5, 0.9]) * r1
        u = u_values(SETUP, xs, 1.0)
        np.testing.assert_allclose(u * np.abs(u) ** (SETUP.p - 1.0), xs / 1.0, rtol=1e-13)


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

    def test_overflow_is_refused_without_warning(self):
        # 2^(1/s') overflows at s' = 1e-300: a named error, not a RuntimeWarning
        with pytest.raises(NumericsError, match="sum of order 1e-300 overflows float64"):
            transported_variation_sums(SETUP, 0.5, 1e-300, 4)

    def test_sums_take_no_flow(self, monkeypatch):
        def no_flow(*args):
            raise AssertionError("the sums do not depend on the flow")

        monkeypatch.setattr(triangular, "_flow_map", no_flow)
        assert transported_variation_sums(SETUP, 0.5, 1.0, 10) == 20.0

    @pytest.mark.parametrize("t", [-1.0, 2.0])
    def test_times_outside_the_horizon_are_refused_as_by_the_flow(self, t):
        message = f"need 0 <= t_start <= t <= T=1.0, got t_start=0.0, t={t}"
        for call in (lambda: transported_variation_sums(SETUP, t, 1.0, 4), lambda: flow_positions(SETUP, [0.1], t)):
            with pytest.raises(ConfigError) as exc:
                call()
            assert str(exc.value) == message


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
        return p_variation(SampledFunction(xs, vals), 1.0 / order).value

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



# ---------------------------------------------------------------------------
# The pulse partition and the branch values against the np.select partition
# and the four branch formulas they replaced, kept here as the reference.


def reference_branches(setup, xs, t):
    """Five compound masks in np.select; outside points are anchored at pulse 1."""
    idx = np.searchsorted(setup.edges, xs, side="right") - 1
    inside = (idx >= 0) & (idx < setup.N)
    i = np.where(inside, idx, 0)
    w, tn = setup.widths[i], setup.t_form[i]
    loc = xs - setup.edges[i]
    r = (w / tn) * t
    branch = np.select(
        [
            ~inside,
            (loc > 0.0) & (loc < np.minimum(r, w)),
            (loc >= r) & (loc <= w) & (loc > 0.0),
            (loc > w) & (loc <= 2.0 * w - r),
            (loc > np.maximum(2.0 * w - r, w)) & (loc < 2.0 * w),
        ],
        [0, 1, 2, 3, 4],
        default=0,
    )
    return loc, w, tn, branch


def reference_branch_u(branch, x, w, tn, t, s):
    if branch == 1:
        return (x / t) ** s
    if branch == 2:
        return ((w - x) / (tn - t)) ** s
    if branch == 3:
        return -((x - w) / (tn - t)) ** s
    return -((2.0 * w - x) / t) ** s


def reference_u_values(setup, xs, t):
    loc, w, tn, branch = reference_branches(setup, xs, t)
    out = np.zeros_like(xs)
    for b in (1, 2, 3, 4):
        m = branch == b
        out[m] = reference_branch_u(b, loc[m], w[m], tn[m], t, setup.s)
    return out


def reference_flow_map(setup, xs, t_from, t_to):
    loc, w, tn, branch = reference_branches(setup, xs, t_from)
    fan = (branch == 1) | (branch == 4)
    fan_k = t_to / t_from if t_from > 0.0 else 1.0
    k = np.where(fan, fan_k, (tn - t_to) / (tn - t_from))
    k[branch == 0] = 1.0
    anchor = np.select([branch == 1, branch == 4], [0.0, 2.0 * w], w)
    return xs + (k - 1.0) * (loc - anchor), k, branch


def reference_transported_values(setup, v0, xs, t, include_dilution):
    feet, k, branch = reference_flow_map(setup, xs, t, 0.0)
    vals = np.where((branch == 1) | (branch == 4), np.nan, np.asarray(v0(feet), dtype=float))
    return vals * k if include_dilution else vals


def reference_continuity_defect(setup, t):
    w, tn = setup.widths, setup.t_form
    r = w / tn * t

    def u(branch, x):
        return reference_branch_u(branch, x, w, tn, t, setup.s)

    return float(
        np.max(
            np.concatenate(
                [
                    np.abs(u(1, np.zeros_like(w))),
                    np.abs(u(1, r) - u(2, r)),
                    np.abs(u(2, w) - u(3, w)),
                    np.abs(u(3, 2.0 * w - r) - u(4, 2.0 * w - r)),
                    np.abs(u(4, 2.0 * w)),
                ]
            )
        )
    )


def assert_same_bits(got, want):
    """NaN where the reference has NaN, and the same float64 bits elsewhere
    (so +0.0 and -0.0 differ)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


# (p, T, N): s = 1/p is 1, an exact square root (the sqrt path of ndarray ** 0.5),
# a third and generic; N = 1 has no interior edge
IDENTITY_SETUPS = [(1.0, 1.0, 40), (2.0, 1.0, 64), (3.0, 2.0, 17), (2.37, 0.7, 300), (1.5, 1.3, 1)]


def identity_points(setup, t, rng):
    """Random points, every edge and seam r, w, 2w - r of every pulse with both
    float neighbours, signed zeros, NaN and +-inf, in no particular order."""
    e, w = setup.edges, setup.widths
    r = w / setup.t_form * t
    seams = np.concatenate([e, e[:-1] + r, e[:-1] + w, e[:-1] + 2.0 * w - r])
    return np.concatenate(
        [
            rng.uniform(-0.5, e[-1] + 0.5, size=2000),
            seams,
            np.nextafter(seams, np.inf),
            np.nextafter(seams, -np.inf),
            [0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf],
        ]
    )


def identity_cases():
    for p, T, N in IDENTITY_SETUPS:
        for t_frac in (0.0, 0.37, 1.0):
            yield pytest.param(p, T, N, t_frac * T, id=f"p{p}-T{T}-N{N}-t{t_frac}T")


class TestSameValuesAsReference:
    """Bit for bit, signed zeros included, in the given order and sorted (the
    two ways :func:`triangular._pulse_index` finds the pulses)."""

    @pytest.fixture(params=["given", "sorted"])
    def order(self, request):
        return request.param

    @staticmethod
    def points(setup, t, order):
        xs = identity_points(setup, t, np.random.default_rng(31))
        return np.sort(xs[~np.isnan(xs)]) if order == "sorted" else xs

    @pytest.mark.parametrize("p,T,N,t", identity_cases())
    def test_u_values(self, p, T, N, t, order):
        setup = TriangularSetup(p=p, T=T, N=N)
        xs = self.points(setup, t, order)
        assert_same_bits(u_values(setup, xs, t), reference_u_values(setup, xs, t))

    @pytest.mark.parametrize("p,T,N,t", identity_cases())
    def test_flow_positions(self, p, T, N, t, order):
        # the reference maps +-inf to NaN (0 * inf); the flow fixes them
        setup = TriangularSetup(p=p, T=T, N=N)
        xs = self.points(setup, t, order)
        infinite = np.isinf(xs)
        for t_start, t_end in ((0.0, t), (t, T), (t, t)):
            got = flow_positions(setup, xs, t_end, t_start=t_start)
            assert_same_bits(got[~infinite], reference_flow_map(setup, xs[~infinite], t_start, t_end)[0])
            assert_same_bits(got[infinite], xs[infinite])

    @pytest.mark.parametrize("p,T,N,t", identity_cases())
    @pytest.mark.parametrize("include_dilution", [False, True])
    def test_transported_values(self, p, T, N, t, order, include_dilution):
        setup = TriangularSetup(p=p, T=T, N=N)
        xs = self.points(setup, t, order)
        v0 = alternating_initial_data()
        with np.errstate(invalid="ignore"):
            got = transported_values(setup, v0, xs, t, include_dilution=include_dilution)
            want = reference_transported_values(setup, v0, xs, t, include_dilution)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("p,T,N", [case[:3] for case in IDENTITY_SETUPS])
    def test_continuity_defect(self, p, T, N):
        setup = TriangularSetup(p=p, T=T, N=N)
        for t in (1e-3 * T, 0.37 * T, T):
            got = continuity_defect(setup, t)
            assert_same_bits(got, reference_continuity_defect(setup, t))

    def test_random_setups(self):
        # random p, T, N and t; random points only, plus the seams
        rng = np.random.default_rng(47)
        for _ in range(20):
            setup = TriangularSetup(
                p=float(rng.uniform(1.0, 4.0)), T=float(rng.uniform(0.1, 3.0)), N=int(rng.integers(1, 500))
            )
            t = float(rng.uniform(0.0, setup.T))
            xs = identity_points(setup, t, rng)
            assert_same_bits(u_values(setup, xs, t), reference_u_values(setup, xs, t))
            finite = np.sort(xs[np.isfinite(xs)])
            assert_same_bits(u_values(setup, finite, t), reference_u_values(setup, finite, t))
            assert_same_bits(flow_positions(setup, finite, setup.T, t), reference_flow_map(setup, finite, t, setup.T)[0])

    @pytest.mark.parametrize("t_start,t_end", [(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)])
    def test_flow_fixes_points_outside_the_supports(self, t_start, t_end):
        # exactly, without a warning (tier-1 turns warnings into errors):
        # +-inf stay infinite, and -0.0 stays -0.0 as before
        xs = np.array([np.inf, -np.inf, 7.0, -0.0, 0.0, -1.0, -5e-324, SETUP.edges[-1] + 1.0])
        got = flow_positions(SETUP, xs, t_end, t_start=t_start)
        np.testing.assert_array_equal(got.view(np.uint64), xs.view(np.uint64))
        assert np.isnan(flow_positions(SETUP, [np.nan], t_end, t_start=t_start)[0])

    def test_branch_zero_is_positive_zero(self):
        # outside, at every edge, NaN and +-inf: exactly +0.0
        xs = np.concatenate([SETUP.edges, [-1.0, -0.0, SETUP.edges[-1] + 1.0, np.nan, np.inf, -np.inf]])
        for t in (0.0, 0.5, 1.0):
            u = u_values(SETUP, xs, t)
            np.testing.assert_array_equal(u.view(np.uint64), np.zeros(xs.size, dtype=np.uint64))

    def test_pulse_index_is_the_edge_search(self):
        # ascending positions take the search of the edges in the positions;
        # either way the index is searchsorted over the interior edges
        rng = np.random.default_rng(53)
        inner = SETUP.edges[1:-1]
        xs = np.sort(np.concatenate([SETUP.edges, np.nextafter(SETUP.edges, -np.inf), rng.uniform(-0.1, 3.0, 500)]))
        for points in (xs, xs[::-1], np.repeat(xs, 2), np.array([])):
            np.testing.assert_array_equal(
                triangular._pulse_index(inner, points), np.searchsorted(inner, points, side="right")
            )
