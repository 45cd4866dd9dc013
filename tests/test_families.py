import math
import re
from collections import Counter
from dataclasses import astuple
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fracbv import (
    SourceProfile,
    cell_profile,
    family_profile,
    fan_edges,
    initial_shock_position,
    parse_alpha,
    power_law_family,
    power_law_flux,
    shock_cell_family,
    slope_time_integral,
    solve_cell_states,
    state_functional,
    user_flux,
)
from fracbv import ConfigError, NumericsError, families
from fracbv.families import ShockCell, ShockCellFamily, packet_amplitude, packet_width
from fracbv.fanprofile import fan_profile_rootfind
from fracbv.waves import flux_difference_drift
from fracbv.flux import Decay

ZERO = SourceProfile.zero()
Q3 = power_law_flux(3.0, M=1.0, decay=Decay(q=3.0, C=1.0, r=1.0))


class TestStateFunctional:
    def test_zero_at_origin(self):
        assert state_functional(Q3, ZERO, 1.0, 0.0) == 0.0

    def test_quartic_closed_form(self):
        # f = |u|^4/4: the functional is |a|^4 * (3/4) * effective_time
        assert state_functional(Q3, ZERO, 1.0, 1.0) == pytest.approx(0.75, rel=1e-14)
        src = SourceProfile.constant(-0.5)
        g3 = src.effective_time(3.0, 1.0)
        assert state_functional(Q3, src, 1.0, 0.7) == pytest.approx(
            0.7**4 * 0.75 * g3, rel=1e-13
        )

    def test_even_symmetry(self):
        assert state_functional(Q3, ZERO, 1.0, -1.0) == pytest.approx(
            state_functional(Q3, ZERO, 1.0, 1.0), rel=1e-14
        )

    def test_monotone_away_from_origin(self):
        vals_pos = [state_functional(Q3, ZERO, 1.0, a) for a in (0.1, 0.3, 0.6, 0.9)]
        assert all(x < y for x, y in zip(vals_pos, vals_pos[1:]))
        vals_neg = [state_functional(Q3, ZERO, 1.0, b) for b in (-0.1, -0.3, -0.6)]
        assert all(x < y for x, y in zip(vals_neg, vals_neg[1:]))

    def test_quadrature_matches_closed_form(self):
        # same flux exposed without the power-law tag exercises the quadrature path
        F = user_flux(
            lambda u: np.abs(u) ** 4 / 4.0,
            lambda u: u * np.abs(u) ** 2,
            M=1.0,
        )
        src = SourceProfile.piecewise([0.0, 0.4], [0.5, -1.0])
        for a in (0.3, -0.8):
            assert state_functional(F, src, 1.0, a) == pytest.approx(
                state_functional(Q3, src, 1.0, a), rel=1e-11
            )


ASYM = user_flux(
    lambda u: np.where(u >= 0, u**4 / 4.0 + u**5 / 5.0, u**4 / 4.0),
    lambda u: np.where(u >= 0, u**3 + u**4, u**3),
    M=0.9,
    decay=Decay(q=3.0, C=2.0, r=0.9),
)


PW3 = SourceProfile.piecewise([0.0, 0.3, 0.7], [-0.3, 0.2, -0.5])


class TestSolveCellStates:
    def test_symmetric_closed_form(self):
        a, b = solve_cell_states(Q3, ZERO, 1.0, 0.0, 0.02)
        assert a == pytest.approx(0.01 ** (1.0 / 3.0), rel=0.0, abs=4 * math.ulp(a))
        assert b == -a

    def test_symmetric_with_source(self):
        src = SourceProfile.constant(-0.5)
        g3 = src.effective_time(3.0, 1.0)
        a, b = solve_cell_states(Q3, src, 1.0, 0.0, 0.02)
        assert a == pytest.approx((0.02 / (2.0 * g3)) ** (1.0 / 3.0), rel=0.0, abs=4 * math.ulp(a))
        assert b == -a

    @pytest.mark.parametrize("q", [1.5, 2.0, 2.5, 3.0, 3.7, 4.0])
    @pytest.mark.parametrize("source", [ZERO, SourceProfile.constant(-0.5), PW3], ids=["zero", "constant", "three-piece"])
    def test_power_law_closed_form_within_two_ulp(self, q, source):
        # reference: the exact root of 2 a^q G_q(t0) = width in 50 digits,
        # from the same float width and G_q(t0)
        F = power_law_flux(q, M=1.0, decay=Decay(q=q, C=1.0, r=1.0))
        g = Decimal(source.effective_time(q, 1.0))
        for n in (3, 4, 10, 100, 1000, 3000, 10**4):
            width = 2.0 * packet_width(n)
            a, b = solve_cell_states(F, source, 1.0, 0.0, width)
            with localcontext() as ctx:
                ctx.prec = 50
                root = ((Decimal(width) / (2 * g)).ln() / Decimal(q)).exp()
                assert abs(Decimal(a) - root) <= 2 * Decimal(math.ulp(a)), (n, a, root)
            assert b == -a

    def test_residuals_below_tolerance(self):
        for src in (ZERO, SourceProfile.constant(-0.5)):
            a, b = solve_cell_states(Q3, src, 1.0, 0.0, 0.02)
            g_gap = abs(state_functional(Q3, src, 1.0, a) - state_functional(Q3, src, 1.0, b))
            w_gap = abs(
                slope_time_integral(Q3, src, a, 1.0)
                - slope_time_integral(Q3, src, b, 1.0)
                - 0.02
            )
            assert g_gap < 1e-10
            assert w_gap < 1e-10

    def test_degenerate_cell(self):
        a, b = solve_cell_states(Q3, ZERO, 1.0, 0.0, 1e-14)
        assert abs(a) < 1e-4 and abs(b) < 1e-4
        with pytest.raises(NumericsError):  # the width underflows to zero
            solve_cell_states(Q3, ZERO, 1.0, 0.0, 5e-324)

    def test_width_precondition(self):
        with pytest.raises(ValueError):
            solve_cell_states(Q3, ZERO, 1.0, 0.0, 10.0)

    def test_asymmetric_flux(self):
        a, b = solve_cell_states(ASYM, ZERO, 1.0, 0.0, 0.02)
        assert a > 0 > b
        assert abs(a + b) > 1e-6  # genuinely asymmetric states
        g_gap = abs(
            state_functional(ASYM, ZERO, 1.0, a) - state_functional(ASYM, ZERO, 1.0, b)
        )
        w_gap = abs(
            slope_time_integral(ASYM, ZERO, a, 1.0)
            - slope_time_integral(ASYM, ZERO, b, 1.0)
            - 0.02
        )
        assert g_gap < 1e-10 and w_gap < 1e-10


class TestShockPosition:
    def test_midpoint_for_symmetric_flux(self):
        a, b = solve_cell_states(Q3, ZERO, 1.0, 0.0, 0.02)
        tau = initial_shock_position(Q3, ZERO, 1.0, 0.0, a, b)
        assert tau == pytest.approx(0.01, abs=1e-10)

    def test_mean_zero_identity(self):
        for F, src in ((Q3, ZERO), (Q3, SourceProfile.constant(-0.5)), (ASYM, ZERO)):
            a, b = solve_cell_states(F, src, 1.0, 0.0, 0.02)
            tau = initial_shock_position(F, src, 1.0, 0.0, a, b)
            assert abs(a * (tau - 0.0) + b * (0.02 - tau)) < 1e-10

    def test_shock_arrives_at_edge_meeting_point(self):
        a, b = solve_cell_states(Q3, ZERO, 1.0, 0.0, 0.02)
        tau = initial_shock_position(Q3, ZERO, 1.0, 0.0, a, b)
        from fracbv import flux_difference_drift

        arrival = tau + flux_difference_drift(Q3, ZERO, a, b, 1.0) / (a - b)
        meeting = 0.0 + slope_time_integral(Q3, ZERO, a, 1.0)
        assert arrival == pytest.approx(meeting, abs=1e-10)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            initial_shock_position(Q3, ZERO, 1.0, 0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def family():
    return shock_cell_family(Q3, ZERO, 1.0, 8)


class TestCellSolution:

    def test_zero_outside(self, family):
        c = family.cells[0]
        for t in (0.3, 2.0):
            prof = cell_profile(c, Q3, ZERO, t)
            assert prof(c.A - 1e-9) == 0.0
            assert prof(c.B + 1e-9) == 0.0

    def test_plateau_values_flank_the_shock(self, family):
        c = family.cells[0]
        t = 0.5
        prof = cell_profile(c, Q3, ZERO, t)
        left, right = prof.side_values(c.tau)  # symmetric cell: shock stays at tau
        assert left == pytest.approx(c.a, rel=1e-12)
        assert right == pytest.approx(c.b, rel=1e-12)

    def test_fan_vanishes_at_left_edge_large_time(self, family):
        c = family.cells[0]
        val = cell_profile(c, Q3, ZERO, 4.0)(c.A + 1e-9)
        assert 0.0 < val < 1e-2

    def test_shock_stays_inside_cell(self, family):
        c = family.cells[0]
        for t in (1.5, 3.0, 8.0):
            prof = cell_profile(c, Q3, ZERO, t)
            pos = prof.ends[1]
            assert c.A < pos < c.B

    def test_structure_switches_at_meeting_time(self, family):
        c = family.cells[0]
        assert cell_profile(c, Q3, ZERO, 0.9).fan.size == 4
        assert cell_profile(c, Q3, ZERO, 1.1).fan.size == 2

    def test_entropy_at_shock(self, family):
        c = family.cells[0]
        for t in (0.4, 2.0):
            prof = cell_profile(c, Q3, ZERO, t)
            shock_x = c.tau if t < 1.0 else prof.ends[1]
            left, right = prof.side_values(shock_x)
            assert left > right


def rk4_shock_position(cell, F, S, t, steps=256):
    """The shock position after t0 by RK4 on the Rankine-Hugoniot ODE
    dz/dt = (f(u_l) - f(u_r)) / (u_l - u_r), with the source and both fans
    evaluated afresh at every stage: an independent route to the
    conservation identity that ``cell_profile`` solves."""

    def fan(x, tt):
        if x == 0.0:
            return 0.0
        if F.power is None:
            return fan_profile_rootfind(F, S, x, tt)
        p = F.power
        g = S.effective_time(p, tt)
        v = math.copysign(abs(x) ** (1.0 / p) * g ** (-1.0 / p), x)
        assert abs(v) <= F.M * math.exp(-S.min_cumulative_source(tt)) * (1.0 + 1e-9)
        return v

    def speed(z, tt):
        scale = math.exp(S.cumulative_source(tt))
        ul = fan(z - cell.A, tt) * scale
        ur = fan(z - cell.B, tt) * scale
        assert ul > ur
        return (F.f(ul) - F.f(ur)) / (ul - ur)

    z = cell.tau + flux_difference_drift(F, S, cell.a, cell.b, cell.t0) / (cell.a - cell.b)
    steps = max(steps, int(math.ceil((t - cell.t0) / 0.05)))
    h = (t - cell.t0) / steps
    tt = cell.t0
    for _ in range(steps):
        k1 = speed(z, tt)
        k2 = speed(z + 0.5 * h * k1, tt + 0.5 * h)
        k3 = speed(z + 0.5 * h * k2, tt + 0.5 * h)
        k4 = speed(z + h * k3, tt + h)
        z += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tt += h
    return z


PW2 = SourceProfile.piecewise([0.0, 0.5], [-0.3, 0.2])


@pytest.mark.parametrize(
    "F, S, t0, n, t, steps",
    [
        (Q3, PW3, 1.0, 2, 1.6, 256),
        (Q3, SourceProfile.constant(-0.2), 0.8, 3, 3.1, 256),
        # asymmetric states, so the shock moves; 64 steps keep RK4 within
        # about 1e-13 of the cell width
        (ASYM, ZERO, 1.0, 13, 1.3, 64),
        (ASYM, PW2, 1.0, 13, 1.3, 64),
    ],
    ids=["q3-pw3", "q3-constant", "general-flux", "general-flux-two-piece"],
)
def test_conserved_mass_shock_matches_rk4(F, S, t0, n, t, steps):
    cell = shock_cell_family(F, S, t0, n, n_start=n).cells[0]
    got = cell_profile(cell, F, S, t).ends[1]
    want = rk4_shock_position(cell, F, S, t, steps)
    assert cell.A < got < cell.B
    assert abs(got - want) <= 1e-11 * (cell.B - cell.A)


@pytest.mark.parametrize("q", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("source", [ZERO, PW3], ids=["zero", "three-piece"])
def test_power_law_shock_stays_at_the_midpoint(q, source):
    # a = -b, so the two fans mirror each other and the shock does not move
    F = power_law_flux(q, M=1.0, decay=Decay(q=q, C=1.0, r=1.0))
    for c in shock_cell_family(F, source, 1.0, 8).cells:
        mid = 0.5 * (c.A + c.B)
        for t in (1.0 + 1e-9, 1.7, 8.0):
            z = cell_profile(c, F, source, t).ends[1]
            assert abs(z - mid) <= 2 * math.ulp(mid), (c.index, t, z, mid)


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("source", [ZERO, PW3], ids=["zero", "three-piece"])
def test_symmetric_shock_is_the_mass_root_bit_for_bit(q, source):
    # the layout keeps a b = -a cell's shock at tau without a root search;
    # the mass identity's root is tau to the last bit
    F = power_law_flux(q, M=1.0, decay=Decay(q=q, C=1.0, r=1.0))
    for c in shock_cell_family(F, source, 1.0, 12).cells:
        assert c.b == -c.a
        for t in (1.0 + 1e-9, 1.7, 8.0):
            root = families._shock_position(c, F, source, t)
            assert cell_profile(c, F, source, t).ends[1] == root == c.tau, (c.index, t)


def test_post_meeting_cost_does_not_grow_with_time(monkeypatch):
    from fracbv import fanprofile

    calls = Counter()
    rootfind = fanprofile.fan_profile_rootfind

    def counted(*args, **kwargs):
        calls[args[3]] += 1  # (flux, source, x, t)
        return rootfind(*args, **kwargs)

    monkeypatch.setattr(fanprofile, "fan_profile_rootfind", counted)
    cell = shock_cell_family(ASYM, ZERO, 1.0, 13, n_start=13).cells[0]
    for t in (1.3, 5.0):
        cell_profile(cell, ASYM, ZERO, t)
    assert set(calls) == {1.3, 5.0}
    assert calls[1.3] == calls[5.0] <= 64


def test_general_flux_state_leaving_the_flux_interval_is_refused():
    # B(t) = -0.15 + 0.2 (t - 0.5) grows past the cell's state a = 0.229:
    # a e^{B} = 0.485 at t = 5, 1.32 at t = 10 and 9.74 at t = 20, with M = 0.9
    source = SourceProfile.piecewise([0.0, 0.5], [-0.3, 0.2])
    cell = shock_cell_family(ASYM, source, 1.0, 13, n_start=13).cells[0]
    cell_profile(cell, ASYM, source, 5.0)
    for t in (10.0, 20.0):
        message = f"state a = {cell.a} of cell 13 leaves the flux interval [-0.9, 0.9] by t = {t}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            cell_profile(cell, ASYM, source, t)
        with pytest.raises(ConfigError, match="leaves the flux interval"):
            family_profile(shock_cell_family(ASYM, source, 1.0, 13, n_start=12), t)


COSH_DECAY = Decay(q=1.0, C=math.cosh(1.0), r=1.0)


@pytest.mark.parametrize("alpha", ["zero", "pw:0:-0.3,0.5:0.2"])
def test_cells_do_not_depend_on_f_at_zero(alpha):
    # G takes f(0) off, so cosh u builds the cells of cosh u - 1 (without
    # it, G(b) near 0 fell below every G(a) and the anchor match failed);
    # u^4/4 + 1 builds those of u^4/4 up to the rounding of the shift
    source = parse_alpha(alpha)
    shifted = user_flux(np.cosh, np.sinh, M=1.0, decay=COSH_DECAY)
    assert state_functional(shifted, source, 1.0, 0.0) == 0.0
    assert abs(state_functional(shifted, source, 1.0, 1e-9)) < 1e-17
    want = shock_cell_family(user_flux(lambda u: np.cosh(u) - 1.0, np.sinh, M=1.0, decay=COSH_DECAY), source, 1.0, 8)
    got = shock_cell_family(shifted, source, 1.0, 8)
    assert got.columns[0].tolist() == want.columns[0].tolist() == list(range(2, 9))
    np.testing.assert_allclose(got.columns, want.columns, rtol=0.0, atol=1e-10)
    plus_one = user_flux(lambda u: ASYM.f(u) + 1.0, ASYM.df, M=ASYM.M, decay=ASYM.decay)
    got, want = (shock_cell_family(F, source, 1.0, 16, n_start=13).columns for F in (plus_one, ASYM))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("alpha", ["zero", "pw:0:-0.3,0.5:0.2"])
def test_general_flux_layout_takes_the_fan_edges_bit_for_bit(alpha):
    # one slope time integral per state gives each cell's fan edges as
    # fan_edges does, cell by cell
    source = parse_alpha(alpha)
    family = shock_cell_family(ASYM, source, 1.0, 16, n_start=13)
    ends = family_profile(family, 0.6).ends
    edges = np.array([fan_edges(ASYM, source, cell, 0.6) for cell in family.cells])
    assert ends[1::5].tobytes() == edges[:, 0].tobytes()
    assert ends[3::5].tobytes() == edges[:, 1].tobytes()


class TestMakePacket:
    F = power_law_flux(2.0, M=0.5)

    @pytest.mark.parametrize(
        "center,dx,delta",
        [
            # the ends round onto the center, or past float64
            (1e308, 0.1, 0.5),
            (1e16, 1.0, 0.5),
            (1e308, 1e308, 0.5),
            (-1e308, 1e308, 0.5),
            (math.inf, 0.1, 0.5),
            # no width or amplitude
            (0.0, 0.0, 0.5),
            (0.0, -1.0, 0.5),
            (0.0, math.nan, 0.5),
            (0.0, 0.1, 0.0),
            (0.0, 0.1, math.nan),
        ],
    )
    def test_support_must_be_finite_around_the_center(self, center, dx, delta):
        with pytest.raises(ConfigError):
            families.make_packet(self.F, ZERO, center, dx, delta)

    def test_support_just_wide_enough(self):
        # dx = 2 is one ulp of 1e16: both ends move off the center
        packet = families.make_packet(self.F, ZERO, 1e16, 2.0, 0.5)
        assert packet.A < packet.tau == 1e16 < packet.B

    @pytest.mark.parametrize("alpha", ["zero", "constant:1"])
    @pytest.mark.parametrize(
        "p, delta",
        [(2.0, 1e-200), (2000.0, 0.5), (2.0, 1e-155), (2.0, 1e300)],
        ids=["underflow", "underflow-at-large-p", "subnormal", "overflow"],
    )
    def test_level_past_float64_is_refused(self, p, delta, alpha):
        # delta^p is 0, subnormal or inf, so dx / delta^p is not a positive
        # float; under a growing source the true t_n is finite, so it is not inf
        F = power_law_flux(p, M=delta)
        message = f"packet level dx/delta^p = 0.1/{delta}^{p} is not a positive finite float64 at delta = {delta}"
        with pytest.raises(NumericsError, match=re.escape(message)):
            families.make_packet(F, parse_alpha(alpha), 0.0, 0.1, delta)


class TestCellMeetingTime:
    """Each cell's inner fan edges meet at the family's t0, stored on the cell."""

    SRC = SourceProfile.piecewise([0.0, 0.4], [-0.3, 0.2])

    @pytest.fixture(scope="class")
    def sourced_family(self):
        return shock_cell_family(Q3, self.SRC, 1.0, 10)

    def test_fan_edges_meet_at_t0(self, sourced_family):
        assert sourced_family.cells
        for c in sourced_family.cells:
            assert c.t0 == sourced_family.t0
            left_edge = c.A + slope_time_integral(Q3, self.SRC, c.a, c.t0)
            right_edge = c.B + slope_time_integral(Q3, self.SRC, c.b, c.t0)
            assert abs(left_edge - right_edge) <= 1e-10

    def test_structure_switches_at_t0(self, sourced_family):
        for c in sourced_family.cells:
            assert cell_profile(c, Q3, self.SRC, c.t0 * (1.0 - 1e-9)).fan.size == 4
            assert cell_profile(c, Q3, self.SRC, c.t0 * (1.0 + 1e-9)).fan.size == 2


class TestFamilies:
    def test_power_law_widths_and_amplitudes(self):
        fam = power_law_family(2.0, ZERO, 5)
        for n, pk in enumerate(fam.cells, start=1):
            dx = packet_width(n)
            # packet n is the symmetric cell on [x_n - dx, x_n + dx]
            assert (pk.index, pk.A, pk.B) == (n, pk.tau - dx, pk.tau + dx)
            assert pk.a == pytest.approx(packet_amplitude(n, 2.0), rel=1e-15)
            assert pk.b == -pk.a
            # width / amplitude^p = log(n+1) exactly
            assert dx / pk.a**2 == pytest.approx(math.log(n + 1.0), rel=1e-12)

    def test_interaction_times_increase(self):
        fam = power_law_family(2.0, ZERO, 20)
        times = [pk.t0 for pk in fam.cells]
        assert times == pytest.approx([math.log(n + 1.0) for n in range(1, 21)], rel=1e-12)
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_disjoint_supports(self):
        fam = power_law_family(2.0, ZERO, 200)
        for a, b in zip(fam.cells, fam.cells[1:]):
            assert a.B < b.A

    def test_total_width_summable(self):
        def block(lo, hi):
            return sum(packet_width(n) for n in range(lo, hi))

        blocks = [block(1000 * 2**k, 1000 * 2 ** (k + 1)) for k in range(3)]
        assert blocks[0] > blocks[1] > blocks[2]  # dyadic tails shrink
        assert block(1, 8000) < 5.0

    def test_shock_cell_family_inequality(self):
        fam = shock_cell_family(Q3, ZERO, 1.0, 10)
        c0 = 1.0 * ZERO.effective_time(3.0, 1.0)
        for c in fam.cells:
            assert c.a - c.b >= c0 ** (-1.0 / 3.0) * (c.B - c.A) ** (1.0 / 3.0) * (1 - 1e-12)

    def test_shock_cell_supports_disjoint(self):
        fam = shock_cell_family(Q3, ZERO, 1.0, 10)
        for c, d in zip(fam.cells, fam.cells[1:]):
            assert c.B < d.A

    def test_admissibility_scan(self):
        fam = shock_cell_family(Q3, ZERO, 1.0, 10)
        # every admissible index from n0 on is present
        assert [c.index for c in fam.cells] == list(range(fam.n0, 11))

    def test_decay_required(self):
        F = power_law_flux(3.0, M=1.0)
        with pytest.raises(ValueError):
            shock_cell_family(F, ZERO, 1.0, 5)

    @pytest.mark.parametrize("t0", [0.0, -1.0, math.nan])
    def test_meeting_time_must_be_positive(self, t0):
        with pytest.raises(ConfigError):
            shock_cell_family(Q3, ZERO, t0, 5)

    def test_cell_solves_do_bounded_work(self, monkeypatch):
        # call counts, not timings: the anchors are found once per family,
        # a power-law cell takes a few functional evaluations and a
        # general-flux cell a bounded root search
        counts = Counter()
        for name in ("_anchors", "state_functional"):

            def counted(*args, _real=getattr(families, name), _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(families, name, counted)
        fam = shock_cell_family(Q3, PW3, 1.0, 20)
        assert counts["_anchors"] == 1
        assert counts["state_functional"] <= 10 * len(fam.cells)
        counts.clear()
        shock_cell_family(ASYM, ZERO, 1.0, 13, n_start=13)
        assert counts["_anchors"] == 1
        assert counts["state_functional"] <= 500


class TestFamilyProfile:
    @pytest.mark.parametrize("alpha", ["zero", "pw:0:-0.3,0.5:0.2"])
    def test_power_law_layout_in_one_pass(self, monkeypatch, alpha):
        from fracbv import parse_alpha

        fam = power_law_family(2.0, parse_alpha(alpha), 50)
        counts = Counter()

        def counting(name, fun):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fun(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(SourceProfile, "effective_time", counting("effective_time", SourceProfile.effective_time))
        # no per-cell profile, fan edge or shock position: the shocks stay at
        # the centers
        for name in ("cell_profile", "fan_edges", "_shock_position"):
            monkeypatch.setattr(families, name, counting(name, getattr(families, name)))
        for t in (0.5, 2.0):
            counts.clear()
            family_profile(fam, t)
            assert counts == {"effective_time": 1}

    def test_empty_family_is_zero(self):
        fam = power_law_family(2.0, ZERO, 0)
        prof = family_profile(fam, 1.0)
        assert prof(0.5) == 0.0

    def test_two_packets_pre_interaction(self):
        fam = power_law_family(2.0, ZERO, 2)
        t = 0.5  # below t_1 = log 2
        prof = family_profile(fam, t)
        for pk in fam.cells:
            zl = pk.A + pk.a**2 * t
            mid = 0.5 * (zl + pk.tau)
            assert prof(mid) == pytest.approx(pk.a, rel=1e-12)

    def test_mixed_structures(self):
        fam = power_law_family(2.0, ZERO, 10)
        t = 0.8  # t_1 = log 2 < t < t_2 = log 3
        prof = family_profile(fam, t)
        first, rest = fam.cells[0], fam.cells[1]
        left, right = prof.side_values(first.tau)
        expected = math.sqrt(packet_width(1) / t)
        assert left == pytest.approx(expected, rel=1e-12)  # post-interaction fan value
        assert prof(0.5 * (rest.A + rest.tau - rest.a**2 * t) + rest.a**2 * t / 2) != 0.0

    def test_gaps_are_zero(self):
        fam = power_law_family(2.0, ZERO, 3)
        prof = family_profile(fam, 0.5)
        gap_x = 0.5 * (fam.cells[0].B + fam.cells[1].A)
        assert prof(gap_x) == 0.0


def reference_supports(n0, N):
    """The supports as records were placed: the prefix of half-widths added one by one."""
    prefix = sum(packet_width(k) for k in range(1, n0))
    for n in range(n0, N + 1):
        width = packet_width(n)
        yield n, 4.0 * prefix + 2.0 * width, width
        prefix += width


def reference_packet(S, p, n, x_n, dx, delta):
    t_n = S.effective_time_inverse(p, dx / delta**p)
    return ShockCell(index=n, A=x_n - dx, B=x_n + dx, a=delta, b=-delta, tau=x_n, t0=t_n)


def reference_power_law_cells(p, source, N):
    """``power_law_family``'s cells built one record per packet."""
    power = power_law_flux(p, M=packet_amplitude(1, p)).power
    return [reference_packet(source, power, n, c, w, packet_amplitude(n, p)) for n, c, w in reference_supports(1, N)]


def reference_shock_cells(F, S, t0, N):
    """``shock_cell_family``'s cells built one record per cell."""
    anchors = families._anchors(F, S, t0)
    n0 = next(n for n in range(1, N + 1) if 2.0 * packet_width(n) <= anchors[2])
    cells = []
    for n, center, width in reference_supports(n0, N):
        A, B = center - width, center + width
        a, b = families._solve_states(F, S, t0, B - A, anchors)
        tau = initial_shock_position(F, S, t0, A, a, b)
        cells.append(ShockCell(index=n, A=A, B=B, a=a, b=b, tau=tau, t0=t0))
    return cells


def reference_cells_at_zero(cells, xs):
    """Initial data as one ``np.where`` pass per cell, later cells on top."""
    out = np.zeros_like(xs)
    for c in cells:
        out = np.where((xs >= c.A) & (xs < c.tau), c.a, out)
        out = np.where((xs >= c.tau) & (xs <= c.B), c.b, out)
    return out


def assert_columns_are(family, cells):
    want = np.array([astuple(c) for c in cells], dtype=float).reshape(-1, 7).T
    assert family.columns.shape == want.shape
    np.testing.assert_array_equal(family.columns.view(np.uint64), want.view(np.uint64))
    assert family.cells == tuple(cells)


class TestColumnsMatchRecords:
    """Every column equals the per-record construction bit for bit."""

    @pytest.mark.parametrize("alpha", ["zero", "constant:-0.2", "pw:0:-0.3,0.5:0.2"])
    @pytest.mark.parametrize("N", [1, 12, 1000])
    def test_power_law_family(self, alpha, N):
        source = parse_alpha(alpha)
        family = power_law_family(2.0, source, N)
        cells = reference_power_law_cells(2.0, source, N)
        assert_columns_are(family, cells)
        if alpha == "constant:-0.2" and N == 1000:  # G_2 saturates at 5 < log(n + 1) from n = 148
            assert math.isinf(family.columns[6, -1]) and math.isfinite(family.columns[6, 0])

    def test_power_law_family_other_orders_and_empty(self):
        for p in (1.5, 2.37, 3.0):
            assert_columns_are(power_law_family(p, PW3, 300), reference_power_law_cells(p, PW3, 300))
        empty = power_law_family(2.0, ZERO, 0)
        assert empty.columns.shape == (7, 0) and empty.cells == ()

    @pytest.mark.parametrize(
        "F,S,N", [(Q3, PW3, 40), (Q3, parse_alpha("constant:-0.2"), 9), (ASYM, ZERO, 12)], ids=["q3-pw3", "q3-decay", "asym"]
    )
    def test_shock_cell_family(self, F, S, N):
        assert_columns_are(shock_cell_family(F, S, 1.0, N), reference_shock_cells(F, S, 1.0, N))

    def test_columns_are_read_only_and_families_hash(self):
        family = power_law_family(2.0, ZERO, 3)
        with pytest.raises(ValueError):
            family.columns[1, 0] = 0.0
        assert family in {family} and family != power_law_family(2.0, ZERO, 3)

    @pytest.mark.parametrize(
        "family",
        [power_law_family(2.0, ZERO, 50), power_law_family(1.5, PW3, 7), shock_cell_family(Q3, PW3, 1.0, 20)],
        ids=["powerlaw-50", "powerlaw-7", "assp-20"],
    )
    def test_cells_at_zero(self, family):
        from fracbv.cli import _cells_at_zero

        _, A, B, _, _, tau, _ = family.columns
        marks = np.concatenate([A, tau, B])
        xs = np.concatenate(
            [
                np.random.default_rng(5).uniform(A[0] - 0.1, B[-1] + 0.1, 5000),
                marks,
                np.nextafter(marks, np.inf),
                np.nextafter(marks, -np.inf),
                [-np.inf, np.inf, np.nan],
            ]
        )
        got = _cells_at_zero(family.columns, xs)
        want = reference_cells_at_zero(family.cells, xs)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        # a sorted grid of cell centers, as the oracle passes them
        grid = np.linspace(A[0] - 0.05, B[-1] + 0.05, 4001)
        np.testing.assert_array_equal(_cells_at_zero(family.columns, grid), reference_cells_at_zero(family.cells, grid))


class TestFluxIntervalCheck:
    """The check names the first cell with a state out of the interval, and
    the state that is out: a when both are."""

    LIMIT = 0.9  # ASYM's M under a zero source

    @staticmethod
    def family(a, b):
        n = len(a)
        index = np.arange(1.0, n + 1.0)
        A, B = 0.1 * index, 0.1 * index + 0.05
        columns = np.array([index, A, B, a, b, 0.5 * (A + B), np.ones(n)])
        return ShockCellFamily(flux=ASYM, source=ZERO, t0=1.0, n0=1, N=n, columns=columns)

    @pytest.mark.parametrize(
        "a,b,name,w,cell",
        [
            ([0.1, 0.2, 0.95, 0.1], [-0.1, -0.95, -0.97, -0.99], "b", -0.95, 2),
            ([0.1, 0.2, 0.95, 0.1], [-0.1, -0.2, -0.97, -0.99], "a", 0.95, 3),
            ([0.1, 0.2, 0.3, 0.1], [-0.1, -0.2, -0.3, -0.99], "b", -0.99, 4),
            ([0.91, 0.2], [-0.1, -0.2], "a", 0.91, 1),
        ],
    )
    def test_names_the_first_offending_cell(self, a, b, name, w, cell):
        message = f"state {name} = {w} of cell {cell} leaves the flux interval [-0.9, 0.9] by t = 0.5"
        with pytest.raises(ConfigError, match=re.escape(message)):
            family_profile(self.family(a, b), 0.5)

    def test_states_at_the_limit_pass(self):
        families._check_flux_interval(ASYM, ZERO, self.family([self.LIMIT, 0.2], [-0.1, -self.LIMIT]).columns, 0.5)
