import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracbv import (
    NumericsError,
    PiecewiseProfile,
    SourceProfile,
    fan_profile_rootfind,
    fan_values,
    parse_alpha,
    power_law_flux,
    sample_profile,
    slope_time_integral,
    slope_time_integral_numeric,
    user_flux,
)
from fracbv import fanprofile
from fracbv.fanprofile import bisect_increasing, source_time_integral

ZERO = SourceProfile.zero()


def fan(flux, source, x, t):
    """V(x, t) at one offset, through :func:`fan_values`."""
    return float(fan_values(flux, source, [x], t)[0])


def test_power_law_closed_form_examples():
    F = power_law_flux(2.0, M=3.0)
    assert fan(F, ZERO, 4.0, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert fan(F, ZERO, 0.0, 1.0) == 0.0
    src = SourceProfile.constant(-1.0)
    t_star = math.log(2.0) / 2.0  # effective time 0.25
    assert fan(F, src, 0.25, t_star) == pytest.approx(1.0, rel=1e-13)


def test_rootfind_agrees_with_closed_form():
    rng = np.random.default_rng(11)
    for p in (1.0, 2.0, 3.0):
        for source in (ZERO, SourceProfile.constant(-1.0), SourceProfile.piecewise([0, 0.5], [1, -1])):
            F = power_law_flux(p, M=2.0)
            for _ in range(20):
                t = rng.uniform(0.05, 2.0)
                w = rng.uniform(-1.9, 1.9)
                x = slope_time_integral(F, source, w, t)
                assert fan_profile_rootfind(F, source, x, t) == pytest.approx(
                    fan(F, source, x, t), abs=1e-10
                )


def test_residual_small():
    rng = np.random.default_rng(5)
    src = SourceProfile.piecewise([0, 0.5], [1, -1])
    F = power_law_flux(2.0, M=2.0)
    for _ in range(50):
        t = rng.uniform(0.05, 2.0)
        w = rng.uniform(-1.9, 1.9)
        x = slope_time_integral(F, src, w, t)
        v = fan(F, src, x, t)
        assert abs(x - slope_time_integral_numeric(F, src, v, t)) < 1e-10 * (1.0 + abs(x))


def test_monotone_in_position():
    rng = np.random.default_rng(9)
    F = power_law_flux(2.0, M=3.0)
    for _ in range(200):
        t = rng.uniform(0.05, 3.0)
        xmax = (0.9 * F.M) ** 2 * ZERO.effective_time(2.0, t)
        x1, x2 = np.sort(rng.uniform(-xmax, xmax, size=2))
        if x1 == x2:
            continue
        assert fan(F, ZERO, x1, t) < fan(F, ZERO, x2, t)


def test_holder_bound_random_triples():
    # |V(z1) - V(z2)| <= (|z1 - z2| / (c0 G_p(t)))^(1/p), G_p the effective time
    rng = np.random.default_rng(23)
    for p, source in ((2.0, ZERO), (3.0, SourceProfile.constant(-0.5))):
        F = power_law_flux(p, M=2.0)
        c0 = F.degeneracy.c0
        for _ in range(2500):
            t = rng.uniform(0.05, 2.0)
            g = source.effective_time(p, t)
            zmax = (0.9 * F.M) ** p * g
            z1, z2 = rng.uniform(-zmax, zmax, size=2)
            lhs = abs(fan(F, source, z1, t) - fan(F, source, z2, t))
            rhs = (abs(z1 - z2) / (c0 * g)) ** (1.0 / p)
            assert lhs <= rhs + 1e-12


def test_user_flux_path_and_residual():
    # smooth strictly convex non-power-law flux
    F = user_flux(lambda u: np.cosh(u) - 1.0, np.sinh, M=2.0)
    src = SourceProfile.constant(-0.5)
    t = 0.8
    x = slope_time_integral_numeric(F, src, 0.9, t)
    v = fan(F, src, x, t)
    assert v == pytest.approx(0.9, abs=1e-9)
    assert abs(x - slope_time_integral_numeric(F, src, v, t)) < 1e-9


def test_time_domain_errors():
    F = power_law_flux(2.0, M=3.0)
    with pytest.raises(ValueError):
        fan(F, ZERO, 1.0, 0.0)
    with pytest.raises(ValueError):
        fan(F, ZERO, 1.0, -0.5)


def test_range_escape_raises():
    F = power_law_flux(2.0, M=1.0)
    # value would be (100)^{1/2} / 1 = 10 >> M
    with pytest.raises(NumericsError):
        fan(F, ZERO, 100.0, 1.0)
    F = user_flux(lambda u: np.cosh(u) - 1.0, np.sinh, M=1.0)
    with pytest.raises(NumericsError):
        fan_profile_rootfind(F, ZERO, 1e6, 1.0)


@pytest.mark.parametrize("source", [ZERO, SourceProfile.constant(-0.5)], ids=["zero", "decaying"])
def test_power_law_profile_past_the_flux_limit_raises(source):
    # a fan centered at 0 on [0, 4] reaches V(4, 1) = 2 G^(-1/2) > M exp(-min B):
    # both the evaluator and the sampler refuse it instead of returning it
    F = power_law_flux(2.0, M=1.0)
    profile = PiecewiseProfile(flux=F, source=source, time=1.0, ends=(0.0, 4.0), fan=(True,), anchor=(0.0,))
    with pytest.raises(NumericsError, match="escapes the flux interval"):
        profile.evaluate(np.linspace(0.0, 4.0, 5))
    with pytest.raises(NumericsError, match="escapes the flux interval"):
        sample_profile(profile)
    # the part of the fan within the flux interval evaluates
    assert profile(0.25) == pytest.approx(0.5 * source.effective_time(2.0, 1.0) ** -0.5 * math.exp(source.cumulative_source(1.0)))


@pytest.mark.parametrize("alpha", ["zero", "pw:0:-0.3,0.5:0.2"])
def test_general_flux_values_are_the_root_search(alpha):
    source = parse_alpha(alpha)
    offsets = np.array([-0.02, -1e-3, -0.0, 0.0, 1e-9, 4e-3, 0.02])
    got = fan_values(ASYM, source, offsets, 1.5)
    want = np.array([fan_profile_rootfind(ASYM, source, z, 1.5) for z in offsets.tolist()])
    assert got.tobytes() == want.tobytes()
    assert got[2] == got[3] == 0.0
    assert fan_values(ASYM, source, np.empty(0), 1.5).shape == (0,)


@pytest.mark.parametrize("t", [0.3, 0.9, 2.5])  # first piece, last piece, past the last breakpoint
def test_source_time_integral_matches_effective_time(t):
    src = SourceProfile.piecewise([0.0, 0.5, 1.2], [0.4, -1.0, 0.3])
    for p in (1.0, 2.0, 3.5):
        value = source_time_integral(src, lambda e, p=p: e**p, t, 1e-14)
        assert value == pytest.approx(src.effective_time(p, t), rel=1e-12)


INCREASING = {
    "cube": lambda x: x**3,
    "fifth power": lambda x: x**5 + x,
    "exp": math.exp,
    "kinked": lambda x: 0.01 * x if x < 0.3 else 5.0 * x - 1.497,
    "steep tanh": lambda x: math.tanh(40.0 * x),
}


@given(
    name=st.sampled_from(sorted(INCREASING)),
    ends=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2, unique=True),
    frac=st.floats(0.0, 1.0),
    xtol=st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]),
)
@example(name="cube", ends=[0.0, 2.0], frac=2.0 ** (-2.0 / 3.0), xtol=0.0)
@example(name="cube", ends=[0.0, 2.0], frac=2.0 ** (-2.0 / 3.0), xtol=1e-3)
@settings(max_examples=300, deadline=None)
def test_bisect_increasing(name, ends, frac, xtol):
    fun = INCREASING[name]
    lo, hi = sorted(ends)
    target = fun(min(hi, lo + frac * (hi - lo)))
    calls = []

    def counted(x):
        calls.append(x)
        return fun(x)

    root = bisect_increasing(counted, lo, hi, target, xtol)
    assert lo <= root <= hi
    if xtol > 0.0:
        # within xtol of a bracketing pair, in at most ITP's worst case
        assert fun(max(lo, root - xtol)) <= target <= fun(min(hi, root + xtol))
        assert len(calls) <= max(0, math.ceil(math.log2((hi - lo) / xtol))) + fanprofile._ITP_N0 + 2
    else:
        # bracket collapse: the neighbouring floats bracket the target
        assert fun(max(lo, math.nextafter(root, -math.inf))) <= target
        assert target <= fun(min(hi, math.nextafter(root, math.inf)))
    # the two end values are evaluated once each, in the bracket check
    assert calls.count(lo) == 1 and calls.count(hi) == 1
    # an exact hit at an end is returned at once, the lower end first
    assert bisect_increasing(fun, lo, hi, fun(lo), xtol) == lo
    assert bisect_increasing(fun, lo, hi, fun(hi), xtol) == (lo if fun(lo) == fun(hi) else hi)
    with pytest.raises(NumericsError):  # target above the bracket
        bisect_increasing(fun, lo, hi, fun(hi) + 1.0, xtol)
    with pytest.raises(NumericsError):  # target below the bracket
        bisect_increasing(fun, lo, hi, fun(lo) - 1.0, xtol)


ASYM = user_flux(
    lambda u: np.where(u >= 0, u**4 / 4.0 + u**5 / 5.0, u**4 / 4.0),
    lambda u: np.where(u >= 0, u**3 + u**4, u**3),
    M=0.9,
)


@pytest.mark.parametrize(
    "source", [ZERO, SourceProfile.piecewise([0.0, 0.5], [0.4, -0.8])], ids=["zero", "two-piece"]
)
def test_rootfind_evaluation_count(source, monkeypatch):
    # bisection takes 41 halvings plus the 2 bracket checks at every point
    calls = []

    def counted(*args):
        calls.append(args)
        return slope_time_integral(*args)

    monkeypatch.setattr(fanprofile, "slope_time_integral", counted)
    counts = []
    for t in (0.3, 1.0, 1.4):
        limit = ASYM.M * math.exp(-source.min_cumulative_source(t))  # the bracket is [-limit, limit]
        worst = math.ceil(math.log2(2.0 * limit / fanprofile._ROOT_TOL)) + fanprofile._ITP_N0 + 2
        for x in np.linspace(-0.3, 0.3, 24):
            calls.clear()
            try:
                v = fan_profile_rootfind(ASYM, source, float(x), t)
            except NumericsError:  # offsets the fan cannot reach at this time
                pass
            else:
                assert slope_time_integral(ASYM, source, v, t) == pytest.approx(x, abs=1e-11)
            assert len(calls) <= worst
            counts.append(len(calls))
    assert np.median(counts) <= 22


@pytest.mark.parametrize("alpha", ["zero", "pw:0:0.4,0.5:-0.8"])
def test_unreachable_offset_fails_at_the_bracket(alpha, monkeypatch):
    # x = -0.3 lies beyond the fan at t = 0.3 for either source: one error,
    # from the bracket check, without a root search
    calls = []

    def counted(*args):
        calls.append(args)
        return slope_time_integral(*args)

    monkeypatch.setattr(fanprofile, "slope_time_integral", counted)
    with pytest.raises(NumericsError, match=r"offset -0.3 escapes the flux interval \(limit 0.9\)"):
        fan_profile_rootfind(ASYM, parse_alpha(alpha), -0.3, 0.3)
    assert len(calls) <= 2


def test_flux_limit_past_float64_is_a_numerics_error():
    # a source decaying by e^-800 puts the bracket M e^800 past float64: the
    # general-flux fan names min B instead of ending in an OverflowError
    F = user_flux(lambda u: np.cosh(u) - 1.0, np.sinh, M=1.0)
    with pytest.raises(NumericsError, match=r"overflows float64 .*min B = -800\.0"):
        fan_values(F, SourceProfile.constant(-800.0), [0.01], 1.0)


def test_power_law_refusal_under_strong_decay_builds_its_message():
    # |V| e^(min B) = 6e307 e^-710 > M = 1e-3: refused, and the message is
    # built from M and min B, not from the overflowing limit M e^710
    F = power_law_flux(1.01, M=1e-3)
    with pytest.raises(NumericsError, match=r"escapes the flux interval .*min B = -710\.0"):
        fan_values(F, SourceProfile.constant(-710.0), [1e308], 1.0)
