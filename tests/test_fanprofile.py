import math

import numpy as np
import pytest

from fracbv import (
    FanContext,
    NumericsError,
    SourceProfile,
    fan_profile,
    fan_profile_rootfind,
    power_law_flux,
    slope_time_integral,
    slope_time_integral_numeric,
    user_flux,
)
from fracbv.fanprofile import bisect_increasing, source_time_integral

ZERO = SourceProfile.zero()


def make_ctx(p, source=ZERO, M=3.0):
    return FanContext(flux=power_law_flux(p, M=M), source=source)


def test_power_law_closed_form_examples():
    ctx = make_ctx(2.0)
    assert fan_profile(ctx, 4.0, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert fan_profile(ctx, 0.0, 1.0) == 0.0
    src = SourceProfile.constant(-1.0)
    ctx2 = make_ctx(2.0, src)
    t_star = math.log(2.0) / 2.0  # effective time 0.25
    assert fan_profile(ctx2, 0.25, t_star) == pytest.approx(1.0, rel=1e-13)


def test_rootfind_agrees_with_closed_form():
    rng = np.random.default_rng(11)
    for p in (1.0, 2.0, 3.0):
        for source in (ZERO, SourceProfile.constant(-1.0), SourceProfile.piecewise([0, 0.5], [1, -1])):
            ctx = FanContext(flux=power_law_flux(p, M=2.0), source=source)
            for _ in range(20):
                t = rng.uniform(0.05, 2.0)
                w = rng.uniform(-1.9, 1.9)
                x = slope_time_integral(ctx.flux, source, w, t)
                assert fan_profile_rootfind(ctx, x, t) == pytest.approx(
                    fan_profile(ctx, x, t), abs=1e-10
                )


def test_residual_small():
    rng = np.random.default_rng(5)
    src = SourceProfile.piecewise([0, 0.5], [1, -1])
    ctx = FanContext(flux=power_law_flux(2.0, M=2.0), source=src)
    for _ in range(50):
        t = rng.uniform(0.05, 2.0)
        w = rng.uniform(-1.9, 1.9)
        x = slope_time_integral(ctx.flux, src, w, t)
        v = fan_profile(ctx, x, t)
        assert abs(x - slope_time_integral_numeric(ctx.flux, src, v, t)) < 1e-10 * (1.0 + abs(x))


def test_monotone_in_position():
    rng = np.random.default_rng(9)
    ctx = make_ctx(2.0)
    for _ in range(200):
        t = rng.uniform(0.05, 3.0)
        xmax = (0.9 * ctx.flux.M) ** 2 * ctx.source.effective_time(2.0, t)
        x1, x2 = np.sort(rng.uniform(-xmax, xmax, size=2))
        if x1 == x2:
            continue
        assert fan_profile(ctx, x1, t) < fan_profile(ctx, x2, t)


def test_holder_bound_random_triples():
    # |V(z1) - V(z2)| <= (|z1 - z2| / (c0 G_p(t)))^(1/p), G_p the effective time
    rng = np.random.default_rng(23)
    for p, source in ((2.0, ZERO), (3.0, SourceProfile.constant(-0.5))):
        ctx = FanContext(flux=power_law_flux(p, M=2.0), source=source)
        c0 = ctx.flux.degeneracy.c0
        for _ in range(2500):
            t = rng.uniform(0.05, 2.0)
            g = source.effective_time(p, t)
            zmax = (0.9 * ctx.flux.M) ** p * g
            z1, z2 = rng.uniform(-zmax, zmax, size=2)
            lhs = abs(fan_profile(ctx, z1, t) - fan_profile(ctx, z2, t))
            rhs = (abs(z1 - z2) / (c0 * g)) ** (1.0 / p)
            assert lhs <= rhs + 1e-12


def test_user_flux_path_and_residual():
    # smooth strictly convex non-power-law flux
    F = user_flux(lambda u: np.cosh(u) - 1.0, np.sinh, M=2.0)
    ctx = FanContext(flux=F, source=SourceProfile.constant(-0.5))
    t = 0.8
    x = slope_time_integral_numeric(F, ctx.source, 0.9, t)
    v = fan_profile(ctx, x, t)
    assert v == pytest.approx(0.9, abs=1e-9)
    assert abs(x - slope_time_integral_numeric(F, ctx.source, v, t)) < 1e-9


def test_time_domain_errors():
    ctx = make_ctx(2.0)
    with pytest.raises(ValueError):
        fan_profile(ctx, 1.0, 0.0)
    with pytest.raises(ValueError):
        fan_profile(ctx, 1.0, -0.5)


def test_range_escape_raises():
    ctx = make_ctx(2.0, M=1.0)
    # value would be (100)^{1/2} / 1 = 10 >> M
    with pytest.raises(NumericsError):
        fan_profile(ctx, 100.0, 1.0)
    F = user_flux(lambda u: np.cosh(u) - 1.0, np.sinh, M=1.0)
    with pytest.raises(NumericsError):
        fan_profile_rootfind(FanContext(flux=F, source=ZERO), 1e6, 1.0)


@pytest.mark.parametrize("t", [0.3, 0.9, 2.5])  # first piece, last piece, past the last breakpoint
def test_source_time_integral_matches_effective_time(t):
    src = SourceProfile.piecewise([0.0, 0.5, 1.2], [0.4, -1.0, 0.3])
    for p in (1.0, 2.0, 3.5):
        value = source_time_integral(src, lambda e, p=p: e**p, t, 1e-14)
        assert value == pytest.approx(src.effective_time(p, t), rel=1e-12)


def test_bisect_increasing():
    root = bisect_increasing(lambda x: x**3, 0.0, 2.0, 2.0)
    assert abs(root - 2.0 ** (1.0 / 3.0)) <= 2.0 * np.spacing(root)
    coarse = bisect_increasing(lambda x: x**3, 0.0, 2.0, 2.0, xtol=1e-3)
    assert abs(coarse - 2.0 ** (1.0 / 3.0)) <= 1e-3
    with pytest.raises(NumericsError):
        bisect_increasing(lambda x: x**3, 0.0, 1.0, 2.0)  # target above the bracket
    with pytest.raises(NumericsError):
        bisect_increasing(lambda x: x**3, 1.0, 2.0, 0.5)  # target below the bracket
