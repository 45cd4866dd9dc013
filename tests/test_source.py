import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracbv import ConfigError, SourceProfile, parse_alpha

ZERO = SourceProfile.zero()
CONST_M1 = SourceProfile.constant(-1.0)
PW = SourceProfile.piecewise([0.0, 1.0], [1.0, 0.0])


def quad_effective_time(src, p, t):
    """Independent quadrature for the exponential time integral."""
    val, err = quad(lambda th: math.exp(p * src.cumulative_source(th)), 0.0, t,
                    points=[b for b in src.breakpoints if 0 < b < t], limit=200)
    assert err < 1e-12
    return val


def test_cumulative_source_examples():
    assert ZERO.cumulative_source(5.0) == 0.0
    assert CONST_M1.cumulative_source(2.0) == -2.0
    assert PW.cumulative_source(3.0) == 1.0


def test_cumulative_source_lipschitz_and_lower_bound():
    rng = np.random.default_rng(0)
    for src in (ZERO, CONST_M1, PW, SourceProfile.piecewise([0, 0.5, 2], [2, -3, 0.5])):
        ts = rng.uniform(0, 5, size=50)
        for t1, t2 in zip(ts[:-1], ts[1:]):
            gap = abs(src.cumulative_source(t1) - src.cumulative_source(t2))
            assert gap <= src.sup_norm * abs(t1 - t2) + 1e-12
        for t in ts:
            assert src.cumulative_source(t) >= -t * src.sup_norm - 1e-12


def test_effective_time_examples():
    assert ZERO.effective_time(2.0, 0.4) == pytest.approx(0.4, abs=1e-15)
    # constant coefficient: (e^{p a t} - 1) / (p a)
    for a, p, t in [(-1.0, 2.0, 1.0), (0.7, 3.0, 0.3), (-0.5, 1.0, 2.0)]:
        src = SourceProfile.constant(a)
        expected = math.expm1(p * a * t) / (p * a)
        assert src.effective_time(p, t) == pytest.approx(expected, rel=1e-14)
        assert src.effective_time(p, t) == pytest.approx(
            quad_effective_time(src, p, t), rel=1e-12
        )


def test_effective_time_piecewise_vs_quadrature():
    src = SourceProfile.piecewise([0.0, 0.5, 1.25], [1.0, -2.0, 0.25])
    for p in (1.0, 2.0):
        for t in (0.3, 0.5, 0.8, 2.0):
            assert src.effective_time(p, t) == pytest.approx(
                quad_effective_time(src, p, t), rel=1e-12
            )


def test_effective_time_limit():
    assert ZERO.effective_time_limit(2.0) == math.inf
    assert CONST_M1.effective_time_limit(2.0) == pytest.approx(0.5, rel=1e-15)
    assert SourceProfile.constant(1.0).effective_time_limit(2.0) == math.inf
    # last piece nonnegative => infinite even after a decaying head
    assert SourceProfile.piecewise([0, 1], [-3, 0]).effective_time_limit(2.0) == math.inf
    src = SourceProfile.piecewise([0.0, 1.0], [1.0, -1.0])
    head = src.effective_time(2.0, 1.0)
    expected = head + math.exp(2.0) / 2.0
    assert src.effective_time_limit(2.0) == pytest.approx(expected, rel=1e-14)


def test_effective_time_limit_is_monotone_sup():
    src = SourceProfile.constant(-1.0)
    assert src.effective_time(2.0, 50.0) == pytest.approx(0.5, rel=1e-12)
    assert src.effective_time(2.0, math.inf) == 0.5


def test_inverse_examples():
    assert ZERO.effective_time_inverse(2.0, 0.4) == pytest.approx(0.4, abs=1e-15)
    assert CONST_M1.effective_time_inverse(2.0, 1.0) == math.inf
    assert CONST_M1.effective_time_inverse(2.0, 0.5) == math.inf  # target == limit
    assert CONST_M1.effective_time_inverse(2.0, 0.25) == pytest.approx(
        -math.log(0.5) / 2.0, rel=1e-13
    )


@given(
    target=st.floats(min_value=1e-6, max_value=3.0),
    p=st.floats(min_value=1.0, max_value=4.0),
)
@settings(max_examples=60, deadline=None)
def test_inverse_round_trip(target, p):
    src = SourceProfile.piecewise([0.0, 0.7, 1.5], [0.4, -1.2, 0.1])
    t = src.effective_time_inverse(p, target)
    assert src.effective_time(p, t) == pytest.approx(target, rel=1e-10, abs=1e-12)


def test_monotone_in_time():
    rng = np.random.default_rng(1)
    src = SourceProfile.piecewise([0.0, 0.5], [1.0, -2.0])
    ts = np.sort(rng.uniform(0, 4, size=40))
    vals = [src.effective_time(2.0, t) for t in ts]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_derivative_consistency():
    # d/dt of the effective time is exp(p B(t)), away from breakpoints
    src = SourceProfile.piecewise([0.0, 0.5, 1.25], [1.0, -2.0, 0.25])
    p = 2.0
    for t in (0.2, 0.7, 1.0, 1.5, 2.5):
        h = 1e-6
        fd = (src.effective_time(p, t + h) - src.effective_time(p, t - h)) / (2 * h)
        expected = math.exp(p * src.cumulative_source(t))
        assert fd == pytest.approx(expected, rel=1e-6)


def test_validation_errors():
    with pytest.raises(ValueError):
        SourceProfile.piecewise([0.5, 1.0], [1.0, 2.0])  # must start at 0
    with pytest.raises(ValueError):
        SourceProfile.piecewise([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ZERO.cumulative_source(-1.0)
    with pytest.raises(ValueError):
        ZERO.effective_time(0.5, 1.0)
    with pytest.raises(ValueError):
        ZERO.effective_time_inverse(2.0, -0.1)


def test_config_round_trip():
    # a source survives its --alpha spec exactly
    assert parse_alpha("zero") == ZERO
    assert parse_alpha("constant:-1") == CONST_M1
    assert parse_alpha("pw:0:1,1:0") == PW
    assert parse_alpha("pw:0:1,1:0").cumulative_source(3.0) == 1.0
    src = SourceProfile.piecewise([0.0, 0.1, 2.0 / 3.0], [-0.3, 1e-17, math.pi])
    spec = "pw:" + ",".join(f"{b!r}:{v!r}" for b, v in zip(src.breakpoints, src.values))
    assert parse_alpha(spec) == src  # every float survives the spec exactly
    for bad in ("", "nope", "constant", "constant:x", "pw:0", "pw:0:1,1", "pw:1:0", "pw:0:1,0:2"):
        with pytest.raises(ConfigError):
            parse_alpha(bad)


@pytest.mark.parametrize("breakpoints, values", [([0.0], [math.nan]), ([0.0, math.inf], [1.0, 0.0]), ([0.0, 1.0], [0.0, -math.inf])])
def test_non_finite_profile_rejected(breakpoints, values):
    with pytest.raises(ValueError, match="finite"):
        SourceProfile.piecewise(breakpoints, values)
