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



def test_inverse_of_a_target_rounding_onto_a_piece_end():
    # the closed form's log1p argument rounds to -1 at the end of the
    # saturated first piece, just below the limit
    src = SourceProfile.piecewise([0.0, 1.0], [-40.0, -0.5])
    target = src.effective_time(1.0, 1.0)
    assert target == 0.025 < src.effective_time_limit(1.0)
    assert src.effective_time_inverse(1.0, target) == 1.0

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


# The primitives as they were before the piece table: a generator of
# (left, value, right) walked from the left on every call.  Oracles for
# the table, which must give the same floats bit for bit.


def _old_pieces(src):
    for i, (left, value) in enumerate(zip(src.breakpoints, src.values)):
        right = src.breakpoints[i + 1] if i + 1 < len(src.breakpoints) else math.inf
        yield left, value, right


def _old_exp_linear_integral(p, b0, slope, span):
    if span <= 0.0:
        return 0.0
    scale = math.exp(p * b0)
    if math.isinf(span):
        return math.inf if slope >= 0.0 else scale / (p * abs(slope))
    if slope == 0.0:
        return scale * span
    return scale * math.expm1(p * slope * span) / (p * slope)


def old_cumulative_source(src, t):
    total = 0.0
    for left, value, right in _old_pieces(src):
        if t <= left:
            break
        total += value * (min(t, right) - left)
    return total


def old_min_cumulative_source(src, t):
    candidates = [0.0, old_cumulative_source(src, t)]
    for b in src.breakpoints:
        if 0.0 < b < t:
            candidates.append(old_cumulative_source(src, b))
    return min(candidates)


def old_effective_time(src, p, t):
    if math.isinf(t):
        return old_effective_time_limit(src, p)
    total = 0.0
    b_left = 0.0
    for left, value, right in _old_pieces(src):
        if t <= left:
            break
        span = min(t, right) - left
        total += _old_exp_linear_integral(p, b_left, value, span)
        b_left += value * (right - left) if right < t else 0.0
    return total


def old_effective_time_limit(src, p):
    last_value = src.values[-1]
    if last_value >= 0.0:
        return math.inf
    last_left = src.breakpoints[-1]
    head = old_effective_time(src, p, last_left) if last_left > 0.0 else 0.0
    b_last = old_cumulative_source(src, last_left)
    return head + math.exp(p * b_last) / (p * abs(last_value))


def old_effective_time_inverse(src, p, target):
    if target == 0.0:
        return 0.0
    if target >= old_effective_time_limit(src, p):
        return math.inf
    acc = 0.0
    b_left = 0.0
    for left, value, right in _old_pieces(src):
        width = right - left
        piece = _old_exp_linear_integral(p, b_left, value, width)
        if acc + piece >= target or math.isinf(right):
            remainder = target - acc
            scale = math.exp(p * b_left)
            if value == 0.0:
                return left + remainder / scale
            arg = remainder * p * value / scale
            return left + math.log1p(arg) / (p * value)
        acc += piece
        b_left += value * width
    raise AssertionError("unreachable")


def same_float(a, b):
    """Equal bit for bit (so 0.0 differs from -0.0); NaN matches NaN."""
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


TABLE_SOURCES = [
    ZERO,
    CONST_M1,
    SourceProfile.constant(0.35),
    PW,
    SourceProfile.piecewise([0.0, 0.5, 1.25], [1.0, -2.0, 0.25]),
    SourceProfile.piecewise([0.0, 0.1, 2.0 / 3.0, 1.7], [-0.3, 1e-17, math.pi, -0.45]),
    SourceProfile.piecewise([0.0, 0.3, 0.7], [-0.3, 0.2, -0.5]),
]


def table_times(src):
    """0, each breakpoint and one ulp either side, points inside pieces, inf."""
    times = {0.0, math.inf, 1e-300, 5.0, 40.0}
    for b in src.breakpoints:
        times.update({b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)})
    for left, right in zip(src.breakpoints, (*src.breakpoints[1:], 3.0)):
        times.update({left + 0.25 * (right - left), 0.5 * (left + right)})
    return sorted(t for t in times if t >= 0.0)


@pytest.mark.parametrize("src", TABLE_SOURCES, ids=range(len(TABLE_SOURCES)))
def test_piece_table_matches_generator_primitives(src):
    for t in table_times(src):
        assert same_float(src.cumulative_source(t), old_cumulative_source(src, t)), t
        assert same_float(src.min_cumulative_source(t), old_min_cumulative_source(src, t)), t
        for p in (1.0, 1.5, 2.0, 3.7):
            assert same_float(src.effective_time(p, t), old_effective_time(src, p, t)), (p, t)
    for p in (1.0, 1.5, 2.0, 3.7):
        limit = old_effective_time_limit(src, p)
        assert same_float(src.effective_time_limit(p), limit)
        targets = {old_effective_time(src, p, t) for t in table_times(src)} | {limit}
        targets |= {math.nextafter(g, d) for g in set(targets) for d in (-math.inf, math.inf)}
        for g in sorted(g for g in targets if g >= 0.0):
            assert same_float(src.effective_time_inverse(p, g), old_effective_time_inverse(src, p, g)), (p, g)


@pytest.mark.parametrize(
    "src",
    [
        ZERO,
        SourceProfile.constant(-0.2),
        SourceProfile.piecewise([0.0, 0.3, 0.7, 1.2], [-0.3, 0.2, 0.4, -0.5]),
        # the tail after the first piece adds nothing to the limit in float64
        SourceProfile.piecewise([0.0, 1.0], [-40.0, -0.5]),
    ],
    ids=["zero", "constant", "four-piece", "saturating"],
)
def test_interaction_times_need_no_separate_limit(src, monkeypatch):
    from fracbv import power_law_family

    for p in (1.5, 2.0, 3.0):
        limit = src.effective_time_limit(p)
        if math.isfinite(limit):
            assert src.effective_time_inverse(p, limit) == math.inf
            assert src.effective_time_inverse(p, math.nextafter(limit, 0.0)) < math.inf
    monkeypatch.setattr(SourceProfile, "effective_time_limit", None)  # no call left
    for p in (1.5, 2.0, 3.0):
        for P in power_law_family(p, src, 300).packets:
            assert same_float(P.t_n, old_effective_time_inverse(src, p, P.dx / P.delta**p)), (p, P.x_n)


def test_piece_table_leaves_equality_and_hash_alone():
    src = SourceProfile.piecewise([0.0, 0.5], [1.0, -2.0])
    twin = SourceProfile.piecewise([0.0, 0.5], [1.0, -2.0])
    assert src == twin and hash(src) == hash(twin)
    assert src != SourceProfile.piecewise([0.0, 0.5], [1.0, -1.0])
    assert src.pieces == ((0.0, 1.0, 0.5, 0.0), (0.5, -2.0, math.inf, 0.5))
    assert repr(src) == "SourceProfile(breakpoints=(0.0, 0.5), values=(1.0, -2.0))"


@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_time_outside_the_domain_rejected(t):
    for method in (PW.cumulative_source, PW.min_cumulative_source, lambda t: PW.effective_time(2.0, t)):
        with pytest.raises(ValueError, match="non-negative"):
            method(t)
