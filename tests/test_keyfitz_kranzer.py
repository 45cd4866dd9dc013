import json
import math
import tracemalloc

import numpy as np
import pytest

from fracbv import keyfitz_kranzer as kk
from fracbv.cli import main


def dense_grids(setup, res):
    """The res x res grids, evaluated point by point over the whole square."""
    centers, _ = kk.grid_axes(setup, res)
    X, Y = np.meshgrid(centers, centers)
    return kk.modulus_at(setup, X, Y), kk.direction_at(setup, X, Y)


def reference_point(setup, x, y):
    """(modulus, direction) at one point, from the construction as documented.

    Band i holds y in [2^-i, 2^-i+1), i = n..i_max; it is cut into m_i strips
    j = 1..m_i of height 2^-i / m_i, odd strips carrying the bump r_(i+1) and
    even ones r_i; the direction is rotated on the odd x-checker cells
    floor(x 2^i).  Outside the bands, and where |x| > M, the data is b.
    """
    if not (abs(x) <= setup.M and 0.0 < y):
        return setup.b_norm, setup.beta
    i = 1 - math.frexp(y)[1]
    base = math.ldexp(1.0, -i)
    if not (setup.n <= i <= setup.i_max and base <= y < 2.0 * base):
        return setup.b_norm, setup.beta
    m = setup.strip_count_int(i)
    j = min(max(math.floor((y - base) * m / base) + 1, 1), m)
    modulus = setup.b_norm + setup.bump(i if j % 2 == 0 else i + 1)
    odd_cell = math.floor(math.ldexp(x, i)) % 2 == 1
    return modulus, setup.rotated_direction(i) if odd_cell else setup.beta


def assert_matches_reference(setup, xs, ys):
    xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    want = [reference_point(setup, x, y) for x, y in zip(xs.ravel().tolist(), ys.ravel().tolist())]
    eta = np.array([w[0] for w in want]).reshape(xs.shape)
    omega = np.array([w[1] for w in want]).reshape(xs.shape + (2,))
    assert np.array_equal(kk.modulus_at(setup, xs, ys), eta)
    assert np.array_equal(kk.direction_at(setup, xs, ys), omega)


def around(values):
    """Each value and its float neighbours on both sides."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def dense_bv_norm(grid, box):
    """The grid BV seminorm differenced over the whole dense grid, each sum exactly rounded."""
    x_lo, x_hi, y_lo, y_hi = box
    if grid.ndim == 2:
        grid = grid[..., None]
    ny, nx = grid.shape[:2]
    jumps_x = np.sqrt(np.sum(np.diff(grid, axis=1) ** 2, axis=-1))
    jumps_y = np.sqrt(np.sum(np.diff(grid, axis=0) ** 2, axis=-1))
    sum_x, sum_y = math.fsum(jumps_x.ravel().tolist()), math.fsum(jumps_y.ravel().tolist())
    return float(sum_x * ((y_hi - y_lo) / ny) + sum_y * ((x_hi - x_lo) / nx))


def resolved_res(setup):
    """The fewest cells across that pass ``check_resolution``."""
    finest = min(2.0 ** (-setup.i_max) / setup.strip_count_int(setup.i_max), 2.0 ** (-setup.i_max))
    return math.ceil(4.0 * setup.M / (finest / 4.0))


def random_setups(count, max_res=1200):
    """Seeded random setups with n in 1..2, i_max in 1..3 and a resolved res."""
    rng = np.random.default_rng(20240223)
    setups = []
    while len(setups) < count:
        n = int(rng.integers(1, 3))
        i_max = int(rng.integers(n, 4))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        norm = rng.uniform(1.0, 2.0)
        setup = kk.KKSetup(
            p=float(rng.uniform(1.05, 2.0)),
            delta=float(rng.uniform(0.05, 0.3)),
            b=(norm * math.cos(angle), norm * math.sin(angle)),
            n=n,
            i_max=i_max,
            M=float(rng.uniform(1.2, 2.0)),
        )
        res = resolved_res(setup) + int(rng.integers(0, 60))
        if res <= max_res:
            setups.append(pytest.param(setup, res, id=f"n{n}-imax{i_max}-res{res}"))
    return setups


CASES = random_setups(8)


def box(setup):
    return (-2 * setup.M, 2 * setup.M, -2 * setup.M, 2 * setup.M)


@pytest.mark.parametrize("setup, res", CASES)
def test_rows_expand_to_the_dense_grids(setup, res):
    eta, omega, rows = kk.build_initial_data(setup, res)
    eta_dense, omega_dense = dense_grids(setup, res)
    assert np.array_equal(eta[rows], eta_dense)
    assert np.array_equal(omega[rows], omega_dense)
    # one row outside the bands, and one per strip parity in each band
    bands = range(setup.n, setup.i_max + 1)
    assert eta.shape == (1 + sum(min(2, setup.strip_count_int(i)) for i in bands), res)
    assert omega.shape == eta.shape + (2,)


@pytest.mark.parametrize("setup, res", CASES)
def test_norms_from_rows_equal_the_dense_norms(setup, res):
    eta, omega, rows = kk.build_initial_data(setup, res)
    eta_dense, omega_dense = dense_grids(setup, res)
    b = np.asarray(setup.b, dtype=float)
    u0 = eta[..., None] * omega - b
    u0_dense = eta_dense[..., None] * omega_dense - b
    assert kk.bv_grid_norm(u0, rows, box(setup)) == dense_bv_norm(u0_dense, box(setup))
    assert kk.bv_grid_norm(eta, rows, box(setup)) == dense_bv_norm(eta_dense, box(setup))
    sup = lambda u: float(np.max(np.sqrt(np.sum(u**2, axis=-1))))
    assert sup(u0) == sup(u0_dense)


SMALL_B = kk.KKSetup(p=2.0, delta=0.1, b=(0.6, 0.0), n=2, i_max=3)


@pytest.mark.parametrize("setup", [c.values[0] for c in CASES] + [SMALL_B])
def test_lookup_equals_the_reference_at_random_points(setup):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1.2 * setup.M, 1.2 * setup.M, 3000)
    ys = np.concatenate([rng.uniform(-0.1, 1.1, 1500), 2.0 ** rng.uniform(-setup.i_max - 2, 1.0, 1500)])
    assert_matches_reference(setup, xs, ys)


@pytest.mark.parametrize("setup", [c.values[0] for c in CASES] + [SMALL_B])
def test_lookup_equals_the_reference_on_edges(setup):
    rng = np.random.default_rng(8)
    bands = range(setup.n, setup.i_max + 1)
    # |x| = M, the checker lines k 2^-i, every 2^-i, the strip ends, subnormal y
    reach = [math.ceil(setup.M * 2**i) for i in bands]
    checker = [math.ldexp(k, -i) for i, r in zip(bands, reach) for k in range(-r, r + 1)]
    edge_xs = around([setup.M, -setup.M, 0.0, *checker])
    counts = [setup.strip_count_int(i) for i in bands]
    strip_ends = [math.ldexp(1.0 + j / m, -i) for i, m in zip(bands, counts) for j in range(m + 1)]
    powers = [math.ldexp(1.0, -i) for i in range(setup.i_max + 3)]
    edge_ys = np.concatenate([around(strip_ends + powers), [5e-324, 1e-310, 2.2250738585072014e-308, 0.0, -0.0]])
    band_ys = np.ldexp(rng.uniform(1.0, 2.0, (3, len(bands))), -np.array(bands)).ravel()
    assert_matches_reference(setup, edge_xs[:, None], band_ys)
    assert_matches_reference(setup, np.append(rng.uniform(-setup.M, setup.M, 5), 0.0)[:, None], edge_ys)


def test_non_finite_and_huge_points_take_b():
    setup = kk.KKSetup(p=2.0, delta=0.1, n=1, i_max=3)
    far_xs = np.array([1e300, -1e300, np.inf, -np.inf, np.nan])[:, None]
    off_ys = np.array([1e300, np.inf, np.nan, -1.0, 0.0])
    for xs, ys in ((far_xs, np.append(off_ys, 0.75)), (0.5, off_ys)):
        eta, omega = kk.modulus_at(setup, xs, ys), kk.direction_at(setup, xs, ys)
        assert np.all(eta == setup.b_norm)
        assert np.all(omega == setup.beta)
        assert_matches_reference(setup, xs, ys)


def test_lookup_needs_only_the_bumps_of_bands_n_to_i_max_plus_1():
    # bump(1) = 1/2 would exceed |b|/2 = 0.3, but band 1 is not in the data
    assert kk.modulus_at(SMALL_B, [0.1], [0.2]).tolist() == [0.6625]


def test_dense_grid_is_the_identity_row_index():
    grid = np.random.default_rng(3).normal(size=(37, 29, 2))
    rows = np.arange(grid.shape[0])
    area = (-1.0, 2.0, -0.5, 0.25)
    assert kk.bv_grid_norm(grid, rows, area) == dense_bv_norm(grid, area)


def test_unevenly_repeated_rows_equal_the_dense_grid():
    rng = np.random.default_rng(11)
    grid = rng.normal(size=(6, 41, 2))
    # 30 runs of 1 to 40 equal rows: rows and adjacent pairs occur 1 to 237 times
    rows = np.repeat(rng.integers(0, 6, size=30), rng.integers(1, 41, size=30))
    area = (-3.0, 1.5, 0.0, 7.0)
    assert kk.bv_grid_norm(grid, rows, area) == dense_bv_norm(grid[rows], area)
    assert kk.bv_grid_norm(grid[..., 0], rows, area) == dense_bv_norm(grid[rows][..., 0], area)


def test_norm_memory_does_not_grow_with_the_dense_grid():
    setup = kk.KKSetup(p=2.0, delta=0.1, n=1, i_max=2)
    eta, omega, rows = kk.build_initial_data(setup, 2048)
    u0 = eta[..., None] * omega - np.asarray(setup.b, dtype=float)
    tracemalloc.start()
    try:
        kk.bv_grid_norm(u0, rows, box(setup))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense (2048, 2047) float array alone is 32 MiB
    assert peak < 4 * 2**20


def test_grid_of_2_to_the_26_rows_is_refused():
    rows = np.broadcast_to(np.int64(0), (2**26,))
    with pytest.raises(ValueError, match="fewer than 2\\^26"):
        kk.bv_grid_norm(np.zeros((1, 3)), rows, (0.0, 1.0, 0.0, 1.0))


def test_cli_norm_at_the_default_imax(tmp_path):
    setup = kk.KKSetup(p=2.0, delta=0.1, n=1, i_max=4)
    res = resolved_res(setup)
    out = tmp_path / "kk.json"
    argv = ["kk", "--p", "2", "--delta", "0.1", "--n", "1", "--t", "0.5", "--Ni", "20"]
    assert main([*argv, "--res", str(res), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "grid" not in payload
    assert math.isfinite(payload["bv_norm_u0_minus_b"]) and payload["bv_norm_u0_minus_b"] > 0.0


def test_unresolved_grid_is_refused(tmp_path):
    setup = kk.KKSetup(p=2.0, delta=0.1, n=1, i_max=2)
    res = resolved_res(setup)
    kk.check_resolution(setup, res)
    with pytest.raises(ValueError, match="cannot resolve the finest strips"):
        kk.check_resolution(setup, res - 1)
    with pytest.raises(ValueError, match="cannot resolve the finest strips"):
        kk.build_initial_data(setup, res - 1)
    out = tmp_path / "kk.json"
    argv = ["kk", "--p", "2", "--delta", "0.1", "--n", "1", "--imax", "2", "--t", "0.5"]
    assert main([*argv, "--res", str(res - 1), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["grid"].startswith("unresolved: grid of")
    assert "bv_norm_u0_minus_b" not in payload and "sup_distance" not in payload


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_jump_sum_lower_bound_is_the_closed_sum(t):
    setup = kk.KKSetup(p=2.0, delta=0.1, n=2, i_max=4)
    expo = 2.0 * 1.1
    sums = np.array([kk.jump_sum_lower_bound(setup, t, N_i) for N_i in range(400)])
    for N_i, got in enumerate(sums):
        want = t / 2.0 * math.fsum(1.0 - i ** -expo for i in range(2, 2 + N_i + 1))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    # the increments t/2 (1 - i^(-p(1+delta))) rise to t/2
    i = np.arange(3, 3 + sums.size - 1, dtype=float)
    increments = np.diff(sums)
    np.testing.assert_allclose(increments, t / 2.0 * (1.0 - i**-expo), rtol=0.0, atol=1e-12)
    gaps = t / 2.0 - increments
    assert np.all(gaps > 0.0) and gaps[-1] < 1e-4 * gaps[0]


@pytest.mark.parametrize("t, N_i", [(0.0, 3), (1.0, 3), (-0.5, 3), (1.5, 3), (math.nan, 3), (0.5, -1)])
def test_jump_sum_lower_bound_rejects_bad_arguments(t, N_i):
    from fracbv import ConfigError

    with pytest.raises(ConfigError):
        kk.jump_sum_lower_bound(kk.KKSetup(p=2.0, delta=0.1), t, N_i)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p=math.nan, delta=0.1),
        dict(p=math.inf, delta=0.1),
        dict(p=2.0, delta=math.nan),
        dict(p=2.0, delta=math.inf),
        dict(p=2.0, delta=0.1, b=(math.nan, 0.0)),
        dict(p=2.0, delta=0.1, b=(math.inf, 0.0)),
        dict(p=2.0, delta=0.1, M=math.nan),
        dict(p=2.0, delta=0.1, M=math.inf),
    ],
)
def test_setup_rejects_non_finite_parameters(kwargs):
    from fracbv import ConfigError

    with pytest.raises(ConfigError, match="finite"):
        kk.KKSetup(**kwargs)
