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
