import math

import numpy as np
import pytest

from fracbv import (
    ConfigError,
    MeshRun,
    NumericsError,
    SourceProfile,
    cell_profile,
    flux_from_config,
    godunov_solve,
    l1_distance,
    make_packet,
    power_law_family,
    power_law_flux,
    user_flux,
)
from fracbv import godunov
from fracbv.godunov import godunov_flux

ZERO = SourceProfile.zero()


def step_cell_averages(run, pieces):
    """Exact cell averages of piecewise-constant data given as (a, b, value)."""
    lo, _ = run.domain
    xs_l = lo + np.arange(run.cells) * run.dx
    xs_r = xs_l + run.dx
    out = np.zeros(run.cells)
    for a, b, val in pieces:
        overlap = np.clip(np.minimum(xs_r, b) - np.maximum(xs_l, a), 0.0, None)
        out += val * overlap / run.dx
    return out


def packet_run(cells, t_end, snapshots):
    F = power_law_flux(2.0, M=0.5)
    P = make_packet(F, ZERO, 0.0, 0.1, 0.5)
    run = MeshRun(domain=(-0.2, 0.2), cells=cells, cfl=0.45, t_end=t_end, snapshots=snapshots)
    u0 = step_cell_averages(run, [(-0.1, 0.0, 0.5), (0.0, 0.1, -0.5)])
    return F, P, run, u0


def test_zero_state_is_fixed_point():
    F = power_law_flux(2.0, M=1.0)
    run = MeshRun(domain=(-1, 1), cells=64, cfl=0.5, t_end=1.0, snapshots=(0.5, 1.0))
    for _, u in godunov_solve(F, ZERO, np.zeros(64), run):
        assert np.all(u == 0.0)


def test_stationary_shock_matches_exact():
    F = power_law_flux(1.0, M=1.0)
    run = MeshRun(domain=(-2.0, 2.0), cells=4000, cfl=0.45, t_end=0.5, snapshots=(0.5,))
    xs = run.centers()
    u0 = np.where(xs < 0, 1.0, -1.0)
    _, u = godunov_solve(F, ZERO, u0, run)[-1]
    exact = np.where(xs < 0, 1.0, -1.0)
    # compare away from the zero-exterior boundary cone
    window = np.abs(xs) <= 1.0
    err = float(np.sum(np.abs(u - exact)[window]) * run.dx)
    assert err < 2.0 * run.dx


def test_mass_scales_with_source_factor():
    src = SourceProfile.piecewise([0.0, 0.2], [1.0, -2.0])
    F = power_law_flux(2.0, M=0.8)
    run = MeshRun(domain=(-0.3, 0.3), cells=512, cfl=0.45, t_end=0.5, snapshots=(0.1, 0.3, 0.5))
    xs = run.centers()
    u0 = np.where(np.abs(xs) < 0.05, 0.3 * np.cos(10 * np.pi * xs) ** 2, 0.0)
    m0 = float(np.sum(u0) * run.dx)
    for t, u in godunov_solve(F, src, u0, run):
        expected = m0 * math.exp(src.cumulative_source(t))
        assert abs(float(np.sum(u) * run.dx) - expected) < 1e-10


def test_transport_substep_maximum_principle():
    # with the source off, the full update is the transport substep
    F = power_law_flux(2.0, M=0.6)
    run = MeshRun(domain=(-0.3, 0.3), cells=256, cfl=0.45, t_end=0.4, snapshots=tuple(np.linspace(0.02, 0.4, 20)))
    rng = np.random.default_rng(4)
    u0 = np.where(np.abs(run.centers()) < 0.1, rng.uniform(-0.5, 0.5, size=256), 0.0)
    lo, hi = float(u0.min()), float(u0.max())
    for _, u in godunov_solve(F, ZERO, u0, run):
        assert u.min() >= lo - 1e-14
        assert u.max() <= hi + 1e-14


def test_l1_contraction_between_solutions():
    F = power_law_flux(2.0, M=0.6)
    run = MeshRun(domain=(-0.3, 0.3), cells=256, cfl=0.45, t_end=0.4, snapshots=tuple(np.linspace(0.05, 0.4, 8)))
    xs = run.centers()
    u0 = np.where((xs >= -0.1) & (xs < 0.0), 0.5, np.where((xs >= 0.0) & (xs <= 0.1), -0.5, 0.0))
    v0 = np.where(np.abs(xs) < 0.08, 0.4 * np.sign(np.sin(20 * xs)), 0.0)
    us = godunov_solve(F, ZERO, u0, run)
    vs = godunov_solve(F, ZERO, v0, run)
    dist = l1_distance(u0, v0, run.dx)
    for (_, u), (_, v) in zip(us, vs):
        now = l1_distance(u, v, run.dx)
        assert now <= dist + 1e-12
        dist = now


def test_packet_convergence_under_refinement():
    errs = []
    for cells in (2**9, 2**10, 2**11):
        F, P, run, u0 = packet_run(cells, 0.2, (0.2,))
        _, u = godunov_solve(F, ZERO, u0, run)[-1]
        prof = cell_profile(P, F, ZERO, 0.2)
        exact = np.array([prof(float(x)) for x in run.centers()])
        errs.append(l1_distance(u, exact, run.dx))
    assert errs[0] / errs[1] >= 1.3
    assert errs[1] / errs[2] >= 1.3


def test_snapshot_times_hit_exactly():
    F, _, run, u0 = packet_run(128, 0.3, (0.1, 0.2, 0.3))
    times = [t for t, _ in godunov_solve(F, ZERO, u0, run)]
    assert times == [0.1, 0.2, 0.3]


def test_nan_detection():
    F = power_law_flux(2.0, M=1.0)
    run = MeshRun(domain=(-1, 1), cells=64, cfl=0.5, t_end=0.1, snapshots=())
    u0 = np.zeros(64)
    u0[10] = np.nan
    with pytest.raises(NumericsError):
        godunov_solve(F, ZERO, u0, run)


def test_mesh_validation():
    with pytest.raises(ValueError):
        MeshRun(domain=(0, 1), cells=4, cfl=0.5, t_end=1.0)
    with pytest.raises(ValueError):
        MeshRun(domain=(0, 1), cells=64, cfl=1.5, t_end=1.0)
    with pytest.raises(ValueError):
        MeshRun(domain=(1, 0), cells=64, cfl=0.5, t_end=1.0)
    with pytest.raises(ValueError):
        MeshRun(domain=(0, 1), cells=64, cfl=0.5, t_end=1.0, snapshots=(2.0,))


def two_sided_flux(F, u_left, u_right):
    """Reference interface flux: f on both clipped one-sided arrays."""
    return np.maximum(F.f(np.maximum(u_left, 0.0)), F.f(np.minimum(u_right, 0.0)))


def reference_solve(F, S, u0, run):
    """Reference Godunov loop: speed over all cells, two-sided flux, B(t)
    evaluated twice per step and the cells copied into the padded array."""
    u = np.asarray(u0, dtype=float).copy()
    dx = run.dx
    events = sorted(set(list(run.snapshots) + [run.t_end]))
    out = []
    t = 0.0
    if events and events[0] == 0.0:
        out.append((0.0, u.copy()))
        events = events[1:]
    padded = np.empty(run.cells + 2)
    for target in events:
        while t < target:
            speed = float(np.max(np.abs(F.df(u))))
            dt = run.cfl * dx / speed if speed > 0.0 else target - t
            dt = min(dt, target - t)
            padded[0] = 0.0
            padded[-1] = 0.0
            padded[1:-1] = u
            flux = two_sided_flux(F, padded[:-1], padded[1:])
            u -= dt / dx * (flux[1:] - flux[:-1])
            u *= math.exp(S.cumulative_source(t + dt) - S.cumulative_source(t))
            t += dt
        out.append((target, u.copy()))
    return out


def table_flux():
    us = np.linspace(-1.0, 1.0, 9)
    return flux_from_config({"kind": "table", "u": list(us), "f": list(0.5 * us**2 + 0.1 * us**4)})


@pytest.mark.parametrize(
    "F",
    [power_law_flux(p, M=1.0) for p in (1.0, 1.5, 2.37, 3.0)] + [table_flux()],
    ids=["p1", "p1.5", "p2.37", "p3", "table"],
)
def test_godunov_flux_equals_two_sided_formula(F):
    rng = np.random.default_rng(7)
    states = rng.uniform(-1.0, 1.0, size=4001)
    states[rng.integers(0, states.size, size=400)] = 0.0
    states[rng.integers(0, states.size, size=400)] = -0.0
    u_left, u_right = states[:-1], states[1:]
    assert np.array_equal(godunov_flux(F, u_left, u_right), two_sided_flux(F, u_left, u_right))


def assert_same_snapshots(got, want):
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, u), (_, v) in zip(got, want):
        assert np.array_equal(u, v)


@pytest.mark.parametrize("p", [1.5, 2.37])
def test_solve_matches_reference_loop_packet_with_source(p):
    src = SourceProfile.piecewise([0.0, 0.15, 0.4], [0.8, -0.6, 0.3])
    F = power_law_flux(p, M=0.5)
    run = MeshRun(domain=(-0.2, 0.2), cells=400, cfl=0.45, t_end=0.6, snapshots=(0.0, 0.1, 0.3, 0.6))
    u0 = step_cell_averages(run, [(-0.1, 0.0, 0.5), (0.0, 0.1, -0.5)])
    assert_same_snapshots(godunov_solve(F, src, u0, run), reference_solve(F, src, u0, run))


def test_solve_matches_reference_loop_riemann():
    F = power_law_flux(2.0, M=1.0)
    run = MeshRun(domain=(-2.0, 2.0), cells=500, cfl=0.45, t_end=0.5, snapshots=(0.25,))
    u0 = np.where(run.centers() < 0.1, 1.0, -0.5)
    assert_same_snapshots(godunov_solve(F, ZERO, u0, run), reference_solve(F, ZERO, u0, run))


@pytest.mark.parametrize(
    "domain, t_end",
    [((-1.0, math.nan), 1.0), ((-math.inf, 1.0), 1.0), ((0.0, 1.0), math.nan), ((0.0, 1.0), math.inf)],
)
def test_mesh_rejects_non_finite(domain, t_end):
    with pytest.raises(ValueError, match="finite"):
        MeshRun(domain=domain, cells=64, cfl=0.5, t_end=t_end)


def test_solve_matches_reference_loop_table_flux_with_nonzero_minimum():
    # f(0) = 0.25: every clipped one-sided state takes this value
    us = np.linspace(-1.0, 1.0, 17)
    F = flux_from_config({"kind": "table", "u": list(us), "f": list(0.25 + 0.5 * us**2 + 0.1 * us**4)})
    assert F.f_zero == 0.25
    run = MeshRun(domain=(-0.5, 0.5), cells=300, cfl=0.45, t_end=0.4, snapshots=(0.1, 0.4))
    u0 = step_cell_averages(run, [(-0.3, -0.05, 0.7), (-0.05, 0.2, -0.4)])
    src = SourceProfile.piecewise([0.0, 0.2], [0.5, -0.5])
    assert_same_snapshots(godunov_solve(F, src, u0, run), reference_solve(F, src, u0, run))


def test_solve_matches_reference_loop_six_packet_family_mid_interaction():
    src = SourceProfile.piecewise([0.0, 0.3, 0.9], [0.4, -0.3, 0.2])
    family = power_law_family(2.2, src, 6)
    t0s = [cell.t0 for cell in family.cells]
    t = 0.5 * (t0s[1] + t0s[2])  # packets 1 and 2 have interacted, 3 to 6 not yet
    assert t0s[1] < t < t0s[2] < t0s[-1]
    lo, hi = family.cells[0].A, family.cells[-1].B
    pad = 0.1 * (hi - lo)
    run = MeshRun(domain=(lo - pad, hi + pad), cells=800, cfl=0.45, t_end=t, snapshots=(0.5 * t, t))
    u0 = step_cell_averages(run, [piece for c in family.cells for piece in ((c.A, c.tau, c.a), (c.tau, c.B, c.b))])
    got = godunov_solve(family.flux, src, u0, run)
    assert_same_snapshots(got, reference_solve(family.flux, src, u0, run))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("cell", [0, -1], ids=["first", "last"])
def test_non_finite_end_cell_raises(value, cell):
    F = power_law_flux(2.0, M=1.0)
    run = MeshRun(domain=(-1, 1), cells=64, cfl=0.5, t_end=0.1, snapshots=())
    u0 = np.zeros(64)
    u0[20:30] = 0.3
    u0[cell] = value
    with pytest.raises(NumericsError, match="non-finite state at t=0.0$"):
        godunov_solve(F, ZERO, u0, run)


def test_nan_wave_speed_raises():
    # f' is NaN at the finite states |u| > 0.4; without the check the NaN
    # speed takes one step straight to t_end, and this data, in [0, 0.5],
    # comes back in [-1.5, 2.0]
    F = user_flux(lambda u: 0.5 * u**2, lambda u: np.where(np.abs(u) > 0.4, np.nan, u), M=1.0)
    run = MeshRun(domain=(-1, 1), cells=64, cfl=0.45, t_end=0.5, snapshots=())
    u0 = np.where(np.abs(run.centers()) < 0.3, 0.5, 0.0)
    with pytest.raises(NumericsError, match="wave speed"):
        godunov_solve(F, ZERO, u0, run)


# convex, minimum at 0, different branches on the two sides of 0
ASYM = user_flux(
    lambda u: np.where(u >= 0, u**4 / 4.0 + u**5 / 5.0, u**4 / 4.0),
    lambda u: np.where(u >= 0, u**3 + u**4, u**3),
    M=0.9,
)


@pytest.mark.parametrize(
    "F", [power_law_flux(1.0), power_law_flux(2.37, M=0.5), table_flux(), ASYM], ids=["p1", "p2.37", "table", "asym"]
)
def test_flux_with_minimum_at_zero_is_accepted(F):
    run = MeshRun(domain=(-1, 1), cells=32, cfl=0.45, t_end=0.05)
    u0 = np.where(np.abs(run.centers()) < 0.2, 0.4, 0.0)
    assert np.all(np.isfinite(godunov_solve(F, ZERO, u0, run)[-1][1]))


def test_flux_with_minimum_off_zero_is_refused():
    us = np.linspace(-1.0, 1.0, 21)
    F = flux_from_config({"kind": "table", "u": list(us), "f": list((us - 0.3) ** 2 / 2.0)})
    run = MeshRun(domain=(-1, 1), cells=32, cfl=0.45, t_end=0.05)
    with pytest.raises(ConfigError, match=r"min f = f\(0\)"):
        godunov_solve(F, ZERO, np.zeros(32), run)


def test_work_counters(monkeypatch):
    """f at 0 once per flux, f on the unclipped one-sided states only, f' at two points a step."""
    f_points, df_points, unclipped = [], [], []
    F = user_flux(
        lambda u: f_points.append(np.array(u, copy=True)) or np.abs(u) ** 3 / 3.0,
        lambda u: df_points.append(np.array(u, copy=True)) or u * np.abs(u),
        M=1.0,
        convexity_samples=0,
    )

    def counted_flux(flux, u_left, u_right):
        unclipped.append(int(np.count_nonzero(u_left > 0.0) + np.count_nonzero(u_right < 0.0)))
        return godunov_flux(flux, u_left, u_right)

    monkeypatch.setattr(godunov, "godunov_flux", counted_flux)
    _, _, run, u0 = packet_run(256, 0.2, (0.1, 0.2))
    h = F.M * 2.0**-26
    for solve in range(2):
        del f_points[:], df_points[:], unclipped[:]
        godunov_solve(F, ZERO, u0, run)
        steps = len(unclipped)
        assert steps > 10
        # the minimum check evaluates f at -h and h, then F.f_zero at 0 on the first solve only
        assert np.array_equal(f_points[0], [-h, h])
        if solve == 0:
            assert np.array_equal(f_points[1], [0.0])
        per_step = f_points[2:] if solve == 0 else f_points[1:]
        assert len(per_step) == 2 * steps  # one call per side and step
        assert sum(f.size for f in per_step) == sum(unclipped)
        assert not any(np.any(f == 0.0) for f in per_step)
        assert [d.size for d in df_points] == [2] * steps
