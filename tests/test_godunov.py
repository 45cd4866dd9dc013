import math

import numpy as np
import pytest

from fracbv import (
    MeshRun,
    NumericsError,
    SourceProfile,
    cell_profile,
    flux_from_config,
    godunov_solve,
    l1_distance,
    make_packet,
    power_law_flux,
)
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
