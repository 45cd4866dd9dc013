"""Workload ``systems``: the triangular-system and Keyfitz-Kranzer claims.

``fracbv triangular`` at a large N, ``triangular.transported_values`` at the
flow images of the dyadic markers, the variation of the sampled sawtooth u
at orders s + eps and 1, and ``fracbv kk`` on a grid fine enough to resolve
the strips.  Characteristic RK4 and shooting, a ``p_variation`` with
thousands of extrema and the planar grid (the largest memory user) do the
work; cell solves and Godunov are bypassed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from bench_core import Check, KnownFault, read_json, require, require_close, subdivision_sum

NAME = "systems"

ROUNDING = 1e-12


def verify_triangular(payload: dict, N: int, sprimes) -> None:
    for sp in sprimes:
        # the alternating data jumps by 2 between consecutive markers
        got = payload["divergence_sums"][repr(float(sp))]
        require_close(got, N * 2.0 ** (1.0 / sp), ROUNDING, f"divergence sum at order {sp}")
    require(payload["continuity_defect"] <= ROUNDING, f"continuity defect {payload['continuity_defect']}")


def triangular_check(rng, smoke: bool) -> Check:
    p = float(rng.uniform(1.5, 3.0))
    T = float(rng.uniform(0.5, 2.0))
    t = T * float(rng.uniform(0.45, 0.55))  # RK4 steps = 2^k t / T stay fixed
    eps = float(rng.uniform(0.05, min(0.3, 0.99 - 1.0 / p)))
    sprimes = (1.0 / p + eps, 1.0)
    N = 40 if smoke else 1000
    dt_log2 = 4 if smoke else 9

    def run(env):
        out = env.cli("triangular", "--p", p, "--T", T, "--t", t, "--N", N, "--sprime", *sprimes, "--dt-log2", dt_log2)
        verify_triangular(json.loads(out), N, sprimes)

    return Check("triangular", run)


def triangular_markers_check() -> Check:
    """Fixed inputs with N = 2000 markers: the order-1 sum comes out 2144, not 4000.

    Past n = 1073 the markers 1.5 * 2^-n are not representable (they round
    onto dyadic end points, then to 0), so the later terms are wrong or 0.
    Only that symptom, divergence sums short of N 2^(1/s'), is a known
    fault; an error, a sum above the closed form or a continuity defect
    makes the run incorrect.
    """
    sprimes = (0.75, 1.0)
    N = 2000

    def run(env):
        out = env.cli("triangular", "--p", 2.0, "--T", 1.0, "--t", 0.5, "--N", N, "--sprime", *sprimes, "--dt-log2", 8)
        payload = json.loads(out)
        require(payload["continuity_defect"] <= ROUNDING, f"continuity defect {payload['continuity_defect']}")
        short = []
        for sp in sprimes:
            got, want = payload["divergence_sums"][repr(float(sp))], N * 2.0 ** (1.0 / sp)
            require(math.isfinite(got) and got <= want * (1 + ROUNDING), f"divergence sum at order {sp}: {got!r} above {want!r}")
            if got < want * (1 - ROUNDING):
                short.append(f"order {sp}: {got!r} < {want!r}")
        if short:
            raise KnownFault("divergence sums short of N 2^(1/s'): " + "; ".join(short))

    return Check("triangular-markers", run)


def transport_check(rng, smoke: bool) -> Check:
    p = float(rng.uniform(1.5, 3.0))
    T = float(rng.uniform(0.5, 2.0))
    t = 0.5 * T * float(rng.uniform(0.9, 1.1))
    markers = 4 if smoke else 8
    dt = T / 2.0 ** (4 if smoke else 7)

    def run(env):
        tri = env.program.triangular
        setup = env.call(tri.TriangularSetup, p=p, T=T, N=256)
        ys, zs = env.call(tri.transported_points, setup, t, markers, dt=dt)
        v0 = env.call(tri.alternating_initial_data)
        values = env.call(tri.transported_values, setup, v0, zs, t, dt=dt)

        n = np.arange(1, markers + 1)
        require(np.array_equal(ys, 1.5 * 2.0 ** (-n.astype(float))), f"markers {ys}")
        # v0 is -1 on (2^-n, 2^-n+1) for even n and +1 for odd n
        expected = np.where(n % 2 == 0, -1.0, 1.0)
        require(np.array_equal(values, expected), f"transported values {values}, want {expected}")

    return Check("transport", run)


def sawtooth_check(rng, smoke: bool) -> Check:
    p = float(rng.uniform(1.5, 3.0))
    s = 1.0 / p
    T = float(rng.uniform(0.5, 2.0))
    t = T * float(rng.uniform(0.3, 1.0))
    eps = float(rng.uniform(0.05, min(0.3, 1.0 - s)))
    N = 40 if smoke else 4000
    # the construction's series: half-widths w_n, formation times t_n, heights A_n
    n = np.arange(1, N + 1, dtype=float)
    edges = np.concatenate(([0.0], np.cumsum(2.0 / (n * np.log(n + 1.0) ** 2))))
    w = 0.5 * np.diff(edges)
    tn = np.log(n + 1.0) / math.log(2.0) * (T + 1.0)
    heights = (w / tn) ** s
    # eight samples per pulse, at its zeros, peaks (r and 2w - r) and in between
    r = w * t / tn
    local = np.stack([0 * r, 0.5 * r, r, 0.5 * (r + w), w, 0.5 * (3 * w - r), 2 * w - r, 2 * w - 0.5 * r], axis=1)
    xs = np.append((edges[:-1, None] + local).ravel(), edges[-1])
    orders = (s + eps, 1.0)

    def run(env):
        fracbv = env.program
        setup = env.call(fracbv.TriangularSetup, p=p, T=T, N=N)
        u = env.call(fracbv.u_values, setup, xs, t)
        sampled = env.call(fracbv.SampledFunction, xs, u)
        reports = {order: env.call(fracbv.p_variation, sampled, 1.0 / order) for order in orders}
        lower = env.call(fracbv.u_variation_lower_bounds, setup, eps)

        for order, report in reports.items():
            require_close(report.value, subdivision_sum(u, report.subdivision, report.p), ROUNDING, f"order {order} value")
        require_close(float(np.sum(lower)), float(np.sum(4.0 * heights ** (1.0 / (s + eps)))), ROUNDING, "sum of lower bounds")
        # Peaks sit at edge + r; rounding that sum near x = 6 moves a peak of a
        # pulse as narrow as 1e-6 by a relative 1e-9.
        value = reports[s + eps].value
        require(value >= float(np.sum(lower)) * (1 - 1e-8), f"order s+eps variation {value} below {np.sum(lower)}")
        total = reports[1.0].value
        require(total <= 4.0 * float(np.sum(heights)) * (1 + ROUNDING), f"order-1 variation {total} above 4 sum A_n")

    return Check("sawtooth", run)


# ---------------------------------------------------------------------------
# Keyfitz-Kranzer: the BV mass of u0 - b from the strip and checker geometry


def kk_bv_mass(p: float, delta: float, n: int, i_max: int, M: float):
    """(BV mass of u0 - b, sum of |jump| over its constant-jump segments).

    u0 - b is piecewise constant: band i (y in [2^-i, 2^-i+1), |x| <= M) has
    m_i = floor(i^(p(1+delta))) strips; strip j has modulus 1 + 2^-i (j even)
    or 1 + 2^-i-1 (j odd), and the direction is rotated by the chord
    i^(-1-delta) on odd 2^-i checker cells; b = (1, 0) elsewhere.  The mass
    counts |jump| times length along vertical and horizontal jump lines,
    as the anisotropic grid norm does.
    """
    strips = {i: max(1, int(math.floor(float(i) ** (p * (1.0 + delta))))) for i in range(n, i_max + 1)}

    def direction(i, odd):
        if not odd:
            return np.array([1.0, 0.0])
        angle = 2.0 * math.asin(0.5 * float(i) ** (-1.0 - delta))
        return np.array([math.cos(angle), math.sin(angle)])

    def value(i, j, odd):
        modulus = 1.0 + (2.0 ** (-i) if j % 2 == 0 else 2.0 ** (-i - 1))
        return modulus * direction(i, odd) - np.array([1.0, 0.0])

    mass = 0.0
    segments = 0.0

    def add(jump, length, count=1):
        nonlocal mass, segments
        mass += jump * length * count
        segments += jump * count

    for i, m in strips.items():
        height = 2.0 ** (-i) / m
        interior = int(round(2 * M * 2**i)) - 1  # checker lines strictly inside (-M, M)
        for j in range(1, m + 1):
            add(np.linalg.norm(value(i, j, True) - value(i, j, False)), height, interior)
            add(np.linalg.norm(value(i, j, False)), height)  # x = -M: even cell against b
            add(np.linalg.norm(value(i, j, True)), height)  # x = +M: odd cell against b
        for j in range(1, m):
            add(np.linalg.norm(value(i, j, False) - value(i, j + 1, False)), 2 * M)
    cells = lambda i: int(round(2 * M * 2**i))  # checker cells across [-M, M]
    for i, j in ((n, strips[n]), (i_max, 1)):  # the outer edges of the band stack
        for odd in (False, True):
            add(np.linalg.norm(value(i, j, odd)), 2.0 ** (-i), cells(i) // 2)
    for i in range(n, i_max):  # band i above band i+1, on 2^-i-1 sub-cells
        for odd_above in (False, True):
            for odd_below in (False, True):
                jump = np.linalg.norm(value(i, 1, odd_above) - value(i + 1, strips[i + 1], odd_below))
                add(jump, 2.0 ** (-i - 1), cells(i + 1) // 4)
    return mass, segments


def kk_check(rng, smoke: bool) -> Check:
    # p (1 + delta) bounds the strip count, hence the grid needed to resolve it
    p = float(rng.uniform(1.1, 1.3) if smoke else rng.uniform(1.5, 2.0))
    delta = float(rng.uniform(0.05, 0.2) if smoke else rng.uniform(0.05, 0.25))
    t = float(rng.uniform(0.2, 0.8))
    Ni = int(rng.integers(100, 2000))
    res = 768 if smoke else 2048
    n, i_max = 1, 2
    M = 4.0 * (1.0 + 0.5)  # 4 (1 + max |g|), g(u) = u - |b| on |b| +- 2 (|b|/4)

    def run(env):
        out = env.path("kk.json")
        env.cli("kk", "--p", p, "--delta", delta, "--n", n, "--t", t, "--res", res, "--imax", i_max, "--Ni", Ni, "--out", out)
        payload = read_json(out)

        require("grid" not in payload, f"grid not resolved: {payload.get('grid')}")
        require(payload["sup_distance"] <= payload["sup_distance_bound"], f"sup distance {payload['sup_distance']}")
        i = np.arange(n, n + Ni + 1, dtype=float)
        jump_sum = t / 2.0 * float(np.sum(1.0 - i ** (-p * (1.0 + delta))))
        require_close(payload["jump_sum_N"], jump_sum, ROUNDING, "jump_sum_N")
        mass, segments = kk_bv_mass(p, delta, n, i_max, M)
        # each constant-jump segment may be counted one grid cell short or long
        cell = 4.0 * M / res
        require_close(payload["bv_norm_u0_minus_b"], mass, 0.0, "BV mass of u0 - b", cell * segments)

    return Check("kk", run)


def round_checks(program, rng, smoke: bool):
    # The median kind, ``sawtooth``, comes three times, so the median check
    # of a run is one of some twenty-five sawtooth checks, not one of a few.
    return [
        triangular_check(rng, smoke),
        triangular_markers_check(),
        *(sawtooth_check(rng, smoke) for _ in range(3)),
        transport_check(rng, smoke),
        kk_check(rng, smoke),
    ]
