"""Workload ``families``: the scalar claims end to end.

Power-law counterexample families go through the CLI (``family`` writes a
CSV, ``variation`` measures it at orders s = 1/p, s + eps and 1, ``diverge``
and ``bound`` give the lower and upper bounds).  Shock-cell families go
through ``assp`` and ``family --kind assp`` before and after t0.  One
general convex flux with decay metadata goes through ``shock_cell_family``
and ``cell_profile`` in the library, because the CLI is power-law only.
This is where CLI CSV I/O, ``p_variation``, the cell-state bisections and
the general-flux quadrature and root finding do their work; ``godunov``,
``triangular`` and ``keyfitz_kranzer`` are bypassed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from bench_core import (
    Alpha,
    Check,
    draw_alpha,
    packet_amplitude,
    packet_centers,
    packet_width,
    read_csv,
    read_json,
    require,
    require_close,
    subdivision_sum,
)

NAME = "families"

# Relative rounding tolerance for values the program and the benchmark both
# compute in float64 from the same formula or the same samples.
ROUNDING = 1e-12


def verify_variation(report: dict, u: np.ndarray, what: str) -> float:
    """The reported value is the sum |du|^p over the reported subdivision."""
    require_close(report["value"], subdivision_sum(u, report["subdivision"], report["p"]), ROUNDING, what)
    return report["value"]


def powerlaw_check(rng, kind: str, N: int) -> Check:
    p = float(rng.uniform(1.5, 3.0))
    s = 1.0 / p
    eps = float(rng.uniform(0.05, min(0.3, 0.95 - s)))
    # G_p(t) = log(n+1) is packet n's interaction time, so a target in [1, 3]
    # puts t after the first interactions and before most of them.
    target = float(rng.uniform(1.0, 3.0))
    alpha = draw_alpha(rng, kind, p, target, pieces=4)
    t = alpha.G_inverse(p, target)
    n = np.arange(1, N + 1)
    centers, widths = packet_centers(N), packet_width(n)
    span = (float(centers[0] - widths[0]), float(centers[-1] + widths[-1]))
    M = float(packet_amplitude(1, p))

    def run(env):
        A = alpha.spec()
        profile = env.path("family.csv")
        env.cli("family", "--p", p, "--alpha", A, "--N", N, "--t", t, "--out", profile)
        reports = {}
        for order in (s, s + eps, 1.0):
            out = env.path(f"variation-{len(reports)}.json")
            env.cli("variation", "--s", order, "--input", profile, "--out", out)
            reports[order] = read_json(out)
        lower = {}
        for order in (s, s + eps):
            out = env.path(f"diverge-{len(lower)}.csv")
            env.cli("diverge", "--p", p, "--alpha", A, "--s", order, "--N", N, "--t", t, "--out", out)
            lower[order] = float(read_csv(out)[-1, 2])
        out = env.path("bound.json")
        env.cli("bound", "--p", p, "--alpha", A, "--t", t, "--a", span[0], "--b", span[1], "--T", t, "--M", M, "--out", out)
        upper = read_json(out)["value"]

        u = read_csv(profile)[:, 1]
        values = {order: verify_variation(r, u, f"order {order} value") for order, r in reports.items()}
        require_close(values[1.0], float(np.sum(np.abs(np.diff(u)))), ROUNDING, "order-1 variation vs sum |du|")
        require(values[s] <= upper * (1 + ROUNDING), f"order-s variation {values[s]} above the bound {upper}")
        for order, bound in lower.items():
            require(
                values[order] >= bound * (1 - ROUNDING),
                f"order-{order} variation {values[order]} below the diverge sum {bound}",
            )

    return Check(f"powerlaw-{kind}", run)


def first_admissible_cell(q: float, G: float) -> int:
    """First n whose support 2 w_n fits the edge travel of the anchor state 0.999 M (M = 1)."""
    travel = 0.999**q * G
    n = 1
    while 2.0 * packet_width(n) > travel:
        n += 1
    return n


def assp_check(rng, smoke: bool) -> Check:
    q = float(rng.uniform(2.0, 4.0))
    t0 = float(rng.uniform(0.6, 1.5))
    alpha = draw_alpha(rng, "piecewise", q, t0, pieces=3)
    G = alpha.G(q, t0)
    # a fixed number of cells, so the work does not depend on where they start
    N = first_admissible_cell(q, G) + (3 if smoke else 12) - 1
    times = {"pre": t0 * float(rng.uniform(0.3, 0.8)), "post": t0 * float(rng.uniform(1.3, 2.0))}
    s = 1.0 / q

    def run(env):
        A = alpha.spec()
        common = ("--q", q, "--alpha", A, "--t0", t0, "--N", N)
        table = env.path("assp.json")
        env.cli("assp", *common, "--out", table)
        measured = {}
        for tag, t in times.items():
            profile, report, rows = (env.path(f"{tag}.{ext}") for ext in ("csv", "json", "diverge.csv"))
            env.cli("family", "--kind", "assp", *common, "--t", t, "--out", profile)
            env.cli("variation", "--s", s, "--input", profile, "--out", report)
            env.cli("diverge", "--kind", "assp", *common, "--s", s, "--t", t, "--out", rows)
            measured[tag] = (read_csv(profile)[:, 1], read_json(report), float(read_csv(rows)[-1, 2]))

        for cell in read_json(table)["cells"]:
            width = cell["B"] - cell["A"]
            require_close(width, 2.0 * float(packet_width(cell["n"])), 1e-10, f"cell {cell['n']} width")
            a = (width / (2.0 * G)) ** (1.0 / q)  # a = -b solves G(a) = G(b), travel sum = width
            require_close(cell["a"], a, ROUNDING, f"cell {cell['n']} state a")
            require_close(cell["b"], -a, ROUNDING, f"cell {cell['n']} state b")
            require_close(cell["tau"], cell["A"] + 0.5 * width, 0.0, f"cell {cell['n']} jump", ROUNDING * width)
        for tag, (u, report, bound) in measured.items():
            value = verify_variation(report, u, f"{tag} value")
            require(value >= bound * (1 - ROUNDING), f"{tag}: variation {value} below the diverge sum {bound}")

    return Check("assp", run)


# The asymmetric convex flux u^4/4 + u^5/5 (u >= 0), u^4/4 (u < 0), as a user supplies it.
def asym_f(u):
    return np.where(u >= 0, u**4 / 4.0 + u**5 / 5.0, u**4 / 4.0)


def asym_df(u):
    return np.where(u >= 0, u**3 + u**4, u**3)


ASYM_M = 0.9


def time_integral(g, t: float, alpha: Alpha):
    """integral of g(B(theta)) over [0, t], split at alpha's breakpoints."""
    cuts = [b for b in alpha.breakpoints if 0.0 < b < t] + [t]
    total, error, left = 0.0, 0.0, 0.0
    for right in cuts:
        value, err = quad(lambda th: float(g(alpha.B(th))), left, right, epsabs=1e-14, epsrel=1e-13)
        total, error, left = total + value, error + err, right
    return total, error


def fan_mass(z1: float, z2: float, t: float, alpha: Alpha) -> float:
    """integral of the fan profile V over [z1, z2] at time t.

    V(z) solves z = Phi(V) = integral of f'(V e^B); integrating by parts and
    swapping the order, the integral is z V | - integral of [f(V e^B)] e^-B | .
    """
    def phi(v):
        return time_integral(lambda b: asym_df(v * math.exp(b)), t, alpha)[0]

    bound = ASYM_M * math.exp(alpha.max_B(t))
    v1, v2 = (0.0 if z == 0.0 else brentq(lambda v: phi(v) - z, -bound, bound, xtol=1e-14, maxiter=500) for z in (z1, z2))
    drift, _ = time_integral(lambda b: (asym_f(v2 * math.exp(b)) - asym_f(v1 * math.exp(b))) / math.exp(b), t, alpha)
    return z2 * v2 - z1 * v1 - drift


def profile_mass(profile, alpha: Alpha) -> float:
    """integral of u(x, t) over the profile's regions, from its region structure."""
    t = profile.time
    total = 0.0
    for region in profile.regions:
        if hasattr(region, "w"):
            total += region.w * (region.right - region.left)
        else:
            total += fan_mass(region.left - region.center, region.right - region.center, t, alpha)
    return math.exp(alpha.B(t)) * total


def general_flux_check(rng, smoke: bool) -> Check:
    t0 = float(rng.uniform(0.9, 1.1))
    n = 13
    times = {"pre": t0 * float(rng.uniform(0.3, 0.8)), "post": t0 * float(rng.uniform(1.1, 1.4))}
    # With alpha = 0 the cell solve takes about 3 s; a nonzero source makes the
    # program's quadrature five times slower, too slow for a closed loop.
    alpha = Alpha.zero()
    ode_steps = 4 if smoke else 32

    def run(env):
        fracbv = env.program
        flux = env.call(
            fracbv.user_flux, asym_f, asym_df, M=ASYM_M, decay=fracbv.Decay(q=3.0, C=2.0, r=0.9)
        )
        source = env.call(fracbv.SourceProfile.piecewise, alpha.breakpoints, alpha.values)
        family = env.call(fracbv.shock_cell_family, flux, source, t0, n, n_start=n)
        cell = family.cells[0]
        profiles = {
            "pre": env.call(fracbv.cell_profile, cell, flux, source, times["pre"]),
            "post": env.call(fracbv.cell_profile, cell, flux, source, times["post"], ode_steps=ode_steps),
        }

        require(cell.index == n and cell.a > 0.0 > cell.b, f"cell {cell}")

        def functional(a):
            return time_integral(lambda b: a * asym_df(a * math.exp(b)) - asym_f(a * math.exp(b)) / math.exp(b), t0, alpha)

        (g_a, err_a), (g_b, err_b) = functional(cell.a), functional(cell.b)
        # solve_cell_states documents residuals below 1e-10 for both identities
        require(abs(g_a - g_b) <= 1e-10 + err_a + err_b, f"G(a) = {g_a!r} but G(b) = {g_b!r}")
        (up, err_up), (down, err_down) = (
            time_integral(lambda b, v=v: asym_df(v * math.exp(b)), t0, alpha) for v in (cell.a, cell.b)
        )
        require_close(up - down, cell.B - cell.A, 0.0, "edge travel sum vs cell width", 1e-10 + err_up + err_down)
        # the cell is mean-zero, so its mass stays e^B(t) * 0
        scale = (cell.a - cell.b) * (cell.B - cell.A)
        for tag, profile in profiles.items():
            mass = profile_mass(profile, alpha)
            require(abs(mass) <= 1e-9 * scale, f"{tag}: mass {mass!r} of a mean-zero cell (scale {scale:.3g})")

    return Check("general-flux", run)


def round_checks(program, rng, smoke: bool):
    # Nine power-law checks of one size (three per kind of alpha, which cost
    # about the same) and two dearer checks: the median check of a run is
    # one of some thirty power-law checks, not one of a few samples of a kind.
    N = 8 if smoke else 200
    return [
        *(powerlaw_check(rng, kind, N) for kind in ("zero", "constant", "piecewise") for _ in range(3)),
        assp_check(rng, smoke),
        general_flux_check(rng, smoke),
    ]
