"""Workload ``oracle``: ``fracbv oracle`` for a Riemann shock, packets and a family.

Each check runs the Godunov oracle at two resolutions.  Godunov stepping and
the pointwise exact evaluation ``PiecewiseProfile.__call__`` (O(cells x
regions), with scalar fan profiles) dominate; ``p_variation`` and the root
finders are absent.  The Riemann case keeps alpha = 0: with a source its
comparison window is inverted (see CHANGES.md).

Each time t is chosen through a target effective time G_p(t), so the number
of Godunov steps, which grows with the integrated wave speed, does not
depend on the seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from bench_core import (
    Alpha,
    Check,
    draw_alpha,
    packet_amplitude,
    packet_centers,
    packet_width,
    read_csv,
    require,
    require_close,
)

NAME = "oracle"


def resolutions(smoke: bool):
    return (300, 1200) if smoke else (1000, 4000)


def oracle_check(kind: str, argv, smoke: bool, t: float, alpha: Alpha, tv0: float, speed: float, initial=None, shock=None) -> Check:
    """Run ``oracle`` at two resolutions and verify the finer one.

    ``tv0`` and ``speed`` are the total variation of the initial data and a
    bound on the wave speed; ``initial`` evaluates compactly supported
    initial data (for the mass check); ``shock`` = (x0, wl, wr, p) asks for
    the benchmark's own L1 error against the Rankine-Hugoniot shock.
    """

    def run(env):
        errors, profiles = [], []
        for cells in resolutions(smoke):
            out = env.path(f"oracle-{cells}.csv")
            stdout = env.cli("oracle", *argv, "--alpha", alpha.spec(), "--cells", cells, "--t", t, "--out", out)
            errors.append(json.loads(stdout)["errors"][0])
            profiles.append(out)

        for err in errors:
            lo, hi = err["window"]
            require(lo < hi, f"empty comparison window {err['window']}")
        coarse, fine = (e["l1_error"] for e in errors)
        require(fine < coarse, f"L1 error grew under refinement: {coarse} -> {fine}")
        data = read_csv(profiles[-1])
        x, u = data[:, 1], data[:, 2]
        dx = float(x[1] - x[0])
        # Kuznetsov's rate for monotone schemes: error <= TV(u0) sqrt(speed t dx)
        tolerance = tv0 * math.sqrt(speed * t * dx)
        require(fine <= tolerance, f"finest L1 error {fine} above {tolerance}")
        if initial is not None:
            u0 = initial(x)
            growth = math.exp(alpha.B(t))
            require_close(
                float(np.sum(u)), growth * float(np.sum(u0)), 0.0, "Godunov mass vs e^B(t) * initial mass",
                1e-10 * growth * float(np.sum(np.abs(u0))),
            )
        if shock is not None:
            x0, wl, wr, p = shock
            f = lambda w: abs(w) ** (p + 1.0) / (p + 1.0)
            position = x0 + (f(wl) - f(wr)) / (wl - wr) * t
            lo, hi = errors[-1]["window"]
            inside = (x >= lo) & (x <= hi)
            own = float(np.sum(np.abs(u - np.where(x < position, wl, wr))[inside]) * dx)
            # one cell at the shock may fall on either side
            require_close(own, fine, 0.0, "L1 error vs the Rankine-Hugoniot shock", abs(wl - wr) * dx + 1e-12)

    return Check(kind, run)


def riemann_check(rng, smoke: bool) -> Check:
    p = float(rng.uniform(1.5, 3.0))
    t = float(rng.uniform(0.8, 1.2))
    x0 = float(rng.uniform(-0.5, 0.5))
    wl, wr = 1.0, -0.5
    argv = ("--p", p, "--init", "riemann", "--wl", wl, "--wr", wr, "--x0", x0)
    return oracle_check("riemann", argv, smoke, t, Alpha.zero(), abs(wl - wr), 1.0, shock=(x0, wl, wr, p))


def packet_check(rng, smoke: bool, tag: str, kind: str, ratio) -> Check:
    """A packet at G_p(t) = ratio * G_p(t_n): before (ratio < 1) or after its interaction."""
    p = float(rng.uniform(1.5, 3.0))
    delta = float(rng.uniform(0.3, 0.7))
    dx = float(rng.uniform(0.2, 1.0)) * delta**p  # G_p(t_n) = dx / delta^p in [0.2, 1]
    center = float(rng.uniform(-1.0, 1.0))
    target = float(rng.uniform(*ratio)) * dx / delta**p
    alpha = draw_alpha(rng, kind, p, target, pieces=2)
    t = alpha.G_inverse(p, target)

    def initial(x):
        return np.where((x >= center - dx) & (x < center), delta, 0.0) - np.where(
            (x >= center) & (x <= center + dx), delta, 0.0
        )

    argv = ("--p", p, "--init", "packet", "--dx", dx, "--delta", delta, "--center", center)
    speed = (delta * math.exp(alpha.max_B(t))) ** p
    return oracle_check(tag, argv, smoke, t, alpha, 4.0 * delta, speed, initial=initial)


def family_check(rng, smoke: bool, tag: str, reach) -> Check:
    """Packets 1..N at G_p(t) in ``reach``; packet n interacts at G_p(t_n) = log(n+1).

    Once packets interact their amplitudes decay at a rate set by p, and
    with them the wave speed and the number of Godunov steps: a narrow
    range of p keeps the work of this, the middle kind, steady.
    """
    p = float(rng.uniform(2.0, 2.5))
    N = 3 if smoke else 6
    target = float(rng.uniform(*reach))
    alpha = draw_alpha(rng, "piecewise", p, target, pieces=3)
    t = alpha.G_inverse(p, target)
    n = np.arange(1, N + 1)
    centers, widths, amplitudes = packet_centers(N), packet_width(n), packet_amplitude(n, p)

    def initial(x):
        u = np.zeros_like(x)
        for c, w, a in zip(centers, widths, amplitudes):
            u += np.where((x >= c - w) & (x < c), a, 0.0) - np.where((x >= c) & (x <= c + w), a, 0.0)
        return u

    argv = ("--p", p, "--init", "family", "--N", N)
    speed = (amplitudes[0] * math.exp(alpha.max_B(t))) ** p
    return oracle_check(tag, argv, smoke, t, alpha, 4.0 * float(np.sum(amplitudes)), speed, initial=initial)


def round_checks(program, rng, smoke: bool):
    # Five kinds of distinct cost (the cost grows with G_p(t)); the middle
    # kind comes three times, so the median check of a run is one of some
    # fifteen ``family`` checks spread over the run, not one of a few.
    return [
        riemann_check(rng, smoke),
        packet_check(rng, smoke, "packet-before", "piecewise", (0.5, 0.7)),
        *(family_check(rng, smoke, "family", (1.3, 1.7)) for _ in range(3)),  # two to four packets have interacted
        packet_check(rng, smoke, "packet-after", "constant", (2.0, 2.5)),
        family_check(rng, smoke, "family-late", (3.4, 3.8)),  # after all six interactions
    ]
