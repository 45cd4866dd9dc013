"""Convex scalar fluxes with degeneracy and decay metadata.

A flux is a convex function f on a working interval [-M, M] together with
its derivative f'.  Power-law fluxes f(u) = |u|^(p+1)/(p+1) are the main
shipped family; arbitrary convex fluxes can be supplied as paired callables.
Two optional pieces of metadata drive the regularity machinery downstream:

* degeneracy (p, c0):   |f'(u) - f'(v)| >= c0 |u - v|^p on [-M, M]
* decay (q, C, r):      0 <= f'(a) - f'(b) <= C (a - b)^q for b in (-r, 0),
                        a in (0, r)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError

# Pairs closer than this are excluded from degeneracy ratio scans (0/0 guard).
_PAIR_GAP = 1e-12


@dataclass(frozen=True)
class Degeneracy:
    p: float
    c0: float


@dataclass(frozen=True)
class Decay:
    q: float
    C: float
    r: float


@dataclass(frozen=True)
class Flux:
    """Convex flux on [-M, M].

    ``f``/``df`` are raw callables (vectorized over numpy arrays) without
    domain checks.
    ``power`` is the power-law exponent p when the flux is
    |u|^(p+1)/(p+1), else None.
    ``f_zero`` is f(0), evaluated on first use and kept.
    """

    f: Callable
    df: Callable
    M: float
    power: Optional[float] = None
    degeneracy: Optional[Degeneracy] = None
    decay: Optional[Decay] = None

    @functools.cached_property
    def f_zero(self) -> float:
        """f(0) from an array evaluation, like every other value of f."""
        return float(self.f(np.zeros(1))[0])


def power_law_flux(p: float, M: float = 1.0, decay: Optional[Decay] = None) -> Flux:
    """Flux f(u) = |u|^(p+1)/(p+1), f'(u) = u |u|^(p-1), for p >= 1.

    The exact degeneracy constant on any symmetric interval is c0 = 2^(1-p)
    (the ratio |f'(u)-f'(v)|/|u-v|^p is minimised at v = -u).
    """
    if p < 1.0:
        raise ConfigError(f"power-law exponent must satisfy p >= 1, got {p}")
    if M <= 0.0:
        raise ConfigError("working bound M must be positive")

    def f(u):
        return np.abs(u) ** (p + 1.0) / (p + 1.0)

    def df(u):
        return u * np.abs(u) ** (p - 1.0)

    return Flux(
        f=f,
        df=df,
        M=float(M),
        power=float(p),
        degeneracy=Degeneracy(p=float(p), c0=2.0 ** (1.0 - p)),
        decay=decay,
    )


def user_flux(
    f: Callable,
    df: Callable,
    M: float,
    degeneracy: Optional[Degeneracy] = None,
    decay: Optional[Decay] = None,
    convexity_samples: int = 64,
) -> Flux:
    """Wrap user-supplied (f, f') evaluators as a Flux.

    A light deterministic convexity spot-check runs at construction; pass
    ``convexity_samples=0`` to skip it.
    """
    flux = Flux(f=f, df=df, M=float(M), power=None, degeneracy=degeneracy, decay=decay)
    if convexity_samples:
        defect = convexity_defect(flux, convexity_samples, seed=0)
        if defect > 1e-9 * max(1.0, abs(float(f(M))), abs(float(f(-M)))):
            raise ValueError(f"supplied flux is not convex on [-M, M] (defect {defect:.3e})")
    return flux


def convexity_defect(F: Flux, n_triples: int, seed: int = 0) -> float:
    """Max violation of f(v) <= chord of (f(u), f(w)) over sampled u < v < w.

    Returns 0.0 for convex data; positive values measure the worst defect.
    """
    rng = np.random.default_rng(seed)
    pts = np.sort(rng.uniform(-F.M, F.M, size=(n_triples, 3)), axis=1)
    u, v, w = pts[:, 0], pts[:, 1], pts[:, 2]
    ok = (w - u) > 1e-9
    u, v, w = u[ok], v[ok], w[ok]
    theta = (v - u) / (w - u)
    chord = (1.0 - theta) * F.f(u) + theta * F.f(w)
    return float(np.max(F.f(v) - chord, initial=0.0))


def degeneracy_constant(F: Flux, p: float, grid_count: int) -> float:
    """Grid estimate of inf |f'(u)-f'(v)| / |u-v|^p over [-M, M].

    Scans all pairs of a uniform ``grid_count``-point grid, excluding pairs
    with |u - v| < 1e-12.  The result is a certified-at-grid-resolution lower
    estimate of the degeneracy constant c0.
    """
    if p < 1.0:
        raise ValueError(f"degeneracy exponent must satisfy p >= 1, got {p}")
    if grid_count < 2:
        raise ValueError("grid_count must be at least 2")
    grid = np.linspace(-F.M, F.M, grid_count)
    slopes = np.asarray(F.df(grid), dtype=float)
    best = math.inf
    # Chunk row-wise: grid_count^2 pairs do not fit in memory at 1e4 points.
    for i in range(grid_count - 1):
        du = grid[i + 1 :] - grid[i]
        keep = du >= _PAIR_GAP
        if not np.any(keep):
            continue
        ratio = np.abs(slopes[i + 1 :][keep] - slopes[i]) / du[keep] ** p
        m = float(ratio.min())
        if m < best:
            best = m
    return best


def flux_from_config(cfg: dict) -> Flux:
    """Build a flux from a config mapping.

    Supported forms::

        {"kind": "power_law", "p": <real>, "M": <real>}
        {"kind": "table", "u": [...], "f": [...]}

    Table fluxes interpolate f linearly and use secant slopes for f'; the
    slope sequence must be non-decreasing (convexity).
    """
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("flux config must be a mapping with a 'kind' key")
    kind = cfg["kind"]
    known = {"power_law": {"kind", "p", "M"}, "table": {"kind", "u", "f"}}
    if kind not in known:
        raise ConfigError(f"unknown flux kind {kind!r}")
    extra = set(cfg) - known[kind]
    if extra:
        raise ConfigError(f"unknown flux config keys: {sorted(extra)}")
    if kind == "power_law":
        try:
            return power_law_flux(float(cfg["p"]), float(cfg.get("M", 1.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad power_law flux config: {exc}") from exc
    # table
    try:
        us = np.asarray(cfg["u"], dtype=float)
        fs = np.asarray(cfg["f"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad table flux config: {exc}") from exc
    if us.ndim != 1 or us.shape != fs.shape or us.size < 3:
        raise ConfigError("table flux needs matching 1-D 'u' and 'f' arrays, >= 3 entries")
    if np.any(np.diff(us) <= 0):
        raise ConfigError("table flux abscissae must be strictly increasing")
    sec = np.diff(fs) / np.diff(us)
    if np.any(np.diff(sec) < -1e-12):
        raise ConfigError("table flux is not convex (secant slopes decrease)")

    def f(u):
        return np.interp(u, us, fs)

    def df(u):
        idx = np.clip(np.searchsorted(us, u, side="right") - 1, 0, sec.size - 1)
        return sec[idx]

    return user_flux(f, df, M=float(min(-us[0], us[-1])), convexity_samples=0)
