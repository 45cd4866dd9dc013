"""Planar Keyfitz-Kranzer data whose angular factor defeats BV factorization.

The system u_t + div(h(|u|) u) = 0 with h = (g, 0) splits into a scalar law
for the modulus and a transport equation for the direction.  The initial
data stacks dyadic bands I_i = [2^-i, 2^-i+1): each band is cut into
roughly i^(p(1+delta)) strips whose modulus bumps alternate between two
nearby levels, and the direction alternates between the base direction and
a slightly rotated one on a 2^-i checkerboard in x.  Rows move with speed
g(modulus), so at time t each strip boundary carries jump segments of
length t 2^-i; summing their sizes against any candidate BV factor yields
a lower-bound series with unit terms, which is the blow-up signature.

Everything here is for the planar case (two space dimensions, two state
components) with the affine g(u) = u - |b|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True, eq=False)
class KKSetup:
    """Parameters of the direction-oscillation construction.

    ``p`` is the reciprocal of the targeted fractional order, ``delta`` the
    extra exponent in the strip counts m_i = i^(p + p delta), ``n`` the
    first dyadic band, ``i_max`` the band truncation, ``M`` the support
    box, by default 4 + 2|b|.  Rows move with speed g(u) = u - |b|, so the
    modulus bumps are exactly r_i = 2^-i.
    """

    p: float
    delta: float
    b: Tuple[float, float] = (1.0, 0.0)
    n: int = 1
    i_max: int = 4
    M: Optional[float] = None
    b_norm: float = field(init=False)
    beta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.p <= 1.0 or self.delta <= 0.0:
            raise ConfigError("need p > 1 and delta > 0")
        if not 1 <= self.n <= self.i_max:
            raise ConfigError("need 1 <= n <= i_max")
        b = np.asarray(self.b, dtype=float)
        b_norm = float(np.hypot(b[0], b[1]))
        if b_norm == 0.0:
            raise ConfigError("b must be nonzero")
        object.__setattr__(self, "b_norm", b_norm)
        object.__setattr__(self, "beta", b / b_norm)
        if self.M is None:
            object.__setattr__(self, "M", 4.0 + 2.0 * b_norm)
        if self.M <= 1.0:
            raise ConfigError("support box M must exceed 1")

    def strip_count(self, i: int) -> float:
        """m_i = i^(p(1+delta)); the divergence series uses the real value."""
        return float(i) ** (self.p * (1.0 + self.delta))

    def strip_count_int(self, i: int) -> int:
        """Integer strip count used when laying out grids."""
        return max(1, int(math.floor(self.strip_count(i))))

    def bump(self, i: int) -> float:
        """r_i = 2^-i, so that g(|b| + r_i) = 2^-i; at most |b|/2."""
        r = 2.0 ** (-i)
        if r > 0.5 * self.b_norm:
            raise ValueError(f"bump 2^-{i} exceeds |b|/2 = {0.5 * self.b_norm}")
        return r

    def rotated_direction(self, i: int) -> np.ndarray:
        """Unit vector at chord distance i^(-1-delta) from the base direction."""
        chord = float(i) ** (-1.0 - self.delta)
        angle = 2.0 * math.asin(0.5 * chord)
        c, s = math.cos(angle), math.sin(angle)
        bx, by = self.beta
        return np.array([c * bx - s * by, s * bx + c * by])

    def sup_distance_bound(self) -> float:
        """|b| n^(-1-delta) + 2^(-n+1): bound on the sup distance of u0 to b."""
        return self.b_norm * float(self.n) ** (-1.0 - self.delta) + 2.0 ** (-self.n + 1)


def band_index(setup: KKSetup, ys: np.ndarray) -> np.ndarray:
    """Dyadic band index i with y in [2^-i, 2^-i+1); 0 where y is outside.

    Only bands n..i_max count; everything else maps to 0.
    """
    ys = np.asarray(ys, dtype=float)
    idx = np.zeros(ys.shape, dtype=np.int64)
    inside = (ys > 0.0) & (ys < 2.0 ** (-setup.n + 1))
    if np.any(inside):
        i = np.ceil(-np.log2(ys[inside])).astype(np.int64)
        i = np.where(2.0 ** (-i) > ys[inside], i + 1, i)
        i = np.where(2.0 ** (-i + 1) <= ys[inside], i - 1, i)
        i = np.where((i >= setup.n) & (i <= setup.i_max), i, 0)
        idx[inside] = i
    return idx


def modulus_at(setup: KKSetup, xs, ys) -> np.ndarray:
    """Initial modulus |b| + Lambda(x, y), vectorized over a point set."""
    xs, ys = np.broadcast_arrays(
        np.atleast_1d(np.asarray(xs, dtype=float)),
        np.atleast_1d(np.asarray(ys, dtype=float)),
    )
    out = np.full(xs.shape, setup.b_norm)
    idx = band_index(setup, ys)
    active = (idx > 0) & (np.abs(xs) <= setup.M)
    for i in np.unique(idx[active]):
        sel = active & (idx == i)
        m_int = setup.strip_count_int(int(i))
        base = 2.0 ** (-int(i))
        j = np.floor((ys[sel] - base) * m_int / base).astype(np.int64) + 1
        j = np.clip(j, 1, m_int)
        bump = np.where(j % 2 == 0, setup.bump(int(i)), setup.bump(int(i) + 1))
        out[sel] = setup.b_norm + bump
    return out


def direction_at(setup: KKSetup, xs, ys) -> np.ndarray:
    """Initial direction field (..., 2): rotated on odd x-checker cells in bands."""
    xs, ys = np.broadcast_arrays(
        np.atleast_1d(np.asarray(xs, dtype=float)),
        np.atleast_1d(np.asarray(ys, dtype=float)),
    )
    out = np.empty(xs.shape + (2,))
    out[...] = setup.beta
    idx = band_index(setup, ys)
    active = (idx > 0) & (np.abs(xs) <= setup.M)
    for i in np.unique(idx[active]):
        sel = active & (idx == i)
        odd = np.floor(xs[sel] * 2.0 ** int(i)).astype(np.int64) % 2 != 0
        rotated = setup.rotated_direction(int(i))
        block = out[sel]
        block[odd] = rotated
        out[sel] = block
    return out


def direction_at_time(setup: KKSetup, xs, ys, t: float) -> np.ndarray:
    """Direction field at time t: rows shift by t * (row modulus - |b|).

    Rows whose modulus equals |b| are frozen; rows inside band i move with
    speed 2^-i (even strips) or 2^-i-1 (odd strips).  Valid while the
    observation window stays inside the frozen-modulus cone, which the
    default M guarantees on t in [0, 1].
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"evolution window is t in [0, 1), got {t}")
    xs, ys = np.broadcast_arrays(
        np.atleast_1d(np.asarray(xs, dtype=float)),
        np.atleast_1d(np.asarray(ys, dtype=float)),
    )
    speed = modulus_at(setup, np.zeros_like(ys), ys) - setup.b_norm
    return direction_at(setup, xs - t * speed, ys)


def grid_axes(setup: KKSetup, resolution: int):
    """Cell-centered axes over the square [-2M, 2M]^2."""
    h = 4.0 * setup.M / resolution
    lo = -2.0 * setup.M
    centers = lo + (np.arange(resolution) + 0.5) * h
    return centers, h


def check_resolution(setup: KKSetup, resolution: int) -> None:
    """Require >= 4 cells across the finest strip and the finest x-checker."""
    _, h = grid_axes(setup, resolution)
    finest_strip = 2.0 ** (-setup.i_max) / setup.strip_count_int(setup.i_max)
    finest_checker = 2.0 ** (-setup.i_max)
    needed = min(finest_strip, finest_checker) / 4.0
    if h > needed:
        raise ValueError(
            f"grid of {resolution}^2 cells over [-2M, 2M]^2 (cell {h:.3e}) cannot "
            f"resolve the finest strips (need cell <= {needed:.3e}); "
            f"raise the resolution or lower i_max"
        )


def build_initial_data(setup: KKSetup, resolution: int):
    """Sampled (modulus, direction) data on the cell-centered square, by row.

    Returns (eta, omega, rows): eta of shape (k, res) and omega of shape
    (k, res, 2) hold the k distinct grid rows, and ``rows`` (length res)
    gives the distinct row of each grid row, so the dense grids indexed
    [iy, ix] are ``eta[rows]`` and ``omega[rows]``.  Both fields depend on
    y only through the band index and the strip parity, which the band
    index and the row modulus at x = 0 identify, so grid rows with equal
    (band, modulus) are equal.  Each distinct row is evaluated by the same
    elementwise operations as in the dense grid, so the expansion is bit
    for bit the dense grid.  Raises ValueError when the grid cannot resolve
    the finest strips and checker cells, where grid norms lose meaning.
    """
    check_resolution(setup, resolution)
    centers, _ = grid_axes(setup, resolution)
    keys = np.stack([band_index(setup, centers), modulus_at(setup, 0.0, centers)])
    _, first, rows = np.unique(keys, axis=1, return_index=True, return_inverse=True)
    X, Y = np.meshgrid(centers, centers[first])
    return modulus_at(setup, X, Y), direction_at(setup, X, Y), rows


def bv_grid_norm(
    grid: np.ndarray, rows: np.ndarray, box: Tuple[float, float, float, float]
) -> float:
    """Anisotropic discrete BV seminorm of a cell-centered grid function.

    The grid is given by its distinct rows ``grid`` and the index ``rows``
    of the distinct row of each grid row, as :func:`build_initial_data`
    returns it; a dense grid is the case ``rows = arange(ny)``.  Sums
    |difference| between adjacent cells times the shared edge length in
    both directions; converges to the BV seminorm for data piecewise
    constant on strips as the grid refines.  Vector-valued grids (trailing
    length-2 axis) use the Euclidean norm of the differences.

    The jumps are taken once per distinct row (x) and once per distinct
    pair of adjacent rows (y), then expanded to the (ny, nx - 1) and
    (ny - 1, nx) arrays of the dense grid and summed there, so the sums,
    pairwise summation order included, are bit for bit those of the dense
    grid.
    """
    grid = np.asarray(grid, dtype=float)
    rows = np.asarray(rows)
    x_lo, x_hi, y_lo, y_hi = box
    if grid.ndim == 2:
        grid = grid[..., None]
    ny, nx = rows.size, grid.shape[1]
    dx = (x_hi - x_lo) / nx
    dy = (y_hi - y_lo) / ny
    jumps_x = np.sqrt(np.sum(np.diff(grid, axis=1) ** 2, axis=-1))
    sum_x = np.take(jumps_x, rows, axis=0).sum()
    pairs, pair_of = np.unique(np.stack([rows[:-1], rows[1:]]), axis=1, return_inverse=True)
    jumps_y = np.sqrt(np.sum((grid[pairs[1]] - grid[pairs[0]]) ** 2, axis=-1))
    sum_y = np.take(jumps_y, pair_of, axis=0).sum()
    return float(sum_x * dy + sum_y * dx)


def jump_sum_lower_bound(setup: KKSetup, t: float, N_i: int) -> float:
    """(t/2) * sum over i = n .. n+N_i of (m_i - 1) i^(-p(1+delta)).

    Lower bound (normalized by the free Hoelder constant) on the BV mass any
    factorization of the time-t direction field would need; the terms tend
    to 1, so the partial sums grow linearly and the bound is unbounded.
    """
    if not 0.0 < t < 1.0:
        raise ConfigError(f"need t in (0, 1), got {t}")
    if N_i < 0:
        raise ConfigError("need N_i >= 0")
    i = np.arange(setup.n, setup.n + N_i + 1, dtype=float)
    expo = setup.p * (1.0 + setup.delta)
    return float(t / 2.0 * np.sum((i**expo - 1.0) * i ** (-expo)))

