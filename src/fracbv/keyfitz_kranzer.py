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

import itertools
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
        if not (math.isfinite(self.p) and math.isfinite(self.delta)):
            raise ConfigError(f"need finite p and delta, got p={self.p}, delta={self.delta}")
        if self.p <= 1.0 or self.delta <= 0.0:
            raise ConfigError("need p > 1 and delta > 0")
        if not 1 <= self.n <= self.i_max:
            raise ConfigError("need 1 <= n <= i_max")
        b = np.asarray(self.b, dtype=float)
        b_norm = float(np.hypot(b[0], b[1]))
        if not 0.0 < b_norm < math.inf:
            raise ConfigError(f"b must be finite and nonzero, got {self.b}")
        object.__setattr__(self, "b_norm", b_norm)
        object.__setattr__(self, "beta", b / b_norm)
        if self.M is None:
            object.__setattr__(self, "M", 4.0 + 2.0 * b_norm)
        if not 1.0 < self.M < math.inf:
            raise ConfigError(f"support box M must be finite and exceed 1, got {self.M}")

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


def _cells(setup: KKSetup, xs, ys) -> np.ndarray:
    """Table row, strip parity and checker parity of every point (x, y), stacked.

    Row 0 holds the points outside the bands n..i_max or with |x| > M, row
    i - n + 1 those of band i.  The band is exact: for y = m 2^e with m in
    [1/2, 1), y lies in [2^-i, 2^-i+1) for i = 1 - e.  Band i is cut into
    m_i strips j = 1..m_i, strip j where (y - 2^-i) m_i / 2^-i lies in
    [j - 1, j); ``strip`` is 1 on even j.  ``checker`` is 1 where
    floor(x 2^i) is odd.  Both parities are 0 on row 0.
    """
    xs, ys = np.broadcast_arrays(
        np.atleast_1d(np.asarray(xs, dtype=float)),
        np.atleast_1d(np.asarray(ys, dtype=float)),
    )
    band = 1 - np.frexp(ys)[1]
    active = (ys > 0.0) & (ys < np.ldexp(1.0, 1 - setup.n)) & (band <= setup.i_max)
    active &= np.abs(xs) <= setup.M
    i = band[active]
    strips = [setup.strip_count_int(k) for k in range(setup.n, setup.i_max + 1)]
    m = np.array(strips, dtype=float)[i - setup.n]
    base = np.ldexp(1.0, -i)
    cells = np.zeros((3,) + xs.shape, dtype=np.intp)
    cells[0, active] = i - (setup.n - 1)
    cells[1, active] = np.clip(np.floor((ys[active] - base) * m / base), 0.0, m - 1.0) % 2.0
    cells[2, active] = np.floor(np.ldexp(xs[active], i)) % 2.0
    return cells


def _modulus_table(setup: KKSetup) -> np.ndarray:
    """|b| + bump by (row, strip): r_(i+1) on odd strips, r_i on even ones."""
    levels = [setup.b_norm + setup.bump(i) for i in range(setup.n, setup.i_max + 2)]
    return np.array([(setup.b_norm, setup.b_norm)] + list(zip(levels[1:], levels)))


def _direction_table(setup: KKSetup) -> np.ndarray:
    """Direction by (row, checker): the rotated one on odd checker cells."""
    rotated = [setup.rotated_direction(i) for i in range(setup.n, setup.i_max + 1)]
    return np.array([(setup.beta, setup.beta)] + [(setup.beta, r) for r in rotated])


def modulus_at(setup: KKSetup, xs, ys) -> np.ndarray:
    """Initial modulus |b| + Lambda(x, y), vectorized over a point set."""
    row, strip, _ = _cells(setup, xs, ys)
    return _modulus_table(setup)[row, strip]


def direction_at(setup: KKSetup, xs, ys) -> np.ndarray:
    """Initial direction field (..., 2): rotated on odd x-checker cells in bands."""
    row, _, checker = _cells(setup, xs, ys)
    return _direction_table(setup)[row, checker]


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
    y only through the band and the strip parity, so grid rows with equal
    (band, strip parity) are equal.  Each distinct row is looked up by the
    same elementwise operations as in the dense grid, so the expansion is
    bit for bit the dense grid.  Raises ValueError when the grid cannot
    resolve the finest strips and checker cells, where grid norms lose
    meaning.
    :func:`bv_grid_norm` takes the rows as they are, so even the least
    resolved res at the default i_max = 4 (32,256 at p = 2, delta = 0.1)
    costs O(k * res) memory.
    """
    check_resolution(setup, resolution)
    centers, _ = grid_axes(setup, resolution)
    row, strip, _ = _cells(setup, 0.0, centers)
    _, first, rows = np.unique(2 * row + strip, return_index=True, return_inverse=True)
    row, strip, checker = _cells(setup, *np.meshgrid(centers, centers[first]))
    return _modulus_table(setup)[row, strip], _direction_table(setup)[row, checker], rows


# Veltkamp's splitting constant for float64: 2^27 + 1 cuts a double into two
# halves of at most 26 significant bits each, so a count below 2^26 times
# either half is exact.
_SPLIT = 2.0**27 + 1.0
_MAX_ROWS = 2**26


def _weighted_sum(parts) -> float:
    """sum of count * |d| over the (d, count) of ``parts``, correctly rounded.

    |d| is the Euclidean norm over the trailing axis, and counts are
    integers below 2^26.  Each nonzero |d| is split into hi + lo
    (Veltkamp), so count * hi and count * lo are exact, and one
    ``math.fsum`` rounds their sum once.  The parts are taken one at a
    time, so memory stays that of one part.
    """

    def terms():
        for d, count in parts:
            norms = np.sqrt(np.sum(d**2, axis=-1))
            v = norms[norms != 0.0]
            scaled = _SPLIT * v
            hi = scaled - (scaled - v)
            c = float(count)
            yield (c * hi).tolist()
            yield (c * (v - hi)).tolist()

    return math.fsum(itertools.chain.from_iterable(terms()))


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

    The x-jumps are taken once per distinct row and the y-jumps once per
    distinct pair of adjacent rows, each weighted by how often it occurs in
    the grid, so the cost is O(k * nx) for k distinct rows.  Rows and pairs
    are differenced one at a time, so memory beyond the distinct rows is
    O(nx), and no dense (ny, nx) array is formed.  Each direction's jump
    sum is correctly rounded (exact products of counts and split jumps,
    added by ``math.fsum``), so it does not depend on summation order or on
    the machine; the result is sum_x * dy + sum_y * dx.  Raises ValueError
    for 2^26 rows or more, where the counts would no longer multiply
    exactly.
    """
    grid = np.asarray(grid, dtype=float)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size >= _MAX_ROWS:
        raise ValueError(f"grid of {rows.size} rows; the exact norm takes fewer than 2^26")
    x_lo, x_hi, y_lo, y_hi = box
    if grid.ndim == 2:
        grid = grid[..., None]
    k = grid.shape[0]
    ny, nx = rows.size, grid.shape[1]
    dx = (x_hi - x_lo) / nx
    dy = (y_hi - y_lo) / ny
    counts = np.bincount(rows, minlength=k)
    sum_x = _weighted_sum((np.diff(row, axis=0), count) for row, count in zip(grid, counts))
    pairs, pair_counts = np.unique(rows[:-1] * k + rows[1:], return_counts=True)
    above, below = np.divmod(pairs, k)
    sum_y = _weighted_sum((grid[b] - grid[a], count) for a, b, count in zip(above, below, pair_counts))
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

