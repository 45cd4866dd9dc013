"""First-order Godunov finite-volume oracle for u_t + f(u)_x = alpha(t) u.

Independent of every exact construction in this package: conservative
transport update with the exact Riemann flux for convex fluxes (sonic point
at 0), followed by an exact integrating-factor step for the linear source.
Used to validate the analytic solution structures.

Each step does the least flux work the scheme needs.  The interface flux
evaluates f only on the cells whose one-sided state is not clipped to 0
(one evaluation per cell at most, none for zero cells), and the CFL speed
evaluates f' at the two extreme states only: f is convex, so f' is
nondecreasing and max |f'| over the states is attained at their minimum or
maximum.  The results are bit-identical to the two-sided formula and the
full-array speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConfigError, NumericsError
from .flux import Flux
from .source import SourceProfile


@dataclass(frozen=True)
class MeshRun:
    domain: Tuple[float, float]
    cells: int
    cfl: float
    t_end: float
    snapshots: Tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.cells < 8:
            raise ConfigError("need at least 8 cells")
        if not 0.0 < self.cfl < 1.0:
            raise ConfigError("cfl must lie in (0, 1)")
        if not all(math.isfinite(v) for v in (*self.domain, self.t_end)):
            raise ConfigError("domain and t_end must be finite")
        if self.domain[1] <= self.domain[0]:
            raise ConfigError("empty domain")
        if any(s < 0.0 or s > self.t_end for s in self.snapshots):
            raise ConfigError("snapshots must lie in [0, t_end]")

    @property
    def dx(self) -> float:
        return (self.domain[1] - self.domain[0]) / self.cells

    def centers(self) -> np.ndarray:
        lo, _ = self.domain
        return lo + (np.arange(self.cells) + 0.5) * self.dx


def godunov_flux(F: Flux, u_left: np.ndarray, u_right: np.ndarray) -> np.ndarray:
    """Exact Riemann interface flux for convex f with minimum at 0.

    Equals max(f(max(u_left, 0)), f(min(u_right, 0))).  Both one-sided
    arrays start at f(0) and f is evaluated only on the states that are not
    clipped, ``u_left > 0`` and ``u_right < 0``.  f(0) comes from an array
    evaluation, like every other value, so the result matches the two-sided
    formula bit for bit.
    """
    f_zero = F.f(np.zeros(1))[0]
    left = np.full(u_left.shape, f_zero)
    right = np.full(u_right.shape, f_zero)
    positive = u_left > 0.0
    left[positive] = F.f(u_left[positive])
    negative = u_right < 0.0
    right[negative] = F.f(u_right[negative])
    return np.maximum(left, right, out=left)


def godunov_solve(
    F: Flux, S: SourceProfile, u0: Sequence[float], run: MeshRun
) -> List[Tuple[float, np.ndarray]]:
    """March ``u0`` (cell averages) to ``run.t_end``; returns (time, cells) pairs.

    Snapshot times are hit exactly (time steps are clipped).  Outflow
    boundaries with a zero exterior state; all test data is compactly
    supported inside the domain, so the boundary never activates.

    The time step is ``cfl * dx / max |f'(u)|``, with the maximum taken at
    the extreme states ``u.min()`` and ``u.max()`` (f' is nondecreasing);
    the same two numbers detect a non-finite state after each step.  The
    cumulative source B(t) is carried from one step to the next, so each
    step evaluates it once.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (run.cells,):
        raise ValueError(f"u0 must have shape ({run.cells},)")
    padded = np.zeros(run.cells + 2)  # zero exterior states at both ends
    u = padded[1:-1]
    u[:] = u0
    dx = run.dx
    events = sorted(set(list(run.snapshots) + [run.t_end]))
    out: List[Tuple[float, np.ndarray]] = []
    t = 0.0
    if events and events[0] == 0.0:
        out.append((0.0, u.copy()))
        events = events[1:]

    extremes = np.array([u.min(), u.max()])
    jump = np.empty(run.cells)
    b_now = S.cumulative_source(t)
    for target in events:
        while t < target:
            speed = float(np.max(np.abs(F.df(extremes))))
            dt = run.cfl * dx / speed if speed > 0.0 else target - t
            dt = min(dt, target - t)
            # transport substep
            flux = godunov_flux(F, padded[:-1], padded[1:])
            np.subtract(flux[1:], flux[:-1], out=jump)
            jump *= dt / dx
            u -= jump
            # exact source factor
            b_next = S.cumulative_source(t + dt)
            u *= math.exp(b_next - b_now)
            b_now = b_next
            t += dt
            extremes[0] = u.min()
            extremes[1] = u.max()
            if not np.all(np.isfinite(extremes)):
                raise NumericsError(f"non-finite state at t={t}")
        out.append((target, u.copy()))
    return out


def l1_distance(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    return float(np.sum(np.abs(np.asarray(a) - np.asarray(b))) * dx)
