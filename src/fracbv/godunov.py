"""First-order Godunov finite-volume oracle for u_t + f(u)_x = alpha(t) u.

Independent of every exact construction in this package: conservative
transport update with the exact Riemann flux for convex fluxes (sonic point
at 0), followed by an exact integrating-factor step for the linear source.
Used to validate the analytic solution structures.

Each step does the least fixed work the scheme needs, and its results are
bit-identical to the two-sided formula with the full-array speed:

* The interface flux starts both one-sided arrays at f(0) and evaluates f
  only on the states that are not clipped to 0, ``u_left > 0`` on the left
  and ``u_right < 0`` on the right: one evaluation per cell at most, none
  for zero cells.  f(0) is ``Flux.f_zero``, one array evaluation kept for
  the flux's lifetime, so each clipped state gets the value f gives it.
* The CFL speed evaluates f' at the two extreme states only: f is convex,
  so f' is nondecreasing and max |f'| over the states is attained at their
  minimum or maximum.  The extremes come from the same ``minimum``/
  ``maximum`` reductions that ``u.min()``/``u.max()`` run, and f' at them
  from one array evaluation; both pairs are read as Python floats, so the
  checks for a non-finite state or speed cost no numpy call.
* The cumulative source B(t) is carried from one step to the next, so each
  step evaluates it once, and a step over which B does not change skips
  the source factor, exp(0) = 1.

The scheme needs min f = f(0); each solve checks that once before it starts.
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
    arrays start at ``F.f_zero`` and f is evaluated only on the states that
    are not clipped, ``u_left > 0`` and ``u_right < 0``.  ``F.f_zero`` is an
    array evaluation, like every other value, so the result matches the
    two-sided formula bit for bit.
    """
    left = np.empty(u_left.shape)
    left.fill(F.f_zero)
    right = np.empty(u_right.shape)
    right.fill(F.f_zero)
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
    the extreme states (f' is nondecreasing).  Raises ConfigError when f
    does not take its minimum at 0 (:func:`_check_minimum_at_zero`), and
    NumericsError when a state or the wave speed is not finite.  The
    cumulative source B(t) is carried from one step to the next, so each
    step evaluates it once.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (run.cells,):
        raise ValueError(f"u0 must have shape ({run.cells},)")
    _check_minimum_at_zero(F)
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

    extremes = np.array(_finite_extremes(u, t))
    u_left, u_right = padded[:-1], padded[1:]
    jump = np.empty(run.cells)
    b_now = S.cumulative_source(t)
    for target in events:
        while t < target:
            slope_lo, slope_hi = F.df(extremes).tolist()
            if not (abs(slope_lo) < math.inf and abs(slope_hi) < math.inf):  # NaN fails too
                raise NumericsError(
                    f"non-finite wave speed at t={t}: f' is {slope_lo} and {slope_hi} at the extreme states"
                )
            speed = max(abs(slope_lo), abs(slope_hi))
            dt = run.cfl * dx / speed if speed > 0.0 else target - t
            dt = min(dt, target - t)
            # transport substep
            flux = godunov_flux(F, u_left, u_right)
            np.subtract(flux[1:], flux[:-1], out=jump)
            jump *= dt / dx
            u -= jump
            # exact source factor
            b_next = S.cumulative_source(t + dt)
            if b_next != b_now:
                u *= math.exp(b_next - b_now)
            b_now = b_next
            t += dt
            extremes[0], extremes[1] = _finite_extremes(u, t)
        out.append((target, u.copy()))
    return out


def _finite_extremes(u: np.ndarray, t: float) -> Tuple[float, float]:
    """(min, max) of the states as floats; NumericsError unless both are finite."""
    lo = float(np.minimum.reduce(u))
    hi = float(np.maximum.reduce(u))
    if not -math.inf < lo <= hi < math.inf:  # NaN fails every comparison
        raise NumericsError(f"non-finite state at t={t}")
    return lo, hi


def _check_minimum_at_zero(F: Flux) -> None:
    """ConfigError unless f(-h) >= f(0) <= f(h) at h = M 2^-26.

    :func:`godunov_flux` clips the one-sided states at 0, which is exact
    only when min f = f(0).  For convex f these two inequalities put the
    minimum within h of 0.
    """
    h = F.M * 2.0**-26
    f_minus, f_plus = (float(v) for v in F.f(np.array([-h, h])))
    if not f_minus >= F.f_zero <= f_plus:
        raise ConfigError(
            f"the Godunov flux needs min f = f(0), but f({-h:g}) = {f_minus!r}, "
            f"f(0) = {F.f_zero!r}, f({h:g}) = {f_plus!r}"
        )


def l1_distance(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    return float(np.sum(np.abs(np.asarray(a) - np.asarray(b))) * dx)
