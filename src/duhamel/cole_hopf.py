"""Cole-Hopf mapping between potential-flow NSE and the controlled heat equation.

Pipeline: reconstruct the velocity potential phi by line integration
(u0 = grad phi), form the initial field G0 = exp(-phi/2), halve the raw
pressure-minus-force data into the forcing F = (p - f)/2, run the series
solver, and recover u = -2 grad(G)/G.  Pressure is input data throughout:
only the combination p - f ever enters, and no Poisson solve is performed.

The positivity floor exp(inf F t) K(t) * G0 guarantees the division by G is
well defined; a numerical violation is a hard error, never a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, Trajectory, VectorField, curl_residual, gradient, laplacian
from .forcing import Forcing
from .grid import Grid
from .quadrature import corrected_cumulative_trapezoid
from .series import (
    BoundReport,
    SeriesOptions,
    SeriesSolution,
    ceiling_check,
    floor_check,
    solve_controlled_heat,
)

__all__ = [
    "CurlError",
    "PositivityError",
    "NSEProblem",
    "NSESolution",
    "potential_from_velocity",
    "initial_field_from_potential",
    "forcing_from_pressure",
    "velocity_from_field",
    "solve_nse",
    "nse_residual",
    "worst_case_upper_bound",
]

_PHI_OVERFLOW = -1400.0
_ABS_POSITIVITY_FLOOR = 1e-300
_REL_POSITIVITY_FLOOR = 1e-12


class CurlError(ValueError):
    """Velocity data is measurably rotational, outside the gradient-flow setting."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class PositivityError(RuntimeError):
    """The Cole-Hopf field lost positivity, so u = -2 grad(G)/G is undefined."""


def default_curl_tolerance(u0: VectorField) -> float:
    """1e-6 times the velocity scale times the grid scale."""
    return 1e-6 * max(u0.max_norm, 1e-12) * u0.grid.max_extent


def _staircase(u0: VectorField, anchor: tuple[int, ...], axis_order) -> np.ndarray:
    """Line integral of u0 along the axis-aligned staircase path."""
    grid = u0.grid
    phi = np.zeros(grid.shape)
    for pos, d in enumerate(axis_order):
        # axes not yet walked stay pinned at the anchor for this leg
        sel: list = [slice(None)] * grid.ndim
        for e in axis_order[pos + 1 :]:
            sel[e] = slice(anchor[e], anchor[e] + 1)
        # one 4th-order integral over the whole line, measured from the anchor
        total = corrected_cumulative_trapezoid(u0.components[d][tuple(sel)], grid.spacing[d], d)
        phi = phi + (total - np.take(total, [anchor[d]], d))  # broadcasts over the pinned axes
    return phi


def _anchor_node(grid: Grid, x0) -> tuple[int, ...]:
    """The node nearest the anchor ``x0``, which must lie in the grid box."""
    point = np.atleast_1d(np.asarray(x0, dtype=float))
    for d, x in zip(range(grid.ndim), point):
        low, high = grid.origin[d], grid.origin[d] + grid.extent(d)
        if not low <= x <= high:
            raise ValueError(f"anchor coordinate {d} = {x:.6g} lies outside the grid box "
                             f"[{low:.6g}, {high:.6g}]")
    return grid.nearest_node(point)


def potential_from_velocity(u0: VectorField, x0, a: float) -> ScalarField:
    """Velocity potential phi with grad(phi) = u0 and phi(x0) = a.

    An anchor outside the grid box raises ``ValueError``.  Rejects measurably
    rotational data first: a curl residual above
    ``default_curl_tolerance(u0)`` raises ``CurlError``.  Then integrates
    along the axis-aligned staircase path from the grid node nearest ``x0``
    (legs ordered x, then y, then z).  Each leg is one endpoint-corrected
    trapezoid over its whole grid line, less its value at the anchor node,
    so phi there is exactly ``a``.  Path independence is asserted by
    recomputing with the reversed axis order; the two results are averaged.
    """
    if not np.isfinite(a):
        raise ValueError("anchor value a must be finite")
    grid = u0.grid
    anchor = _anchor_node(grid, x0)
    tolerance = default_curl_tolerance(u0)
    residual = curl_residual(u0)
    if residual > tolerance:
        raise CurlError(
            f"curl residual {residual:.3e} exceeds tolerance {tolerance:.3e}; "
            "velocity is not a sampled gradient",
            residual,
        )
    forward = _staircase(u0, anchor, range(grid.ndim))
    if grid.ndim == 1:
        phi = forward
    else:
        backward = _staircase(u0, anchor, range(grid.ndim - 1, -1, -1))
        gap = float(np.max(np.abs(forward - backward)))
        path_tol = max(
            10.0 * tolerance * grid.max_extent,
            1e-8 * max(u0.max_norm, 1e-12) * grid.max_extent,
        )
        if gap > path_tol:
            raise CurlError(
                f"staircase path orders disagree by {gap:.3e} (tolerance {path_tol:.3e})",
                residual,
            )
        phi = 0.5 * (forward + backward)
    return ScalarField(grid, phi + float(a))


def initial_field_from_potential(phi: ScalarField) -> ScalarField:
    """G0 = exp(-phi/2), the strictly positive initial Cole-Hopf field."""
    low = float(np.min(phi.values))
    if low < _PHI_OVERFLOW:
        raise ValueError(
            f"potential reaches {low:.4g} < {_PHI_OVERFLOW}; exp(-phi/2) would overflow"
        )
    return ScalarField(phi.grid, np.exp(-0.5 * phi.values))


def forcing_from_pressure(p_minus_f: Forcing | None) -> Forcing:
    """F = (p - f) / 2."""
    if p_minus_f is None:
        return Forcing.zero()
    return p_minus_f.halved()


def velocity_from_field(
    G_traj: Trajectory,
    floor_report: BoundReport | None = None,
) -> Trajectory:
    """u(., t) = -2 grad(G)/G per snapshot; fails hard on a positivity breach."""
    snaps = []
    for t, g in G_traj:
        gmin = float(np.min(g.values))
        gmax = float(np.max(np.abs(g.values)))
        floor = max(_ABS_POSITIVITY_FLOOR, _REL_POSITIVITY_FLOOR * gmax)
        if gmin <= floor:
            detail = ""
            if floor_report is not None:
                detail = f" (floor check worst violation {floor_report.worst:.3e})"
            raise PositivityError(
                f"min G = {gmin:.4g} at t={t} is below the positivity floor {floor:.3g}" + detail
            )
        grad = gradient(g)
        comps = tuple(-2.0 * c / g.values for c in grad.components)
        snaps.append(VectorField(g.grid, comps))
    return Trajectory(G_traj.times, tuple(snaps))


@dataclass(frozen=True)
class NSEProblem:
    """Potential-flow NSE data: initial velocity, anchor, forcing, bounds.

    Invariants checked at construction: the speed of the velocity never
    exceeds ``speed_bound``, the anchor ``x0`` lies in the grid box, and the
    anchor value is finite.  That the velocity is curl free is checked once
    per solve, by ``potential_from_velocity``, which raises ``CurlError``.
    """

    u0: VectorField
    x0: tuple[float, ...]
    a: float
    pressure_minus_force: Forcing | None
    speed_bound: float
    horizon: float

    def __post_init__(self):
        if not self.speed_bound > 0:
            raise ValueError("speed_bound must be positive")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not np.isfinite(self.a):
            raise ValueError("anchor value a must be finite")
        _anchor_node(self.u0.grid, self.x0)
        speed = self.u0.max_norm
        if speed > self.speed_bound * (1.0 + 1e-12):
            raise ValueError(
                f"initial speed {speed:.6g} exceeds the declared bound {self.speed_bound:.6g}"
            )


@dataclass(frozen=True, eq=False)
class NSESolution:
    """Series solution, reconstructed velocity, and verification reports."""

    series: SeriesSolution
    velocity: Trajectory
    floor_report: BoundReport
    ceiling_report: BoundReport
    residual: Trajectory | None


def solve_nse(prob: NSEProblem, opts: SeriesOptions | None = None) -> NSESolution:
    """Full pipeline: phi -> G0 -> F -> series -> u, with bound reports."""
    phi = potential_from_velocity(prob.u0, prob.x0, prob.a)
    g0 = initial_field_from_potential(phi)
    F = forcing_from_pressure(prob.pressure_minus_force)
    sol = solve_controlled_heat(g0, F, prob.horizon, opts)
    floor = floor_check(sol)
    ceiling = ceiling_check(sol, sol.forcing_abs_bound)
    u = velocity_from_field(sol.trajectory, floor)
    residual = None
    if len(u.times) >= 3:
        residual = nse_residual(u, prob.pressure_minus_force)
    return NSESolution(sol, u, floor, ceiling, residual)


def nse_residual(u: Trajectory, p_minus_f: Forcing | None) -> Trajectory:
    """Momentum-equation residual du/dt + (u.grad)u - Lap(u) - grad(f - p).

    du/dt is the three-point difference of ``np.gradient`` centred on each
    interior output time, uniform or not (so at least three are required);
    the per-node value is the max residual magnitude over components.  For
    free-space grids only interior nodes are reported.
    """
    if len(u.times) < 3:
        raise ValueError("nse_residual needs at least 3 output times for centered differencing")
    grid = u.grid
    times = u.times
    snaps = u.snapshots
    dudt = [np.gradient(np.stack([s.components[i] for s in snaps]), np.asarray(times), axis=0)
            for i in range(grid.ndim)]
    out_times, out_fields = [], []
    if p_minus_f is not None:
        p_stack = p_minus_f.sample(grid, times[1:-1])
    for j in range(1, len(times) - 1):
        t = times[j]
        uj = snaps[j]
        force = None
        if p_minus_f is not None:
            # grad(f - p) = -grad(p - f)
            force = gradient(ScalarField(grid, p_stack[j - 1]))
        worst = np.zeros(grid.shape)
        for i in range(grid.ndim):
            res = dudt[i][j]
            grad_ui = gradient(uj.component(i)).components
            for l in range(grid.ndim):
                res = res + uj.components[l] * grad_ui[l]
            res = res - laplacian(uj.component(i)).values
            if force is not None:
                res = res + force.components[i]
            worst = np.maximum(worst, np.abs(res))
        if not grid.is_periodic:
            mask = np.zeros(grid.shape, dtype=bool)
            core = tuple(slice(2, n - 2) for n in grid.shape)
            mask[core] = True
            worst = np.where(mask, worst, 0.0)
        out_times.append(t)
        out_fields.append(ScalarField(grid, worst))
    return Trajectory(tuple(out_times), tuple(out_fields))


def worst_case_upper_bound(r: float, t: float, c: float, a: float) -> float:
    """Closed-form 3D envelope for K(t) * exp(-phi/2) at radius r.

    Valid for potentials with |grad phi| <= c and phi(0) = a:
    exp(t c^2/4 + (r c - a)/2) * ((r + c t)^2 / t + 2).
    """
    if not t > 0:
        raise ValueError("the worst-case bound needs t > 0")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if not c > 0:
        raise ValueError("speed bound must be positive")
    return math.exp(t * c * c / 4.0 + (r * c - a) / 2.0) * ((r + c * t) ** 2 / t + 2.0)
