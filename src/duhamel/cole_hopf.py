"""Cole-Hopf mapping between potential-flow NSE and the controlled heat equation.

Pipeline: check that u0 is curl free, reconstruct the potential phi with
u0 = grad phi (from the torus on a periodic grid, by line integration on a
free-space one), form G0 = exp(-phi/2), halve the raw pressure-minus-force
data into F = (p - f)/2, run the series solver and recover u = -2 grad(G)/G.
Pressure is input data: only p - f enters, and no Poisson solve is made.
The grid operators (curl residual and its error estimate, inverse gradient,
corrected trapezoid, gradient, Laplacian) all come from ``fields``.

The positivity floor exp(inf F t) K(t) * G0 guarantees the division by G is
well defined; a numerical violation is a hard error, never a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    ScalarField,
    Trajectory,
    VectorField,
    _gradient,
    _gradient_and_laplacian,
    _inverse_gradient,
    _periodic_curl,
    corrected_cumulative_trapezoid,
    curl_residual,
)
from .forcing import Forcing
from .grid import Grid, padded_torus
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

# exp(-phi/2) is a finite, normal float for |phi| <= _PHI_LIMIT
_PHI_LIMIT = 1400.0
# a free-space curl at most this many times its own stencil error is that error
_CURL_ERROR_RATIO = 2.0
_ABS_POSITIVITY_FLOOR = 1e-300
_REL_POSITIVITY_FLOOR = 1e-12


class CurlError(ValueError):
    """Velocity data is measurably rotational, outside the gradient-flow setting."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class PositivityError(RuntimeError):
    """The Cole-Hopf field lost positivity, so u = -2 grad(G)/G is undefined."""


def default_curl_tolerance(grid: Grid, speed: float) -> float:
    """1e-6 times the velocity scale ``speed`` times the grid scale."""
    return 1e-6 * max(speed, 1e-12) * grid.max_extent


def _unit_scale(speed: float) -> float:
    """2^-e with e = frexp(speed)[1], or 1 below speed 1: scaled by it, any
    velocity in double range has speed below 1, so the node sums and
    transforms of the curl check and the torus potential cannot overflow,
    and the scaling is exact."""
    return math.ldexp(1.0, -max(math.frexp(speed)[1], 0))


def _checked_curl(grid: Grid, speed: float, residual: float, estimate: float | None) -> tuple[float, float]:
    """(curl residual, tolerance) of a velocity on ``grid`` whose speed is
    ``speed``, from the residual and error estimate of ``curl_residual`` (or
    ``_periodic_curl``) measured on the velocity times ``_unit_scale(speed)``;
    ``CurlError`` when it is rotational.

    The tolerance is ``default_curl_tolerance``.  On a free-space grid the
    stencil curl of a sampled gradient is the stencil's truncation error,
    which does not shrink with the tolerance, so where ``curl_residual``
    estimates that error from the samples themselves (Richardson
    extrapolation between the grid and its every-other-node subgrid) the
    tolerance rises to twice the estimate.
    """
    tolerance = default_curl_tolerance(grid, speed)
    scale = _unit_scale(speed)
    residual /= scale
    if estimate is not None:
        tolerance = max(tolerance, _CURL_ERROR_RATIO * (estimate / scale))
    if residual > tolerance:
        raise CurlError(
            f"curl residual {residual:.3e} exceeds tolerance {tolerance:.3e}; "
            "velocity is not a sampled gradient",
            residual,
        )
    return residual, tolerance


@np.errstate(over="ignore", invalid="ignore")
def _staircase(u0: VectorField, anchor: tuple[int, ...], axis_order) -> np.ndarray:
    """Line integral of u0 along the axis-aligned staircase path; one that
    overflows (a spacing whose square does) raises ``ValueError``."""
    grid = u0.grid
    phi = np.zeros(grid.shape)
    for pos, d in enumerate(axis_order):
        # axes not yet walked stay pinned at the anchor for this leg
        sel: list = [slice(None)] * grid.ndim
        for e in axis_order[pos + 1 :]:
            sel[e] = slice(anchor[e], anchor[e] + 1)
        # one 4th-order integral over the whole line, measured from the anchor
        total = corrected_cumulative_trapezoid(u0.components[d][tuple(sel)], grid.spacing[d], d)
        if not np.isfinite(total).all():
            raise ValueError(f"potential: the line integral along axis {d} overflows")
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

    Checks, in this order: a non-finite ``a``, an anchor outside the grid box
    or, on a periodic grid, a velocity component whose mean exceeds 1e-6 of
    the speed raises ``ValueError`` (the potential U.x of a mean flow U is not
    periodic); then ``_checked_curl`` rejects rotational data.  On a periodic
    grid phi is the torus's inverse gradient of u0 times ``_unit_scale(speed)``
    (whose k = 0 coefficients gave the means) less its value at the node
    nearest ``x0``, unscaled; one that overflows raises ``ValueError``.  On a
    free-space grid phi averages the line integrals from that node along the
    axis-aligned staircases with legs ordered x, y, z and reversed, each leg
    one corrected trapezoid over its grid line less its anchor value.  They
    must agree to within 10 L times the (raised) curl tolerance and never less
    than 1e-8 L times the speed, L the largest grid extent; a 1D field's two
    orders are one staircase.  Either way phi at the anchor node is exactly ``a``.
    """
    if not np.isfinite(a):
        raise ValueError("anchor value a must be finite")
    grid = u0.grid
    anchor = _anchor_node(grid, x0)
    speed = u0.max_norm
    if grid.is_periodic:
        scale = _unit_scale(speed)
        torus = padded_torus(grid)
        spectra = [torus.forward(c * scale) for c in u0.components]
        for d, spectrum in enumerate(spectra):
            mean = float(spectrum[(0,) * grid.ndim].real) * torus.scale / scale
            if abs(mean) > 1e-6 * max(speed, 1e-12):
                raise ValueError(f"velocity component {d} has mean {mean:.6g} on a periodic grid; "
                                 "a mean flow has no periodic potential")
        _checked_curl(grid, speed, _periodic_curl(grid, spectra), None)
        phi = _inverse_gradient(grid, spectra)
        with np.errstate(over="ignore"):
            phi = (phi - phi[anchor]) / scale
        if not np.isfinite(phi).all():
            raise ValueError("potential: the torus potential overflows")
        return ScalarField(grid, phi + float(a))
    scale = _unit_scale(speed)
    residual, tolerance = _checked_curl(
        grid, speed, *curl_residual(VectorField(grid, [c * scale for c in u0.components])))
    forward = _staircase(u0, anchor, range(grid.ndim))
    backward = _staircase(u0, anchor, range(grid.ndim - 1, -1, -1))
    gap = float(np.max(np.abs(forward - backward)))
    path_tol = max(
        10.0 * tolerance * grid.max_extent,
        1e-8 * max(speed, 1e-12) * grid.max_extent,
    )
    if gap > path_tol:
        raise CurlError(
            f"staircase path orders disagree by {gap:.3e} (tolerance {path_tol:.3e})",
            residual,
        )
    phi = 0.5 * forward + 0.5 * backward  # cannot overflow where forward + backward would
    return ScalarField(grid, phi + float(a))


def initial_field_from_potential(phi: ScalarField) -> ScalarField:
    """G0 = exp(-phi/2), the strictly positive initial Cole-Hopf field."""
    low, high = float(np.min(phi.values)), float(np.max(phi.values))
    if low < -_PHI_LIMIT:
        raise ValueError(f"potential reaches {low:.4g} < {-_PHI_LIMIT}; exp(-phi/2) would overflow")
    if high > _PHI_LIMIT:
        raise ValueError(f"potential reaches {high:.4g} > {_PHI_LIMIT}; exp(-phi/2) would underflow to zero")
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
    """u(., t) = -2 grad(G)/G at each time; fails hard on a positivity breach."""
    grid = G_traj.grid
    u = np.empty((len(G_traj), grid.ndim, *grid.shape))
    for (t, g), row in zip(G_traj, u):
        gmin = float(np.min(g))
        gmax = float(np.max(np.abs(g)))
        floor = max(_ABS_POSITIVITY_FLOOR, _REL_POSITIVITY_FLOOR * gmax)
        if gmin <= floor:
            detail = ""
            if floor_report is not None:
                detail = f" (floor check worst violation {floor_report.worst:.3e})"
            raise PositivityError(
                f"min G = {gmin:.4g} at t={t} is below the positivity floor {floor:.3g}" + detail
            )
        for c, out in zip(_gradient(grid, g), row):
            np.divide(-2.0 * c, g, out=out)
    return Trajectory(grid, G_traj.times, u)


@dataclass(frozen=True)
class NSEProblem:
    """Potential-flow NSE data: initial velocity, anchor, forcing, bounds.

    Construction checks only the declared bounds: both are positive, and the
    speed never exceeds ``speed_bound``.  ``potential_from_velocity`` checks
    the anchor, its value, the mean flow and the curl, once per solve.
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

    du/dt is the three-point difference that ``np.gradient`` centres on each
    interior output time, uniform or not (so at least three are required),
    formed one row at a time with its arithmetic; the per-node value is the
    max residual magnitude over components.  For free-space grids only
    interior nodes are reported.
    """
    if len(u.times) < 3:
        raise ValueError("nse_residual needs at least 3 output times for centered differencing")
    grid = u.grid
    times = u.times
    steps = np.diff(times)
    uniform = bool((steps == steps[0]).all())
    if p_minus_f is not None:
        p_stack = p_minus_f.sample(grid, times[1:-1])
    out = np.zeros((len(times) - 2, *grid.shape))
    # free-space rows keep zeros outside the interior nodes
    core = tuple(slice(None) if grid.is_periodic else slice(2, n - 2) for n in grid.shape)
    for j in range(1, len(times) - 1):
        before, uj, after = u.values[j - 1:j + 2]
        if uniform:
            dudt = (after - before) / (2.0 * steps[0])
        else:
            h1, h2 = steps[j - 1:j + 1]
            dudt = (-h2 / (h1 * (h1 + h2)) * before + (h2 - h1) / (h1 * h2) * uj
                    + h1 / (h2 * (h1 + h2)) * after)
        # grad(f - p) = -grad(p - f)
        force = None if p_minus_f is None else _gradient(grid, p_stack[j - 1])
        worst = np.zeros(grid.shape)
        for i in range(grid.ndim):
            res = dudt[i]
            grad_ui, lap_ui = _gradient_and_laplacian(grid, uj[i])
            for l in range(grid.ndim):
                res = res + uj[l] * grad_ui[l]
            res = res - lap_ui
            if force is not None:
                res = res + force[i]
            worst = np.maximum(worst, np.abs(res))
        out[j - 1][core] = worst[core]
    return Trajectory(grid, times[1:-1], out)


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
