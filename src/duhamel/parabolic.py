"""Normalization of 1D parabolic equations onto the series machinery.

The input problem is

    u_t + A(t,x) u_xx + a(t,x) u_x + c(t,x) u + f(t,x) = 0,   A <= -A_min < 0.

The coordinate map tau = t, y = psi(t,x) with psi_x = sqrt(-1/A) removes the
variable diffusion, and the gauge u = exp(-rho) v with
rho = -1/2 int_0^y P(t,z) dz (P = psi_t + A psi_xx + a psi_x) removes the
drift, leaving

    v_t - v_yy + Q v + g = 0,
    Q = -P_y/2 + P^2/4 + 1/2 int_0^y P_t dy + c,     g = f exp(rho).

That equation is solved by the operator iteration v = G + L G + L L G + ...
with G = K * v0 - int K * g and L v = -int K * (Q v), which is exactly the
series solver with forcing -Q and source -g.

The coefficients A, a, c and f are ``Forcing``s of (t, x), given as numbers,
expressions over x and t, or callables ``fn(t, x)``.  The reduction works on
whole ``(n_t+1, n)`` lattice stacks: each coefficient is sampled once over all
time nodes with ``Forcing.sample_rows`` (c and f on the moving nodes
x(t, y)), and psi, P, rho, Q and g are computed as stacks (x-derivatives by
the free-space stencil and integrals by the corrected trapezoid, both along
the last axis; t-derivatives by ``np.gradient`` along the first).  The
reduced problem lives on a uniform y-grid with the same point count as the
x-grid.  Only the resampling between the x- and y-grids
goes node by node, with one cubic spline per knot set that carries every
column on those knots: (x, P) over psi in ``normalize``, (v, rho) over y in
``back_transform``.  A monotone interpolant would flatten the solution at its
extrema.
"""


from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import Expression, compile_expression
from .fields import ScalarField, Trajectory, _fd_first
from .forcing import Forcing, interpolate_in_time
from .grid import Grid
from .quadrature import corrected_cumulative_trapezoid
from .series import SeriesOptions, SeriesSolution, solve_controlled_heat

__all__ = [
    "ParabolicProblem",
    "NormalizedProblem",
    "ParabolicSolution",
    "normalize",
    "solve_normalized",
    "back_transform",
    "solve_parabolic",
]


@dataclass(frozen=True)
class ParabolicProblem:
    """The coefficients, initial state, horizon, and the ellipticity floor.

    Each coefficient is anything ``Forcing.make`` takes; an expression may
    use only x and t.  ``u0`` fixes the x-grid (1D, truncated free space).
    ``A`` must stay below ``-ellipticity_min`` on the whole sampled (t, x)
    box; degenerate diffusion is rejected.
    """

    A: Forcing
    a: Forcing
    c: Forcing
    f: Forcing
    u0: ScalarField
    horizon: float
    ellipticity_min: float = 1e-8

    def __post_init__(self):
        for name in ("A", "a", "c", "f"):
            value = getattr(self, name)
            if isinstance(value, str):
                value = compile_expression(value)
            extra = set(value.variables) - {"x", "t"} if isinstance(value, Expression) else set()
            if extra:
                raise ValueError(f"parabolic coefficients may only use x and t, got {sorted(extra)}")
            object.__setattr__(self, name, Forcing.make(value).labelled(name))
        if self.u0.grid.ndim != 1:
            raise ValueError("parabolic problems are one dimensional")
        if self.u0.grid.is_periodic:
            raise ValueError("parabolic problems use truncated free-space grids")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not self.ellipticity_min > 0:
            raise ValueError("ellipticity_min must be positive")

    @property
    def grid(self) -> Grid:
        return self.u0.grid


@dataclass(frozen=True, eq=False)
class NormalizedProblem:
    """Reduced coefficients Q, g on the fixed y-grid, plus the maps and gauge.

    ``edge_clamped`` is set when y-nodes left the image of the map and the
    coefficient resampling took edge values.
    """

    y_grid: Grid
    t_nodes: tuple[float, ...]
    Q_stack: np.ndarray  # (n_t, n_y)
    g_stack: np.ndarray
    rho_stack: np.ndarray
    psi_stack: np.ndarray  # (n_t, n_x): psi at the x-nodes
    x_of_y: np.ndarray  # (n_t, n_y)
    v0: ScalarField
    x_grid: Grid
    horizon: float
    edge_clamped: bool = False


def _time_stack_derivative(stack: np.ndarray, dt: float) -> np.ndarray:
    """d/dt along axis 0 by ``np.gradient``: centred differences, second-order
    one-sided at the ends (first order when there are only two nodes)."""
    return np.gradient(stack, dt, axis=0, edge_order=min(2, len(stack) - 1))


def normalize(prob: ParabolicProblem, time_nodes: int = 64) -> NormalizedProblem:
    """Sample Q, g, rho and the maps on the (t, y) lattice.

    ``time_nodes`` (at least 1) sets the uniform t-sampling; the solver
    interpolates the stacks linearly between nodes, so it should match (or
    exceed) the series time resolution.
    """
    if time_nodes < 1:
        raise ValueError(f"time_nodes must be at least 1, got {time_nodes}")
    from scipy.interpolate import CubicSpline  # imported here: heat and NSE runs never interpolate

    x_grid = prob.grid
    x = x_grid.coords(0)
    n_x = x_grid.points[0]
    h_x = x_grid.spacing[0]
    t_nodes = np.linspace(0.0, prob.horizon, time_nodes + 1)
    dt = float(t_nodes[1] - t_nodes[0])

    A = prob.A.sample_rows(t_nodes, x)
    bad = A > -prob.ellipticity_min
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"A(t={t_nodes[i]:.6g}, x={x[j]:.6g}) = {A[i, j]:.6g} violates strict "
            f"ellipticity (need A <= -{prob.ellipticity_min:g})"
        )
    # psi_x = sqrt(-1/A) exactly; psi = int_{x_first}^{x} psi_x dz
    slope = np.sqrt(-1.0 / A)
    psi_stack = corrected_cumulative_trapezoid(slope, h_x)
    stalled = (np.diff(psi_stack, axis=-1) <= 0).any(axis=-1)
    if stalled.any():
        raise ValueError(f"psi(t={t_nodes[np.argmax(stalled)]}) is not strictly increasing")
    psi0 = psi_stack[0]

    # fixed y-grid spanning the t=0 image, same point count as the x-grid
    h_y = (psi0[-1] - psi0[0]) / (n_x - 1)
    y_grid = Grid((n_x,), (h_y,), (psi0[0] - 0.5 * h_y,), x_grid.boundary)
    y = y_grid.coords(0)

    psi_xx = _fd_first(slope, h_x, -1)
    P_x = _time_stack_derivative(psi_stack, dt) + A * psi_xx + prob.a.sample_rows(t_nodes, x) * slope

    edge_clamped = bool(np.any(y[0] < psi_stack[:, 0] - 1e-12) or np.any(y[-1] > psi_stack[:, -1] + 1e-12))
    x_of_y = np.empty((len(t_nodes), n_x))
    P_on_y = np.empty((len(t_nodes), n_x))
    for i, psi in enumerate(psi_stack):
        spline = CubicSpline(psi, np.column_stack([x, P_x[i]]))
        x_of_y[i], P_on_y[i] = spline(np.clip(y, psi[0], psi[-1])).T

    rho_stack = -0.5 * corrected_cumulative_trapezoid(P_on_y, h_y)
    int_P_t = corrected_cumulative_trapezoid(_time_stack_derivative(P_on_y, dt), h_y)
    Q_stack = (-0.5 * _fd_first(P_on_y, h_y, -1) + 0.25 * P_on_y**2 + 0.5 * int_P_t
               + prob.c.sample_rows(t_nodes, x_of_y))
    g_stack = prob.f.sample_rows(t_nodes, x_of_y) * np.exp(rho_stack)

    u0_on_y = CubicSpline(x, prob.u0.values)(x_of_y[0])
    v0 = ScalarField(y_grid, np.exp(rho_stack[0]) * u0_on_y)

    return NormalizedProblem(
        y_grid=y_grid,
        t_nodes=tuple(float(t) for t in t_nodes),
        Q_stack=Q_stack,
        g_stack=g_stack,
        rho_stack=rho_stack,
        psi_stack=psi_stack,
        x_of_y=x_of_y,
        v0=v0,
        x_grid=x_grid,
        horizon=prob.horizon,
        edge_clamped=edge_clamped,
    )


def solve_normalized(np_: NormalizedProblem, opts: SeriesOptions | None = None) -> SeriesSolution:
    """Operator-iteration solve of v_t - v_yy + Q v + g = 0 on the y-grid."""
    y_grid = np_.y_grid
    times = np.asarray(np_.t_nodes)
    q_fields = [ScalarField(y_grid, -np_.Q_stack[i]) for i in range(len(times))]
    s_fields = [ScalarField(y_grid, -np_.g_stack[i]) for i in range(len(times))]
    F = Forcing.from_samples(times, q_fields)
    zero_source = bool(np.all(np_.g_stack == 0.0))
    source = None if zero_source else Forcing.from_samples(times, s_fields)
    return solve_controlled_heat(np_.v0, F, np_.horizon, opts, source=source)


def back_transform(v: Trajectory, np_: NormalizedProblem) -> tuple[Trajectory, bool]:
    """u(t, x) = exp(-rho) v pulled back to the x-grid, and the edge flag.

    v and rho are interpolated at y = psi(t, x_node) by one cubic spline in y
    per output time; nodes mapping outside the computed y-range take the edge
    values.  The flag is set when that happened here or in ``normalize``.
    """
    from scipy.interpolate import CubicSpline

    y = np_.y_grid.coords(0)
    t_nodes = np.asarray(np_.t_nodes)
    out = []
    clamped = False
    for t, snap in v:
        psi_t = interpolate_in_time(t_nodes, np_.psi_stack, t)
        rho_t = interpolate_in_time(t_nodes, np_.rho_stack, t)
        if psi_t[0] < y[0] - 1e-12 or psi_t[-1] > y[-1] + 1e-12:
            clamped = True
        spline = CubicSpline(y, np.column_stack([snap.values, rho_t]))
        v_at, rho_at = spline(np.clip(psi_t, y[0], y[-1])).T
        out.append(ScalarField(np_.x_grid, np.exp(-rho_at) * v_at))
    return Trajectory(v.times, tuple(out)), clamped or np_.edge_clamped


@dataclass(frozen=True, eq=False)
class ParabolicSolution:
    u: Trajectory
    v: Trajectory
    series: SeriesSolution
    edge_clamped: bool


def solve_parabolic(prob: ParabolicProblem, opts: SeriesOptions | None = None) -> ParabolicSolution:
    """normalize -> series solve -> back transform, keeping all stages."""
    opts = opts or SeriesOptions()
    np_ = normalize(prob, time_nodes=opts.time_steps)
    sol = solve_normalized(np_, opts)
    v = sol.trajectory
    u, edge_clamped = back_transform(v, np_)
    return ParabolicSolution(u=u, v=v, series=sol, edge_clamped=edge_clamped)
