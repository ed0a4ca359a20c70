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
series solver with forcing -Q and source -g.  The reduced problem lives on a
uniform y-grid with the same point count as the x-grid; coefficients are
resampled onto it per time node by cubic-spline interpolation (a monotone
interpolant would flatten the solution at its extrema).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from .fields import ScalarField, Trajectory, derivative
from .expressions import compile_expression
from .forcing import Forcing, evaluate_expression, interpolate_in_time
from .grid import Grid
from .quadrature import corrected_cumulative_trapezoid
from .series import SeriesOptions, SeriesSolution, solve_controlled_heat

__all__ = [
    "Coefficient",
    "ParabolicProblem",
    "CoordinateMap",
    "NormalizedProblem",
    "ParabolicSolution",
    "coordinate_map",
    "normalize",
    "solve_normalized",
    "back_transform",
    "solve_parabolic",
]


class Coefficient:
    """Scalar coefficient of (t, x): constant, expression, or callable."""

    def __init__(self, fn, source=None):
        self._fn = fn
        self.source = source

    @classmethod
    def constant(cls, value: float) -> "Coefficient":
        value = float(value)
        return cls(lambda t, x: np.full_like(x, value), value)

    @classmethod
    def from_expression(cls, source: str) -> "Coefficient":
        expr = compile_expression(source)
        extra = set(expr.variables) - {"x", "t"}
        if extra:
            raise ValueError(f"parabolic coefficients may only use x and t, got {sorted(extra)}")
        return cls(lambda t, x: evaluate_expression(expr, (x,), (t,))[0], source)

    @classmethod
    def from_callable(cls, fn) -> "Coefficient":
        return cls(lambda t, x: np.asarray(fn(t, x), dtype=float) * np.ones_like(x))

    @classmethod
    def make(cls, value) -> "Coefficient":
        if isinstance(value, Coefficient):
            return value
        if isinstance(value, str):
            return cls.from_expression(value)
        if callable(value):
            return cls.from_callable(value)
        return cls.constant(float(value))

    def sample(self, t: float, x: np.ndarray) -> np.ndarray:
        out = self._fn(float(t), np.asarray(x, dtype=float))
        if not np.isfinite(out).all():
            raise ValueError(f"coefficient produced non-finite values at t={t}")
        return out


@dataclass(frozen=True)
class ParabolicProblem:
    """Coefficients, initial state, horizon, and the ellipticity floor.

    ``u0`` fixes the x-grid (1D, truncated free space).  ``A`` must stay
    below ``-ellipticity_min`` on the whole sampled (t, x) box; degenerate
    diffusion is rejected.
    """

    A: Coefficient
    a: Coefficient
    c: Coefficient
    f: Coefficient
    u0: ScalarField
    horizon: float
    ellipticity_min: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "A", Coefficient.make(self.A))
        object.__setattr__(self, "a", Coefficient.make(self.a))
        object.__setattr__(self, "c", Coefficient.make(self.c))
        object.__setattr__(self, "f", Coefficient.make(self.f))
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


def _check_ellipticity(prob: ParabolicProblem, t: float, x: np.ndarray, values: np.ndarray):
    bad = values > -prob.ellipticity_min
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"A(t={t:.6g}, x={x[i]:.6g}) = {values[i]:.6g} violates strict "
            f"ellipticity (need A <= -{prob.ellipticity_min:g})"
        )


class CoordinateMap:
    """psi(t, .) and its inverse, built per time from the diffusion profile."""

    def __init__(self, prob: ParabolicProblem):
        self._prob = prob
        self._x = prob.grid.coords(0)
        self._h = prob.grid.spacing[0]

    def slope(self, t: float) -> np.ndarray:
        """psi_x = sqrt(-1/A) at the x-nodes (exact, no differencing)."""
        avals = self._prob.A.sample(t, self._x)
        _check_ellipticity(self._prob, t, self._x, avals)
        return np.sqrt(-1.0 / avals)

    def psi(self, t: float) -> np.ndarray:
        """y-coordinates of the x-nodes: int_{x_first}^{x} sqrt(-1/A) dz."""
        out = corrected_cumulative_trapezoid(self.slope(t), self._h)
        if np.any(np.diff(out) <= 0):
            raise ValueError(f"psi(t={t}) is not strictly increasing")
        return out

    def inverse(self, t: float, y: np.ndarray) -> np.ndarray:
        """x(t, y) by monotone-cubic interpolation; clamps outside the range."""
        psi = self.psi(t)
        y = np.clip(y, psi[0], psi[-1])
        return PchipInterpolator(psi, self._x)(y)

    def roundtrip_error(self, t: float) -> float:
        return float(np.max(np.abs(self.inverse(t, self.psi(t)) - self._x)))


def coordinate_map(prob: ParabolicProblem) -> CoordinateMap:
    """The (psi, inverse) pair; strict ellipticity is enforced on sampling."""
    cmap = CoordinateMap(prob)
    cmap.psi(0.0)  # validate at the initial time eagerly
    return cmap


@dataclass(frozen=True, eq=False)
class NormalizedProblem:
    """Reduced coefficients Q, g on the fixed y-grid, plus the maps and gauge."""

    y_grid: Grid
    t_nodes: tuple[float, ...]
    Q_stack: np.ndarray  # (n_t, n_y)
    g_stack: np.ndarray
    rho_stack: np.ndarray
    psi_stack: np.ndarray  # (n_t, n_x): psi at the x-nodes
    x_of_y: np.ndarray  # (n_t, n_y)
    v0: ScalarField
    x_grid: Grid
    map: CoordinateMap
    horizon: float
    metadata: dict = field(default_factory=dict)


def _interp(xs: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    return CubicSpline(xs, values)(at)


def _time_stack_derivative(stack: np.ndarray, dt: float) -> np.ndarray:
    """Centered differences along axis 0, one-sided at the ends."""
    out = np.empty_like(stack)
    if stack.shape[0] == 1:
        out[:] = 0.0
        return out
    out[1:-1] = (stack[2:] - stack[:-2]) / (2.0 * dt)
    out[0] = (stack[1] - stack[0]) / dt
    out[-1] = (stack[-1] - stack[-2]) / dt
    if stack.shape[0] >= 3:
        out[0] = (-3.0 * stack[0] + 4.0 * stack[1] - stack[2]) / (2.0 * dt)
        out[-1] = (3.0 * stack[-1] - 4.0 * stack[-2] + stack[-3]) / (2.0 * dt)
    return out


def normalize(prob: ParabolicProblem, time_nodes: int = 64) -> NormalizedProblem:
    """Sample Q, g, rho and the maps on the (t, y) lattice.

    ``time_nodes`` sets the uniform t-sampling; the solver interpolates the
    stacks linearly between nodes, so it should match (or exceed) the series
    time resolution.
    """
    cmap = coordinate_map(prob)
    x_grid = prob.grid
    x = x_grid.coords(0)
    n_x = x_grid.points[0]
    h_x = x_grid.spacing[0]
    t_nodes = np.linspace(0.0, prob.horizon, time_nodes + 1)
    dt = float(t_nodes[1] - t_nodes[0]) if len(t_nodes) > 1 else 1.0

    psi_stack = np.stack([cmap.psi(t) for t in t_nodes])
    psi0 = psi_stack[0]

    # fixed y-grid spanning the t=0 image, same point count as the x-grid
    h_y = (psi0[-1] - psi0[0]) / (n_x - 1)
    y_grid = Grid((n_x,), (h_y,), (psi0[0] - 0.5 * h_y,), x_grid.boundary)
    y = y_grid.coords(0)

    psi_t_stack = _time_stack_derivative(psi_stack, dt)

    edge_clamped = False
    x_of_y = np.empty((len(t_nodes), n_x))
    P_on_y = np.empty((len(t_nodes), n_x))
    c_on_y = np.empty((len(t_nodes), n_x))
    f_on_y = np.empty((len(t_nodes), n_x))
    for i, t in enumerate(t_nodes):
        psi_t_x = psi_stack[i]
        if y[0] < psi_t_x[0] - 1e-12 or y[-1] > psi_t_x[-1] + 1e-12:
            edge_clamped = True
        x_of_y[i] = _interp(psi_t_x, x, np.clip(y, psi_t_x[0], psi_t_x[-1]))
        slope = cmap.slope(t)
        slope_field = ScalarField(x_grid, slope)
        psi_xx = derivative(slope_field, 0).values
        P_x = psi_t_stack[i] + prob.A.sample(t, x) * psi_xx + prob.a.sample(t, x) * slope
        P_on_y[i] = _interp(psi_t_x, P_x, np.clip(y, psi_t_x[0], psi_t_x[-1]))
        c_on_y[i] = prob.c.sample(t, x_of_y[i])
        f_on_y[i] = prob.f.sample(t, x_of_y[i])

    P_t_on_y = _time_stack_derivative(P_on_y, dt)
    rho_stack = np.empty_like(P_on_y)
    Q_stack = np.empty_like(P_on_y)
    g_stack = np.empty_like(P_on_y)
    for i in range(len(t_nodes)):
        P_field = ScalarField(y_grid, P_on_y[i])
        P_y = derivative(P_field, 0).values
        int_P_t = corrected_cumulative_trapezoid(P_t_on_y[i], h_y)
        rho_stack[i] = -0.5 * corrected_cumulative_trapezoid(P_on_y[i], h_y)
        Q_stack[i] = -0.5 * P_y + 0.25 * P_on_y[i] ** 2 + 0.5 * int_P_t + c_on_y[i]
        g_stack[i] = f_on_y[i] * np.exp(rho_stack[i])

    u0_on_y = _interp(x, prob.u0.values, x_of_y[0])
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
        map=cmap,
        horizon=prob.horizon,
        metadata={"edge_clamped": edge_clamped},
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


def back_transform(v: Trajectory, np_: NormalizedProblem) -> Trajectory:
    """u(t, x) = exp(-rho) v pulled back to the x-grid.

    v and rho are interpolated (cubic spline in y) at y = psi(t, x_node);
    nodes mapping outside the computed y-range take the edge values and are
    flagged in the metadata.
    """
    x = np_.x_grid.coords(0)
    y = np_.y_grid.coords(0)
    t_nodes = np.asarray(np_.t_nodes)
    out = []
    clamped = False
    for t, snap in v:
        psi_t = interpolate_in_time(t_nodes, np_.psi_stack, t)
        rho_t = interpolate_in_time(t_nodes, np_.rho_stack, t)
        y_of_x = np.clip(psi_t, y[0], y[-1])
        if psi_t[0] < y[0] - 1e-12 or psi_t[-1] > y[-1] + 1e-12:
            clamped = True
        v_at = _interp(y, snap.values, y_of_x)
        rho_at = _interp(y, rho_t, y_of_x)
        out.append(ScalarField(np_.x_grid, np.exp(-rho_at) * v_at))
    meta = dict(v.metadata)
    meta["edge_clamped"] = clamped or np_.metadata.get("edge_clamped", False)
    return Trajectory(v.times, tuple(out), metadata=meta)


@dataclass(frozen=True, eq=False)
class ParabolicSolution:
    u: Trajectory
    v: Trajectory
    normalized: NormalizedProblem
    series: SeriesSolution


def solve_parabolic(prob: ParabolicProblem, opts: SeriesOptions | None = None) -> ParabolicSolution:
    """normalize -> series solve -> back transform, keeping all stages."""
    opts = opts or SeriesOptions()
    np_ = normalize(prob, time_nodes=opts.time_steps)
    sol = solve_normalized(np_, opts)
    v = sol.trajectory
    u = back_transform(v, np_)
    return ParabolicSolution(u=u, v=v, normalized=np_, series=sol)
