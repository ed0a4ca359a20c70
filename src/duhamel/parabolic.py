"""Normalization of 1D parabolic equations onto the series machinery.

The input problem is

    u_t + A(t,x) u_xx + a(t,x) u_x + c(t,x) u + f(t,x) = 0,   A <= -A_MIN < 0.

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
whole ``(n_t+1, n)`` lattice stacks over the series' own time nodes
(``SeriesOptions.nodes``): each coefficient is sampled once over all of them
with ``Forcing.sample_rows`` (c and f on the moving nodes x(t, y)), and psi,
P, rho, Q and g are computed as stacks (x-derivatives by the free-space
stencil and integrals by the corrected trapezoid, which takes its endpoint
slopes from that stencil, both from ``fields`` and along the last axis;
t-derivatives by ``np.gradient`` along the first).  The reduced problem lives
on a uniform y-grid with the same point count as the x-grid.  The resampling
between the x- and y-grids is piecewise cubic Hermite interpolation
(``_splines``), one interpolant per knot set and column, and every knot set of
a stage is resampled in one call: (x, P) over psi at all time nodes in
``normalize``, u0 over x, and (v, rho) over y at all output times in
``back_transform``, which reads psi and rho from the node rows of those times.
The knot slopes are finite differences along the knot index (sixth order
inside and the fourth-order free-space stencil near the ends; central weights
as in Fornberg, Math. Comp. 51, 1988), divided by the knots' exact rate: the
spacing for the uniform x and y knots, psi_x h_x for the psi knots.  No system
is solved.  A monotone interpolant would flatten the solution at its extrema.

``normalize`` checks psi, then x(y) and P(y), then rho, Q, g and v0 for finite
values as each is formed, naming the first that overflows; ``solve_normalized``
hands -Q and -g to the series as node stacks (``Forcing.from_samples``).
"""


from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import Expression, compile_expression
from .fields import ScalarField, Trajectory, _fd_first, corrected_cumulative_trapezoid
from .forcing import Forcing
from .grid import Grid
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

# the strict-ellipticity floor: A must stay at or below -A_MIN
A_MIN = 1e-8


@dataclass(frozen=True)
class ParabolicProblem:
    """The coefficients, initial state and horizon.

    Each coefficient is anything ``Forcing.make`` takes; an expression may
    use only x and t.  ``u0`` fixes the x-grid (1D, truncated free space).
    ``A`` must stay at or below ``-A_MIN`` on the whole sampled (t, x) box;
    degenerate diffusion is rejected.
    """

    A: Forcing
    a: Forcing
    c: Forcing
    f: Forcing
    u0: ScalarField
    horizon: float

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
    edge_clamped: bool = False


def _time_stack_derivative(stack: np.ndarray, dt: float) -> np.ndarray:
    """d/dt along axis 0 by ``np.gradient``: centred differences, second-order
    one-sided at the ends (first order when there are only two nodes)."""
    return np.gradient(stack, dt, axis=0, edge_order=min(2, len(stack) - 1))


def _splines(knots: np.ndarray, values: np.ndarray, points: np.ndarray, rate: float | np.ndarray) -> np.ndarray:
    """Cubic Hermite pieces through ``values`` at ``knots``, read at ``points``.

    ``knots`` is (R, n), one strictly increasing knot set per row, or (n,)
    when the rows share one (n >= 5); ``values`` is (R, n, C), C columns per
    row, and ``points`` is (R, m).  ``rate`` is dk/di, the knots' derivative
    along their index: the spacing of uniform knots, or an (R, n) array.
    Returns (R, m, C).  Points are clipped to their row's knot range, so
    points outside it take the edge values.

    The knot slopes are dv/dk = (dv/di)/(dk/di), with dv/di by finite
    differences along the knot index: the sixth-order central difference
    inside, and ``_fd_first``'s fourth-order stencils at the three nodes
    nearest each end.  Cubics on uniform knots are exact; no system is solved.
    """
    rows, n, cols = values.shape
    knots = np.broadcast_to(knots, (rows, n))
    h = np.diff(knots, axis=1)[..., None]
    slope = np.diff(values, axis=1) / h
    deriv = np.empty_like(values)
    deriv[:, 3:-3] = (45.0 * (values[:, 4:-2] - values[:, 2:-4]) - 9.0 * (values[:, 5:-1] - values[:, 1:-5])
                      + (values[:, 6:] - values[:, :-6])) / 60.0
    deriv[:, :3] = _fd_first(values[:, :5], 1.0, 1)[:, :3]
    deriv[:, -3:] = _fd_first(values[:, -5:], 1.0, 1)[:, -3:]
    deriv /= np.asarray(rate)[..., None]

    # piece j on [k_j, k_j+1] is values_j + s (deriv_j + s (quad + s cubic)), s = p - k_j
    cubic = (deriv[:, :-1] + deriv[:, 1:] - 2.0 * slope) / h**2
    quad = (slope - deriv[:, :-1]) / h - cubic * h
    pieces = np.stack([values[:, :-1], deriv[:, :-1], quad, cubic]).reshape(4, -1, cols)

    # one search over the rows laid end to end, row r shifted past row r-1.
    # Rounding the shift is monotone, so it can only move a point lying within
    # an ulp below a knot onto that knot's piece, where the two pieces agree.
    row = np.arange(rows)[:, None]
    points = np.clip(points, knots[:, :1], knots[:, -1:])
    shift = 2.0 * np.max(knots[:, -1] - knots[:, 0]) * row - knots[:, :1]
    piece = np.searchsorted((knots[:, 1:-1] + shift).ravel(), points + shift, side="right") + row
    s = (points - np.take(knots, piece + row))[..., None]
    # Horner's rule in place, gathering one coefficient at a time
    out = np.take(pieces[3], piece, axis=0)
    for c in (2, 1, 0):
        out *= s
        out += np.take(pieces[c], piece, axis=0)
    return out


def _require_finite(stage: str, times, *named: tuple[str, np.ndarray]) -> None:
    """Raise ``FloatingPointError`` at the first named stack with a non-finite
    row, naming the stage, the stack and the time of that row."""
    for name, stack in named:
        finite = np.isfinite(stack).all(axis=-1)
        if not finite.all():
            raise FloatingPointError(f"{stage}: {name} overflows at t={times[np.argmin(finite)]:g}")


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def normalize(prob: ParabolicProblem, opts: SeriesOptions | None = None) -> NormalizedProblem:
    """Sample Q, g, rho and the maps on the (t, y) lattice.

    The t-nodes are those of the series solve, ``opts.nodes(prob.horizon)``,
    so every output time of that solve is a lattice row.  A stack that
    overflows raises ``FloatingPointError``, naming it and its first time.
    """
    x_grid = prob.grid
    x = x_grid.coords(0)
    n_x = x_grid.points[0]
    h_x = x_grid.spacing[0]
    t_nodes = (opts or SeriesOptions()).nodes(prob.horizon)
    dt = float(t_nodes[1] - t_nodes[0])

    A = prob.A.sample_rows(t_nodes, x)
    bad = A > -A_MIN
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(
            f"A(t={t_nodes[i]:.6g}, x={x[j]:.6g}) = {A[i, j]:.6g} violates strict "
            f"ellipticity (need A <= -{A_MIN:g})"
        )
    # psi_x = sqrt(-1/A) exactly; psi = int_{x_first}^{x} psi_x dz
    slope = np.sqrt(-1.0 / A)
    psi_stack = corrected_cumulative_trapezoid(slope, h_x)
    _require_finite("normalize", t_nodes, ("psi", psi_stack))
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
    columns = np.stack([np.broadcast_to(x, P_x.shape), P_x], axis=-1)
    # dpsi/di = psi_x h_x exactly
    resampled = _splines(psi_stack, columns, np.broadcast_to(y, P_x.shape), slope * h_x)
    x_of_y, P_on_y = np.moveaxis(resampled, -1, 0)
    _require_finite("normalize", t_nodes, ("x(y)", x_of_y), ("P(y)", P_on_y))

    rho_stack = -0.5 * corrected_cumulative_trapezoid(P_on_y, h_y)
    int_P_t = corrected_cumulative_trapezoid(_time_stack_derivative(P_on_y, dt), h_y)
    Q_stack = (-0.5 * _fd_first(P_on_y, h_y, -1) + 0.25 * P_on_y**2 + 0.5 * int_P_t
               + prob.c.sample_rows(t_nodes, x_of_y))
    g_stack = prob.f.sample_rows(t_nodes, x_of_y) * np.exp(rho_stack)

    u0_on_y = _splines(x, prob.u0.values[None, :, None], x_of_y[:1], h_x)[0, :, 0]
    v0 = np.exp(rho_stack[0]) * u0_on_y
    _require_finite("normalize", t_nodes, ("rho", rho_stack), ("Q", Q_stack), ("g = f exp(rho)", g_stack),
                    ("v0 = u0 exp(rho)", v0[None]))

    return NormalizedProblem(
        y_grid=y_grid,
        t_nodes=tuple(float(t) for t in t_nodes),
        Q_stack=Q_stack,
        g_stack=g_stack,
        rho_stack=rho_stack,
        psi_stack=psi_stack,
        x_of_y=x_of_y,
        v0=ScalarField(y_grid, v0),
        x_grid=x_grid,
        edge_clamped=edge_clamped,
    )


def solve_normalized(np_: NormalizedProblem, opts: SeriesOptions | None = None) -> SeriesSolution:
    """Operator-iteration solve of v_t - v_yy + Q v + g = 0 on the y-grid."""
    F = Forcing.from_samples(np_.y_grid, np_.t_nodes, -np_.Q_stack)
    source = Forcing.from_samples(np_.y_grid, np_.t_nodes, -np_.g_stack) if np_.g_stack.any() else None
    return solve_controlled_heat(np_.v0, F, np_.t_nodes[-1], opts, source=source)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def back_transform(v: Trajectory, np_: NormalizedProblem) -> tuple[Trajectory, bool]:
    """u(t, x) = exp(-rho) v pulled back to the x-grid, and the edge flag.

    Every time of ``v`` must be one of ``np_.t_nodes``; psi and rho are read
    from that node's row.  v and rho are interpolated at y = psi(t, x_node)
    by cubic Hermite pieces in y, all output times in one ``_splines`` call;
    nodes mapping outside the computed y-range take the edge values.  The
    flag is set when that happened here or in ``normalize``.  A u that
    overflows raises ``FloatingPointError`` naming its first time.
    """
    y = np_.y_grid.coords(0)
    off = [t for t in v.times if t not in np_.t_nodes]
    if off:
        raise ValueError(f"output time {off[0]} is not a node of the normalized problem")
    rows = [np_.t_nodes.index(t) for t in v.times]
    psi, rho = np_.psi_stack[rows], np_.rho_stack[rows]
    columns = np.stack([v.values, rho], axis=-1)
    v_at, rho_at = np.moveaxis(_splines(y, columns, psi, np_.y_grid.spacing[0]), -1, 0)
    clamped = bool(np.any(psi[:, 0] < y[0] - 1e-12) or np.any(psi[:, -1] > y[-1] + 1e-12))
    u = np.exp(-rho_at) * v_at
    _require_finite("back_transform", v.times, ("u = exp(-rho) v", u))
    return Trajectory(np_.x_grid, v.times, u), clamped or np_.edge_clamped


@dataclass(frozen=True, eq=False)
class ParabolicSolution:
    u: Trajectory
    series: SeriesSolution
    edge_clamped: bool


def solve_parabolic(prob: ParabolicProblem, opts: SeriesOptions | None = None) -> ParabolicSolution:
    """normalize -> series solve -> back transform, keeping all stages."""
    opts = opts or SeriesOptions()
    np_ = normalize(prob, opts)
    sol = solve_normalized(np_, opts)
    u, edge_clamped = back_transform(sol.trajectory, np_)
    return ParabolicSolution(u=u, series=sol, edge_clamped=edge_clamped)
