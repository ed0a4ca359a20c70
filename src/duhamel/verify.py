"""Independent oracles: finite-difference steppers, manufactured solutions
and random smooth test data.

Nothing here shares code with the solver paths it checks: space derivatives
are banded finite-difference matrices (not spectral symbols), and time
marching is Crank-Nicolson or explicit Euler (not Duhamel quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy.sparse import identity as sparse_identity
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

from .fields import ScalarField, Trajectory, VectorField
from .forcing import Forcing
from .grid import Grid

__all__ = [
    "fd_controlled_heat",
    "fd_burgers",
    "ManufacturedCase",
    "make_manufactured",
    "band_limited_field",
    "random_bounded_forcing",
    "random_lipschitz_potential",
]


def _periodic_laplacian_4th(n: int, h: float) -> csc_matrix:
    """4th-order central second-derivative matrix with wrap-around."""
    coeff = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    offsets = [-2, -1, 0, 1, 2]
    mat = diags(
        [np.full(n, c) for c in coeff], offsets, shape=(n, n), format="lil"
    )
    # wrap the stencil corners
    mat[0, n - 1] = coeff[1]
    mat[0, n - 2] = coeff[0]
    mat[1, n - 1] = coeff[0]
    mat[n - 1, 0] = coeff[3]
    mat[n - 1, 1] = coeff[4]
    mat[n - 2, 0] = coeff[4]
    return mat.tocsc()


def fd_controlled_heat(
    G0: ScalarField,
    F: Forcing,
    horizon: float,
    dt: float,
    output_times=None,
) -> Trajectory:
    """Crank-Nicolson oracle for dG/dt = G_xx + F G on a periodic 1D grid.

    Diffusion and the F G reaction term are both treated by the trapezoid
    rule in time (one banded solve per step), giving clean 2nd order in dt.
    """
    grid = G0.grid
    if grid.ndim != 1 or not grid.is_periodic:
        raise ValueError("the Crank-Nicolson oracle runs on periodic 1D grids")
    if not 0 < dt <= horizon:
        raise ValueError("need 0 < dt <= horizon")
    n = grid.points[0]
    lap = _periodic_laplacian_4th(n, grid.spacing[0])
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError("horizon must be an integer number of steps")

    # lhs = I - dt/2 (lap + diag(f_new)): only its diagonal changes per step,
    # so the CSC matrix is built once and its diagonal entries are rewritten
    lhs = sparse_identity(n, format="csc") - 0.5 * dt * lap
    columns = np.repeat(np.arange(n), np.diff(lhs.indptr))
    diagonal = np.flatnonzero(lhs.indices == columns)
    base = lhs.data[diagonal].copy()

    times = [0.0]
    snaps = [G0]
    u = G0.values.copy()
    f_stack = F.sample(grid, [step * dt for step in range(n_steps + 1)])
    for step in range(n_steps):
        t_new = (step + 1) * dt
        f_old, f_new = f_stack[step], f_stack[step + 1]
        rhs = u + 0.5 * dt * (lap @ u + f_old * u)
        lhs.data[diagonal] = base - 0.5 * dt * f_new
        u = splu(lhs).solve(rhs)
        times.append(t_new)
        snaps.append(ScalarField(grid, u))
    traj = Trajectory(tuple(times), tuple(snaps))
    if output_times is None:
        return traj
    keep = [traj.at_time(t) for t in output_times]
    return Trajectory(tuple(float(t) for t in output_times), tuple(keep))


def fd_burgers(u0: ScalarField, horizon: float, dt: float, output_times=None) -> Trajectory:
    """Explicit conservative-form oracle for u_t + u u_x = u_xx (periodic 1D).

    Flux form (u^2/2)_x with central differences conserves the discrete
    momentum exactly; the diffusive CFL condition dt <= 0.9 h^2/2 is enforced.
    """
    grid = u0.grid
    if grid.ndim != 1 or not grid.is_periodic:
        raise ValueError("the Burgers oracle runs on periodic 1D grids")
    h = grid.spacing[0]
    umax = max(u0.max_abs, 1e-12)
    dt_limit = min(0.9 * h * h / 2.0, 0.5 * h / umax)
    if dt > dt_limit:
        raise ValueError(f"dt = {dt:g} violates the CFL budget {dt_limit:g}")
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError("horizon must be an integer number of steps")

    u = u0.values.copy()
    times = [0.0]
    snaps = [u0]
    for step in range(n_steps):
        flux = 0.5 * u * u
        dflux = (np.roll(flux, -1) - np.roll(flux, 1)) / (2.0 * h)
        lap = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (h * h)
        u = u - dt * dflux + dt * lap
        times.append((step + 1) * dt)
        snaps.append(ScalarField(grid, u))
    traj = Trajectory(tuple(times), tuple(snaps))
    if output_times is None:
        return traj
    keep = [traj.at_time(t) for t in output_times]
    return Trajectory(tuple(float(t) for t in output_times), tuple(keep))


# ---------------------------------------------------------------------------
# manufactured solutions


@dataclass(frozen=True, eq=False)
class ManufacturedCase:
    """Prescribed exact solution with the forcing that manufactures it."""

    grid: Grid
    horizon: float
    G0: ScalarField
    F: Forcing
    phi: ScalarField
    source: str
    _g_fn: object
    _u_fns: tuple

    def exact_G(self, t: float) -> ScalarField:
        mesh = self.grid.meshgrid()
        return ScalarField(self.grid, self._g_fn(*mesh, t) * np.ones(self.grid.shape))

    def exact_u(self, t: float) -> VectorField:
        mesh = self.grid.meshgrid()
        ones = np.ones(self.grid.shape)
        return VectorField(self.grid, tuple(fn(*mesh, t) * ones for fn in self._u_fns))


def make_manufactured(expr: str, grid: Grid, horizon: float, time_samples: int = 33) -> ManufacturedCase:
    """Derive F = (dG/dt - Lap G)/G symbolically from a positive G(x, t).

    The expression uses the coefficient grammar over x (, y, z) and t.  A
    dense positivity scan over the space-time box rejects sign changes and
    names a witness point.
    """
    names = ("x", "y", "z")[: grid.ndim]
    syms = sp.symbols(" ".join(names) + " t")
    space = syms[:-1]
    t_sym = syms[-1]
    local = {str(s): s for s in syms}
    g_expr = sp.sympify(expr, locals=local)

    g_fn = sp.lambdify(syms, g_expr, "numpy")
    mesh = grid.meshgrid()
    ones = np.ones(grid.shape)
    worst = (np.inf, None, None)
    for t in np.linspace(0.0, horizon, time_samples):
        vals = g_fn(*mesh, t) * ones
        i = int(np.argmin(vals))
        if vals.flat[i] < worst[0]:
            worst = (float(vals.flat[i]), i, float(t))
    if worst[0] <= 0.0:
        point = tuple(m.flat[worst[1]] for m in mesh)
        raise ValueError(
            f"manufactured G must be strictly positive; G{point + (worst[2],)} = {worst[0]:.4g}"
        )

    f_expr = sp.simplify((sp.diff(g_expr, t_sym) - sum(sp.diff(g_expr, s, 2) for s in space)) / g_expr)
    f_fn = sp.lambdify(syms, f_expr, "numpy")

    forcing = Forcing.from_callable(lambda g, t: f_fn(*g.meshgrid(), t))

    g0_vals = g_fn(*mesh, 0.0) * ones
    u_exprs = [sp.simplify(-2 * sp.diff(g_expr, s) / g_expr) for s in space]
    u_fns = tuple(sp.lambdify(syms, e, "numpy") for e in u_exprs)
    phi_vals = -2.0 * np.log(g0_vals)

    return ManufacturedCase(
        grid=grid,
        horizon=horizon,
        G0=ScalarField(grid, g0_vals),
        F=forcing,
        phi=ScalarField(grid, phi_vals),
        source=expr,
        _g_fn=g_fn,
        _u_fns=u_fns,
    )


# ---------------------------------------------------------------------------
# random smooth test data (seeded)


def band_limited_field(grid: Grid, rng: np.random.Generator, max_mode: int = 3,
                       amplitude: float = 1.0, offset: float = 0.0) -> ScalarField:
    """Random low-mode trigonometric field with |field - offset| <= amplitude."""
    vals = np.zeros(grid.shape)
    for d in range(grid.ndim):
        x = grid.coords(d)
        base = 2.0 * np.pi / grid.extent(d)
        shape = [1] * grid.ndim
        shape[d] = len(x)
        for k in range(1, max_mode + 1):
            amp = rng.normal()
            phase = rng.uniform(0, 2 * np.pi)
            vals = vals + (amp * np.cos(k * base * x + phase)).reshape(shape)
    peak = max(float(np.max(np.abs(vals))), 1e-12)
    return ScalarField(grid, offset + amplitude * vals / peak)


def random_bounded_forcing(grid: Grid, rng: np.random.Generator, horizon: float,
                           bound: float, max_mode: int = 3, key_times: int = 4) -> Forcing:
    """Sampled-stack forcing with |F| <= bound."""
    times = np.linspace(0.0, horizon, key_times)
    fields = [band_limited_field(grid, rng, max_mode, amplitude=bound) for _ in times]
    return Forcing.from_samples(times, fields)


def random_lipschitz_potential(grid: Grid, rng: np.random.Generator, c: float,
                               a: float, n_waves: int = 6):
    """Smooth phi with |grad phi| <= c and phi(0) = a, as a callable.

    Superposition of plane waves whose amplitude-weighted wavenumbers sum to
    at most c, shifted so the value at the origin is exactly a.
    """
    dirs = rng.normal(size=(n_waves, grid.ndim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    freqs = rng.uniform(0.3, 1.5, size=n_waves)
    phases = rng.uniform(0, 2 * np.pi, size=n_waves)
    raw_amps = rng.uniform(0.2, 1.0, size=n_waves)
    budget = float(np.sum(raw_amps * freqs))
    amps = raw_amps * (c / budget) * rng.uniform(0.6, 0.95)

    def phi(*coords):
        out = np.full(np.broadcast(*coords).shape if len(coords) > 1 else np.shape(coords[0]), float(a))
        for m in range(n_waves):
            arg = sum(freqs[m] * dirs[m, d] * coords[d] for d in range(grid.ndim))
            out = out + amps[m] * (np.sin(arg + phases[m]) - np.sin(phases[m]))
        return out

    return phi
